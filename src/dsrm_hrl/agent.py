"""Two-level policy: a manager emitting accuracy/fairness weights from the
(purified) user state and a parameter-free worker scoring items under
those weights, trained with PPO + GAE. FLAT (fixed weights) and raw-state
ablation variants share the same rollout machinery."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import HrlConfig
from .diffusion import Denoiser, DiffusionSchedule, purify
from .env import RecEnv, SessionOutcome
from .metrics import gini
from .nn import Adam, Mlp

LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0
_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class ManagerAction:
    omega_acc: float
    omega_fair: float


def softplus(x):
    return np.logaddexp(0.0, x)


def log_sigmoid(x):
    # log of d softplus / dx
    return -softplus(-x)


class ManagerPolicy:
    """Diagonal-Gaussian policy on the pre-squash plane; actions are
    softplus-squashed so both weights stay non-negative. The log-std vector
    is state-independent and clamped to [-5, 2]."""

    def __init__(self, d: int, hidden=(64, 64), rng=None):
        self.net = Mlp([d, *hidden, 2], activation="tanh", rng=rng)
        self.log_std = np.zeros(2)

    def parameters(self):
        params = {f"net.{k}": v for k, v in self.net.parameters().items()}
        params["log_std"] = self.log_std
        return params

    def _clamped_log_std(self):
        return np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX)

    def act(self, state: np.ndarray, rng: np.random.Generator | None = None,
            greedy: bool = False):
        """Returns (ManagerAction, log_prob, pre_squash_sample)."""
        mean, _ = self.net.forward(state)
        if not np.all(np.isfinite(mean)):
            raise FloatingPointError("manager policy produced non-finite output")
        if greedy:
            u = mean.copy()
        else:
            if rng is None:
                raise ValueError("sampling requires an rng")
            log_std = self._clamped_log_std()
            u = mean + np.exp(log_std) * rng.standard_normal(2)
        lp = self._log_density(mean, u)
        omega = softplus(u)
        return ManagerAction(float(omega[0]), float(omega[1])), float(lp), u

    def _log_density(self, mean: np.ndarray, u: np.ndarray):
        """log_prob given the Gaussian mean(s) instead of the state. Sums over
        the last axis, so it takes one action or a batch."""
        log_std = self._clamped_log_std()
        var = np.exp(2 * log_std)
        gauss = -0.5 * np.sum((u - mean) ** 2 / var + 2 * log_std + _LOG_2PI, axis=-1)
        return gauss - np.sum(log_sigmoid(u), axis=-1)

    def log_prob(self, state: np.ndarray, u: np.ndarray) -> float:
        """Density of the squashed action evaluated at pre-squash point u:
        Gaussian log-density minus the log-Jacobian of the softplus."""
        mean, _ = self.net.forward(state)
        return float(self._log_density(mean, u))

    def log_prob_batch(self, states: np.ndarray, us: np.ndarray):
        """Batched log-probs plus the forward cache needed for backprop."""
        means, cache = self.net.forward(states)
        return self._log_density(means, us), means, cache

    def entropy(self) -> float:
        log_std = self._clamped_log_std()
        return float(np.sum(log_std + 0.5 * (1.0 + _LOG_2PI)))


class ValueNet:
    def __init__(self, d: int, hidden=(64, 64), rng=None):
        self.net = Mlp([d, *hidden, 1], activation="tanh", rng=rng)

    def value(self, state: np.ndarray) -> float:
        y, _ = self.net.forward(state)
        return float(y[0])


def score_items(state_vec: np.ndarray, action: ManagerAction, catalog) -> np.ndarray:
    """Per-item score: omega_acc * cosine(state, embedding)
    - omega_fair * log(1 + cumulative exposure)."""
    norm = np.linalg.norm(state_vec)
    if norm < 1e-12:
        sim = np.zeros(catalog.n_items)
    else:
        sim = catalog.embeddings @ (state_vec / norm)
    scores = action.omega_acc * sim - action.omega_fair * np.log1p(catalog.exposure)
    if not np.all(np.isfinite(scores)):
        raise FloatingPointError("non-finite item scores")
    return scores


def select_slate(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k by score, ties broken by lower item id. Partial selection: only
    the items at or above the k-th best score (all ties included, in id
    order) are sorted, so the cost is O(n) plus a sort of about k items."""
    n = len(scores)
    if not 0 <= k <= n:
        raise ValueError(f"slate size {k} outside [0, catalog size {n}]")
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite item scores")
    neg = -scores
    kth = np.partition(neg, k - 1)[k - 1]
    candidates = np.flatnonzero(neg <= kth)
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


def shaped_reward(r: float, episode_exposure: np.ndarray, lambda_fair: float) -> float:
    """Manager reward: environment reward minus lambda * Gini of the
    episode's exposure counts so far."""
    return float(r - lambda_fair * gini(episode_exposure))


def compute_gae(rewards, values, dones, gamma: float, lam: float,
                normalize: bool = True):
    """Generalized advantage estimation over (possibly multi-episode)
    step arrays; the value after a terminal step is 0."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    n = len(rewards)
    if n == 0:
        raise ValueError("empty trajectory")
    adv = np.zeros(n)
    last = 0.0
    for t in reversed(range(n)):
        next_v = 0.0 if dones[t] else (values[t + 1] if t + 1 < n else 0.0)
        delta = rewards[t] + gamma * next_v - values[t]
        last = delta + gamma * lam * (0.0 if dones[t] else last)
        adv[t] = last
    returns = adv + values
    if normalize and n >= 2:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    return adv, returns


@dataclass
class Trajectory:
    states: list = field(default_factory=list)
    pre_squash: list = field(default_factory=list)
    log_probs: list = field(default_factory=list)
    env_rewards: list = field(default_factory=list)
    shaped_rewards: list = field(default_factory=list)
    values: list = field(default_factory=list)
    dones: list = field(default_factory=list)

    def __len__(self):
        return len(self.states)

    def extend(self, other: "Trajectory"):
        for name in ("states", "pre_squash", "log_probs", "env_rewards",
                     "shaped_rewards", "values", "dones"):
            getattr(self, name).extend(getattr(other, name))


def value_step(value_net: ValueNet, opt_value: Adam, states: np.ndarray,
               returns: np.ndarray) -> float:
    """One Adam step of squared-error regression of the value net to the
    returns. Returns the loss before the step."""
    vpred, vcache = value_net.net.forward(states)
    verr = vpred[:, 0] - returns
    vloss = float(np.mean(verr**2))
    vgrads, _ = value_net.net.backward(vcache, (2.0 * verr / len(states))[:, None])
    opt_value.step(value_net.net.parameters(), vgrads)
    return vloss


def ppo_update(policy: ManagerPolicy, value_net: ValueNet, opt_policy: Adam,
               opt_value: Adam, states, pre_squash, old_log_probs, advantages,
               returns, cfg: HrlConfig):
    """One round of clipped-surrogate PPO epochs on a fixed batch. The
    worker has no learned parameters, so manager and worker gradients are
    structurally separate. Returns per-epoch stats."""
    states = np.asarray(states, dtype=np.float64)
    us = np.asarray(pre_squash, dtype=np.float64)
    old_lp = np.asarray(old_log_probs, dtype=np.float64)
    adv = np.asarray(advantages, dtype=np.float64)
    ret = np.asarray(returns, dtype=np.float64)
    b = len(states)
    stats = []
    dropped = 0
    for _ in range(cfg.ppo_epochs):
        lps, means, cache = policy.log_prob_batch(states, us)
        ratio = np.exp(lps - old_lp)
        ok = np.isfinite(ratio)
        dropped += int(np.sum(~ok))
        ratio = np.where(ok, ratio, 1.0)
        adv_ok = np.where(ok, adv, 0.0)
        unclipped = ratio * adv_ok
        clipped = np.clip(ratio, 1 - cfg.clip_eps, 1 + cfg.clip_eps) * adv_ok
        surrogate = float(np.mean(np.minimum(unclipped, clipped)))
        entropy = policy.entropy()

        # Gradient of the (maximized) objective wrt each sample's log-prob:
        # flows only where the unclipped branch is active.
        active = unclipped <= clipped
        dlp = np.where(active, ratio * adv_ok, 0.0) / b

        log_std = policy._clamped_log_std()
        var = np.exp(2 * log_std)
        diff = us - means
        dmean = dlp[:, None] * (diff / var)              # dlp/dmean
        dlogstd = (dlp[:, None] * (diff**2 / var - 1.0)).sum(axis=0)
        dlogstd += cfg.entropy_coef * np.ones(2)         # entropy bonus
        # Zero gradient where the clamp is saturated.
        dlogstd *= ((policy.log_std > LOG_STD_MIN) & (policy.log_std < LOG_STD_MAX))

        net_grads, _ = policy.net.backward(cache, -dmean)  # minimize -objective
        grads = {f"net.{k}": v for k, v in net_grads.items()}
        grads["log_std"] = -dlogstd
        opt_policy.step(policy.parameters(), grads)

        vloss = value_step(value_net, opt_value, states, ret)
        stats.append({"surrogate": surrogate, "value_loss": vloss,
                      "entropy": entropy, "dropped": dropped})
    return stats


class Agent:
    """Bundles the policy pieces for one variant and runs episodes."""

    def __init__(self, cfg: HrlConfig, d: int, denoiser: Denoiser | None = None,
                 schedule: DiffusionSchedule | None = None, seed: int = 0):
        self.cfg = cfg
        self.variant = cfg.variant
        self.denoiser = denoiser
        self.schedule = schedule
        rng = np.random.default_rng([seed, 1])
        self.policy = ManagerPolicy(d, hidden=tuple(cfg.hidden), rng=rng)
        self.value_net = ValueNet(d, hidden=tuple(cfg.hidden), rng=rng)
        if self.variant == "DSRM-HRL" and denoiser is None:
            raise ValueError("variant DSRM-HRL requires a trained denoiser")

    def policy_state(self, observed_vec: np.ndarray) -> np.ndarray:
        """The purified state, or the raw one for HRL-RAW and for FLAT
        without a denoiser."""
        if self.variant == "HRL-RAW" or self.denoiser is None:
            return np.asarray(observed_vec, dtype=np.float64)
        return purify(observed_vec, self.denoiser, self.schedule)

    def manager_action(self, state: np.ndarray, rng, greedy: bool, step: int,
                       held: tuple | None):
        if self.variant == "FLAT":
            action = ManagerAction(self.cfg.flat_omega_acc, self.cfg.flat_omega_fair)
            return action, 0.0, np.zeros(2), held
        if held is not None and step % self.cfg.manager_interval != 0:
            return held[0], held[1], held[2], held
        action, lp, u = self.policy.act(state, rng=rng, greedy=greedy)
        return action, lp, u, (action, lp, u)

    def run_episode(self, env: RecEnv, session_seed: int, rng,
                    mode: str = "train") -> tuple[SessionOutcome, Trajectory]:
        """One session. Train mode samples actions and records the PPO
        trajectory (values, shaped rewards); eval mode acts greedily, does
        inference only and returns an empty Trajectory."""
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown episode mode {mode!r}")
        train = mode == "train"
        obs = env.reset(session_seed)
        traj = Trajectory()
        if train:
            episode_exposure = np.zeros(env.catalog.n_items)
        rewards_log, slates_log = [], []
        held = None
        done = False
        step = 0
        while not done:
            state = self.policy_state(obs.vec)
            action, lp, u, held = self.manager_action(state, rng, not train,
                                                      step, held)
            scores = score_items(state, action, env.catalog)
            slate = select_slate(scores, env.config.slate_k)
            item_rewards, obs, done = env.step(slate)
            r_t = float(np.mean(item_rewards))
            if train:
                episode_exposure[slate] += 1
                traj.states.append(state)
                traj.pre_squash.append(u)
                traj.log_probs.append(lp)
                traj.env_rewards.append(r_t)
                traj.shaped_rewards.append(
                    shaped_reward(r_t, episode_exposure, self.cfg.lambda_fair))
                traj.values.append(self.value_net.value(state))
                traj.dones.append(done)
            rewards_log.append(r_t)
            slates_log.append(slate.tolist())
            step += 1
        outcome = SessionOutcome(length=step, rewards=rewards_log,
                                 exposure_log=slates_log,
                                 terminated_by_abandonment=env.abandoned)
        return outcome, traj


class Trainer:
    """Stage-two PPO training loop over a fixed env-step budget."""

    def __init__(self, env: RecEnv, agent: Agent, cfg: HrlConfig, seed: int = 0):
        self.env = env
        self.agent = agent
        self.cfg = cfg
        self.seed = seed
        self.rng = np.random.default_rng([seed, 2])
        self.opt_policy = Adam(agent.policy.parameters(), lr=cfg.lr_policy)
        self.opt_value = Adam(agent.value_net.net.parameters(), lr=cfg.lr_value)
        self._session_counter = 0

    def next_train_seed(self) -> int:
        self._session_counter += 1
        return self.seed * 100_000 + self._session_counter

    def train(self, log_rows: list | None = None):
        """Run to the configured step budget; returns outcomes of all
        training episodes. Appends per-update log rows if a list is given."""
        steps_done = 0
        update_idx = 0
        all_outcomes = []
        while steps_done < self.cfg.total_steps:
            batch = Trajectory()
            batch_adv, batch_ret = [], []
            while len(batch) < self.cfg.batch_steps and steps_done < self.cfg.total_steps:
                outcome, traj = self.agent.run_episode(
                    self.env, self.next_train_seed(), self.rng, mode="train")
                adv, ret = compute_gae(traj.shaped_rewards, traj.values, traj.dones,
                                       self.cfg.gamma, self.cfg.lam_gae,
                                       normalize=False)
                batch.extend(traj)
                batch_adv.extend(adv)
                batch_ret.extend(ret)
                steps_done += len(traj)
                all_outcomes.append(outcome)
            adv = np.asarray(batch_adv)
            if len(adv) >= 2:
                adv = (adv - adv.mean()) / (adv.std() + 1e-8)
            if self.cfg.variant == "FLAT":
                # Fixed manager weights: only the value baseline is learned.
                stats = self._value_only_update(batch, batch_ret)
            else:
                stats = ppo_update(self.agent.policy, self.agent.value_net,
                                   self.opt_policy, self.opt_value,
                                   batch.states, batch.pre_squash, batch.log_probs,
                                   adv, batch_ret, self.cfg)
            update_idx += 1
            if log_rows is not None:
                omegas = np.array([[softplus(u[0]), softplus(u[1])]
                                   for u in batch.pre_squash]) \
                    if self.cfg.variant != "FLAT" else \
                    np.array([[self.cfg.flat_omega_acc, self.cfg.flat_omega_fair]])
                last = stats[-1]
                log_rows.append({
                    "update": update_idx,
                    "surrogate": last["surrogate"],
                    "value_loss": last["value_loss"],
                    "entropy": last["entropy"],
                    "mean_omega_acc": float(np.mean(omegas[:, 0])),
                    "mean_omega_fair": float(np.mean(omegas[:, 1])),
                })
        return all_outcomes

    def _value_only_update(self, batch: Trajectory, returns):
        states = np.asarray(batch.states, dtype=np.float64)
        ret = np.asarray(returns, dtype=np.float64)
        return [{"surrogate": 0.0,
                 "value_loss": value_step(self.agent.value_net, self.opt_value,
                                          states, ret),
                 "entropy": 0.0, "dropped": 0}
                for _ in range(self.cfg.ppo_epochs)]


def evaluate(env: RecEnv, agent: Agent, episodes: int, base_seed: int,
             seed_offset: int = 10_000) -> list[SessionOutcome]:
    """Greedy evaluation on a session-seed range disjoint from training."""
    rng = np.random.default_rng([base_seed, 3])
    outcomes = []
    for i in range(episodes):
        outcome, _ = agent.run_episode(env, seed_offset + base_seed * 100_000 + i,
                                       rng, mode="eval")
        outcomes.append(outcome)
    return outcomes
