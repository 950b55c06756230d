"""Two-level policy: a manager emitting accuracy/fairness weights from the
(purified) user state and a parameter-free worker scoring items under
those weights, trained with PPO + GAE. FLAT (fixed weights) and raw-state
ablation variants share the same rollout machinery."""

from __future__ import annotations

import math

import numpy as np

from .config import EVAL_SEED_OFFSET, HrlConfig
from .diffusion import Denoiser, ReverseChain, purify
from .env import RecEnv, SessionOutcome
from .metrics import gini
from .nn import Adam, Flat, Mlp, layer_shapes

LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0
_LOG_2PI = np.log(2.0 * np.pi)
# Stage II's log columns, one row per update: its number, ppo_update's
# surrogate, the critic's loss before its last step, ppo_update's entropy
# (both of its last epoch; 0 for FLAT) and the batch's mean manager weights.
TRAIN_LOG = ("update", "surrogate", "value_loss", "entropy", "mean_omega_acc", "mean_omega_fair")


def softplus(x):
    return np.logaddexp(0.0, x)


class ManagerPolicy:
    """Diagonal-Gaussian policy on the pre-squash plane; actions are
    softplus-squashed so both weights stay non-negative. The log-std vector
    is state-independent and clamped to [-5, 2]."""

    def __init__(self, d: int, hidden, rng):
        sizes = [d, *hidden, 2]
        self._shapes = {**{f"net.{k}": s for k, s in layer_shapes(sizes).items()},
                        "log_std": (2,)}
        self._params = Flat.over(self._shapes)
        self.net = Mlp(sizes, rng=rng, vector=self._params.vector[:-2])
        self.log_std = self._params["log_std"]

    def parameters(self) -> Flat:
        """The net's parameters ("net."-prefixed), then log_std: one vector."""
        return self._params

    def gradients(self, acts, means, us, dlp, entropy_coef: float) -> Flat:
        """Gradients, laid out as parameters(), of -(sum(dlp * log_density(means,
        us)) + entropy_coef * entropy()): dlp is the objective's derivative wrt
        each sample's log-density, acts the activations of the forward that
        made means. None flows to log_std where its clamp is saturated."""
        log_std = self._clamped_log_std()
        var = np.exp(2 * log_std)
        diff = us - means
        dmean = dlp[:, None] * (diff / var)
        dlogstd = (dlp[:, None] * (diff**2 / var - 1.0)).sum(axis=0)
        dlogstd += entropy_coef  # entropy bonus
        dlogstd *= (self.log_std > LOG_STD_MIN) & (self.log_std < LOG_STD_MAX)
        grads = Flat.over(self._shapes, np.empty(self._params.vector.size))
        self.net.backward(acts, -dmean, out=grads.vector[:-2])
        grads["log_std"][...] = -dlogstd
        return grads

    def _clamped_log_std(self):
        return np.minimum(np.maximum(self.log_std, LOG_STD_MIN), LOG_STD_MAX)

    def act(self, state: np.ndarray, rng: np.random.Generator | None):
        """Returns (omega, mean, u): the Gaussian mean, the pre-squash point u
        (a sample drawn from rng, or the mean when rng is None) and the
        weights omega = softplus(u) = (accuracy, fairness); u's log-prob is
        log_density(mean, u)."""
        mean = self.net.forward(state[None])[0][0]
        if not np.isfinite(mean).all():
            raise FloatingPointError("manager policy produced non-finite output")
        if rng is None:
            u = mean.copy()
        else:
            u = mean + np.exp(self._clamped_log_std()) * rng.standard_normal(2)
        return softplus(u), mean, u

    def log_density(self, mean: np.ndarray, u: np.ndarray):
        """log_prob given the Gaussian mean(s) instead of the states. Sums over
        the last axis, so it takes one action or a batch."""
        log_std = self._clamped_log_std()
        var = np.exp(2 * log_std)
        gauss = -0.5 * np.sum((u - mean) ** 2 / var + 2 * log_std + _LOG_2PI, axis=-1)
        return gauss + np.sum(softplus(-u), axis=-1)  # log d softplus/du = -softplus(-u)

    def log_prob(self, states: np.ndarray, us: np.ndarray):
        """Densities of the squashed actions at pre-squash points us (B, 2),
        Gaussian log-density minus the log-Jacobian of the softplus, with
        the means and the forward's activations for backprop."""
        means, acts = self.net.forward(states)
        return self.log_density(means, us), means, acts

    def entropy(self) -> float:
        log_std = self._clamped_log_std()
        return float(np.sum(log_std + 0.5 * (1.0 + _LOG_2PI)))


class ValueNet:
    def __init__(self, d: int, hidden, rng):
        self.net = Mlp([d, *hidden, 1], rng=rng)

    def value(self, states: np.ndarray) -> np.ndarray:
        """Values of states (B, d), each bit for bit its one-row forward's."""
        return self.net.forward_rows(states)[:, 0]


def score_items(state_vec: np.ndarray, omega: np.ndarray, catalog) -> np.ndarray:
    """Per-item score under the weight pair omega = (acc, fair):
    acc * cosine(state, embedding) - fair * log(1 + cumulative exposure)."""
    norm = math.sqrt(state_vec.dot(state_vec))
    if norm < 1e-12:
        sim = np.zeros(catalog.n_items)
    else:
        sim = catalog.embeddings @ (state_vec / norm)
    sim *= omega[0]  # the scores, in sim's own buffer
    sim -= omega[1] * catalog.log1p_exposure
    if not np.isfinite(sim).all():
        raise FloatingPointError("non-finite item scores")
    return sim


def select_slate(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k by score, ties broken by lower item id. Partial selection: only
    the items at or above the k-th best score (all ties included, in id
    order) are sorted, so the cost is O(n) plus a sort of about k items."""
    n = len(scores)
    if not 0 <= k <= n:
        raise ValueError(f"slate size {k} outside [0, catalog size {n}]")
    if not np.isfinite(scores).all():
        raise ValueError("non-finite item scores")
    if k == 0:
        return np.empty(0, np.intp)
    ranked = scores.copy()
    ranked.partition(n - k)
    candidates = (scores >= ranked[n - k]).nonzero()[0]
    return candidates[np.argsort(-scores[candidates], kind="stable")[:k]]


def shaped_reward(r, episode_gini, lambda_fair: float):
    """Manager reward: environment reward minus lambda * the Gini of the
    episode's exposure counts so far, of one step or of an array of steps."""
    return r - lambda_fair * episode_gini


def compute_gae(rewards, values, gamma: float, lam: float):
    """Generalized advantage estimation over one ended episode; the value
    after its last step is 0. Returns (advantages, returns)."""
    n = len(rewards)
    if n == 0:
        raise ValueError("empty trajectory")
    adv = np.zeros(n)
    last = next_v = 0.0
    for t in reversed(range(n)):
        delta = rewards[t] + gamma * next_v - values[t]
        last = delta + gamma * lam * last
        adv[t] = last
        next_v = values[t]
    return adv, adv + values


def value_step(value_net: ValueNet, opt_value: Adam, states: np.ndarray,
               returns: np.ndarray) -> float:
    """One Adam step of squared-error regression of the value net to the
    returns. Returns the loss before the step."""
    vpred, vacts = value_net.net.forward(states)
    verr = vpred[:, 0] - returns
    vloss = float(np.mean(verr**2))
    vgrads = value_net.net.backward(vacts, (2.0 * verr / len(states))[:, None])
    opt_value.step(vgrads)
    return vloss


def ppo_update(policy: ManagerPolicy, opt_policy: Adam, states, us, old_lp, adv,
               cfg: HrlConfig):
    """The manager's clipped-surrogate PPO epochs on a fixed batch of float64
    arrays. The worker has no learned parameters and train fits the critic,
    so only the manager moves. Returns per-epoch stats."""
    b = len(states)
    stats = []
    dropped = 0
    for _ in range(cfg.ppo_epochs):
        lps, means, acts = policy.log_prob(states, us)
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
        opt_policy.step(policy.gradients(acts, means, us, dlp, cfg.entropy_coef))
        stats.append({"surrogate": surrogate, "entropy": entropy, "dropped": dropped})
    return stats


class Agent:
    """Bundles the policy pieces for one variant and runs episodes."""

    def __init__(self, cfg: HrlConfig, d: int, denoiser: Denoiser | None = None, seed: int = 0):
        self.cfg = cfg
        self.chain = None if denoiser is None else ReverseChain(denoiser)
        rng = np.random.default_rng([seed, 1])
        self.policy = ManagerPolicy(d, hidden=cfg.hidden, rng=rng)
        self.value_net = ValueNet(d, hidden=cfg.hidden, rng=rng)
        if cfg.variant == "DSRM-HRL" and denoiser is None:
            raise ValueError("variant DSRM-HRL requires a trained denoiser")

    def policy_state(self, observed_vec: np.ndarray) -> np.ndarray:
        """The purified state when the agent holds a denoiser, else the raw
        observation as given (HRL-RAW is never given a denoiser)."""
        if self.chain is None:
            return observed_vec
        return purify(observed_vec, self.chain)

    def run_episode(self, env: RecEnv, session_seed: int, rng, train: bool):
        """One session. The manager acts every manager_interval steps and
        its action is held in between (FLAT always uses the fixed weights).
        Training samples actions and returns (outcome, record), where the
        PPO record is the arrays (states, pre-squash actions, log-probs,
        shaped rewards, values), the last three computed after the episode;
        evaluation acts greedily, does inference only and returns (outcome, None)."""
        obs = env.reset(session_seed)
        flat = self.cfg.variant == "FLAT"
        if flat:
            omega = np.array([self.cfg.flat_omega_acc, self.cfg.flat_omega_fair])
            mean = u = np.zeros(2)
        if train:
            states, means, us = [], [], []
        rewards_log, slates_log = [], []
        done = False
        step = 0
        while not done:
            state = self.policy_state(obs)
            if not flat and step % self.cfg.manager_interval == 0:
                omega, mean, u = self.policy.act(state, rng if train else None)
            scores = score_items(state, omega, env.catalog)
            slate = select_slate(scores, env.config.slate_k)
            item_rewards, obs, done = env.step(slate)
            r_t = float(item_rewards.sum()) / len(item_rewards)
            if train:
                states.append(state)
                means.append(mean)
                us.append(u)
            rewards_log.append(r_t)
            slates_log.append(slate)
            step += 1
        outcome = SessionOutcome(np.array(rewards_log), np.array(slates_log), env.abandoned)
        if not train:
            return outcome, None
        # The episode's exposure Gini after each step: prefix counts of the
        # items it served, the only ones of the catalog that are nonzero.
        items, cols = np.unique(outcome.slates, return_inverse=True)
        served = np.zeros((step, len(items)))
        served[np.arange(step)[:, None], cols.reshape(outcome.slates.shape)] = 1
        ginis = gini(np.cumsum(served, axis=0), n_items=env.catalog.n_items)
        shaped = shaped_reward(outcome.rewards, ginis, self.cfg.lambda_fair)
        states, us = np.array(states), np.array(us)
        lps = np.zeros(step) if flat else self.policy.log_density(np.array(means), us)
        return outcome, (states, us, lps, shaped, self.value_net.value(states))


def train_session_seed(seed: int, n: int) -> int:
    """The session seed of training session n (from 1) of env seed seed:
    below eval_session_seed(seed, 0) while n < EVAL_SEED_OFFSET."""
    return seed * 100_000 + n


def eval_session_seed(seed: int, i: int) -> int:
    """The session seed of eval session i (from 0) of env seed seed."""
    return EVAL_SEED_OFFSET + seed * 100_000 + i


def train(env: RecEnv, agent: Agent) -> list[dict]:
    """Stage-two PPO training to the agent config's env-step budget: whole
    episodes (session n from 1, n < EVAL_SEED_OFFSET; train_session_seed)
    until a batch holds batch_steps steps, then one update on it: advantages
    normalised over the batch, ppo_epochs steps of the critic for every
    variant, then the manager's PPO epochs (FLAT's manager is fixed). The
    episodes run in one session plan of env over the training seeds.
    Returns one log row per update."""
    cfg = agent.cfg
    seed = env.config.seed
    rng = np.random.default_rng([seed, 2])
    opt_policy = Adam(agent.policy.parameters(), lr=cfg.lr_policy)
    opt_value = Adam(agent.value_net.net.parameters(), lr=cfg.lr_value)
    rows = []
    sessions = steps_done = 0
    with env.sessions(train_session_seed(seed, n) for n in range(1, EVAL_SEED_OFFSET)):
        while steps_done < cfg.total_steps:
            episodes = []
            batch_end = min(steps_done + cfg.batch_steps, cfg.total_steps)
            while steps_done < batch_end:
                sessions += 1
                if sessions >= EVAL_SEED_OFFSET:
                    raise ValueError(
                        f"training session {sessions} would reuse eval session 0's seed")
                _, (states, us, lps, rewards, values) = agent.run_episode(
                    env, train_session_seed(seed, sessions), rng, train=True)
                adv, ret = compute_gae(rewards, values, cfg.gamma, cfg.lam_gae)
                episodes.append((states, us, lps, adv, ret))
                steps_done += len(states)
            states, us, lps, adv, ret = (np.concatenate(x) for x in zip(*episodes))
            if len(adv) >= 2:
                adv = (adv - adv.mean()) / (adv.std() + 1e-8)
            for _ in range(cfg.ppo_epochs):
                vloss = value_step(agent.value_net, opt_value, states, ret)
            if cfg.variant == "FLAT":
                surrogate = entropy = 0.0
                omegas = np.array([[cfg.flat_omega_acc, cfg.flat_omega_fair]])
            else:
                last = ppo_update(agent.policy, opt_policy, states, us, lps, adv, cfg)[-1]
                surrogate, entropy = last["surrogate"], last["entropy"]
                omegas = softplus(us)
            rows.append(dict(zip(TRAIN_LOG, (len(rows) + 1, surrogate, vloss, entropy,
                                             *(float(np.mean(w)) for w in omegas.T)))))
    return rows


def evaluate(env: RecEnv, agent: Agent, episodes: int) -> list[SessionOutcome]:
    """Greedy evaluation on a session-seed range disjoint from training
    (eval_session_seed), in one session plan of env."""
    seeds = [eval_session_seed(env.config.seed, i) for i in range(episodes)]
    with env.sessions(seeds):
        return [agent.run_episode(env, s, None, train=False)[0] for s in seeds]
