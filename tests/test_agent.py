"""Manager policy, worker scoring, GAE, PPO arithmetic, training loop."""

import contextlib
import threading
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from dsrm_hrl.config import DsrmConfig, EnvConfig, HrlConfig
from dsrm_hrl.env import GROUP_LONGTAIL, GROUP_POPULAR, ItemCatalog, RecEnv
from dsrm_hrl.agent import (LOG_STD_MAX, Agent, ManagerPolicy, ValueNet, compute_gae,
                            eval_session_seed, evaluate, ppo_update, score_items,
                            select_slate, shaped_reward, softplus, train,
                            train_session_seed, value_step)
from dsrm_hrl.env import SessionOutcome
from dsrm_hrl.metrics import gini
from dsrm_hrl.nn import Adam
from dsrm_hrl import agent as agent_mod
from dsrm_hrl import env as env_mod

from conftest import same_outcome


def small_env_cfg(**kw):
    base = dict(d=8, n_items=40, slate_k=3, max_len=8, history_window=4,
                init_exposure=100, seed=0)
    base.update(kw)
    return EnvConfig(**base)


def small_hrl_cfg(**kw):
    base = dict(hidden=(16,), batch_steps=64, total_steps=128, ppo_epochs=2)
    base.update(kw)
    return HrlConfig(**base)


def test_softplus_hand_values():
    assert softplus(np.array([0.0]))[0] == pytest.approx(np.log(2.0))
    assert softplus(np.array([50.0]))[0] == pytest.approx(50.0)
    assert softplus(np.array([-50.0]))[0] == pytest.approx(0.0, abs=1e-20)
    assert np.all(np.isfinite(softplus(np.array([-1e4, 1e4]))))


def test_greedy_action_is_squashed_mean():
    """Without an rng, act returns the mean as u and its softplus as omega."""
    policy = ManagerPolicy(4, hidden=(8,), rng=np.random.default_rng(0))
    state = np.random.default_rng(1).standard_normal(4)
    mean = policy.net.forward(state[None])[0][0]
    omega, act_mean, u = policy.act(state, rng=None)
    assert np.array_equal(u, mean) and np.array_equal(act_mean, mean)
    assert omega[0] == pytest.approx(softplus(mean)[0])
    assert omega[1] == pytest.approx(softplus(mean)[1])


def test_log_prob_density_integrates_to_one():
    """Quadrature oracle: exp(log_prob) over the pre-squash plane must
    integrate to 1, which checks both the Gaussian term and the softplus
    Jacobian correction."""
    policy = ManagerPolicy(3, hidden=(8,), rng=np.random.default_rng(2))
    policy.log_std[:] = [-0.3, 0.2]
    state = np.random.default_rng(3).standard_normal(3)
    mean = policy.net.forward(state[None])[0][0]
    grid = np.linspace(-9.0, 9.0, 301)
    du = grid[1] - grid[0]
    uu, vv = np.meshgrid(grid + mean[0], grid + mean[1])
    us = np.column_stack([uu.ravel(), vv.ravel()])
    states = np.tile(state, (len(us), 1))
    lps, _, _ = policy.log_prob(states, us)
    # log_prob is the density of the squashed action omega = softplus(u),
    # expressed at u; transform back with the Jacobian to integrate over u.
    dens_u = np.exp(lps + np.sum(np.log(1.0 / (1.0 + np.exp(-us))), axis=1))
    assert np.sum(dens_u) * du * du == pytest.approx(1.0, abs=1e-3)


def test_log_prob_batch_matches_single():
    policy = ManagerPolicy(4, hidden=(8,), rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    states = rng.standard_normal((6, 4))
    us = rng.standard_normal((6, 2))
    lps, _, _ = policy.log_prob(states, us)
    for i in range(6):
        one, _, _ = policy.log_prob(states[i:i + 1], us[i:i + 1])
        assert lps[i] == pytest.approx(one[0], abs=1e-12)


def test_act_makes_one_forward_and_matches_log_prob(monkeypatch):
    """act makes one forward and computes no density; the density of the
    mean it returns, at the sampled point, equals a separate log_prob call
    there, bit for bit. Without an rng (evaluation) it returns the mean as u."""
    policy = ManagerPolicy(4, hidden=(8,), rng=np.random.default_rng(7))
    policy.log_std[:] = [-0.4, 0.3]
    state = np.random.default_rng(8).standard_normal(4)
    calls = []
    forward = policy.net.forward
    monkeypatch.setattr(policy.net, "forward",
                        lambda x: calls.append(1) or forward(x))
    log_density = policy.log_density
    densities = []
    monkeypatch.setattr(policy, "log_density",
                        lambda m, u: densities.append(1) or log_density(m, u))
    for rng in (None, np.random.default_rng(9)):
        calls.clear()
        densities.clear()
        _, mean, u = policy.act(state, rng=rng)
        assert len(calls) == 1 and not densities
        assert np.array_equal(mean, forward(state[None])[0][0])
        if rng is None:
            assert np.array_equal(u, mean)
        else:
            assert log_density(mean, u) == policy.log_prob(state[None], u[None])[0][0]


@pytest.mark.parametrize("log_std", [(-0.4, 0.3), (-7.0, 3.0), (0.0, 0.0)])
def test_episode_log_density_matches_per_step_log_prob(log_std):
    """The per-episode call log_density(means, us) on the stored means and
    pre-squash actions gives, row by row, the per-step log_prob of each
    state at its action, bit for bit (clamped log-std included)."""
    policy = ManagerPolicy(6, hidden=(16, 16), rng=np.random.default_rng(2))
    policy.log_std[:] = log_std
    rng = np.random.default_rng(3)
    states = rng.standard_normal((40, 6)) * np.logspace(-3, 3, 40)[:, None]
    means = np.array([policy.act(s, rng=rng)[1] for s in states])
    us = means + rng.standard_normal((40, 2)) * 10.0 ** rng.uniform(-3, 1, (40, 1))
    lps = policy.log_density(means, us)
    assert lps.shape == (40,)
    assert all(lps[i] == policy.log_prob(states[i:i + 1], us[i:i + 1])[0][0]
               for i in range(40))


def test_log_std_clamped():
    policy = ManagerPolicy(4, hidden=(8,), rng=np.random.default_rng(6))
    policy.log_std[:] = [-100.0, 100.0]
    assert np.array_equal(policy._clamped_log_std(), [-5.0, 2.0])


def catalog_with(exposure, embeddings):
    n, d = embeddings.shape
    group = np.full(n, GROUP_LONGTAIL, dtype=np.int64)
    group[0] = GROUP_POPULAR
    prior = embeddings.mean(axis=0)
    return ItemCatalog(n, embeddings, np.asarray(exposure, dtype=np.int64),
                       np.ones(n), group, prior / np.linalg.norm(prior))


def test_score_items_hand_cases():
    emb = np.eye(3)
    cat = catalog_with([0, 0, 0], emb)
    # accuracy weight off, fairness weight on, zero exposure: all scores 0
    scores = score_items(np.array([1.0, 0.0, 0.0]),
                         np.array([0.0, 1.0]), cat)
    assert np.allclose(scores, 0.0)
    # aligned popular item (exposure 99) loses to an orthogonal fresh item
    cat2 = catalog_with([99, 0, 0], emb)
    scores = score_items(np.array([1.0, 0.0, 0.0]),
                         np.array([1.0, 1.0]), cat2)
    assert scores[0] == pytest.approx(1.0 - np.log(100.0))
    assert scores[1] == pytest.approx(0.0)
    assert scores[1] > scores[0]


def test_score_items_zero_state_cold_start():
    cat = catalog_with([5, 5, 5], np.eye(3))
    scores = score_items(np.zeros(3), np.array([1.0, 0.0]), cat)
    assert np.allclose(scores, 0.0)


def test_select_slate_matches_sort_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        scores = rng.standard_normal(20).round(1)  # induce ties
        k = int(rng.integers(1, 10))
        slate = select_slate(scores, k)
        oracle = sorted(range(20), key=lambda i: (-scores[i], i))[:k]
        assert list(slate) == oracle


def test_select_slate_matches_sort_oracle_at_catalog_scale():
    """Partial selection against the full sort at n=5000: heavy ties, all
    scores equal, signed zeros, and k from 0 up to the whole catalog."""
    n = 5000
    rng = np.random.default_rng(11)
    signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    signed_zeros[::7] = -1.0 - rng.random(len(signed_zeros[::7]))
    cases = [rng.standard_normal(n).round(1),        # ~60 distinct values
             rng.standard_normal(n),
             np.full(n, 0.25),
             signed_zeros]
    for scores in cases:
        oracle = sorted(range(n), key=lambda i: (-scores[i], i))
        for k in (0, 1, 10, n):
            assert select_slate(scores, k).tolist() == oracle[:k]


def test_select_slate_rejects_oversize():
    with pytest.raises(ValueError):
        select_slate(np.zeros(3), 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_select_slate_rejects_non_finite(bad):
    scores = np.arange(10, dtype=np.float64)
    scores[4] = bad
    with pytest.raises(ValueError):
        select_slate(scores, 3)


def test_shaped_reward_hand_case():
    # gini([0,0,0,4]) = 0.75, so r_h = 0.5 - 1.0 * 0.75
    assert shaped_reward(0.5, gini(np.array([0.0, 0.0, 0.0, 4.0])), 1.0) == \
        pytest.approx(-0.25)
    assert shaped_reward(0.5, gini(np.ones(4)), 1.0) == pytest.approx(0.5)


def test_training_episode_calls_shaped_reward_once(monkeypatch):
    """A training episode shapes all its rewards in one shaped_reward call
    on the arrays of its step rewards and Ginis; an eval episode makes none."""
    calls = []

    def counted(r, episode_gini, lambda_fair):
        calls.append((np.shape(r), np.shape(episode_gini)))
        return shaped_reward(r, episode_gini, lambda_fair)

    monkeypatch.setattr(agent_mod, "shaped_reward", counted)
    _, agent = make_agent("HRL-RAW")
    env = RecEnv(small_env_cfg())
    for train, expected in ((True, 1), (False, 0)):
        calls.clear()
        outcome, _ = agent.run_episode(env, 5, np.random.default_rng(0), train=train)
        assert outcome.length > 1
        assert calls == [((outcome.length,), (outcome.length,))] * expected


def gae_oracle(rewards, values, dones, gamma, lam):
    """Direct per-episode unroll, independent of the implementation."""
    n = len(rewards)
    adv = np.zeros(n)
    for t in range(n):
        acc, discount = 0.0, 1.0
        for j in range(t, n):
            next_v = 0.0 if dones[j] else (values[j + 1] if j + 1 < n else 0.0)
            delta = rewards[j] + gamma * next_v - values[j]
            acc += discount * delta
            if dones[j]:
                break
            discount *= gamma * lam
        adv[t] = acc
    return adv


def test_gae_matches_oracle():
    """Two episodes in one step array: compute_gae, called once per
    episode, against the oracle's unroll over the whole array."""
    rng = np.random.default_rng(8)
    rewards = rng.standard_normal(12)
    values = rng.standard_normal(12)
    dones = np.zeros(12, dtype=bool)
    dones[[4, 11]] = True
    expected = gae_oracle(rewards, values, dones, 0.9, 0.8)
    for episode in (slice(0, 5), slice(5, 12)):
        adv, returns = compute_gae(rewards[episode], values[episode], 0.9, 0.8)
        assert np.allclose(adv, expected[episode], atol=1e-12)
        assert np.allclose(returns, expected[episode] + values[episode],
                           atol=1e-12)


def test_gae_rejects_empty_episode():
    with pytest.raises(ValueError):
        compute_gae([], [], 0.99, 0.95)


def test_ppo_surrogate_clip_arithmetic():
    """With old log-probs shifted by a known offset the ratio is known
    exactly, so the first-epoch surrogate has a closed form."""
    rng = np.random.default_rng(9)
    policy = ManagerPolicy(4, hidden=(8,), rng=rng)
    cfg = small_hrl_cfg(clip_eps=0.2, ppo_epochs=1, entropy_coef=0.0)
    states = rng.standard_normal((6, 4))
    us = rng.standard_normal((6, 2))
    lps, _, _ = policy.log_prob(states, us)
    shift = np.log(np.array([1.0, 1.0, 1.5, 1.5, 0.5, 0.5]))
    old_lp = lps - shift            # ratio = exp(shift)
    adv = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    ratio = np.exp(shift)
    clipped = np.clip(ratio, 0.8, 1.2) * adv
    expected = float(np.mean(np.minimum(ratio * adv, clipped)))
    # zero-lr optimizer: weights frozen, stats still computed
    opt_p = Adam(policy.parameters(), lr=0.0)
    stats = ppo_update(policy, opt_p, states, us, old_lp, adv, cfg)
    assert stats[0]["surrogate"] == pytest.approx(expected, abs=1e-12)
    assert stats[0]["dropped"] == 0


class _Recorder:
    """An optimizer stand-in that keeps the gradients it is stepped with."""

    def __init__(self):
        self.grads = []

    def step(self, grads):
        self.grads.append(grads.vector.copy())


@pytest.mark.parametrize("log_std", [(-0.4, 0.3), (-0.4, LOG_STD_MAX + 0.5)])
def test_ppo_policy_gradient_matches_finite_differences(log_std):
    """ppo_update steps the manager with minus the gradient of its objective
    mean(min(r A, clip(r) A)) + entropy_coef * entropy, r = exp(log_prob -
    old log-prob), wrt every parameter (net and log_std), by central
    differences: ratios inside and outside the clip band at both signs of
    the advantage, with log_std inside its clamp or one dimension past
    LOG_STD_MAX, where the objective is flat in it."""
    rng = np.random.default_rng(11)
    policy = ManagerPolicy(3, hidden=(5,), rng=rng)
    policy.log_std[:] = log_std
    cfg = small_hrl_cfg(clip_eps=0.2, ppo_epochs=1, entropy_coef=0.05)
    states = rng.standard_normal((8, 3))
    us = rng.standard_normal((8, 2))
    # Ratios 0.5, 0.9, 1.1, 1.5 at each sign: clear of the clip band's edges.
    old_lp = policy.log_prob(states, us)[0] - np.log(np.repeat([0.5, 0.9, 1.1, 1.5], 2))
    adv = np.tile([1.0, -1.0], 4) * rng.uniform(0.5, 2.0, 8)

    def objective():
        ratio = np.exp(policy.log_prob(states, us)[0] - old_lp)
        clipped = np.clip(ratio, 1 - cfg.clip_eps, 1 + cfg.clip_eps) * adv
        return np.mean(np.minimum(ratio * adv, clipped)) + cfg.entropy_coef * policy.entropy()

    opt = _Recorder()
    ppo_update(policy, opt, states, us, old_lp, adv, cfg)
    analytic = -opt.grads[0]
    vector, h = policy.parameters().vector, 1e-5
    numeric = np.empty_like(vector)
    for i in range(vector.size):
        orig = vector[i]
        vector[i] = orig + h
        up = objective()
        vector[i] = orig - h
        numeric[i] = (up - objective()) / (2 * h)
        vector[i] = orig
    err = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    err[(np.abs(analytic) < 1e-10) & (np.abs(numeric) < 1e-10)] = 0.0
    assert err.max() < 1e-6
    assert (analytic[-1] == 0.0) == (log_std[1] > LOG_STD_MAX)


def test_ppo_update_moves_parameters():
    rng = np.random.default_rng(10)
    policy = ManagerPolicy(4, hidden=(8,), rng=rng)
    cfg = small_hrl_cfg(ppo_epochs=3)
    states = rng.standard_normal((16, 4))
    us = rng.standard_normal((16, 2))
    lps, _, _ = policy.log_prob(states, us)
    adv = rng.standard_normal(16)
    before = {k: v.copy() for k, v in policy.parameters().items()}
    opt_p = Adam(policy.parameters(), lr=1e-3)
    ppo_update(policy, opt_p, states, us, lps, adv, cfg)
    after = policy.parameters()
    assert any(not np.array_equal(before[k], after[k]) for k in before)


def test_ppo_update_leaves_the_critic_alone(monkeypatch):
    """ppo_update moves the manager only: it runs with value_step raising.
    train fits the critic itself, ppo_epochs value_steps per log row, for
    every variant, FLAT included."""
    def no_critic(*args):
        raise AssertionError("ppo_update stepped the critic")

    monkeypatch.setattr(agent_mod, "value_step", no_critic)
    rng = np.random.default_rng(12)
    policy = ManagerPolicy(4, hidden=(8,), rng=rng)
    states, us = rng.standard_normal((6, 4)), rng.standard_normal((6, 2))
    stats = ppo_update(policy, Adam(policy.parameters(), lr=1e-3), states, us,
                       policy.log_prob(states, us)[0], rng.standard_normal(6),
                       small_hrl_cfg(ppo_epochs=3))
    assert [sorted(epoch) for epoch in stats] == [["dropped", "entropy", "surrogate"]] * 3

    calls = []

    def counted(*args):
        calls.append(args)
        return value_step(*args)

    monkeypatch.setattr(agent_mod, "value_step", counted)
    for variant in ("DSRM-HRL", "HRL-RAW", "FLAT"):
        calls.clear()
        cfg, agent = make_agent(variant, ppo_epochs=3)
        rows = train(RecEnv(small_env_cfg()), agent)
        assert len(rows) >= 2
        assert len(calls) == cfg.ppo_epochs * len(rows)


def make_agent(variant, seed=0, **kw):
    cfg = small_hrl_cfg(variant=variant, **kw)
    den = None
    if variant in ("DSRM-HRL", "FLAT"):
        from dsrm_hrl.diffusion import Denoiser
        den = Denoiser(DsrmConfig(k_steps=2, beta_min=0.01, beta_max=0.1,
                                  hidden=(8,), time_dim=4),
                       8, rng=np.random.default_rng(0))
    return cfg, Agent(cfg, 8, denoiser=den, seed=seed)


RECORD_FIELDS = ("states", "pre_squash", "log_probs", "shaped_rewards", "values")


@dataclass
class ListTrajectory:
    states: list = field(default_factory=list)
    pre_squash: list = field(default_factory=list)
    log_probs: list = field(default_factory=list)
    shaped_rewards: list = field(default_factory=list)
    values: list = field(default_factory=list)
    dones: list = field(default_factory=list)

    def extend(self, other):
        for name in (*RECORD_FIELDS, "dones"):
            getattr(self, name).extend(getattr(other, name))


def reference_episode(agent, env, session_seed, rng, train):
    """The rollout loop written the long way, as an oracle for
    Agent.run_episode: full bookkeeping in both modes, the manager's
    action threaded through a `held` tuple between decisions, and a
    full-sort slate selection."""
    def manager_action(state, step, held):
        if agent.cfg.variant == "FLAT":
            action = np.array([agent.cfg.flat_omega_acc,
                               agent.cfg.flat_omega_fair])
            return action, 0.0, np.zeros(2), held
        if held is not None and step % agent.cfg.manager_interval != 0:
            return held[0], held[1], held[2], held
        action, _, u = agent.policy.act(state, rng if train else None)
        lp = float(agent.policy.log_prob(state[None], u[None])[0][0])
        return action, lp, u, (action, lp, u)

    obs = env.reset(session_seed)
    traj = ListTrajectory()
    episode_exposure = np.zeros(env.catalog.n_items)
    rewards_log, slates_log = [], []
    held = None
    done = False
    step = 0
    while not done:
        state = agent.policy_state(obs)
        action, lp, u, held = manager_action(state, step, held)
        scores = score_items(state, action, env.catalog)
        n = len(scores)
        slate = np.lexsort((np.arange(n), -scores))[:env.config.slate_k]
        item_rewards, obs, done = env.step(slate)
        r_t = float(np.mean(item_rewards))
        episode_exposure[slate] += 1
        traj.states.append(state)
        traj.pre_squash.append(u)
        traj.log_probs.append(lp)
        traj.shaped_rewards.append(
            shaped_reward(r_t, gini(episode_exposure), agent.cfg.lambda_fair))
        traj.values.append(float(agent.value_net.net.forward(state[None])[0][0, 0]))
        traj.dones.append(done)
        rewards_log.append(r_t)
        slates_log.append(slate.tolist())
        step += 1
    return SessionOutcome(np.array(rewards_log), np.array(slates_log), env.abandoned), traj


@pytest.mark.parametrize("variant", ["DSRM-HRL", "HRL-RAW", "FLAT"])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_run_episode_matches_full_bookkeeping_loop(variant, mode):
    """Consecutive sessions on one shared catalog, so exposure carries over
    between them: every outcome field, the train record and the final
    catalog exposure must equal the oracle loop's, with the manager acting
    every step and every third step."""
    env_cfg = small_env_cfg(n_items=300, slate_k=10, max_len=12)
    train = mode == "train"
    for interval in (1, 3):
        env, ref_env = RecEnv(env_cfg), RecEnv(env_cfg)
        _, agent = make_agent(variant, manager_interval=interval)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for i in range(6):
            outcome, record = agent.run_episode(env, 500 + i, rng, train=train)
            ref_outcome, ref_traj = reference_episode(agent, ref_env, 500 + i,
                                                      ref_rng, train)
            assert same_outcome(outcome, ref_outcome)
            if train:
                for name, array in zip(RECORD_FIELDS, record):
                    assert np.array_equal(array, getattr(ref_traj, name)), name
            else:
                assert record is None
        assert np.array_equal(env.catalog.exposure, ref_env.catalog.exposure)


def test_eval_episode_is_inference_only(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("training-only bookkeeping called in eval")

    monkeypatch.setattr(ValueNet, "value", forbidden)
    monkeypatch.setattr(agent_mod, "gini", forbidden)
    _, agent = make_agent("DSRM-HRL")
    outcome, record = agent.run_episode(RecEnv(small_env_cfg()), 0,
                                        np.random.default_rng(0), train=False)
    assert outcome.length > 0
    assert record is None
    with pytest.raises(AssertionError):
        agent.run_episode(RecEnv(small_env_cfg()), 0,
                          np.random.default_rng(0), train=True)


@pytest.mark.parametrize("variant", ["DSRM-HRL", "HRL-RAW", "FLAT"])
def test_greedy_episode_reads_no_rng(variant, monkeypatch):
    """Evaluation acts on the manager's means: run_episode calls act with
    rng=None whatever rng it is given, so evaluate passes none, and the
    outcomes with rng=None equal those with a Generator."""
    _, agent = make_agent(variant, manager_interval=2)
    act, rngs = agent.policy.act, []
    monkeypatch.setattr(agent.policy, "act",
                        lambda state, rng: rngs.append(rng) or act(state, rng))
    env, ref_env = RecEnv(small_env_cfg()), RecEnv(small_env_cfg())
    for i in range(4):
        outcome, _ = agent.run_episode(env, 40 + i, None, train=False)
        ref_outcome, _ = agent.run_episode(ref_env, 40 + i,
                                           np.random.default_rng(i), train=False)
        assert same_outcome(outcome, ref_outcome)
    assert np.array_equal(env.catalog.exposure, ref_env.catalog.exposure)
    assert rngs == [None] * len(rngs) and bool(rngs) == (variant != "FLAT")


def test_training_step_is_o_k_at_catalog_scale(monkeypatch):
    """Training takes the episode's Ginis over the items it served: at 5000
    items, one gini() call on the (length, U) prefix counts of its U <=
    length * slate_k served items, and no sort of a catalog-length axis
    anywhere in an episode."""
    ginis, sorted_widths = [], []
    real_gini, real_sort = agent_mod.gini, np.sort

    def recorded_gini(counts, n_items=None):
        ginis.append((np.shape(counts), n_items))
        return real_gini(counts, n_items=n_items)

    def recorded_sort(a, *args, **kwargs):
        sorted_widths.append(np.shape(a)[-1])
        return real_sort(a, *args, **kwargs)

    monkeypatch.setattr(agent_mod, "gini", recorded_gini)
    monkeypatch.setattr(np, "sort", recorded_sort)
    env = RecEnv(EnvConfig(d=8, n_items=5000, seed=1))
    _, agent = make_agent("HRL-RAW")
    outcome, record = agent.run_episode(env, 7, np.random.default_rng(7), train=True)
    length, slate_k = outcome.length, env.config.slate_k
    assert length > 1
    assert len(record[3]) == length
    [((rows, served), n_items)] = ginis
    assert rows == length and served <= length * slate_k and n_items == 5000
    assert sorted_widths and max(sorted_widths) <= length * slate_k


@pytest.mark.parametrize("variant", ["DSRM-HRL", "FLAT"])
def test_training_episode_keeps_ppo_bookkeeping_off_the_step(monkeypatch, variant):
    """A training step makes no value forward and no log-density: the
    episode's values are one batched value call and its log-probs one
    log_density call on all its stored means (none for FLAT's fixed
    weights)."""
    def forbidden(*args, **kwargs):
        raise AssertionError("per-step PPO bookkeeping")

    _, agent = make_agent(variant, manager_interval=2)
    monkeypatch.setattr(agent.value_net.net, "forward", forbidden)
    monkeypatch.setattr(ManagerPolicy, "log_prob", forbidden)
    calls = {"value": [], "density": []}
    value, log_density = ValueNet.value, ManagerPolicy.log_density
    monkeypatch.setattr(ValueNet, "value", lambda self, states: calls["value"].append(
        len(states)) or value(self, states))
    monkeypatch.setattr(ManagerPolicy, "log_density", lambda self, means, us: calls[
        "density"].append(np.shape(means)) or log_density(self, means, us))
    env = RecEnv(small_env_cfg())
    rng = np.random.default_rng(5)
    for i in range(3):
        calls["value"].clear()
        calls["density"].clear()
        outcome, record = agent.run_episode(env, 60 + i, rng, train=True)
        assert outcome.length > 1
        assert calls["value"] == [outcome.length]
        assert calls["density"] == ([] if variant == "FLAT" else [(outcome.length, 2)])
        assert len(record[2]) == len(record[4]) == outcome.length


def test_flat_without_denoiser_uses_raw_state():
    agent = Agent(small_hrl_cfg(variant="FLAT"), 8)
    vec = np.random.default_rng(1).standard_normal(8)
    assert np.array_equal(agent.policy_state(vec), vec)
    with pytest.raises(ValueError):
        Agent(small_hrl_cfg(variant="DSRM-HRL"), 8)


def test_flat_agent_uses_fixed_weights():
    cfg, agent = make_agent("FLAT")
    env = RecEnv(small_env_cfg())
    outcome, record = agent.run_episode(env, session_seed=0,
                                        rng=np.random.default_rng(0), train=True)
    assert outcome.length > 0
    assert all(len(array) == outcome.length for array in record)


def test_trainer_runs_and_logs():
    env = RecEnv(small_env_cfg())
    cfg, agent = make_agent("HRL-RAW")
    rows = train(env, agent)
    assert len(rows) == cfg.total_steps // cfg.batch_steps
    for r in rows:
        assert np.isfinite(r["surrogate"]) and np.isfinite(r["value_loss"])


def test_training_runs_every_session_below_the_eval_offset(monkeypatch):
    """The run's last session may be EVAL_SEED_OFFSET - 1; one more session
    would take eval session 0's seed, so training fails before it starts."""
    seeds = []
    run_episode = Agent.run_episode

    def counted(self, env, session_seed, rng, train):
        seeds.append(session_seed)
        return run_episode(self, env, session_seed, rng, train)

    monkeypatch.setattr(Agent, "run_episode", counted)
    rows = train(RecEnv(small_env_cfg()), make_agent("HRL-RAW")[1])
    n = len(seeds)
    monkeypatch.setattr(agent_mod, "EVAL_SEED_OFFSET", n + 1)
    assert train(RecEnv(small_env_cfg()), make_agent("HRL-RAW")[1]) == rows
    monkeypatch.setattr(agent_mod, "EVAL_SEED_OFFSET", n)
    seeds.clear()
    with pytest.raises(ValueError, match=f"training session {n} would reuse"):
        train(RecEnv(small_env_cfg()), make_agent("HRL-RAW")[1])
    assert len(seeds) == n - 1


def test_training_plan_ends_below_the_eval_range(monkeypatch):
    """train's session plan builds the sessions of train_session_seed and
    ends below eval_session_seed's range: when training runs out of
    sessions, no generator was built for eval session 0's seed or above."""
    monkeypatch.setattr(env_mod, "PLAN_MIN_NORMALS", 1)
    monkeypatch.setattr(agent_mod, "EVAL_SEED_OFFSET", 4)
    built, start = [], env_mod._start_session
    monkeypatch.setattr(env_mod, "_start_session",
                        lambda config, seed: built.append(seed) or start(config, seed))
    with pytest.raises(ValueError, match="training session 4 would reuse"):
        train(RecEnv(small_env_cfg(seed=2)), make_agent("HRL-RAW")[1])
    assert built == [train_session_seed(2, n) for n in (1, 2, 3)]
    assert max(built) < eval_session_seed(2, 0)


def threads_during_episodes(monkeypatch):
    """The count of threads running after each episode's reset, as a list
    that RecEnv.reset fills."""
    counts, reset = [], RecEnv.reset

    def counted(self, seed):
        state = reset(self, seed)
        counts.append(threading.active_count())
        return state

    monkeypatch.setattr(RecEnv, "reset", counted)
    return counts


def fill_fault(rng, out):
    raise RuntimeError("fill fault")


@pytest.mark.parametrize("run, exit_by", [
    (run, exit_by) for run in ("train", "evaluate")
    for exit_by in ("return", "episode raises", "fill raises")] + [("train", "eval seed guard")])
def test_no_thread_outlives_train_or_evaluate(run, exit_by, monkeypatch):
    """train and evaluate run their episodes in a session plan with one
    worker thread, which runs from the first reset and is stopped on every
    way out: a return, an episode that raises, a fault in the worker's fill
    (raised in the caller at the next reset), and train's guard on the eval
    seed range."""
    monkeypatch.setattr(env_mod, "PLAN_MIN_NORMALS", 1)
    env, (_, agent) = RecEnv(small_env_cfg()), make_agent("HRL-RAW")
    counts = threads_during_episodes(monkeypatch)
    raises = {"return": contextlib.nullcontext(),
              "episode raises": pytest.raises(FloatingPointError, match="non-finite"),
              "fill raises": pytest.raises(RuntimeError, match="fill fault"),
              "eval seed guard": pytest.raises(ValueError, match="would reuse")}[exit_by]
    if exit_by == "episode raises":
        calls = []

        def failing(state, omega, catalog):
            calls.append(state)
            if len(calls) == 12:  # in the second session
                raise FloatingPointError("non-finite item scores")
            return score_items(state, omega, catalog)

        monkeypatch.setattr(agent_mod, "score_items", failing)
    elif exit_by == "fill raises":
        monkeypatch.setattr(env_mod, "_fill", fill_fault)
    elif exit_by == "eval seed guard":
        monkeypatch.setattr(agent_mod, "EVAL_SEED_OFFSET", 3)
    before = threading.enumerate()
    with raises:
        train(env, agent) if run == "train" else evaluate(env, agent, 5)
    assert threading.enumerate() == before
    assert counts and set(counts) == {len(before) + 1}


# Each case runs the planned and unplanned sessions on small_env_cfg with
# these keys: catalogs of 40, 500 and 5000 items, a first reset with nothing
# exposed (1 + d normals), each kind of normal absent, abandonment draws,
# and sessions that end early, so that the rest of their buffers is drawn
# and never read, while the next session's fill goes into the other.
PLAN_CASES = {
    "40 items": {},
    "500 items": dict(n_items=500, slate_k=5, max_len=12),
    "5000 items": dict(n_items=5000, slate_k=5, max_len=12),
    "init_exposure 0": dict(init_exposure=0),
    "obs_noise 0": dict(obs_noise=0.0),
    "noise_scale 0": dict(noise_scale=0.0),
    "abandon_prob > 0": dict(abandon_prob=0.3),
    "early ends": dict(n_items=500, threshold_a=0.0, decay_a=0.5, window_a=1),
}


@pytest.mark.parametrize("case", PLAN_CASES)
def test_planned_sessions_match_unplanned(case, monkeypatch):
    """train then evaluate on one env, their sessions in session plans,
    against train with sessions() a no-op then a plain loop of run_episode
    on a twin: every outcome and PPO record, the log rows, the parameters
    and the final catalog exposure equal bit for bit. With abandon_prob > 0
    a plan draws nothing ahead (its fill raises)."""
    env_cfg = small_env_cfg(**PLAN_CASES[case])
    monkeypatch.setattr(env_mod, "PLAN_MIN_NORMALS", 1)
    if env_cfg.abandon_prob > 0:
        monkeypatch.setattr(env_mod, "_fill", fill_fault)
    episodes, run_episode = [], Agent.run_episode

    def recorded(self, env, session_seed, rng, train):
        episodes.append(run_episode(self, env, session_seed, rng, train))
        return episodes[-1]

    monkeypatch.setattr(Agent, "run_episode", recorded)
    env, ref_env = RecEnv(env_cfg), RecEnv(env_cfg)
    (_, agent), (_, ref_agent) = make_agent("HRL-RAW"), make_agent("HRL-RAW")
    rows = train(env, agent)
    outcomes = evaluate(env, agent, 6)
    planned, episodes[:] = episodes[:], []
    with monkeypatch.context() as unplanned:
        unplanned.setattr(RecEnv, "sessions", lambda self, seeds: contextlib.nullcontext())
        assert train(ref_env, ref_agent) == rows
    ref_outcomes = [ref_agent.run_episode(ref_env, eval_session_seed(0, i), None, False)[0]
                    for i in range(6)]
    assert len(planned) == len(episodes) > len(outcomes)
    for (outcome, record), (ref_outcome, ref_record) in zip(planned, episodes):
        assert same_outcome(outcome, ref_outcome)
        assert record is None or all(map(np.array_equal, record, ref_record))
    assert all(map(same_outcome, outcomes, ref_outcomes))
    for name, param in agent.policy.parameters().items():
        assert np.array_equal(param, ref_agent.policy.parameters()[name]), name
    assert np.array_equal(env.catalog.exposure, ref_env.catalog.exposure)
    if case == "early ends":
        lengths = [outcome.length for outcome, _ in planned]
        assert min(lengths) < env_cfg.max_len // 2 < max(lengths)


def test_flat_training_keeps_policy_frozen():
    env = RecEnv(small_env_cfg())
    cfg, agent = make_agent("FLAT")
    before = {k: v.copy() for k, v in agent.policy.parameters().items()}
    train(env, agent)
    after = agent.policy.parameters()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_evaluate_deterministic_and_held_out():
    cfg, agent = make_agent("HRL-RAW")
    out1 = evaluate(RecEnv(small_env_cfg()), agent, 5)
    out2 = evaluate(RecEnv(small_env_cfg()), agent, 5)
    assert [o.length for o in out1] == [o.length for o in out2]
    for a, b in zip(out1, out2):
        assert np.allclose(a.rewards, b.rewards)


def list_gae(rewards, values, dones, gamma, lam, normalize):
    """GAE over a multi-episode step array, the value after a terminal step
    0, with optional normalisation of the result."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n = len(rewards)
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


def list_train(env, agent, cfg, seed, log_rows):
    """The stage-II loop written the long way, as an oracle for
    agent.train: list-valued trajectories with a dones list, GAE per
    episode, the batch normalisation as a second step, the critic and the
    manager stepped in turn within each epoch (one value_step, then a
    one-epoch ppo_update), and log rows appended to the caller's list."""
    rng = np.random.default_rng([seed, 2])
    opt_policy = Adam(agent.policy.parameters(), lr=cfg.lr_policy)
    opt_value = Adam(agent.value_net.net.parameters(), lr=cfg.lr_value)
    one_epoch = replace(cfg, ppo_epochs=1)
    sessions = 0
    steps_done = 0
    update_idx = 0
    while steps_done < cfg.total_steps:
        batch = ListTrajectory()
        batch_adv, batch_ret = [], []
        while len(batch.states) < cfg.batch_steps and steps_done < cfg.total_steps:
            sessions += 1
            _, traj = reference_episode(agent, env, seed * 100_000 + sessions,
                                        rng, train=True)
            adv, ret = list_gae(traj.shaped_rewards, traj.values, traj.dones,
                                cfg.gamma, cfg.lam_gae, normalize=False)
            batch.extend(traj)
            batch_adv.extend(adv)
            batch_ret.extend(ret)
            steps_done += len(traj.states)
        adv = np.asarray(batch_adv)
        if len(adv) >= 2:
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        states = np.asarray(batch.states, dtype=np.float64)
        us = np.asarray(batch.pre_squash, dtype=np.float64)
        old_lp = np.asarray(batch.log_probs, dtype=np.float64)
        ret = np.asarray(batch_ret, dtype=np.float64)
        last = {"surrogate": 0.0, "entropy": 0.0}
        for _ in range(cfg.ppo_epochs):
            value_loss = value_step(agent.value_net, opt_value, states, ret)
            if cfg.variant != "FLAT":
                last = ppo_update(agent.policy, opt_policy, states, us, old_lp,
                                  adv, one_epoch)[-1]
        update_idx += 1
        omegas = np.array([[softplus(u[0]), softplus(u[1])]
                           for u in batch.pre_squash]) \
            if cfg.variant != "FLAT" else \
            np.array([[cfg.flat_omega_acc, cfg.flat_omega_fair]])
        log_rows.append({
            "update": update_idx,
            "surrogate": last["surrogate"],
            "value_loss": value_loss,
            "entropy": last["entropy"],
            "mean_omega_acc": float(np.mean(omegas[:, 0])),
            "mean_omega_fair": float(np.mean(omegas[:, 1])),
        })


@pytest.mark.parametrize("variant", ["DSRM-HRL", "HRL-RAW", "FLAT"])
@pytest.mark.parametrize("interval", [1, 2])
def test_trainer_matches_list_trajectory_loop(variant, interval):
    """train against list_train on twin agents and envs: equal log
    rows, parameters and catalog exposure, bit for bit. Episodes are at
    most 8 steps, so batches of 20 steps overshoot their budget, and the
    total budget cuts the last batch short."""
    cfg, agent = make_agent(variant, manager_interval=interval,
                            batch_steps=20, total_steps=60)
    _, ref_agent = make_agent(variant, manager_interval=interval,
                              batch_steps=20, total_steps=60)
    env, ref_env = RecEnv(small_env_cfg(seed=4)), RecEnv(small_env_cfg(seed=4))
    rows = train(env, agent)
    ref_rows = []
    list_train(ref_env, ref_agent, cfg, 4, ref_rows)
    assert len(rows) >= 3
    assert rows == ref_rows
    for net, ref_net in ((agent.policy, ref_agent.policy),
                         (agent.value_net.net, ref_agent.value_net.net)):
        params, ref_params = net.parameters(), ref_net.parameters()
        assert params.keys() == ref_params.keys()
        assert all(np.array_equal(params[k], ref_params[k]) for k in params)
    assert np.array_equal(env.catalog.exposure, ref_env.catalog.exposure)
