"""Manager policy, worker scoring, GAE, PPO arithmetic, training loop."""

from dataclasses import astuple

import numpy as np
import pytest

from dsrm_hrl.config import EnvConfig, HrlConfig
from dsrm_hrl.env import GROUP_LONGTAIL, GROUP_POPULAR, ItemCatalog, RecEnv
from dsrm_hrl.agent import (Agent, ManagerAction, ManagerPolicy, Trainer,
                            Trajectory, ValueNet, compute_gae, evaluate,
                            ppo_update, score_items, select_slate,
                            shaped_reward, softplus)
from dsrm_hrl.env import SessionOutcome
from dsrm_hrl.nn import Adam
from dsrm_hrl import agent as agent_mod


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
    policy = ManagerPolicy(4, hidden=(8,), rng=np.random.default_rng(0))
    state = np.random.default_rng(1).standard_normal(4)
    mean, _ = policy.net.forward(state)
    action, lp, u = policy.act(state, greedy=True)
    assert np.array_equal(u, mean)
    assert action.omega_acc == pytest.approx(softplus(mean)[0])
    assert action.omega_fair == pytest.approx(softplus(mean)[1])
    assert np.isfinite(lp)


def test_sampling_requires_rng():
    policy = ManagerPolicy(4, hidden=(8,), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        policy.act(np.zeros(4), greedy=False)


def test_log_prob_density_integrates_to_one():
    """Quadrature oracle: exp(log_prob) over the pre-squash plane must
    integrate to 1, which checks both the Gaussian term and the softplus
    Jacobian correction."""
    policy = ManagerPolicy(3, hidden=(8,), rng=np.random.default_rng(2))
    policy.log_std[:] = [-0.3, 0.2]
    state = np.random.default_rng(3).standard_normal(3)
    mean, _ = policy.net.forward(state)
    grid = np.linspace(-9.0, 9.0, 301)
    du = grid[1] - grid[0]
    uu, vv = np.meshgrid(grid + mean[0], grid + mean[1])
    us = np.column_stack([uu.ravel(), vv.ravel()])
    states = np.tile(state, (len(us), 1))
    lps, _, _ = policy.log_prob_batch(states, us)
    # log_prob is the density of the squashed action omega = softplus(u),
    # expressed at u; transform back with the Jacobian to integrate over u.
    dens_u = np.exp(lps + np.sum(np.log(1.0 / (1.0 + np.exp(-us))), axis=1))
    assert np.sum(dens_u) * du * du == pytest.approx(1.0, abs=1e-3)


def test_log_prob_batch_matches_single():
    policy = ManagerPolicy(4, hidden=(8,), rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    states = rng.standard_normal((6, 4))
    us = rng.standard_normal((6, 2))
    lps, _, _ = policy.log_prob_batch(states, us)
    for i in range(6):
        assert lps[i] == pytest.approx(policy.log_prob(states[i], us[i]), abs=1e-12)


def test_act_makes_one_forward_and_matches_log_prob(monkeypatch):
    """act reuses its own forward for the log-prob; the value must equal a
    separate log_prob call at the sampled point, bit for bit."""
    policy = ManagerPolicy(4, hidden=(8,), rng=np.random.default_rng(7))
    policy.log_std[:] = [-0.4, 0.3]
    state = np.random.default_rng(8).standard_normal(4)
    calls = []
    forward = policy.net.forward
    monkeypatch.setattr(policy.net, "forward",
                        lambda x: calls.append(1) or forward(x))
    for greedy, rng in ((True, None), (False, np.random.default_rng(9))):
        calls.clear()
        _, lp, u = policy.act(state, rng=rng, greedy=greedy)
        assert len(calls) == 1
        assert lp == policy.log_prob(state, u)


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
                         ManagerAction(0.0, 1.0), cat)
    assert np.allclose(scores, 0.0)
    # aligned popular item (exposure 99) loses to an orthogonal fresh item
    cat2 = catalog_with([99, 0, 0], emb)
    scores = score_items(np.array([1.0, 0.0, 0.0]),
                         ManagerAction(1.0, 1.0), cat2)
    assert scores[0] == pytest.approx(1.0 - np.log(100.0))
    assert scores[1] == pytest.approx(0.0)
    assert scores[1] > scores[0]


def test_score_items_zero_state_cold_start():
    cat = catalog_with([5, 5, 5], np.eye(3))
    scores = score_items(np.zeros(3), ManagerAction(1.0, 0.0), cat)
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
    assert shaped_reward(0.5, np.array([0.0, 0.0, 0.0, 4.0]), 1.0) == \
        pytest.approx(-0.25)
    assert shaped_reward(0.5, np.ones(4), 1.0) == pytest.approx(0.5)


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
    rng = np.random.default_rng(8)
    rewards = rng.standard_normal(12)
    values = rng.standard_normal(12)
    dones = np.zeros(12, dtype=bool)
    dones[[4, 11]] = True  # two episodes in one batch
    adv, returns = compute_gae(rewards, values, dones, 0.9, 0.8,
                               normalize=False)
    expected = gae_oracle(rewards, values, dones, 0.9, 0.8)
    assert np.allclose(adv, expected, atol=1e-12)
    assert np.allclose(returns, expected + values, atol=1e-12)


def test_gae_normalization():
    rewards = np.array([1.0, 0.0, 2.0, -1.0])
    values = np.zeros(4)
    dones = np.array([False, False, False, True])
    adv, _ = compute_gae(rewards, values, dones, 0.99, 0.95, normalize=True)
    assert adv.mean() == pytest.approx(0.0, abs=1e-8)
    assert adv.std() == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(ValueError):
        compute_gae([], [], [], 0.99, 0.95)


def test_ppo_surrogate_clip_arithmetic():
    """With old log-probs shifted by a known offset the ratio is known
    exactly, so the first-epoch surrogate has a closed form."""
    rng = np.random.default_rng(9)
    policy = ManagerPolicy(4, hidden=(8,), rng=rng)
    value_net = ValueNet(4, hidden=(8,), rng=rng)
    cfg = small_hrl_cfg(clip_eps=0.2, ppo_epochs=1, entropy_coef=0.0)
    states = rng.standard_normal((6, 4))
    us = rng.standard_normal((6, 2))
    lps, _, _ = policy.log_prob_batch(states, us)
    shift = np.log(np.array([1.0, 1.0, 1.5, 1.5, 0.5, 0.5]))
    old_lp = lps - shift            # ratio = exp(shift)
    adv = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    ratio = np.exp(shift)
    clipped = np.clip(ratio, 0.8, 1.2) * adv
    expected = float(np.mean(np.minimum(ratio * adv, clipped)))
    # zero-lr optimizers: weights frozen, stats still computed
    opt_p = Adam(policy.parameters(), lr=0.0)
    opt_v = Adam(value_net.net.parameters(), lr=0.0)
    stats = ppo_update(policy, value_net, opt_p, opt_v, states, us, old_lp,
                       adv, np.zeros(6), cfg)
    assert stats[0]["surrogate"] == pytest.approx(expected, abs=1e-12)
    assert stats[0]["dropped"] == 0


def test_ppo_update_moves_parameters():
    rng = np.random.default_rng(10)
    policy = ManagerPolicy(4, hidden=(8,), rng=rng)
    value_net = ValueNet(4, hidden=(8,), rng=rng)
    cfg = small_hrl_cfg(ppo_epochs=3)
    states = rng.standard_normal((16, 4))
    us = rng.standard_normal((16, 2))
    lps, _, _ = policy.log_prob_batch(states, us)
    adv = rng.standard_normal(16)
    before = {k: v.copy() for k, v in policy.parameters().items()}
    opt_p = Adam(policy.parameters(), lr=1e-3)
    opt_v = Adam(value_net.net.parameters(), lr=1e-3)
    ppo_update(policy, value_net, opt_p, opt_v, states, us, lps, adv,
               rng.standard_normal(16), cfg)
    after = policy.parameters()
    assert any(not np.array_equal(before[k], after[k]) for k in before)


def make_agent(variant, seed=0):
    cfg = small_hrl_cfg(variant=variant)
    den = sched = None
    if variant in ("DSRM-HRL", "FLAT"):
        from dsrm_hrl.diffusion import Denoiser, make_schedule
        den = Denoiser(8, hidden=(8,), time_dim=4, k_steps=2,
                       rng=np.random.default_rng(0))
        sched = make_schedule(2, 0.01, 0.1)
    return cfg, Agent(cfg, 8, denoiser=den, schedule=sched, seed=seed)


def reference_episode(agent, env, session_seed, rng, mode):
    """The rollout loop with full bookkeeping in both modes and a full-sort
    slate selection, as an oracle for Agent.run_episode."""
    obs = env.reset(session_seed)
    traj = Trajectory()
    episode_exposure = np.zeros(env.catalog.n_items)
    rewards_log, slates_log = [], []
    held = None
    done = False
    step = 0
    while not done:
        state = agent.policy_state(obs.vec)
        action, lp, u, held = agent.manager_action(state, rng, mode == "eval",
                                                   step, held)
        scores = score_items(state, action, env.catalog)
        n = len(scores)
        slate = np.lexsort((np.arange(n), -scores))[:env.config.slate_k]
        item_rewards, obs, done = env.step(slate)
        r_t = float(np.mean(item_rewards))
        episode_exposure[slate] += 1
        traj.states.append(state)
        traj.pre_squash.append(u)
        traj.log_probs.append(lp)
        traj.env_rewards.append(r_t)
        traj.shaped_rewards.append(
            shaped_reward(r_t, episode_exposure, agent.cfg.lambda_fair))
        traj.values.append(agent.value_net.value(state))
        traj.dones.append(done)
        rewards_log.append(r_t)
        slates_log.append(slate.tolist())
        step += 1
    return SessionOutcome(step, rewards_log, slates_log, env.abandoned), traj


@pytest.mark.parametrize("variant", ["DSRM-HRL", "HRL-RAW", "FLAT"])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_run_episode_matches_full_bookkeeping_loop(variant, mode):
    """Consecutive sessions on one shared catalog, so exposure carries over
    between them: every outcome field, the train trajectory and the final
    catalog exposure must equal the oracle loop's."""
    env_cfg = small_env_cfg(n_items=300, slate_k=10, max_len=12)
    env, ref_env = RecEnv(env_cfg), RecEnv(env_cfg)
    _, agent = make_agent(variant)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    for i in range(6):
        outcome, traj = agent.run_episode(env, 500 + i, rng, mode=mode)
        ref_outcome, ref_traj = reference_episode(agent, ref_env, 500 + i,
                                                  ref_rng, mode)
        assert astuple(outcome) == astuple(ref_outcome)
        if mode == "train":
            for name in ("states", "pre_squash", "log_probs", "env_rewards",
                         "shaped_rewards", "values", "dones"):
                assert np.array_equal(getattr(traj, name),
                                      getattr(ref_traj, name)), name
    assert np.array_equal(env.catalog.exposure, ref_env.catalog.exposure)


def test_eval_episode_is_inference_only(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("training-only bookkeeping called in eval")

    monkeypatch.setattr(ValueNet, "value", forbidden)
    monkeypatch.setattr(agent_mod, "gini", forbidden)
    _, agent = make_agent("DSRM-HRL")
    outcome, traj = agent.run_episode(RecEnv(small_env_cfg()), 0,
                                      np.random.default_rng(0), mode="eval")
    assert outcome.length > 0
    assert len(traj) == 0
    with pytest.raises(AssertionError):
        agent.run_episode(RecEnv(small_env_cfg()), 0,
                          np.random.default_rng(0), mode="train")


def test_run_episode_rejects_unknown_mode():
    _, agent = make_agent("HRL-RAW")
    with pytest.raises(ValueError):
        agent.run_episode(RecEnv(small_env_cfg()), 0,
                          np.random.default_rng(0), mode="greedy")


def test_flat_without_denoiser_uses_raw_state():
    agent = Agent(small_hrl_cfg(variant="FLAT"), 8)
    vec = np.random.default_rng(1).standard_normal(8)
    assert np.array_equal(agent.policy_state(vec), vec)
    with pytest.raises(ValueError):
        Agent(small_hrl_cfg(variant="DSRM-HRL"), 8)


def test_flat_agent_uses_fixed_weights():
    cfg, agent = make_agent("FLAT")
    env = RecEnv(small_env_cfg())
    outcome, traj = agent.run_episode(env, session_seed=0,
                                      rng=np.random.default_rng(0))
    assert outcome.length > 0
    assert len(traj) == outcome.length


def test_trainer_runs_and_logs():
    env = RecEnv(small_env_cfg())
    cfg, agent = make_agent("HRL-RAW")
    trainer = Trainer(env, agent, cfg, seed=0)
    rows = []
    trainer.train(log_rows=rows)
    assert len(rows) == cfg.total_steps // cfg.batch_steps
    for r in rows:
        assert np.isfinite(r["surrogate"]) and np.isfinite(r["value_loss"])


def test_flat_training_keeps_policy_frozen():
    env = RecEnv(small_env_cfg())
    cfg, agent = make_agent("FLAT")
    before = {k: v.copy() for k, v in agent.policy.parameters().items()}
    Trainer(env, agent, cfg, seed=0).train()
    after = agent.policy.parameters()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_evaluate_deterministic_and_held_out():
    cfg, agent = make_agent("HRL-RAW")
    out1 = evaluate(RecEnv(small_env_cfg()), agent, 5, base_seed=0,
                    seed_offset=10_000)
    out2 = evaluate(RecEnv(small_env_cfg()), agent, 5, base_seed=0,
                    seed_offset=10_000)
    assert [o.length for o in out1] == [o.length for o in out2]
    for a, b in zip(out1, out2):
        assert np.allclose(a.rewards, b.rewards)
