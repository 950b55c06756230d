"""Synthetic interactive environment: catalog, rewards, abandonment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsrm_hrl import env as env_mod
from dsrm_hrl.config import EnvConfig
from dsrm_hrl.diffusion import make_schedule
from dsrm_hrl.env import (GROUP_LONGTAIL, GROUP_POPULAR, EnvError, InvalidActionError,
                          ItemCatalog, RecEnv, _sigmoid,
                          encode_observed, random_rollout, update_abandonment)

from conftest import random_slate


def small_cfg(**kw):
    base = dict(d=8, n_items=40, slate_k=3, max_len=10, history_window=4,
                init_exposure=100, seed=0)
    base.update(kw)
    return EnvConfig(**base)


def test_array_records_compare_by_identity():
    """The catalog, a rollout and a diffusion schedule hold arrays, which
    have no truth value: each equals only itself, without raising, and the
    frozen schedule hashes."""
    pairs = [(RecEnv(small_cfg()).catalog, RecEnv(small_cfg()).catalog),
             tuple(random_rollout(RecEnv(small_cfg()), np.random.default_rng(1), 8)
                   for _ in range(2)),
             (make_schedule(5, 1e-4, 0.02), make_schedule(5, 1e-4, 0.02))]
    for a, b in pairs:
        assert a == a and a in [a]
        assert not a == b and a != b and a not in [b]
    hash(pairs[2][0])


def test_catalog_invariants():
    cfg = small_cfg()
    cat = ItemCatalog.build(cfg, np.random.default_rng(0))
    norms = np.linalg.norm(cat.embeddings, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert np.all(cat.exposure >= 0)
    assert np.all(cat.initial_popularity > 0)
    n_pop = int(np.ceil(0.2 * cfg.n_items))
    assert np.sum(cat.group == GROUP_POPULAR) == n_pop
    assert np.sum(cat.group == GROUP_LONGTAIL) == cfg.n_items - n_pop
    # popular group = top items by initial popularity
    top = set(np.argsort(-cat.initial_popularity)[:n_pop])
    assert set(np.flatnonzero(cat.group == GROUP_POPULAR)) == top
    assert cat.exposure.max() == cfg.init_exposure


def test_largest_init_exposure_counts_stay_exact():
    """At init_exposure = 2**52, the config's high end, the counts are
    float64 exact integers and stay so as impressions are served, and the
    total is exact though it passes 2**53."""
    env = RecEnv(small_cfg(init_exposure=2**52))
    cat = env.catalog
    top = int(np.argmax(cat.exposure))
    assert cat.exposure.dtype == np.float64 and cat.exposure[top] == 2**52
    env.reset(0)
    slate = np.array([top, (top + 1) % 40, (top + 2) % 40])
    env.step(slate)
    cat.serve(slate[None])
    counts = [int(c) for c in cat.exposure.tolist()]
    assert counts[top] == 2**52 + 2
    assert cat.exposure_max == 2**52 + 2
    assert cat.exposure_total == sum(counts) > 2**53


def test_catalog_popular_items_share_direction():
    cat = ItemCatalog.build(small_cfg(n_items=200), np.random.default_rng(1))
    pop_mean = cat.embeddings[cat.group == GROUP_POPULAR].mean(axis=0)
    tail_mean = cat.embeddings[cat.group == GROUP_LONGTAIL].mean(axis=0)
    assert np.linalg.norm(pop_mean) > 2 * np.linalg.norm(tail_mean)


def test_reset_determinism():
    env1, env2 = RecEnv(small_cfg()), RecEnv(small_cfg())
    o1, o2 = env1.reset(42), env2.reset(42)
    assert np.array_equal(o1, o2)
    assert np.array_equal(env1.ground_truth_state(), env2.ground_truth_state())
    o3 = env2.reset(43)
    assert not np.array_equal(o1, o3)


def test_session_plan_takes_its_seeds_in_order(monkeypatch):
    """In a session plan each reset must take the plan's next seed; a reset
    that does not, or that finds the plan used up, raises and leaves no
    session open, as does the end of the block."""
    monkeypatch.setattr(env_mod, "PLAN_MIN_NORMALS", 1)
    env, ref = RecEnv(small_cfg()), RecEnv(small_cfg())
    with env.sessions([5, 6]):
        assert np.array_equal(env.reset(5), ref.reset(5))
        env.step([0, 1, 2])
        with pytest.raises(EnvError, match="not the session plan's next"):
            env.reset(7)
        with pytest.raises(EnvError, match="finished or unstarted"):
            env.step([0, 1, 2])
        ref.step([0, 1, 2])
        assert np.array_equal(env.reset(6), ref.reset(6))
        with pytest.raises(EnvError, match="not the session plan's next"):
            env.reset(7)
    with env.sessions([8]):
        assert np.array_equal(env.reset(8), ref.reset(8))
    with pytest.raises(EnvError, match="finished or unstarted"):
        env.step([0, 1, 2])


def test_latent_pref_unit_norm():
    env = RecEnv(small_cfg())
    env.reset(0)
    assert np.linalg.norm(env.ground_truth_state()) == pytest.approx(1.0)


def test_step_reward_formula_oracle():
    """With obs noise off, per-item rewards follow the documented closed form."""
    cfg = small_cfg(obs_noise=0.0)
    env = RecEnv(cfg)
    env.reset(5)
    slate = np.array([0, 7, 23])
    exp_before = env.catalog.exposure.copy()
    u = env.ground_truth_state()
    rewards, _, _ = env.step(slate)
    w = np.log1p(exp_before[slate]) / np.log1p(exp_before.max())
    expected = np.clip(_sigmoid(cfg.kappa * env.catalog.embeddings[slate] @ u)
                       + cfg.bias_strength * w, 0.0, 1.0)
    assert np.allclose(rewards, expected, atol=1e-12)


def test_bias_monotone_in_exposure():
    cat = ItemCatalog(4, np.eye(4), np.array([0, 10, 100, 1000]), np.ones(4),
                      np.zeros(4, dtype=np.int64))
    w = cat.log1p_exposure / np.log1p(cat.exposure_max)
    assert np.all(np.diff(w) > 0)
    # Nothing served yet: no bias.
    cfg = small_cfg(init_exposure=0, obs_noise=0.0)
    env = RecEnv(cfg)
    env.reset(5)
    slate = np.array([0, 7, 23])
    rewards, _, _ = env.step(slate)
    sig = _sigmoid(cfg.kappa * env.catalog.embeddings[slate] @ env.ground_truth_state())
    assert np.array_equal(rewards, np.clip(sig, 0.0, 1.0))


def test_step_exposure_conservation():
    env = RecEnv(small_cfg())
    env.reset(1)
    before = env.catalog.exposure.sum()
    slate = random_slate(env)
    env.step(slate)
    after = env.catalog.exposure.sum()
    assert after - before == env.config.slate_k
    assert np.all(np.diff(np.sort(env.catalog.exposure)) >= 0)


def test_step_consumes_argmax_item():
    cfg = small_cfg(obs_noise=0.0, noise_scale=0.0)
    env = RecEnv(cfg)
    env.reset(2)
    slate = random_slate(env)
    rewards, _, _ = env.step(slate)
    item, r = env._items[-1], env._rewards[-1]
    assert item == slate[int(np.argmax(rewards))]
    assert r == pytest.approx(np.max(rewards))


def test_invalid_slates_rejected():
    env = RecEnv(small_cfg())
    env.reset(0)
    with pytest.raises(InvalidActionError):
        env.step([0, 0, 1])            # duplicate
    with pytest.raises(InvalidActionError):
        env.step([0, 1, 999])          # out of range
    with pytest.raises(InvalidActionError):
        env.step([0, 1])               # wrong size


@pytest.mark.parametrize("slate,message", [
    ([0.9, 1.2, 2.7], "must be integers"),    # would truncate to items 0, 1, 2
    ([True, False, 2], "must be integers"),   # would serve items 1, 0, 2
    ([], "exactly 3 items"),
])
def test_non_integer_and_empty_slates_rejected(slate, message):
    env = RecEnv(small_cfg())
    env.reset(0)
    exposure = env.catalog.exposure.copy()
    with pytest.raises(InvalidActionError, match=message):
        env.step(slate)
    assert np.array_equal(env.catalog.exposure, exposure)
    assert env._step == 0 and env._items.size == env._rewards.size == 0


@pytest.mark.parametrize("slate", [[0, 0, 1], [0, 1, 40], [0, 1, 999],
                                   [-1, 0, 1], [0, 1], [0, 1, 2, 3]])
def test_rejected_slate_changes_nothing(slate):
    env = RecEnv(small_cfg())
    env.reset(0)
    _, _, done = env.step(random_slate(env))
    assert not done
    exposure = env.catalog.exposure.copy()
    items, rewards = env._items.copy(), env._rewards.copy()
    step, satisfaction = env._step, env._satisfaction
    with pytest.raises(InvalidActionError):
        env.step(slate)
    assert np.array_equal(env.catalog.exposure, exposure)
    assert np.array_equal(env._items, items) and np.array_equal(env._rewards, rewards)
    assert (env._step, env._satisfaction, env._done) == (step, satisfaction, done)


def test_abandonment_share_matches_mean_of_groups():
    """The popular share from per-slate counts equals the mean over the
    window's group labels bit for bit, so satisfaction moves exactly as
    with the labels themselves."""
    rng = np.random.default_rng(4)
    for k in (1, 3, 7):
        for n_slates in (1, 2, 5):
            groups = rng.integers(0, 2, size=(n_slates, k))
            share = float(np.mean(groups == GROUP_POPULAR))
            counts = [row.tolist().count(GROUP_POPULAR) for row in groups]
            at = small_cfg(slate_k=k, threshold_a=share, decay_a=0.5)
            assert update_abandonment(1.0, counts, at, None)[0] == 1.0
            if share > 0:
                below = small_cfg(slate_k=k, threshold_a=np.nextafter(share, 0.0),
                                  decay_a=0.5)
                assert update_abandonment(1.0, counts, below, None)[0] == 0.5


def test_history_window_cap():
    cfg = small_cfg(history_window=4, max_len=10)
    env = RecEnv(cfg)
    env.reset(3)
    for _ in range(6):
        _, _, done = env.step(random_slate(env))
        if done:
            break
    assert len(env._items) == len(env._rewards) <= 4


def test_episode_terminates_at_max_len():
    cfg = small_cfg(max_len=5, threshold_a=1.0)  # abandonment can't fire
    env = RecEnv(cfg)
    env.reset(0)
    steps, done = 0, False
    while not done:
        _, _, done = env.step(random_slate(env))
        steps += 1
    assert steps == 5
    assert not env.abandoned


def test_reset_clears_abandoned_flag():
    """An abandoned session must not leak its flag into the next one."""
    env = RecEnv(small_cfg(max_len=50, window_a=2, threshold_a=0.4, decay_a=0.5))
    assert not env.abandoned
    env.reset(0)
    popular = np.flatnonzero(env.catalog.group == GROUP_POPULAR)[:3]
    done = False
    while not done:
        _, _, done = env.step(popular)
    assert env.abandoned
    env.reset(1)
    assert not env.abandoned
    _, _, done = env.step(random_slate(env))  # a finished session would raise
    assert not done and not env.abandoned


def test_encode_cold_start_is_prior():
    cat = ItemCatalog.build(small_cfg(), np.random.default_rng(0))
    obs = encode_observed(np.empty(0, np.int64), np.empty(0), cat, 0.0,
                          np.random.default_rng(0))
    assert np.allclose(obs, cat.prior)


def test_encode_noise_free_weighted_mean():
    cat = ItemCatalog.build(small_cfg(), np.random.default_rng(0))
    obs = encode_observed(np.array([3, 7]), np.array([1.0, 0.0]), cat, 0.0,
                          np.random.default_rng(0))
    expected = (2.0 * cat.embeddings[3] + 1.0 * cat.embeddings[7]) / 3.0
    assert np.allclose(obs, expected, atol=1e-12)


def test_encode_rejects_unknown_items():
    cat = ItemCatalog.build(small_cfg(), np.random.default_rng(0))
    for item in (999, cat.n_items, -1):
        with pytest.raises(EnvError):
            encode_observed(np.array([3, item]), np.array([1.0, 1.0]), cat, 0.0,
                            np.random.default_rng(0))


def test_abandonment_hand_simulation():
    """window=2 slates of all-popular items, threshold 0.4, decay 0.5:
    satisfaction 1.0 -> 0.5 -> 0.0 -> abandoned."""
    cfg = small_cfg(window_a=2, threshold_a=0.4, decay_a=0.5)
    window = [3, 3]  # popular items per slate (slate_k = 3)
    s, ab = update_abandonment(1.0, window, cfg, None)
    assert s == pytest.approx(0.5) and not ab
    s, ab = update_abandonment(s, window, cfg, None)
    assert s == 0.0 and ab


def test_abandonment_below_threshold_no_decay():
    cfg = small_cfg(window_a=2, threshold_a=0.6, decay_a=0.5)
    window = [1]  # one popular item of three
    s, ab = update_abandonment(1.0, window, cfg, None)
    assert s == 1.0 and not ab


def test_abandonment_validation():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        update_abandonment(1.5, [], cfg, None)
    cfg2 = small_cfg(abandon_prob=0.5)
    with pytest.raises(ValueError):
        update_abandonment(1.0, [], cfg2, None)  # stochastic exit without rng


def test_full_episode_determinism():
    results = []
    for _ in range(2):
        env = RecEnv(small_cfg(seed=9))
        env.reset(17)
        rs, done = [], False
        while not done:
            r, obs, done = env.step(random_slate(env))
            rs.append((r.copy(), obs.copy()))
        results.append(rs)
    assert len(results[0]) == len(results[1])
    for (r1, v1), (r2, v2) in zip(*results):
        assert np.array_equal(r1, r2) and np.array_equal(v1, v2)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rewards_bounded(session_seed):
    env = RecEnv(small_cfg())
    env.reset(session_seed)
    rewards, _, _ = env.step(random_slate(env))
    assert np.all((rewards >= 0.0) & (rewards <= 1.0))
