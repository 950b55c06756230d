"""The lean step path against the step path it replaced.

The env step, its history encoding and the worker's scores read exposure
statistics the catalog keeps up to date on the served items only. These
tests run the earlier whole-catalog versions, kept here verbatim, side by
side with the package's and require every reward, observation, clean state,
score and exposure count to match bit for bit, and the catalog's cached
statistics to equal the same functions of the whole exposure vector after
every step. The k-entry log1p must equal the whole-catalog log1p element
for element; nothing in NumPy promises that, so these tests pin it.

The random rollout, in blocks of steps made in chunks, runs against
RecEnv's own reset and step, one step at a time, and must match them bit
for bit too."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from dsrm_hrl import agent as agent_mod
from dsrm_hrl.agent import Agent
from dsrm_hrl.config import DsrmConfig, EnvConfig, HrlConfig
from dsrm_hrl.diffusion import Denoiser
from dsrm_hrl.env import (GROUP_POPULAR, POP_DRIFT_RATIO, ROLLOUT_BLOCK, EnvError,
                          InvalidActionError, RecEnv,
                          _rollout_chunk, random_rollout, update_abandonment)

from dsrm_hrl.env import ItemCatalog, _drift_directions, popularity_drift_direction

from conftest import clean_state, random_slate, same_outcome


# -- the earlier step path, verbatim ----------------------------------------

@dataclass
class UserProfile:
    latent_pref: np.ndarray                 # unit-norm ground truth, fixed per session
    history: list = field(default_factory=list)  # [(item_id, reward)], capped at window
    satisfaction: float = 1.0


def old_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def old_exposure_weight(exposure, max_exposure):
    if max_exposure <= 0:
        return np.zeros_like(np.asarray(exposure, dtype=np.float64))
    return np.log1p(exposure) / np.log1p(max_exposure)


def old_popularity_drift_direction(catalog, rng):
    total = catalog.exposure.sum()
    n = catalog.n_items
    if total <= 0:
        return np.zeros(catalog.embeddings.shape[1])
    share = catalog.exposure / total
    v = (share * np.abs(rng.standard_normal(n))) @ catalog.embeddings
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        return np.zeros(catalog.embeddings.shape[1])
    return v / norm


def old_encode_observed(history, catalog, noise_scale, rng):
    d = catalog.embeddings.shape[1]
    if history:
        ids = [i for i, _ in history]
        if min(ids) < 0 or max(ids) >= catalog.n_items:
            raise EnvError("history references unknown item id")
        w = 1.0 + np.array([r for _, r in history])
        base = (w[:, None] * catalog.embeddings[ids]).sum(axis=0) / w.sum()
    else:
        base = catalog.prior.copy()
    vec = base
    if noise_scale > 0:
        mag = np.abs(rng.standard_normal())
        drift = mag * old_popularity_drift_direction(catalog, rng)
        vec = vec + noise_scale * POP_DRIFT_RATIO * drift
        vec = vec + (noise_scale / np.sqrt(d)) * rng.standard_normal(d)
    return np.asarray(vec, dtype=np.float64)


def old_score_items(state_vec, omega, catalog):
    norm = np.linalg.norm(state_vec)
    if norm < 1e-12:
        sim = np.zeros(catalog.n_items)
    else:
        sim = catalog.embeddings @ (state_vec / norm)
    scores = omega[0] * sim - omega[1] * np.log1p(catalog.exposure)
    if not np.all(np.isfinite(scores)):
        raise FloatingPointError("non-finite item scores")
    return scores


class OldEnv(RecEnv):
    """RecEnv with the earlier reset, clean_state and step. It writes its
    catalog's exposure directly, so that catalog's caches go stale; nothing
    here reads them."""

    def reset(self, seed):
        self._rng = np.random.default_rng([self.config.seed, seed])
        pref = self._rng.standard_normal(self.config.d)
        pref /= np.linalg.norm(pref)
        self._user = UserProfile(latent_pref=pref)
        self._step = 0
        self._done = False
        self._abandoned = False
        self._popular_counts.clear()
        return old_encode_observed([], self.catalog, self.config.noise_scale,
                                   self._rng)

    def clean_state(self):
        return old_encode_observed(self._user.history, self.catalog, 0.0,
                                   self._rng)

    def step(self, slate):
        if self._done or self._user is None:
            raise EnvError("step() on a finished or unstarted session")
        slate = np.asarray(slate, dtype=np.int64)
        if slate.shape != (self.config.slate_k,):
            raise InvalidActionError(
                f"slate must have exactly {self.config.slate_k} items")
        ids = slate.tolist()
        if len(set(ids)) != len(ids):
            raise InvalidActionError("slate contains duplicate item ids")
        if min(ids) < 0 or max(ids) >= self.catalog.n_items:
            raise InvalidActionError("slate contains unknown item ids")
        cfg = self.config
        cat = self.catalog

        align = cat.embeddings[slate] @ self._user.latent_pref
        bias = cfg.bias_strength * old_exposure_weight(cat.exposure[slate],
                                                       cat.exposure.max())
        noise = cfg.obs_noise * self._rng.standard_normal(len(slate)) \
            if cfg.obs_noise > 0 else 0.0
        rewards = np.clip(old_sigmoid(cfg.kappa * align) + bias + noise, 0.0, 1.0)

        cat.exposure[slate] += 1

        consumed = int(np.argmax(rewards))
        self._user.history.append((int(slate[consumed]), float(rewards[consumed])))
        if len(self._user.history) > cfg.history_window:
            self._user.history = self._user.history[-cfg.history_window:]

        self._popular_counts.append(cat.group[slate].tolist().count(GROUP_POPULAR))
        self._user.satisfaction, abandoned = update_abandonment(
            self._user.satisfaction, self._popular_counts, cfg, self._rng)

        self._step += 1
        self._done = abandoned or self._step >= cfg.max_len
        self._abandoned = abandoned
        nxt = old_encode_observed(self._user.history, cat, cfg.noise_scale,
                                  self._rng)
        return rewards, nxt, self._done


# -- harness ----------------------------------------------------------------

def assert_caches_fresh(cat):
    assert cat.exposure_total == cat.exposure.sum()
    assert cat.exposure_max == cat.exposure.max()
    assert np.array_equal(cat.log1p_exposure, np.log1p(cat.exposure))


def session_clean_state(env):
    """The old clean state for an OldEnv, the package's for a RecEnv."""
    return env.clean_state() if isinstance(env, OldEnv) else clean_state(env)


def record_steps(env, log, check_caches):
    """Log (rewards, observation, clean state, exposure) after each step."""
    step = env.step

    def logged(slate):
        rewards, obs, done = step(slate)
        if check_caches:
            assert_caches_fresh(env.catalog)
        log.append((rewards.copy(), obs.copy(), session_clean_state(env),
                    env.catalog.exposure.copy()))
        return rewards, obs, done

    env.step = logged


def assert_logs_equal(log, ref_log):
    assert len(log) == len(ref_log)
    for got, want in zip(log, ref_log):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


# 500 items is the default catalog, 5000 the large-catalog benchmark's. A
# zero warm start begins with no exposure at all: no bias, no drift.
CATALOGS = {
    "500": dict(),
    "5000": dict(n_items=5000),
    "cold": dict(n_items=60, init_exposure=0, max_len=8),
    "noise-free": dict(noise_scale=0.0, obs_noise=0.0),
}


@pytest.mark.parametrize("catalog", sorted(CATALOGS))
def test_random_rollout_matches_old_step(catalog):
    cfg = EnvConfig(**CATALOGS[catalog])
    env, ref = RecEnv(cfg), OldEnv(cfg)
    assert_caches_fresh(env.catalog)
    log, ref_log = [], []
    record_steps(env, log, check_caches=True)
    record_steps(ref, ref_log, check_caches=False)
    rng = np.random.default_rng(7)
    while len(log) < 2000:
        seed = int(rng.integers(0, 2**31 - 1))
        assert np.array_equal(env.reset(seed), ref.reset(seed))
        assert np.array_equal(clean_state(env), ref.clean_state())
        done = False
        while not done:
            slate = random_slate(env)
            assert np.array_equal(slate, random_slate(ref))
            done = env.step(slate)[2]
            assert ref.step(slate)[2] == done
    assert_logs_equal(log, ref_log)


def make_agent(variant, d):
    cfg = HrlConfig(variant=variant, hidden=(16,), manager_interval=2)
    den = None
    if variant != "HRL-RAW":
        den = Denoiser(DsrmConfig(k_steps=3, hidden=(16,), time_dim=4), d,
                       rng=np.random.default_rng(0))
    return Agent(cfg, d, denoiser=den, seed=0)


# The two catalog sizes, and the envs where no bias is added (the cold
# catalog's first step) and no drift is drawn (its first reset, and every
# observation of the noise-free env).
AGENT_ENVS = {
    "500": dict(),
    "5000": dict(n_items=5000),
    "cold": dict(init_exposure=0),
    "noise-free": dict(noise_scale=0.0, obs_noise=0.0),
}

# FLAT's sessions on the cold catalog end early, so that case runs more
# episodes to reach the same number of steps.
AGENT_EPISODES = {("FLAT", "cold"): 24}


@pytest.mark.parametrize("env_kind", list(AGENT_ENVS))
@pytest.mark.parametrize("variant", ["DSRM-HRL", "HRL-RAW", "FLAT"])
def test_agent_episodes_match_old_step(variant, env_kind, monkeypatch):
    """Training and greedy episodes on one shared catalog: every step's
    rewards, observation, clean state, item scores and exposure."""
    cfg = EnvConfig(bias_strength=0.8, **AGENT_ENVS[env_kind])
    agent = make_agent(variant, cfg.d)
    runs = []
    for env, score in ((RecEnv(cfg), agent_mod.score_items),
                       (OldEnv(cfg), old_score_items)):
        log, scores = [], []
        record_steps(env, log, check_caches=score is agent_mod.score_items)

        def scored(state, omega, catalog, score=score):
            scores.append(score(state, omega, catalog))
            return scores[-1]

        monkeypatch.setattr(agent_mod, "score_items", scored)
        rng = np.random.default_rng(3)
        outcomes = [agent.run_episode(env, 100 + i, rng, train=i % 2 == 0)[0]
                    for i in range(AGENT_EPISODES.get((variant, env_kind), 6))]
        runs.append((log, scores, outcomes))
    (log, scores, outcomes), (ref_log, ref_scores, ref_outcomes) = runs
    assert len(log) > 60
    assert_logs_equal(log, ref_log)
    assert len(scores) == len(ref_scores)
    assert all(np.array_equal(a, b) for a, b in zip(scores, ref_scores))
    assert len(outcomes) == len(ref_outcomes)
    assert all(map(same_outcome, outcomes, ref_outcomes))


# -- the chunked random rollout against the per-step env --------------------

def stepped_rollout(env, rng, n_steps):
    """random_rollout one step at a time through RecEnv.reset and step: the
    per-step arrays, each session's first step, and how each finished
    session ended, as (abandoned, satisfaction)."""
    steps, starts, ends, done = [], [], [], True
    for t in range(n_steps):
        if done:
            env.reset(int(rng.integers(0, 2**31 - 1)))
            starts.append(t)
        slate = random_slate(env)
        seen = env.catalog.exposure[slate]
        rewards, obs, done = env.step(slate)
        steps.append((slate, rewards, seen, clean_state(env), obs))
        if done:
            ends.append((env.abandoned, env._satisfaction))
    return [np.array(column) for column in zip(*steps)], starts, ends


def assert_catalogs_equal(cat, ref):
    assert np.array_equal(cat.exposure, ref.exposure)
    assert cat.exposure_total == ref.exposure_total
    assert cat.exposure_max == ref.exposure_max
    assert np.array_equal(cat.log1p_exposure, ref.log1p_exposure)


# A cold catalog has no bias at its first step and no drift draw at its
# first reset. Abandoning sessions end early both at zero satisfaction and
# by the stochastic exit. A one-item history window, and one longer than
# max_len (histories of every length up to 30), exercise the grouping by
# window length of the encoding's sums.
ROLLOUT_ENVS = {
    "default": dict(),
    "cold": dict(init_exposure=0),
    "noise-free": dict(noise_scale=0.0, obs_noise=0.0),
    "abandoning": dict(abandon_prob=0.5, threshold_a=0.1),
    "window-1": dict(history_window=1),
    "window-40": dict(history_window=40),
}


# 40 items make a chunk as long as a block; 500 and 5000 items make blocks
# of several chunks, the last one short.
@pytest.mark.parametrize("env_kind", sorted(ROLLOUT_ENVS))
@pytest.mark.parametrize("n_items", [40, 500, 5000])
def test_chunked_rollout_matches_stepped_env(n_items, env_kind):
    cfg = EnvConfig(n_items=n_items, **ROLLOUT_ENVS[env_kind])
    chunk, block = _rollout_chunk(n_items), ROLLOUT_BLOCK
    several = 2 * block + chunk + 3  # several blocks, chunks and sessions
    edges = {1, chunk - 1, chunk, chunk + 1, block - 1, block, block + 1, several}
    straddled = set()
    for n_steps in sorted(edges - {0}):
        env, ref = RecEnv(cfg), RecEnv(cfg)
        got = random_rollout(env, np.random.default_rng(n_steps), n_steps)
        want, starts, ends = stepped_rollout(ref, np.random.default_rng(n_steps),
                                             n_steps)
        for name, column in zip(("slates", "rewards", "exposure", "clean",
                                 "observed"), want):
            assert np.array_equal(getattr(got, name), column), name
        assert_catalogs_equal(env.catalog, ref.catalog)
        assert_caches_fresh(env.catalog)
        bounds = [*starts, n_steps]
        straddled |= {edge for edge in (chunk, block) for a, b in zip(bounds, bounds[1:])
                      if a // edge < (b - 1) // edge}
    # Some session straddles a chunk edge and one a block edge, and the
    # abandoning env ends sessions both ways (in the longest rollout).
    assert straddled == {chunk, block}
    if env_kind == "abandoning":
        assert {satisfaction > 0 for abandoned, satisfaction in ends if abandoned} \
            == {False, True}


def test_rollout_at_the_largest_warm_start_matches_stepped_env():
    """init_exposure = 2**52 on 5000 items of near-flat popularity: the
    warm-start total passes 2**63, and the chunked rollout still matches the
    stepped env, with the catalog's total exact."""
    cfg = EnvConfig(n_items=5000, init_exposure=2**52, zipf_s=0.001)
    env, ref = RecEnv(cfg), RecEnv(cfg)
    assert env.catalog.exposure_total > 2**63
    got = random_rollout(env, np.random.default_rng(1), 40)
    want, _, _ = stepped_rollout(ref, np.random.default_rng(1), 40)
    for name, column in zip(("slates", "rewards", "exposure", "clean", "observed"), want):
        assert np.array_equal(getattr(got, name), column), name
    assert_catalogs_equal(env.catalog, ref.catalog)
    assert env.catalog.exposure_total == sum(int(c) for c in env.catalog.exposure.tolist())


def test_rollouts_continue_the_catalog():
    """Two rollouts on one env serve one catalog in turn, as two stepped
    rollouts on one env do."""
    cfg = EnvConfig(n_items=500)
    env, ref = RecEnv(cfg), RecEnv(cfg)
    for seed in (1, 2):
        got = random_rollout(env, np.random.default_rng(seed), 100)
        want, _, _ = stepped_rollout(ref, np.random.default_rng(seed), 100)
        assert np.array_equal(got.observed, want[4])
        assert_catalogs_equal(env.catalog, ref.catalog)


# -- the whole-catalog hot paths against their copy-free rewrites -----------
#
# The worker's scores, its slate selection and the drift share of the
# observed state, as they read before the scores were built in place, the
# k-th best score was found without negating the catalog and exposure was
# held as float64 exact integers: verbatim, with int64 exposure counts.

def parent_score_items(state_vec, omega, catalog):
    norm = math.sqrt(state_vec.dot(state_vec))
    if norm < 1e-12:
        sim = np.zeros(catalog.n_items)
    else:
        sim = catalog.embeddings @ (state_vec / norm)
    scores = omega[0] * sim - omega[1] * catalog.log1p_exposure
    if not np.isfinite(scores).all():
        raise FloatingPointError("non-finite item scores")
    return scores


def parent_select_slate(scores, k):
    n = len(scores)
    if not 0 <= k <= n:
        raise ValueError(f"slate size {k} outside [0, catalog size {n}]")
    if not np.isfinite(scores).all():
        raise ValueError("non-finite item scores")
    neg = -scores
    kth = np.partition(neg, k - 1)[k - 1]
    candidates = np.flatnonzero(neg <= kth)
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


def parent_drift_directions(share, draws, embeddings):
    share *= np.abs(draws, out=draws)
    v = np.matmul(share[..., None, :], embeddings)[..., 0, :]
    norm = np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0])
    return np.divide(v, norm, out=np.zeros_like(v), where=norm >= 1e-12)


def parent_popularity_drift_direction(catalog, draws):
    if catalog.exposure_total <= 0:
        return np.zeros(catalog.embeddings.shape[1])
    return parent_drift_directions(catalog.exposure / catalog.exposure_total, draws,
                                   catalog.embeddings)


class ParentCatalog(ItemCatalog):
    """ItemCatalog holding its exposure as given (int64 here), with the
    statistics and serve it had then."""

    def __post_init__(self):
        self.exposure_total = int(self.exposure.sum())
        self.exposure_max = int(self.exposure.max())
        self.log1p_exposure = np.log1p(self.exposure)
        self.group_sizes = np.bincount(self.group, minlength=2)

    def serve(self, slates):
        if slates.ndim == 1:
            self.exposure[slates] += 1
        else:
            self.exposure += np.bincount(slates.ravel(), minlength=self.n_items)
        served = self.exposure[slates]
        self.log1p_exposure[slates] = np.log1p(served)
        self.exposure_total += served.size
        self.exposure_max = max(self.exposure_max, int(served.max()))


def assert_same_bits(got, want):
    """Equal arrays of one dtype and shape whose bytes match too, which
    tells -0.0 from 0.0."""
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def catalog_pair(n_items, seed, exposure=None):
    """A built catalog of n_items (d 16) and a ParentCatalog on the same
    arrays with int64 counts. Items 10-19 copy items 0-9, embedding and
    count, so their scores tie with those items'."""
    cat = ItemCatalog.build(EnvConfig(n_items=n_items), np.random.default_rng(seed))
    emb = cat.embeddings.copy()
    emb[10:20] = emb[:10]
    counts = cat.exposure.astype(np.int64) if exposure is None else exposure.copy()
    counts[10:20] = counts[:10]
    rest = (cat.initial_popularity, cat.group, cat.prior)
    return (ItemCatalog(n_items, emb, counts.copy(), *rest),
            ParentCatalog(n_items, emb, counts.copy(), *rest))


# Signed zeros come from a zero accuracy weight times negative similarities;
# with both weights zero every score is 0.0 or -0.0.
OMEGAS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.3, 0.7), (0.2, 2.5)]


@pytest.mark.parametrize("n_items", [500, 5000])
def test_scores_and_slates_match_parent(n_items):
    rng = np.random.default_rng(n_items)
    cat, ref = catalog_pair(n_items, seed=n_items)
    d = cat.embeddings.shape[1]
    slate_k = EnvConfig().slate_k
    states = [np.zeros(d), cat.embeddings[3], *rng.standard_normal((6, d))]
    omegas = [*OMEGAS, *np.logaddexp(0.0, rng.standard_normal((4, 2)))]
    for step in range(3):
        assert_same_bits(cat.log1p_exposure, ref.log1p_exposure)
        for state in states:
            for omega in map(np.asarray, omegas):
                scores = agent_mod.score_items(state, omega, cat)
                assert_same_bits(scores, parent_score_items(state, omega, ref))
                for k in (0, 1, slate_k, n_items):
                    assert_same_bits(agent_mod.select_slate(scores, k),
                                     parent_select_slate(scores, k))
        slate = rng.choice(n_items, size=slate_k, replace=False)
        cat.serve(slate)
        ref.serve(slate)
    # The tied pairs are served in id order, and both zero signs are seen.
    scores = agent_mod.score_items(states[1], np.array([1.0, 0.0]), cat)
    assert scores[3] == scores[13] == scores.max()
    assert list(agent_mod.select_slate(scores, 2)) == [3, 13]
    signs = np.signbit(agent_mod.score_items(states[2], np.zeros(2), cat))
    assert signs.any() and not signs.all()


@pytest.mark.parametrize("n_items", [500, 5000])
def test_select_slate_matches_parent_on_ties_and_signed_zeros(n_items):
    """Scores from a handful of values, 0.0 and -0.0 among them, so every
    k-th best score is tied and the ties straddle it."""
    rng = np.random.default_rng(n_items + 1)
    values = np.array([-1.0, -0.0, 0.0, 0.25, 1.0])
    for _ in range(20):
        scores = rng.choice(values, size=n_items)
        scores[rng.integers(n_items, size=n_items // 10)] = rng.standard_normal(n_items // 10)
        for k in (0, 1, 5, int(rng.integers(1, n_items)), n_items):
            assert_same_bits(agent_mod.select_slate(scores, k), parent_select_slate(scores, k))
    for k in (0, 1, 5, n_items):
        zeros = np.where(rng.random(n_items) < 0.5, 0.0, -0.0)
        assert_same_bits(agent_mod.select_slate(zeros, k), parent_select_slate(zeros, k))


@pytest.mark.parametrize("n_items", [500, 5000])
def test_drift_matches_parent_int_counts(n_items):
    """The drift direction from float64 counts against the int64 counts'
    share, one state and rows of them, including a catalog with nothing
    exposed and draws that cancel every exposed item."""
    rng = np.random.default_rng(n_items + 2)
    zero = np.zeros(n_items, np.int64)
    one_item = zero.copy()
    one_item[7] = 3
    for exposure in (None, zero, one_item):
        cat, ref = catalog_pair(n_items, seed=n_items, exposure=exposure)
        assert_same_bits(cat.exposure / max(cat.exposure_total, 1),
                         ref.exposure / max(ref.exposure_total, 1))
        draws = rng.standard_normal((4, n_items))
        draws[3, 7] = draws[3, 17] = 0.0
        for row in draws:
            assert_same_bits(popularity_drift_direction(cat, row.copy()),
                             parent_popularity_drift_direction(ref, row.copy()))
        if cat.exposure_total > 0:
            share = np.tile(cat.exposure / cat.exposure_total, (4, 1))
            ref_share = np.tile(ref.exposure / ref.exposure_total, (4, 1))
            assert_same_bits(_drift_directions(share, draws.copy(), cat.embeddings),
                             parent_drift_directions(ref_share, draws.copy(),
                                                     ref.embeddings))
    assert not popularity_drift_direction(cat, draws[3].copy()).any()


def test_int_exposure_is_held_as_exact_float():
    """An int64 exposure given to ItemCatalog is held as float64 and stays
    an exact integer, equal to the int64 catalog's, after serves of one
    slate and of blocks of slates."""
    rng = np.random.default_rng(5)
    cat, ref = catalog_pair(500, seed=5)
    assert ref.exposure.dtype == np.int64 and cat.exposure.dtype == np.float64
    for step in range(40):
        if step % 4 == 3:
            slates = np.array([rng.choice(500, size=5, replace=False) for _ in range(6)])
        else:
            slates = rng.choice(500, size=5, replace=False)
        cat.serve(slates)
        ref.serve(slates)
        assert cat.exposure.dtype == np.float64
        assert np.array_equal(cat.exposure, np.round(cat.exposure))
        assert np.array_equal(cat.exposure, ref.exposure)
        assert_same_bits(cat.log1p_exposure, ref.log1p_exposure)
        assert (cat.exposure_total, cat.exposure_max) == (ref.exposure_total, ref.exposure_max)
        assert_caches_fresh(cat)
