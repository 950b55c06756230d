"""Synthetic interactive-recommendation environment with ground-truth
latent preferences.

The observed user state is a corrupted projection of the true preference:
a history encoding plus structured noise drifting toward heavily-exposed
item directions plus isotropic Gaussian noise. Observed rewards are
inflated by item exposure, which closes the popularity feedback loop, and
sessions abandon early when slates are dominated by popular items.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import EnvConfig

GROUP_POPULAR = 0
GROUP_LONGTAIL = 1


class EnvError(RuntimeError):
    pass


class InvalidActionError(EnvError):
    pass


@dataclass
class ItemCatalog:
    """Items with unit-norm embeddings, cumulative exposure counts, a
    heavy-tailed initial popularity, and a popular/long-tail split (top 20%
    by initial popularity, ties broken by ascending item id; group_sizes
    counts each group's items, indexed by group id). serve() alone writes
    exposure, and keeps exposure_total, exposure_max, log1p_exposure and
    log1p_max equal to those of the whole vector."""

    n_items: int
    embeddings: np.ndarray          # (n_items, d), rows unit-norm
    exposure: np.ndarray            # (n_items,) non-negative ints
    initial_popularity: np.ndarray  # (n_items,) positive reals
    group: np.ndarray               # (n_items,) GROUP_POPULAR / GROUP_LONGTAIL
    prior: np.ndarray = field(default=None)  # cold-start state vector

    @classmethod
    def build(cls, cfg: EnvConfig, rng: np.random.Generator) -> "ItemCatalog":
        n, d = cfg.n_items, cfg.d
        emb = rng.standard_normal((n, d))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        # Zipf popularity over a random rank assignment.
        ranks = rng.permutation(n)
        pop = (ranks + 1.0) ** (-cfg.zipf_s)
        # Mainstream geometry: popular items cluster around a shared
        # direction, graded by popularity rank (rank 0 pulled hardest, the
        # long tail not at all). Popularity noise therefore drags observed
        # states toward the whole popular cluster, not single items.
        v_main = rng.standard_normal(d)
        v_main /= np.linalg.norm(v_main)
        n_pop = int(np.ceil(0.2 * n))
        pull = np.clip(1.0 - ranks / n_pop, 0.0, 1.0)
        emb = emb + pull[:, None] * v_main
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        # Exposure warm start proportional to popularity: the catalog enters
        # the run with a pre-existing rich-get-richer imbalance.
        exposure = np.round(cfg.init_exposure * pop / pop.max()).astype(np.int64)
        order = np.lexsort((np.arange(n), -pop))
        group = np.full(n, GROUP_LONGTAIL, dtype=np.int64)
        group[order[:n_pop]] = GROUP_POPULAR
        prior = emb.mean(axis=0)
        prior = prior / np.linalg.norm(prior)
        return cls(n, emb, exposure, pop, group, prior)

    def __post_init__(self):
        self.exposure_total = int(self.exposure.sum())
        self.exposure_max = int(self.exposure.max())
        self.log1p_exposure = np.log1p(self.exposure)
        self.log1p_max = np.log1p(self.exposure_max)
        self.group_sizes = np.bincount(self.group, minlength=2)

    def serve(self, slates: np.ndarray):
        """One impression of each item of a slate of distinct ids, or of
        each slate of an (m, slate_k) block of them."""
        if slates.ndim == 1:
            self.exposure[slates] += 1
        else:
            self.exposure += np.bincount(slates.ravel(), minlength=self.n_items)
        served = self.exposure[slates]
        self.log1p_exposure[slates] = np.log1p(served)
        self.exposure_total += served.size
        top = int(served.max())
        if top > self.exposure_max:
            self.exposure_max, self.log1p_max = top, np.log1p(top)


@dataclass
class UserProfile:
    latent_pref: np.ndarray                 # unit-norm ground truth, fixed per session
    history: list = field(default_factory=list)  # [(item_id, reward)], capped at window
    satisfaction: float = 1.0


@dataclass
class SessionOutcome:
    """One session's record, one row per step."""
    rewards: np.ndarray  # (T,) mean observed reward of each served slate
    slates: np.ndarray   # (T, slate_k) int64 served item ids
    abandoned: bool

    @property
    def length(self) -> int:
        return len(self.rewards)

    def __eq__(self, other):
        """Equal abandonment and equal arrays, element for element."""
        return (isinstance(other, SessionOutcome) and self.abandoned == other.abandoned
                and np.array_equal(self.rewards, other.rewards)
                and np.array_equal(self.slates, other.slates))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), computed in x's own buffer and returned."""
    np.exp(np.negative(x, out=x), out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _start_session(config: EnvConfig, seed: int):
    """A session's generator and its user's unit-norm latent preference,
    the generator's first draw. Deterministic given (config.seed, seed)."""
    rng = np.random.default_rng([config.seed, seed])
    pref = rng.standard_normal(config.d)
    pref /= np.linalg.norm(pref)
    return rng, pref


def _reward_chain(align, weight, noise, config: EnvConfig) -> np.ndarray:
    """Observed per-item rewards of a slate, or of rows of slates, in the
    buffer of align (the items' alignments with the user): sigmoid(kappa *
    align), plus bias_strength times the pre-serve exposure weight
    log1p(exposure) / log1p(max exposure) (None while nothing has been
    served), plus obs_noise times the normals noise, clipped to [0, 1]."""
    align *= config.kappa
    _sigmoid(align)
    if weight is not None:
        align += config.bias_strength * weight
    if noise is not None:
        align += config.obs_noise * noise
    np.maximum(align, 0.0, out=align)
    return np.minimum(align, 1.0, out=align)


def _encode_histories(items, rewards, embeddings: np.ndarray) -> np.ndarray:
    """The reward-weighted mean of the embeddings of a window of consumed
    items, or of rows of windows of one length: NumPy groups the terms of
    a sum by its length, so a padded window could round differently."""
    w = 1.0 + rewards
    return (w[..., None] * embeddings[items]).sum(axis=-2) / w.sum(axis=-1, keepdims=True)


# Ratio of the popularity-aligned drift to noise_scale; the drift is the
# dominant, structured part of the corruption (white noise alone would be
# un-learnable in direction).
POP_DRIFT_RATIO = 2.0


def popularity_drift_direction(catalog: ItemCatalog,
                               rng: np.random.Generator) -> np.ndarray:
    """Unit vector drawn from the cone of heavily-exposed item directions:
    a random non-negative combination of item embeddings with
    exposure-share weights. Exposure follows a heavy tail, so the draw is
    dominated by the handful of most-served items."""
    if catalog.exposure_total <= 0:
        return np.zeros(catalog.embeddings.shape[1])
    share = catalog.exposure / catalog.exposure_total
    z = rng.standard_normal(catalog.n_items)
    share *= np.abs(z, out=z)
    v = share @ catalog.embeddings
    norm = math.sqrt(v.dot(v))
    if norm < 1e-12:
        return np.zeros(catalog.embeddings.shape[1])
    return np.divide(v, norm, out=v)


def encode_observed(history, catalog: ItemCatalog, noise_scale: float,
                    rng: np.random.Generator | None) -> np.ndarray:
    """The observed state: the history's clean encoding, the
    reward-weighted mean of the embeddings of recently consumed items (an
    empty history encodes as the catalog's cold-start prior), corrupted by
    a drift of half-normal magnitude along a random direction from the
    exposure cone (popularity_drift_direction) plus a small isotropic
    Gaussian whose expected norm is about noise_scale. With noise_scale 0
    it is the clean encoding, and rng is not used."""
    d = catalog.embeddings.shape[1]
    if history:
        ids = [i for i, _ in history]
        if min(ids) < 0 or max(ids) >= catalog.n_items:
            raise EnvError("history references unknown item id")
        clean = _encode_histories(ids, np.array([r for _, r in history]),
                                  catalog.embeddings)
    else:
        clean = catalog.prior.copy()
    if noise_scale <= 0:
        return clean
    magnitude = rng.standard_normal()
    direction = popularity_drift_direction(catalog, rng)
    return _corrupt(clean, magnitude, direction, rng.standard_normal(d), noise_scale)


def _corrupt(clean, magnitude, direction, isotropic, noise_scale: float) -> np.ndarray:
    """encode_observed's corruption of one clean state, or of rows of them
    (magnitude then a column): the drift abs(magnitude) * direction scaled
    by noise_scale * POP_DRIFT_RATIO, plus noise_scale / sqrt(d) times the
    standard normals isotropic."""
    observed = clean + noise_scale * POP_DRIFT_RATIO * (abs(magnitude) * direction)
    observed += (noise_scale / math.sqrt(clean.shape[-1])) * isotropic
    return observed


def update_abandonment(satisfaction: float, popular_counts, config: EnvConfig,
                       rng: np.random.Generator | None = None):
    """Windowed popularity penalty on satisfaction plus an optional
    stochastic early exit. Deterministic when abandon_prob == 0.

    popular_counts holds, for each slate in the window, how many of its
    slate_k items are popular; the penalty applies when the popular share
    of the window's impressions exceeds threshold_a."""
    if not 0 <= satisfaction <= 1:
        raise ValueError(f"satisfaction must be in [0,1], got {satisfaction}")
    if popular_counts:
        p = sum(popular_counts) / (len(popular_counts) * config.slate_k)
        if p > config.threshold_a:
            satisfaction = max(0.0, satisfaction - config.decay_a)
    abandoned = satisfaction <= 0.0
    if not abandoned and config.abandon_prob > 0:
        if rng is None:
            raise ValueError("abandon_prob > 0 requires an rng")
        abandoned = rng.random() < config.abandon_prob * (1.0 - satisfaction)
    return satisfaction, abandoned


class RecEnv:
    """Single-threaded environment instance owning the catalog (with
    cumulative exposure across sessions) and the current session state."""

    def __init__(self, config: EnvConfig):
        config.validate()
        self.config = config
        self.catalog = ItemCatalog.build(config, np.random.default_rng(config.seed))
        self._user: UserProfile | None = None
        self._rng: np.random.Generator | None = None
        self._step = 0
        self._done = True
        self._abandoned = False
        self._popular_counts = deque(maxlen=config.window_a)

    # -- session control ---------------------------------------------------

    def reset(self, seed: int) -> np.ndarray:
        """Start a fresh session with a new user; returns the observed
        state vector. Deterministic given (seed, config)."""
        self._rng, pref = _start_session(self.config, seed)
        self._user = UserProfile(latent_pref=pref)
        self._step = 0
        self._done = False
        self._abandoned = False
        self._popular_counts.clear()
        return encode_observed([], self.catalog, self.config.noise_scale, self._rng)

    def ground_truth_state(self) -> np.ndarray:
        """Sim-only oracle: the session's true preference vector."""
        if self._user is None:
            raise EnvError("no active session")
        return self._user.latent_pref

    # -- dynamics ----------------------------------------------------------

    def step(self, slate):
        """Serve a slate of distinct item ids; returns (per-item rewards,
        next observed state vector, done)."""
        if self._done or self._user is None:
            raise EnvError("step() on a finished or unstarted session")
        given, slate = slate, np.asarray(slate)
        if slate.shape != (self.config.slate_k,):
            raise InvalidActionError(
                f"slate must have exactly {self.config.slate_k} items")
        # A list that mixes bools with ints converts to an int array.
        if slate.dtype.kind not in "iu" or (slate is not given and any(
                isinstance(i, (bool, np.bool_)) for i in given)):
            raise InvalidActionError("slate item ids must be integers")
        ids = slate.tolist()  # k items: Python beats NumPy's per-call cost
        if len(set(ids)) != len(ids):
            raise InvalidActionError("slate contains duplicate item ids")
        if min(ids) < 0 or max(ids) >= self.catalog.n_items:
            raise InvalidActionError("slate contains unknown item ids")
        cfg = self.config
        cat = self.catalog

        weight = (cat.log1p_exposure[slate] / cat.log1p_max
                  if cat.exposure_max > 0 else None)
        noise = self._rng.standard_normal(len(ids)) if cfg.obs_noise > 0 else None
        rewards = _reward_chain(cat.embeddings[slate] @ self._user.latent_pref,
                                weight, noise, cfg)
        cat.serve(slate)

        consumed = int(np.argmax(rewards))  # ties -> lowest slate index
        self._user.history.append((int(slate[consumed]), float(rewards[consumed])))
        del self._user.history[:-cfg.history_window]

        self._popular_counts.append(cat.group[slate].tolist().count(GROUP_POPULAR))
        self._user.satisfaction, abandoned = update_abandonment(
            self._user.satisfaction, self._popular_counts, cfg, self._rng)

        self._step += 1
        self._done = abandoned or self._step >= cfg.max_len
        self._abandoned = abandoned
        nxt = encode_observed(self._user.history, cat, cfg.noise_scale, self._rng)
        return rewards, nxt, self._done

    @property
    def abandoned(self) -> bool:
        return self._abandoned


@dataclass
class Rollout:
    """A random-policy rollout, one row per step."""
    slates: np.ndarray    # (T, slate_k) int64 served item ids
    rewards: np.ndarray   # (T, slate_k) observed per-item rewards
    exposure: np.ndarray  # (T, slate_k) int64 each item's exposure before the serve
    clean: np.ndarray     # (T, d) clean encoding of the history after the step
    observed: np.ndarray  # (T, d) the observed state the step emitted


def _rollout_chunk(n_items: int) -> int:
    """Steps per chunk of random_rollout: (steps, n_items) is <= 2**15 cells."""
    return max(1, 2**15 // n_items)


def random_rollout(env: RecEnv, rng: np.random.Generator, n_steps: int) -> Rollout:
    """n_steps of the uniform-random policy on env's catalog across as many
    sessions as it takes: a new session (seed drawn from rng) starts
    whenever one ends, and each slate is choice(n_items, slate_k,
    replace=False) from the session's generator. Bit for bit what
    RecEnv.reset and RecEnv.step give; env's own session is not touched.

    No draw of this policy depends on catalog state: slates, observation
    noise and abandonment read only earlier slates and the config. So each
    chunk of steps first makes its draws in the order a session makes
    them, then does the state-dependent math (exposure, rewards, histories,
    drift, observations) as array math over the chunk, and serves the
    chunk's slates. Stacked matrix-vector products do one product per row,
    so each row's sums group as the single-step ones do."""
    cfg, cat, emb = env.config, env.catalog, env.catalog.embeddings
    n, k, d = cfg.n_items, cfg.slate_k, cfg.d
    out = Rollout(np.empty((n_steps, k), np.int64), np.empty((n_steps, k)),
                  np.empty((n_steps, k), np.int64), np.empty((n_steps, d)),
                  np.empty((n_steps, d)))
    chunk = _rollout_chunk(n)
    prefs = np.empty((chunk, d))
    noise = np.empty((chunk, k))
    # Per step, encode_observed's draws: the drift magnitude, one normal per
    # item for the drift direction, then the isotropic part.
    z = np.empty((chunk, 1 + n + d))
    after = np.empty((chunk, n))  # exposure after each step's serve, exact in float64
    lo = np.empty(chunk, np.int64)  # the first step of each step's history window
    # The consumed (item, reward) of each step of the chunk, after those of
    # the last history_window - 1 steps before it.
    past = cfg.history_window - 1
    hist_items = np.zeros(past + chunk, np.int64)
    hist_rewards = np.zeros(past + chunk)
    done = True
    for start in range(0, n_steps, chunk):
        m = min(chunk, n_steps - start)
        slates = out.slates[start:start + m]
        for t in range(m):
            if done:
                srng, pref = _start_session(cfg, int(rng.integers(0, 2**31 - 1)))
                if cfg.noise_scale > 0:  # the reset encoding's draws
                    warm = cat.exposure_total + t * k > 0
                    srng.standard_normal(1 + (n if warm else 0) + d)
                satisfaction, popular, steps, first = 1.0, deque(maxlen=cfg.window_a), 0, t
            prefs[t] = pref
            slates[t] = srng.choice(n, size=k, replace=False)
            after[t] = after[t - 1] if t else cat.exposure
            after[t, slates[t]] += 1.0
            if cfg.obs_noise > 0:
                srng.standard_normal(out=noise[t])
            popular.append(cat.group[slates[t]].tolist().count(GROUP_POPULAR))
            satisfaction, abandoned = update_abandonment(satisfaction, popular, cfg, srng)
            steps += 1
            done = abandoned or steps >= cfg.max_len
            if cfg.noise_scale > 0:
                srng.standard_normal(out=z[t])
            lo[t] = max(first, t - past)
        first -= m

        rows = np.arange(m)
        served = after[rows[:, None], slates]
        seen = out.exposure[start:start + m]
        seen[:] = served - 1.0
        top = np.maximum.accumulate(np.append(cat.exposure_max, served.max(axis=1)))
        # A cold catalog's first step has every count 0: weight 0, and
        # adding 0.0 to a reward leaves it as skipping the bias does.
        weight = np.log1p(seen) / np.log1p(np.maximum(top[:-1], 1.0))[:, None]
        align = np.matmul(emb[slates], prefs[:m, :, None])[:, :, 0]
        rewards = out.rewards[start:start + m]
        rewards[:] = _reward_chain(align, weight, noise[:m] if cfg.obs_noise > 0 else None,
                                   cfg)

        best = rewards.argmax(axis=1)  # ties -> lowest slate index
        hist_items[past:past + m] = slates[rows, best]
        hist_rewards[past:past + m] = rewards[rows, best]
        length = rows - lo[:m] + 1
        clean = out.clean[start:start + m]
        for size in set(length.tolist()):
            at = np.flatnonzero(length == size)
            window = (lo[at] + past)[:, None] + np.arange(size)
            clean[at] = _encode_histories(hist_items[window], hist_rewards[window], emb)
        hist_items[:past] = hist_items[m:m + past]
        hist_rewards[:past] = hist_rewards[m:m + past]

        if cfg.noise_scale > 0:
            # popularity_drift_direction of each step's post-serve catalog.
            share = np.divide(after[:m], (cat.exposure_total + k * (rows + 1))[:, None],
                              out=after[:m])
            share *= np.abs(z[:m, 1:1 + n], out=z[:m, 1:1 + n])
            v = np.matmul(share[:, None, :], emb)[:, 0, :]
            norm = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0])
            direction = np.divide(v, norm, out=np.zeros_like(v), where=norm >= 1e-12)
            out.observed[start:start + m] = _corrupt(clean, z[:m, :1], direction,
                                                     z[:m, 1 + n:], cfg.noise_scale)
        else:
            out.observed[start:start + m] = clean
        cat.serve(slates)
    return out
