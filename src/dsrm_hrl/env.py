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

    def serve(self, slate: np.ndarray):
        """One impression of each item of a slate of distinct ids."""
        self.exposure[slate] += 1
        served = self.exposure[slate]
        self.log1p_exposure[slate] = np.log1p(served)
        self.exposure_total += len(served)
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
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(clean, observed): the history's encoding, the reward-weighted mean
    of the embeddings of recently consumed items (an empty history encodes
    as the catalog's cold-start prior), and that encoding corrupted by a
    drift of half-normal magnitude along a random direction from the
    exposure cone (popularity_drift_direction) plus a small isotropic
    Gaussian whose expected norm is about noise_scale."""
    d = catalog.embeddings.shape[1]
    if history:
        ids = [i for i, _ in history]
        if min(ids) < 0 or max(ids) >= catalog.n_items:
            raise EnvError("history references unknown item id")
        w = 1.0 + np.array([r for _, r in history])
        clean = (w[:, None] * catalog.embeddings[ids]).sum(axis=0) / w.sum()
    else:
        clean = catalog.prior.copy()
    if noise_scale <= 0:
        return clean, clean.copy()
    drift = abs(rng.standard_normal()) * popularity_drift_direction(catalog, rng)
    observed = clean + noise_scale * POP_DRIFT_RATIO * drift
    observed += (noise_scale / math.sqrt(d)) * rng.standard_normal(d)
    return clean, observed


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
        self._clean: np.ndarray | None = None  # clean encoding of the history
        self._rng: np.random.Generator | None = None
        self._step = 0
        self._done = True
        self._abandoned = False
        self._popular_counts = deque(maxlen=config.window_a)

    # -- session control ---------------------------------------------------

    def reset(self, seed: int) -> np.ndarray:
        """Start a fresh session with a new user; returns the observed
        state vector. Deterministic given (seed, config)."""
        self._rng = np.random.default_rng([self.config.seed, seed])
        pref = self._rng.standard_normal(self.config.d)
        pref /= np.linalg.norm(pref)
        self._user = UserProfile(latent_pref=pref)
        self._step = 0
        self._done = False
        self._abandoned = False
        self._popular_counts.clear()
        self._clean, obs = encode_observed([], self.catalog, self.config.noise_scale, self._rng)
        return obs

    def ground_truth_state(self) -> np.ndarray:
        """Sim-only oracle: the session's true preference vector."""
        if self._user is None:
            raise EnvError("no active session")
        return self._user.latent_pref

    def clean_state(self) -> np.ndarray:
        """Sim-only oracle: noise-free encoding of the current history."""
        if self._user is None:
            raise EnvError("no active session")
        return self._clean.copy()

    def random_slate(self) -> np.ndarray:
        if self._user is None:
            raise EnvError("no active session")
        return self._rng.choice(self.catalog.n_items, size=self.config.slate_k,
                                replace=False)

    # -- dynamics ----------------------------------------------------------

    def step(self, slate):
        """Serve a slate of distinct item ids; returns (per-item rewards,
        next observed state vector, done)."""
        if self._done or self._user is None:
            raise EnvError("step() on a finished or unstarted session")
        slate = np.asarray(slate, dtype=np.int64)
        if slate.shape != (self.config.slate_k,):
            raise InvalidActionError(
                f"slate must have exactly {self.config.slate_k} items")
        ids = slate.tolist()  # k items: Python beats NumPy's per-call cost
        if len(set(ids)) != len(ids):
            raise InvalidActionError("slate contains duplicate item ids")
        if min(ids) < 0 or max(ids) >= self.catalog.n_items:
            raise InvalidActionError("slate contains unknown item ids")
        cfg = self.config
        cat = self.catalog

        # The reward chain in one buffer; the bias reads pre-serve exposure.
        rewards = cat.embeddings[slate] @ self._user.latent_pref
        rewards *= cfg.kappa
        _sigmoid(rewards)
        if cat.exposure_max > 0:
            rewards += cfg.bias_strength * (cat.log1p_exposure[slate] / cat.log1p_max)
        if cfg.obs_noise > 0:
            rewards += cfg.obs_noise * self._rng.standard_normal(len(ids))
        np.maximum(rewards, 0.0, out=rewards)
        np.minimum(rewards, 1.0, out=rewards)

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
        self._clean, nxt = encode_observed(self._user.history, cat, cfg.noise_scale, self._rng)
        return rewards, nxt, self._done

    @property
    def abandoned(self) -> bool:
        return self._abandoned


def random_rollout(env: RecEnv, rng: np.random.Generator, n_steps: int):
    """n_steps of the uniform-random policy across as many sessions as it
    takes: a new session (seed drawn from rng) starts whenever one ends.
    Yields (slate, rewards, obs) right after each env.step."""
    done = True
    for _ in range(n_steps):
        if done:
            env.reset(int(rng.integers(0, 2**31 - 1)))
        slate = env.random_slate()
        rewards, obs, done = env.step(slate)
        yield slate, rewards, obs
