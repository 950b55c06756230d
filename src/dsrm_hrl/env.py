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


@dataclass(eq=False)
class ItemCatalog:
    """Items with unit-norm embeddings, cumulative exposure counts, a
    heavy-tailed initial popularity, and a popular/long-tail split (top 20%
    by initial popularity, ties broken by ascending item id; group_sizes
    counts each group's items, indexed by group id). Exposure counts are
    held as float64 exact integers (any given array is coerced once), so
    the drift share and the scores read them with no cast. serve() alone
    writes exposure, and keeps exposure_total, exposure_max and
    log1p_exposure equal to those of the whole vector."""

    n_items: int
    embeddings: np.ndarray          # (n_items, d), rows unit-norm
    exposure: np.ndarray            # (n_items,) float64 non-negative exact integers
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
        exposure = np.round(cfg.init_exposure * pop / pop.max())
        order = np.lexsort((np.arange(n), -pop))
        group = np.full(n, GROUP_LONGTAIL, dtype=np.int64)
        group[order[:n_pop]] = GROUP_POPULAR
        prior = emb.mean(axis=0)
        prior = prior / np.linalg.norm(prior)
        return cls(n, emb, exposure, pop, group, prior)

    def __post_init__(self):
        self.exposure = np.asarray(self.exposure, dtype=np.float64)
        # Summed as Python ints: a float64 sum past 2**53 would round and an
        # int64 one past 2**63 wrap.
        self.exposure_total = sum(self.exposure.astype(np.int64).tolist())
        self.exposure_max = int(self.exposure.max())
        self.log1p_exposure = np.log1p(self.exposure)
        self.group_sizes = np.bincount(self.group, minlength=2)

    def serve(self, slates: np.ndarray):
        """One impression of each item of a slate of distinct ids, or of
        each slate of an (m, slate_k) block of them."""
        np.add.at(self.exposure, slates, 1.0)
        served = self.exposure[slates]
        self.log1p_exposure[slates] = np.log1p(served)
        self.exposure_total += served.size
        self.exposure_max = max(self.exposure_max, int(served.max()))


@dataclass(eq=False)
class SessionOutcome:
    """One session's record, one row per step."""
    rewards: np.ndarray  # (T,) mean observed reward of each served slate
    slates: np.ndarray   # (T, slate_k) int64 served item ids
    abandoned: bool

    @property
    def length(self) -> int:
        return len(self.rewards)


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


def _exposure_weight(log1p_seen, top):
    """The exposure weight log1p(exposure) / log1p(top) of a slate's items
    before their serve, or of rows of slates (top then a column), top being
    the catalog's largest count then: 0 while nothing has been served."""
    return log1p_seen / np.log1p(np.maximum(top, 1.0))


def _reward_chain(align, weight, noise, config: EnvConfig) -> np.ndarray:
    """Observed per-item rewards of a slate, or of rows of slates, in the
    buffer of align (the items' alignments with the user): sigmoid(kappa *
    align), plus bias_strength times the exposure weight, plus obs_noise
    times the normals noise (zeros when obs_noise is 0), clipped to [0, 1]."""
    align *= config.kappa
    _sigmoid(align)
    align += config.bias_strength * weight
    align += config.obs_noise * noise
    np.maximum(align, 0.0, out=align)
    return np.minimum(align, 1.0, out=align)


def _encode_histories(items, rewards, embeddings: np.ndarray) -> np.ndarray:
    """The reward-weighted mean of the embeddings of a window of consumed
    items, or of rows of windows of one length: NumPy groups the terms of
    a sum by its length, so a padded window could round differently."""
    w = 1.0 + rewards
    terms = embeddings[items]  # a copy, weighted in place
    terms *= w[..., None]
    return terms.sum(axis=-2) / w.sum(axis=-1, keepdims=True)


# Ratio of the popularity-aligned drift to noise_scale; the drift is the
# dominant, structured part of the corruption (white noise alone would be
# un-learnable in direction).
POP_DRIFT_RATIO = 2.0


# The most exposed items whose drift weights an observation draws one by
# one: the smallest power of two at or above the default catalog, so every
# catalog of at most this many items draws one weight per item. A larger
# catalog's other items, its tail, draw one Gaussian of d dimensions.
DRIFT_ITEMS = 512

# The mean and the standard deviation of a half-normal magnitude.
HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
HALF_NORMAL_STD = math.sqrt(1.0 - 2.0 / math.pi)

# Catalog rows per product of the tail's second moment: its temporaries
# stay within (MOMENT_BLOCK, d) whatever the catalog's size.
MOMENT_BLOCK = 1024


def _noise_width(n_items: int, d: int, exposed: bool) -> int:
    """An observation's normals: the drift magnitude; while anything is
    exposed, one per item or, past DRIFT_ITEMS items, one per exact item and
    d for the tail; then d isotropic."""
    drift = n_items if n_items <= DRIFT_ITEMS else DRIFT_ITEMS + d
    return 1 + (drift if exposed else 0) + d


def _session_drift(exposure: np.ndarray, embeddings: np.ndarray):
    """A session's drift model, fixed at its reset from the exposure then:
    None while the catalog has at most DRIFT_ITEMS items, which are all
    exact. Otherwise the exact items are the DRIFT_ITEMS most exposed (ties
    to the lower id, in id order), and the tail's half-normal weights are
    summed by their first two moments. The model is the exact items' ids
    and the drift basis, one row per drift weight: their embeddings, then
    HALF_NORMAL_MEAN * S1, then HALF_NORMAL_STD * L. S1 = sum of x_i e_i
    over the tail, and L is the symmetric PSD square root of its sum of
    x_i^2 e_i e_i^T (eigenvalues clipped at 0, so a tail of low rank or
    with nothing exposed is fine). Both sums run over the catalog with the
    exact items' counts taken as 0, the second by blocks of MOMENT_BLOCK
    items."""
    n, d = embeddings.shape
    if n <= DRIFT_ITEMS:
        return None
    kth = np.partition(exposure, n - DRIFT_ITEMS)[n - DRIFT_ITEMS]
    exact = exposure > kth
    exact[np.flatnonzero(exposure == kth)[:DRIFT_ITEMS - np.count_nonzero(exact)]] = True
    tail = np.where(exact, 0.0, exposure)
    second = np.zeros((d, d))
    for i in range(0, n, MOMENT_BLOCK):
        rows = embeddings[i:i + MOMENT_BLOCK] * tail[i:i + MOMENT_BLOCK, None]
        second += rows.T @ rows  # one buffer: NumPy's symmetric product
    lam, vec = np.linalg.eigh(second)
    root = (vec * np.sqrt(np.maximum(lam, 0.0))) @ vec.T
    top = np.flatnonzero(exact)
    return top, np.vstack((embeddings[top], HALF_NORMAL_MEAN * (tail @ embeddings),
                           HALF_NORMAL_STD * root))


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Rows of v, or one row, normalised, with zeros where the norm is below 1e-12."""
    norm = np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0])
    return np.divide(v, norm, out=np.zeros(v.shape), where=norm >= 1e-12)


def _drift_directions(share, draws, embeddings: np.ndarray) -> np.ndarray:
    """Unit drift directions of rows of exposure shares, or of one row, with
    every item exact: the embeddings weighted by share * abs(draws) (both
    overwritten) and normalised."""
    share *= np.abs(draws, out=draws)
    return _unit_rows(np.matmul(share[..., None, :], embeddings)[..., 0, :])


def _tail_drift_directions(counts, total, draws, drift) -> np.ndarray:
    """Unit drift directions by a session's drift model past DRIFT_ITEMS
    items, of rows of the exact items' exposure counts, or of one row (total
    a column, or a number), from draws (overwritten): the basis weighted by
    count / total * abs(draw) for each exact item, 1 / total for the tail's
    mean and 1 / total * draw for each row of its square root, normalised."""
    top, basis = drift
    m = len(top)
    weights = np.empty(counts.shape[:-1] + (len(basis),))
    np.divide(counts, total, out=weights[..., :m])
    weights[..., :m] *= np.abs(draws[..., :m], out=draws[..., :m])
    weights[..., m:] = 1.0 / total
    weights[..., m + 1:] *= draws[..., m:]
    return _unit_rows(np.matmul(weights[..., None, :], basis)[..., 0, :])


def popularity_drift_direction(catalog: ItemCatalog, draws: np.ndarray, drift) -> np.ndarray:
    """Unit vector from the cone of heavily-exposed item directions: a
    random non-negative combination of item embeddings, exposure shares
    times half-normal weights drawn from draws by the session's drift model
    (_session_drift): one abs(draw) per item, or past DRIFT_ITEMS items one
    per exact item and a moment-matched Gaussian for the tail. Exposure
    follows a heavy tail, so the handful of most-served items dominate.
    Zeros while nothing is exposed, and then an observation draws no such
    normals."""
    if catalog.exposure_total <= 0:
        return np.zeros(catalog.embeddings.shape[1])
    if drift is None:
        return _drift_directions(catalog.exposure / catalog.exposure_total, draws,
                                 catalog.embeddings)
    return _tail_drift_directions(catalog.exposure[drift[0]], catalog.exposure_total, draws,
                                  drift)


def encode_observed(items: np.ndarray, rewards: np.ndarray, catalog: ItemCatalog,
                    noise_scale: float, rng: np.random.Generator | None, drift) -> np.ndarray:
    """The observed state: the clean encoding of a history of consumed items
    and their rewards, their reward-weighted mean embedding (an empty
    history encodes as the catalog's cold-start prior), corrupted by a
    drift of half-normal magnitude along popularity_drift_direction (by the
    session's drift model) plus a small isotropic Gaussian whose expected
    norm is about noise_scale, from one draw of _noise_width normals from
    the session's generator rng. With noise_scale 0 it is the clean
    encoding, and neither rng nor drift is used."""
    ids = items.tolist()
    if ids:
        if min(ids) < 0 or max(ids) >= catalog.n_items:
            raise EnvError("history references unknown item id")
        clean = _encode_histories(items, rewards, catalog.embeddings)
    else:
        clean = catalog.prior.copy()
    if noise_scale <= 0:
        return clean
    d = len(clean)
    z = rng.standard_normal(_noise_width(catalog.n_items, d, catalog.exposure_total > 0))
    return _corrupt(clean, z, popularity_drift_direction(catalog, z[1:-d], drift), noise_scale)


def _corrupt(clean, z, direction, noise_scale: float) -> np.ndarray:
    """encode_observed's corruption of one clean state by its noise z, or of
    rows of them: the drift abs(magnitude) * direction scaled by noise_scale
    * POP_DRIFT_RATIO, plus noise_scale / sqrt(d) times the d isotropic
    normals, the magnitude and those normals being z's first and last."""
    d = clean.shape[-1]
    observed = clean + noise_scale * POP_DRIFT_RATIO * (abs(z[..., :1]) * direction)
    observed += (noise_scale / math.sqrt(d)) * z[..., -d:]
    return observed


def update_abandonment(satisfaction: float, popular_counts, config: EnvConfig,
                       rng: np.random.Generator | None):
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


def _abandonment_after(satisfaction: float, popular: deque, slate, catalog: ItemCatalog,
                       config: EnvConfig, rng: np.random.Generator):
    """update_abandonment after a serve of slate, whose count of popular
    items first joins the window popular (a deque of window_a counts)."""
    popular.append(catalog.group[slate].tolist().count(GROUP_POPULAR))
    return update_abandonment(satisfaction, popular, config, rng)


class RecEnv:
    """Single-threaded environment owning the catalog (with cumulative
    exposure across sessions) and the current session: its generator, its
    drift model (_session_drift), the user's latent preference, the
    consumed items and their rewards (two arrays, oldest first, capped at
    history_window) and satisfaction."""

    def __init__(self, config: EnvConfig):
        config.validate()
        self.config = config
        self.catalog = ItemCatalog.build(config, np.random.default_rng(config.seed))
        self._rng = self._pref = self._drift = None
        self._done, self._abandoned = True, False
        self._popular_counts = deque(maxlen=config.window_a)

    # -- session control ---------------------------------------------------

    def reset(self, seed: int) -> np.ndarray:
        """Start a fresh session with a new user; returns the observed
        state vector. Deterministic given (seed, config)."""
        self._rng, self._pref = _start_session(self.config, seed)
        self._drift = _session_drift(self.catalog.exposure, self.catalog.embeddings)
        self._items, self._rewards = np.empty(0, np.int64), np.empty(0)
        self._satisfaction, self._step = 1.0, 0
        self._done = self._abandoned = False
        self._popular_counts.clear()
        return encode_observed(self._items, self._rewards, self.catalog,
                               self.config.noise_scale, self._rng, self._drift)

    def ground_truth_state(self) -> np.ndarray:
        """Sim-only oracle: the session's true preference vector."""
        if self._pref is None:
            raise EnvError("no active session")
        return self._pref

    # -- dynamics ----------------------------------------------------------

    def step(self, slate):
        """Serve a slate of distinct item ids; returns (per-item rewards,
        next observed state vector, done)."""
        if self._done:
            raise EnvError("step() on a finished or unstarted session")
        given, slate = slate, np.asarray(slate)
        if slate.shape != (self.config.slate_k,):
            raise InvalidActionError(f"slate must have exactly {self.config.slate_k} items")
        # A list that mixes bools with ints converts to an int array.
        if slate.dtype.kind not in "iu" or (slate is not given and any(
                isinstance(i, (bool, np.bool_)) for i in given)):
            raise InvalidActionError("slate item ids must be integers")
        ids = slate.tolist()  # k items: Python beats NumPy's per-call cost
        if len(set(ids)) != len(ids):
            raise InvalidActionError("slate contains duplicate item ids")
        if min(ids) < 0 or max(ids) >= self.catalog.n_items:
            raise InvalidActionError("slate contains unknown item ids")
        cfg, cat = self.config, self.catalog
        weight = _exposure_weight(cat.log1p_exposure[slate], cat.exposure_max)
        noise = self._rng.standard_normal(len(ids)) if cfg.obs_noise > 0 else np.zeros(len(ids))
        rewards = _reward_chain(cat.embeddings[slate] @ self._pref, weight, noise, cfg)
        cat.serve(slate)

        consumed = int(np.argmax(rewards))  # ties -> lowest slate index
        self._items = np.concatenate((self._items, (ids[consumed],)))[-cfg.history_window:]
        self._rewards = np.concatenate((self._rewards, (rewards[consumed],)))[-cfg.history_window:]

        self._satisfaction, abandoned = _abandonment_after(
            self._satisfaction, self._popular_counts, slate, cat, cfg, self._rng)
        self._step += 1
        self._done = abandoned or self._step >= cfg.max_len
        self._abandoned = abandoned
        nxt = encode_observed(self._items, self._rewards, cat, cfg.noise_scale, self._rng,
                             self._drift)
        return rewards, nxt, self._done

    @property
    def abandoned(self) -> bool:
        return self._abandoned


@dataclass(eq=False)
class Rollout:
    """A random-policy rollout, one row per step."""
    slates: np.ndarray    # (T, slate_k) int64 served item ids
    rewards: np.ndarray   # (T, slate_k) observed per-item rewards
    exposure: np.ndarray  # (T, slate_k) float64 each item's exposure before the serve
    clean: np.ndarray     # (T, d) clean encoding of the history after the step
    observed: np.ndarray  # (T, d) the observed state the step emitted


# Steps per block of random_rollout's second pass. Its buffers, and the
# temporaries of a block's history encodings, scale with it.
ROLLOUT_BLOCK = 128


def _rollout_chunk(n_items: int) -> int:
    """Steps per chunk of random_rollout's first pass: (steps, n_items) is
    <= 2**15 cells, and a chunk lies within one block."""
    return min(ROLLOUT_BLOCK, max(1, 2**15 // n_items))


def random_rollout(env: RecEnv, rng: np.random.Generator, n_steps: int) -> Rollout:
    """n_steps of the uniform-random policy on env's catalog across as many
    sessions as it takes: a new session (seed drawn from rng) starts
    whenever one ends, and each slate is choice(n_items, slate_k,
    replace=False) from the session's generator. Bit for bit what
    RecEnv.reset and RecEnv.step give; env's own session is not touched.

    No draw of this policy depends on catalog state: slates, observation
    noise and abandonment read only earlier slates and the config. So it
    runs in blocks of ROLLOUT_BLOCK steps, each in two passes. The first
    goes by chunks of _rollout_chunk steps: each step's draws, in the order
    a session makes them, then the chunk's work that spans the catalog,
    its exposure rows, the drift models of the sessions that begin in it
    and the drift directions. The second does the rest of
    the math (rewards, histories, observations) over the whole block as
    arrays, and serves the block's slates. Stacked matrix-vector products
    do one product per row, so each row's sums group as the single-step
    ones do."""
    cfg, cat, emb = env.config, env.catalog, env.catalog.embeddings
    n, k, d = cfg.n_items, cfg.slate_k, cfg.d
    out = Rollout(np.empty((n_steps, k), np.int64), np.empty((n_steps, k)),
                  np.empty((n_steps, k)), np.empty((n_steps, d)), np.empty((n_steps, d)))
    block, chunk = min(ROLLOUT_BLOCK, n_steps), _rollout_chunk(n)
    # Per chunk: row 0 holds the exposure before the chunk and row t + 1 that
    # after its step t's serve, exact in float64; each step's observation noise.
    after = np.empty((chunk + 1, n))
    after[0] = cat.exposure
    z = np.empty((chunk, _noise_width(n, d, True)))
    keep = np.r_[0, z.shape[1] - d:z.shape[1]]  # a step's noise without its drift normals
    # Past DRIFT_ITEMS items each session has a drift model of its own, built
    # at its first step; drift is the model of the session under way.
    tailed, drift = cfg.noise_scale > 0 and n > DRIFT_ITEMS, None
    # Per step of the block, what the second pass reads.
    prefs, noise = np.empty((block, d)), np.zeros((block, k))
    peak = np.empty(block)  # the largest count of the step's slate after its serve
    kept, direction = np.empty((block, 1 + d)), np.empty((block, d))
    lo = np.empty(block, np.int64)  # the first step of each step's history window
    # The consumed (item, reward) of each step of the block, after those of
    # the last history_window - 1 steps before it.
    past = cfg.history_window - 1
    hist_items = np.zeros(past + block, np.int64)
    hist_rewards = np.zeros(past + block)
    done = True
    for start in range(0, n_steps, block):
        m = min(block, n_steps - start)
        slates, seen = out.slates[start:start + m], out.exposure[start:start + m]
        total = cat.exposure_total
        for c in range(0, m, chunk):
            end = min(c + chunk, m)
            begun = []  # the chunk's steps that begin a tailed session
            for r in range(c, end):
                if done:
                    if tailed:
                        begun.append(r - c)
                    srng, pref = _start_session(cfg, int(rng.integers(0, 2**31 - 1)))
                    if cfg.noise_scale > 0:  # the reset encoding's draws
                        srng.standard_normal(_noise_width(n, d, total + r * k > 0))
                    satisfaction, popular, steps, first = 1.0, deque(maxlen=cfg.window_a), 0, r
                prefs[r] = pref
                slates[r] = srng.choice(n, size=k, replace=False)
                if cfg.obs_noise > 0:
                    srng.standard_normal(out=noise[r])
                satisfaction, abandoned = _abandonment_after(satisfaction, popular, slates[r],
                                                             cat, cfg, srng)
                steps += 1
                done = abandoned or steps >= cfg.max_len
                if cfg.noise_scale > 0:
                    srng.standard_normal(out=z[r - c])
                lo[r] = max(first, r - past)

            # Each step's exposure row: the row before it plus its slate.
            rows = np.arange(end - c)
            counts = after[1:end - c + 1]
            counts[...] = 0.0
            counts[rows[:, None], slates[c:end]] = 1.0
            for t in rows.tolist():
                after[t + 1] += after[t]
            served = counts[rows[:, None], slates[c:end]]
            seen[c:end] = served - 1.0
            peak[c:end] = served.max(axis=1)
            models = [drift, *(_session_drift(after[t], emb) for t in begun)]
            drift = models[-1]
            after[0] = counts[-1]
            if cfg.noise_scale > 0:
                # popularity_drift_direction of each step's post-serve catalog,
                # its total exact in Python ints as the catalog's is; past
                # DRIFT_ITEMS items by the drift model of each step's session.
                draws = z[:end - c]
                totals = np.array([total + k * (r + c + 1) for r in rows.tolist()], np.float64)
                if tailed:
                    bounds = [0, *begun, end - c]
                    for model, a, b in zip(models, bounds, bounds[1:]):
                        if a < b:  # the first is empty when a session begins the chunk
                            direction[c + a:c + b] = _tail_drift_directions(
                                counts[a:b, model[0]], totals[a:b, None], draws[a:b, 1:-d],
                                model)
                else:
                    share = np.divide(counts, totals[:, None], out=counts)
                    direction[c:end] = _drift_directions(share, draws[:, 1:-d], emb)
                kept[c:end] = draws[:, keep]
        first -= m

        rows = np.arange(m)
        top = np.maximum.accumulate(np.append(cat.exposure_max, peak[:m]))
        weight = _exposure_weight(np.log1p(seen), top[:-1, None])
        align = np.matmul(emb[slates], prefs[:m, :, None])[:, :, 0]
        rewards = out.rewards[start:start + m] = _reward_chain(align, weight, noise[:m], cfg)

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

        out.observed[start:start + m] = clean if cfg.noise_scale <= 0 else _corrupt(
            clean, kept[:m], direction[:m], cfg.noise_scale)
        cat.serve(slates)
    return out


def collect_pairs(env: RecEnv, n_pairs: int, rng: np.random.Generator):
    """Paired training data from uniform-random-policy rollouts: clean
    encodings (zero observation noise on the same history) and the
    corrupted observations actually emitted by the environment."""
    rollout = random_rollout(env, rng, n_pairs)
    return rollout.clean, rollout.observed
