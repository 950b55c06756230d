"""Fairness and utility metrics: Gini coefficient, group Absolute
Difference, and session statistics. Definitions are deliberately simple
enough to brute-force check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import GROUP_LONGTAIL, GROUP_POPULAR, ItemCatalog, SessionOutcome


@dataclass
class MetricsReport:
    variant: str
    seed: int
    max_len: int
    len_mean: float
    len_std: float
    r_each_mean: float
    r_each_std: float
    r_cum_mean: float
    r_cum_std: float
    ad_mean: float
    ad_std: float
    f_pop: float
    f_tail: float
    n_episodes: int


def gini(counts, n_items=None):
    """Gini coefficient of a finite non-negative vector of n_items counts:
    sum_ij |x_i - x_j| / (2 n sum x). All-zero input is defined as 0. Rows
    (a 2-d input) give one value each. The columns are the only items of
    n_items (default: all of them) that may be nonzero; the rest count as 0."""
    x = np.asarray(counts, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise ValueError("gini expects a non-empty 1-d vector or 2-d rows")
    m = x.shape[-1]
    n = m if n_items is None else n_items
    if n < m:
        raise ValueError(f"gini: n_items {n} is below the {m} columns given")
    if not np.all((x >= 0) & (x < np.inf)):  # NaN compares false
        raise ValueError("gini expects finite non-negative values")
    total = x.sum(axis=-1)
    # sum_ij |xi - xj| = 2 * sum_i (2i - n + 1) x_(i)  (0-based i), where the
    # n - m uncounted zeros sort first.
    coef = 2.0 * np.arange(n - m, n) - n + 1.0
    g = np.divide(np.sort(x, axis=-1) @ coef, n * total,
                  out=np.zeros_like(total), where=total != 0)
    # Rounding can take a (near-)uniform vector a few ulps below 0.
    g = np.where(g > 0.0, g, 0.0)
    return float(g) if x.ndim == 1 else g


def group_coverage(slates, catalog: ItemCatalog):
    """Per-episode group coverage (f_pop, f_tail) of the episode's served
    slates (T, k): the fraction of each group's items that appeared at
    least once."""
    if len(slates) == 0:
        raise ValueError("empty episode")
    if catalog.group_sizes.min() == 0:
        raise ValueError("catalog must contain both popular and long-tail items")
    served = np.bincount(np.ravel(slates), minlength=catalog.n_items) > 0
    hits = np.bincount(catalog.group[served], minlength=2)
    cover = hits / catalog.group_sizes
    return float(cover[GROUP_POPULAR]), float(cover[GROUP_LONGTAIL])


def absolute_difference(f_pop, f_tail):
    """|f(popular) - f(long-tail)| of group_coverage's pair, for one episode
    or elementwise for arrays of episodes."""
    return abs(f_pop - f_tail)


def session_stats(outcomes: list[SessionOutcome], catalog: ItemCatalog,
                  variant: str, seed: int, max_len: int) -> MetricsReport:
    """Aggregate the outcomes of episodes of at least one step; a zero-step
    one raises ValueError. Stds are population standard deviations."""
    if not outcomes:
        raise ValueError("no outcomes to aggregate")
    # One (f_pop, f_tail) row per episode, taken first: a zero-step
    # episode raises here, before any mean.
    f_pop, f_tail = np.array([group_coverage(o.slates, catalog) for o in outcomes]).T
    ads = absolute_difference(f_pop, f_tail)
    lens = np.array([o.length for o in outcomes], dtype=np.float64)
    r_cum = np.array([float(np.sum(o.rewards)) for o in outcomes])
    r_each = np.array([float(np.mean(o.rewards)) for o in outcomes])
    return MetricsReport(
        variant=variant, seed=seed, max_len=max_len,
        len_mean=float(lens.mean()), len_std=float(lens.std()),
        r_each_mean=float(r_each.mean()), r_each_std=float(r_each.std()),
        r_cum_mean=float(r_cum.mean()), r_cum_std=float(r_cum.std()),
        ad_mean=float(ads.mean()), ad_std=float(ads.std()),
        f_pop=float(f_pop.mean()), f_tail=float(f_tail.mean()),
        n_episodes=len(outcomes),
    )
