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


def gini(counts) -> float:
    """Gini coefficient of a non-negative vector:
    sum_ij |x_i - x_j| / (2 n sum x). All-zero input is defined as 0."""
    x = np.asarray(counts, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("gini expects a non-empty 1-d vector")
    if np.any(x < 0):
        raise ValueError("gini expects non-negative values")
    total = x.sum()
    if total == 0:
        return 0.0
    n = x.size
    xs = np.sort(x)
    # sum_ij |xi - xj| = 2 * sum_i (2i - n + 1) x_(i)  (0-based i)
    coef = 2.0 * np.arange(n) - n + 1.0
    # Rounding can take a (near-)uniform vector a few ulps below 0.
    return max(0.0, float((coef @ xs) / (n * total)))


class EpisodeGini:
    """gini() of one episode's integer exposure counts, O(k) per slate: an
    item served at count c adds 2 le[c] - n - 1 (le[c]: items at count <= c)
    to the integer numerator sum_i (2i - n + 1) x_(i). gini() sums it exactly
    while n^2 * max count < 2^53, so value()'s one division is the same."""

    def __init__(self, n_items: int):
        self.n, self.num, self.total = n_items, 0, 0
        self.counts, self.le = {}, [n_items]

    def serve(self, ids):
        """Counts one slate of distinct item ids."""
        n, le, counts = self.n, self.le, self.counts
        le.append(n)  # no count exceeds the number of slates served
        for i in ids:
            c = counts.get(i, 0)
            self.num += 2 * le[c] - n - 1
            le[c] -= 1
            counts[i] = c + 1
        self.total += len(ids)

    def value(self) -> float:
        return self.num / (self.n * self.total) if self.total else 0.0


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


def absolute_difference(slates, catalog: ItemCatalog) -> float:
    """|f(popular) - f(long-tail)| for one episode."""
    f_pop, f_tail = group_coverage(slates, catalog)
    return abs(f_pop - f_tail)


def session_stats(outcomes: list[SessionOutcome], catalog: ItemCatalog,
                  variant: str = "", seed: int = 0,
                  max_len: int = 0) -> MetricsReport:
    """Aggregate episode outcomes. Stds are population standard deviations.
    Zero-length episodes count toward Len (as 0) but are excluded from the
    per-step reward average and the coverage means."""
    if not outcomes:
        raise ValueError("no outcomes to aggregate")
    lens = np.array([o.length for o in outcomes], dtype=np.float64)
    r_cum = np.array([float(np.sum(o.rewards)) for o in outcomes])
    nonzero = [o for o in outcomes if o.length > 0]
    r_each = np.array([float(np.mean(o.rewards)) for o in nonzero]) \
        if nonzero else np.array([0.0])
    # One (f_pop, f_tail) row and one AD per episode; with no episode to
    # cover, zeros.
    f_pop, f_tail = np.array([group_coverage(o.slates, catalog) for o in nonzero]
                             or [(0.0, 0.0)]).T
    ads = np.array([absolute_difference(o.slates, catalog) for o in nonzero] or [0.0])
    return MetricsReport(
        variant=variant, seed=seed, max_len=max_len,
        len_mean=float(lens.mean()), len_std=float(lens.std()),
        r_each_mean=float(r_each.mean()), r_each_std=float(r_each.std()),
        r_cum_mean=float(r_cum.mean()), r_cum_std=float(r_cum.std()),
        ad_mean=float(ads.mean()), ad_std=float(ads.std()),
        f_pop=float(f_pop.mean()), f_tail=float(f_tail.mean()),
        n_episodes=len(outcomes),
    )
