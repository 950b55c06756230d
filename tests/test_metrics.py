"""Fairness metrics: Gini, group coverage, absolute difference, aggregation."""

import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_catalog
from dsrm_hrl.config import EnvConfig
from dsrm_hrl.env import GROUP_LONGTAIL, GROUP_POPULAR, ItemCatalog, SessionOutcome
from dsrm_hrl.metrics import (MetricsReport, absolute_difference, gini,
                              group_coverage, session_stats)
from dsrm_hrl.persistence import write_results


def gini_brute_force(x):
    x = np.asarray(x, dtype=np.float64)
    total = x.sum()
    if total == 0:
        return 0.0
    acc = 0.0
    for a in x:
        for b in x:
            acc += abs(a - b)
    return acc / (2 * len(x) * total)


def test_gini_hand_cases():
    assert gini([0.0, 0.0, 0.0, 4.0]) == pytest.approx(0.75, abs=1e-12)
    assert gini([1.0, 3.0]) == pytest.approx(0.25, abs=1e-12)
    assert gini([5.0, 5.0, 5.0]) == 0.0
    assert gini([0.0, 0.0]) == 0.0
    assert gini([7.0]) == 0.0
    assert 0.0 <= gini([1e-10] * 6) <= 1e-12   # rounds below 0 unclamped


def test_gini_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        x = rng.exponential(scale=10.0, size=n)
        assert gini(x) == pytest.approx(gini_brute_force(x), abs=1e-12)


def test_gini_input_validation():
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini([[[1.0, 2.0]]])
    with pytest.raises(ValueError):
        gini(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        gini([1.0, -1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            gini([1.0, bad])
        with pytest.raises(ValueError):
            gini([[1.0, 2.0], [bad, 1.0]], n_items=5)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=60), st.data())
def test_gini_rows_equal_padded_vectors(n_rows, n_cols, n_pad, data):
    """Each row of an integer count matrix, taken as the only nonzero columns
    of n_items, has the Gini of that row padded with zeros to n_items, bit
    for bit; the default n_items is the row length."""
    counts = np.array(data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=40), min_size=n_cols, max_size=n_cols),
        min_size=n_rows, max_size=n_rows)))
    zero_row = data.draw(st.integers(min_value=0, max_value=n_rows - 1))
    counts[zero_row] = 0
    n_items = n_cols + n_pad
    rows = gini(counts, n_items=n_items)
    assert rows.shape == (n_rows,)
    assert rows.tolist() == [gini(np.pad(row, (0, n_pad))) for row in counts]
    assert gini(counts).tolist() == [gini(row) for row in counts]
    assert rows[zero_row] == 0.0
    with pytest.raises(ValueError):
        gini(counts, n_items=n_cols - 1)
    negative = counts.copy()
    negative[data.draw(st.integers(min_value=0, max_value=n_rows - 1)), 0] = -1
    with pytest.raises(ValueError):
        gini(negative, n_items=n_items)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50),
       st.floats(min_value=0.1, max_value=100.0))
def test_gini_scale_invariant(xs, c):
    assert gini(np.array(xs) * c) == pytest.approx(gini(xs), abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=50),
       st.randoms())
def test_gini_permutation_invariant(xs, rand):
    shuffled = list(xs)
    rand.shuffle(shuffled)
    assert gini(shuffled) == pytest.approx(gini(xs), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_gini_bounded(xs):
    g = gini(xs)
    assert 0.0 <= g <= 1.0


def test_group_coverage_modes():
    cat = tiny_catalog()
    slates = np.array([[0, 2], [0, 3]])
    f_pop, f_tail = group_coverage(slates, cat)
    assert f_pop == pytest.approx(0.5)    # item 0 of {0,1}
    assert f_tail == pytest.approx(1.0)   # items 2,3 of {2,3}


def test_group_coverage_errors():
    cat = tiny_catalog()
    with pytest.raises(ValueError):
        group_coverage(np.empty((0, 2), dtype=np.int64), cat)


def test_group_coverage_matches_unique_oracle():
    """The distinct items served, counted with bincount, give np.unique's
    coverage exactly, on slates that repeat items across steps."""
    rng = np.random.default_rng(5)
    cat = ItemCatalog.build(EnvConfig(n_items=60), rng)
    for _ in range(300):
        k = int(rng.integers(1, 6))
        pool = rng.choice(cat.n_items, size=int(rng.integers(k, cat.n_items + 1)),
                          replace=False)
        slates = np.array([rng.choice(pool, size=k, replace=False)
                           for _ in range(rng.integers(1, 40))])
        groups = cat.group[np.unique(slates)]
        want = (np.sum(groups == GROUP_POPULAR) / cat.group_sizes[GROUP_POPULAR],
                np.sum(groups == GROUP_LONGTAIL) / cat.group_sizes[GROUP_LONGTAIL])
        assert group_coverage(slates, cat) == want


def test_session_stats_leaves_numpy_ma_unimported():
    """np.unique imports numpy.ma, a one-off cost in every process that
    evaluates; the coverage count needs no such import."""
    code = ("import sys\n"
            "import numpy as np\n"
            "from conftest import tiny_catalog\n"
            "from dsrm_hrl.env import SessionOutcome\n"
            "from dsrm_hrl.metrics import session_stats\n"
            "print('numpy.ma' in sys.modules)\n"
            "session_stats([SessionOutcome(np.ones(2), np.array([[0, 2], [1, 3]]), False)],\n"
            "              tiny_catalog(), 'X', 0, 2)\n"
            "print('numpy.ma' in sys.modules)\n")
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_absolute_difference_hand_cases():
    cat = tiny_catalog()
    assert absolute_difference(np.array([[0, 2], [0, 3]]), cat) == pytest.approx(0.5)
    assert absolute_difference(np.array([[0, 1]]), cat) == pytest.approx(1.0)
    assert absolute_difference(np.array([[0, 2]]), cat) == pytest.approx(0.0)


def test_session_stats_aggregation():
    cat = tiny_catalog()
    outcomes = [
        SessionOutcome(np.array([1.0, 0.5]), np.array([[0, 2], [1, 3]]), False),
        SessionOutcome(np.array([0.25]), np.array([[2, 3]]), True),
    ]
    rep = session_stats(outcomes, cat, variant="X", seed=7, max_len=5)
    assert rep.n_episodes == 2
    assert rep.len_mean == pytest.approx(1.5)
    assert rep.r_each_mean == pytest.approx((0.75 + 0.25) / 2)
    assert rep.r_cum_mean == pytest.approx((1.5 + 0.25) / 2)
    # episode ADs: |1-1|=0 and |0-1|=1
    assert rep.ad_mean == pytest.approx(0.5)
    assert rep.len_std == pytest.approx(np.std([2, 1]))
    assert rep.variant == "X" and rep.seed == 7 and rep.max_len == 5


def test_session_stats_rejects_zero_step_episode():
    """Every episode run_episode records has a step: a zero-step outcome
    raises before any mean is taken, so no RuntimeWarning precedes it."""
    outcomes = [SessionOutcome(np.array([0.25]), np.array([[2, 3]]), True),
                SessionOutcome(np.zeros(0), np.empty((0, 2), dtype=np.int64), True)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty episode"):
            session_stats(outcomes, tiny_catalog(), "X", 7, 5)


def test_session_stats_empty_rejected():
    with pytest.raises(ValueError):
        session_stats([], tiny_catalog(), "X", 7, 5)


# -- the list-based record, as the array record's oracle -------------------
# Verbatim copies of group_coverage and session_stats from before the
# per-episode record became arrays, but for ItemCatalog.popular_ids and
# longtail_ids (since deleted), inlined as the flatnonzero they returned.

@dataclass
class ListOutcome:
    length: int
    rewards: list
    exposure_log: list                      # one slate (list of item ids) per step
    terminated_by_abandonment: bool


def list_group_coverage(exposure_log, catalog):
    if not exposure_log:
        raise ValueError("empty exposure log")
    shown = np.concatenate([np.asarray(s, dtype=np.int64) for s in exposure_log])
    pop_ids = np.flatnonzero(catalog.group == GROUP_POPULAR)
    tail_ids = np.flatnonzero(catalog.group == GROUP_LONGTAIL)
    if len(pop_ids) == 0 or len(tail_ids) == 0:
        raise ValueError("catalog must contain both popular and long-tail items")
    groups = catalog.group[np.unique(shown)]
    f_pop = np.sum(groups == GROUP_POPULAR) / len(pop_ids)
    f_tail = np.sum(groups == GROUP_LONGTAIL) / len(tail_ids)
    return float(f_pop), float(f_tail)


def list_session_stats(outcomes, catalog, variant="", seed=0, max_len=0):
    if not outcomes:
        raise ValueError("no outcomes to aggregate")
    lens = np.array([o.length for o in outcomes], dtype=np.float64)
    r_cum = np.array([float(np.sum(o.rewards)) for o in outcomes])
    nonzero = [o for o in outcomes if o.length > 0]
    r_each = np.array([float(np.mean(o.rewards)) for o in nonzero]) \
        if nonzero else np.array([0.0])
    ads, fpops, ftails = [], [], []
    for o in nonzero:
        f_pop, f_tail = list_group_coverage(o.exposure_log, catalog)
        fpops.append(f_pop)
        ftails.append(f_tail)
        ads.append(abs(f_pop - f_tail))
    ads = np.array(ads) if ads else np.array([0.0])
    f_pop_mean = float(np.mean(fpops)) if fpops else 0.0
    f_tail_mean = float(np.mean(ftails)) if ftails else 0.0
    return MetricsReport(
        variant=variant, seed=seed, max_len=max_len,
        len_mean=float(lens.mean()), len_std=float(lens.std()),
        r_each_mean=float(r_each.mean()), r_each_std=float(r_each.std()),
        r_cum_mean=float(r_cum.mean()), r_cum_std=float(r_cum.std()),
        ad_mean=float(ads.mean()), ad_std=float(ads.std()),
        f_pop=f_pop_mean, f_tail=f_tail_mean, n_episodes=len(outcomes),
    )


# Sessions on tiny_catalog's 4 items: each step a slate of k distinct ids
# (k fixed per draw) and a reward in [0, 1]; every session has a step.
_sessions = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.tuples(st.lists(st.tuples(st.floats(0.0, 1.0),
                                 st.permutations(range(4)).map(lambda p: p[:k])),
                       min_size=1, max_size=30),
              st.booleans()),
    min_size=1, max_size=40).map(lambda sessions: (k, sessions)))


@settings(max_examples=200, deadline=None)
@given(_sessions)
def test_array_record_matches_list_record(draw):
    """session_stats on the array record equals the list-based original on
    the same sessions, every field with ==, and so do results.csv's bytes."""
    k, sessions = draw
    cat = tiny_catalog()
    arrays, lists = [], []
    for steps, abandoned in sessions:
        rewards = [r for r, _ in steps]
        slates = [list(s) for _, s in steps]
        arrays.append(SessionOutcome(np.array(rewards, dtype=np.float64),
                                     np.array(slates, dtype=np.int64).reshape(-1, k),
                                     abandoned))
        lists.append(ListOutcome(len(steps), rewards, slates, abandoned))
    got = session_stats(arrays, cat, variant="X", seed=3, max_len=30)
    want = list_session_stats(lists, cat, variant="X", seed=3, max_len=30)
    assert astuple(got) == astuple(want)
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write_results(paths[0], [got])
        write_results(paths[1], [want])
        assert paths[0].read_bytes() == paths[1].read_bytes()
