"""Fairness metrics: Gini, group coverage, absolute difference, aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_catalog
from dsrm_hrl.env import SessionOutcome
from dsrm_hrl.metrics import (absolute_difference, gini, group_coverage,
                              session_stats)


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
        gini([[1.0, 2.0]])
    with pytest.raises(ValueError):
        gini([1.0, -1.0])


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
    log = [[0, 2], [0, 3]]
    f_pop, f_tail = group_coverage(log, cat)
    assert f_pop == pytest.approx(0.5)    # item 0 of {0,1}
    assert f_tail == pytest.approx(1.0)   # items 2,3 of {2,3}


def test_group_coverage_errors():
    cat = tiny_catalog()
    with pytest.raises(ValueError):
        group_coverage([], cat)


def test_absolute_difference_hand_cases():
    cat = tiny_catalog()
    assert absolute_difference([[0, 2], [0, 3]], cat) == pytest.approx(0.5)
    assert absolute_difference([[0, 1]], cat) == pytest.approx(1.0)
    assert absolute_difference([[0, 2]], cat) == pytest.approx(0.0)


def test_session_stats_aggregation():
    cat = tiny_catalog()
    outcomes = [
        SessionOutcome(2, [1.0, 0.5], [[0, 2], [1, 3]], False),
        SessionOutcome(1, [0.25], [[2, 3]], True),
        SessionOutcome(0, [], [], True),  # zero-length: Len yes, R_each no
    ]
    rep = session_stats(outcomes, cat, variant="X", seed=7, max_len=5)
    assert rep.n_episodes == 3
    assert rep.len_mean == pytest.approx(1.0)
    assert rep.r_each_mean == pytest.approx((0.75 + 0.25) / 2)
    assert rep.r_cum_mean == pytest.approx((1.5 + 0.25 + 0.0) / 3)
    # episode ADs: |1-1|=0 and |0-1|=1
    assert rep.ad_mean == pytest.approx(0.5)
    assert rep.len_std == pytest.approx(np.std([2, 1, 0]))
    assert rep.variant == "X" and rep.seed == 7 and rep.max_len == 5


def test_session_stats_empty_rejected():
    with pytest.raises(ValueError):
        session_stats([], tiny_catalog())
