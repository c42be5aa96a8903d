"""CEAFe's assignment against scipy's maximizing call, pair for pair.

`metrics._assignment` hands scipy the negated (and, for tall matrices,
transposed) cost array that `linear_sum_assignment(sim, maximize=True)`
builds internally, so the pairs, including the choice among tied optima,
must be exactly those of that call.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from cdcoref import optimal_alignment
from cdcoref.metrics import _assignment

# every CEAFe similarity 2n / (a + b) of clusters of sizes a, b <= 4 that
# share n mentions: few distinct values, so optimal alignments often tie
COREF_VALUES = sorted({2.0 * n / (a + b) for a in range(1, 5) for b in range(1, 5)
                       for n in range(1, min(a, b) + 1)})


@st.composite
def similarity_matrices(draw):
    """Wide, tall and square K x R matrices of coreference-shaped values,
    mostly zero, with some rows and columns all zero."""
    shape = draw(st.sampled_from(["wide", "tall", "square"]))
    k = draw(st.integers(1, 10))
    r = k if shape == "square" else draw(st.integers(k + 1, 14))
    if shape == "tall":
        k, r = r, k
    value = st.one_of(st.just(0.0), st.just(0.0), st.sampled_from(COREF_VALUES))
    sim = draw(arrays(float, (k, r), elements=value))
    sim[draw(st.lists(st.integers(0, k - 1), max_size=k)), :] = 0.0
    sim[:, draw(st.lists(st.integers(0, r - 1), max_size=r))] = 0.0
    return sim


def assert_same_as_scipy(sim):
    rows, cols = np.nonzero(sim)
    got_rows, got_cols, matched = _assignment(sim.shape, rows, cols, sim[rows, cols])
    want_rows, want_cols = linear_sum_assignment(sim, maximize=True)
    assert got_rows.tolist() == want_rows.tolist()
    assert got_cols.tolist() == want_cols.tolist()
    # the matched similarities come back with their sign, +0.0 included
    assert matched.tolist() == sim[want_rows, want_cols].tolist()
    assert not np.signbit(matched).any()


@settings(max_examples=300, deadline=None)
@given(similarity_matrices())
def test_assignment_matches_scipy_maximize(sim):
    assert_same_as_scipy(sim)


@pytest.mark.parametrize("seed", range(4))
def test_assignment_matches_scipy_on_larger_tie_heavy_matrices(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        k, r = rng.integers(1, 25, size=2)
        sim = rng.choice(COREF_VALUES, size=(k, r)) * (rng.random((k, r)) < 0.3)
        assert_same_as_scipy(sim)


@pytest.mark.parametrize("shape", [(1, 1), (6, 1), (1, 6), (4, 4), (3, 7), (7, 3)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_optimal_alignment_leaves_its_argument_unchanged(shape, order):
    # a (K, 1) matrix's transpose is already contiguous, so an in-place
    # negation there would reach the caller's array
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    sim = np.array(rng.choice(COREF_VALUES + [0.0], size=shape), order=order)
    before = sim.copy()
    pairs = optimal_alignment(sim)
    assert np.array_equal(sim, before)
    assert not np.signbit(sim).any()
    want_rows, want_cols = linear_sum_assignment(before, maximize=True)
    assert pairs == list(zip(want_rows.tolist(), want_cols.tolist()))
    nested = before.tolist()
    optimal_alignment(nested)
    assert nested == before.tolist()
