"""The array-backed average-link engine against the heap oracle."""

import math
import random

import numpy as np
import pytest

from cdcoref import Merge, average_link

from helpers import heap_average_link

NEG_INF = float("-inf")


def grid_scores(rng, n, hole_rate, steps):
    """Symmetric scores on the non-dyadic 0.05 grid with -inf holes, so
    sums and averages round; few `steps` make tied averages frequent."""
    scores = np.full((n, n), NEG_INF)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= hole_rate:
                scores[i, j] = scores[j, i] = rng.randrange(steps) * 0.05
    return scores


@pytest.mark.parametrize("seed", range(8))
def test_matches_heap_oracle_exactly(seed):
    rng = random.Random(9000 + seed)
    for _ in range(12):
        n = rng.randrange(2, 41)
        ids = [f"m{i:02d}" for i in range(n)]
        steps = rng.choice((2, 3, 31))
        scores = grid_scores(rng, n, rng.choice((0.0, 0.3, 0.7)), steps)
        rank = {x: i for i, x in enumerate(ids)}

        def score(a, b):
            return float(scores[rank[a], rank[b]])

        threshold = rng.randrange(-1, steps) * 0.05  # sits exactly on grid values
        shuffled = ids[:]
        rng.shuffle(shuffled)
        want = heap_average_link(ids, score, threshold)
        # merge logs compare with == on scores: the trace must be bit-exact
        assert average_link(shuffled, scores, threshold) == want


def test_merged_average_rounding_into_a_tie_goes_to_the_smaller_id():
    # after merging b and d, avg(a, bd) = (x + 0.75) / 2 rounds up to 0.75
    # and ties avg(a, c); bd's smallest member b precedes c, so bd wins
    x = math.nextafter(0.75, 0.0)
    scores = {("a", "b"): x, ("a", "c"): 0.75, ("a", "d"): 0.75, ("b", "d"): 10.0}

    def score(p, q):
        return scores.get((p, q), 0.0)

    array = np.array([[score(p, q) for q in "abcd"] for p in "abcd"])
    clusters, merges = average_link("abcd", array, 0.7)
    assert merges[1] == Merge(frozenset("a"), frozenset("bd"), 0.75)
    assert (clusters, merges) == heap_average_link("abcd", score, 0.7)


def test_array_reads_only_above_the_diagonal():
    scores = np.array([[7.0, 0.9, 0.1], [np.nan, 7.0, 0.2], [np.inf, 0.8, 7.0]])
    clusters, merges = average_link(["c", "b", "a"], scores, 0.5)
    assert clusters == [frozenset("ab"), frozenset("c")]
    assert [m.score for m in merges] == [0.9]


def test_array_input_errors():
    with pytest.raises(ValueError, match="shape"):
        average_link(["a", "b"], np.zeros((3, 3)), 0.5)
    with pytest.raises(ValueError, match=r"bad score nan for \('a', 'c'\)"):
        average_link(["a", "b", "c"], np.array([[0, 1, np.nan], [0, 0, 1], [0, 0, 0]]), 0.5)
    with pytest.raises(ValueError, match="bad score inf"):
        average_link(["a", "b"], np.array([[0, np.inf], [0, 0]]), 0.5)


def test_negative_zero_scores_stay_negative_zero():
    # after a and c merge, their row sums (a, b) with the mirror of (b, c)
    # below the diagonal, which must be a copy of -0.0, not a sum with 0.0
    scores = np.full((3, 3), NEG_INF)
    scores[0, 2] = 1.0
    scores[0, 1] = scores[1, 2] = -0.0
    _, merges = average_link("abc", scores, -1.0)
    assert [m.score for m in merges] == [1.0, 0.0]
    assert math.copysign(1.0, merges[1].score) == -1.0
