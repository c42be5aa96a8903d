"""The array-backed average-link engine against the heap oracle.

`average_link` has two loops, a scan up to `linkage.SCAN_MAX` items and a
cached loop above it; every test runs both (`helpers.both_loops`), and
blocks of SCAN_MAX and SCAN_MAX + 1 items check the cap itself."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from cdcoref import Merge, average_link, linkage

from helpers import SCAN_CAPS, both_loops, heap_average_link, scan_max, traced

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
        assert both_loops(shuffled, scores, threshold) == want


def test_merged_average_rounding_into_a_tie_goes_to_the_smaller_id():
    # after merging b and d, avg(a, bd) = (x + 0.75) / 2 rounds up to 0.75
    # and ties avg(a, c); bd's smallest member b precedes c, so bd wins
    x = math.nextafter(0.75, 0.0)
    scores = {("a", "b"): x, ("a", "c"): 0.75, ("a", "d"): 0.75, ("b", "d"): 10.0}

    def score(p, q):
        return scores.get((p, q), 0.0)

    array = np.array([[score(p, q) for q in "abcd"] for p in "abcd"])
    clusters, merges = both_loops("abcd", array, 0.7)
    assert merges[1] == Merge(frozenset("a"), frozenset("bd"), 0.75)
    assert (clusters, merges) == heap_average_link("abcd", score, 0.7)


def test_array_reads_only_above_the_diagonal():
    scores = np.array([[7.0, 0.9, 0.1], [np.nan, 7.0, 0.2], [np.inf, 0.8, 7.0]])
    clusters, merges = both_loops(["c", "b", "a"], scores, 0.5)
    assert clusters == [frozenset("ab"), frozenset("c")]
    assert [m.score for m in merges] == [0.9]


def test_array_input_errors():
    for cap in SCAN_CAPS:
        with scan_max(cap):
            with pytest.raises(ValueError, match="shape"):
                average_link(["a", "b"], np.zeros((3, 3)), 0.5)
            with pytest.raises(ValueError, match=r"bad score nan for \('a', 'c'\)"):
                nan = np.array([[0, 1, np.nan], [0, 0, 1], [0, 0, 0]])
                average_link(["a", "b", "c"], nan, 0.5)
            with pytest.raises(ValueError, match="bad score inf"):
                average_link(["a", "b"], np.array([[0, np.inf], [0, 0]]), 0.5)


def test_negative_zero_scores_stay_negative_zero():
    # after a and c merge, their row sums (a, b) with the mirror of (b, c)
    # below the diagonal, which must be a copy of -0.0, not a sum with 0.0
    scores = np.full((3, 3), NEG_INF)
    scores[0, 2] = 1.0
    scores[0, 1] = scores[1, 2] = -0.0
    _, merges = both_loops("abc", scores, -1.0)
    assert [m.score for m in merges] == [1.0, 0.0]
    assert math.copysign(1.0, merges[1].score) == -1.0


def test_a_first_best_of_negative_zero_is_logged_as_negative_zero():
    # a's first best is the -0.0 with b, which ties the 0.0 with c: the
    # merge takes b and logs that pair's -0.0, as the heap does, whatever
    # zero max() of the row would return
    scores = np.full((3, 3), NEG_INF)
    scores[0, 1], scores[0, 2], scores[1, 2] = -0.0, 0.0, -5.0
    rank = {x: k for k, x in enumerate("abc")}
    want = heap_average_link("abc", lambda p, q: float(scores[rank[p], rank[q]]), -1.0)
    assert want[1] == [Merge(frozenset("a"), frozenset("b"), -0.0)]
    _, merges = both_loops("abc", scores, -1.0)
    assert [(m.left, m.right, repr(m.score)) for m in merges] == [
        (m.left, m.right, repr(m.score)) for m in want[1]]


def straddling_block(rng, n):
    """(ids, scores) of n items on a tie-heavy 0.05 grid: about half the
    zeros are -0.0, two items score -inf with every other, and the four
    items of the rounding-into-a-tie case above score -inf with the rest."""
    scores = grid_scores(rng, n, rng.choice((0.0, 0.3)), rng.choice((2, 3)))
    zeros = np.argwhere(scores == 0.0)
    for i, j in zeros[: len(zeros) // 2]:
        scores[i, j] = scores[j, i] = -0.0
    for i in (1, n // 2):
        scores[i, :] = scores[:, i] = NEG_INF
    tie = [0, 2, 3, 5]
    scores[tie, :] = scores[:, tie] = NEG_INF
    a, b, c, d = tie
    x = math.nextafter(0.75, 0.0)
    for p, q, value in [(a, b, x), (a, c, 0.75), (a, d, 0.75), (b, d, 10.0),
                        (b, c, 0.0), (c, d, 0.0)]:
        scores[p, q] = scores[q, p] = value
    return [f"m{i:03d}" for i in range(n)], scores


@pytest.mark.parametrize("cap", [linkage.SCAN_MAX, 12])
def test_blocks_either_side_of_the_cap_equal_the_heap_oracle(cap):
    rng = random.Random(cap)
    with scan_max(cap):
        for n in (cap, cap + 1):
            for threshold in (-0.05, 0.0, 0.05, 0.7):
                ids, scores = straddling_block(rng, n)
                rank = {x: k for k, x in enumerate(ids)}
                want = heap_average_link(
                    ids, lambda p, q: float(scores[rank[p], rank[q]]), threshold)
                shuffled = ids[:]
                rng.shuffle(shuffled)
                assert traced(average_link(shuffled, scores, threshold)) == traced(want)


def test_the_scan_runs_up_to_the_cap_and_the_cached_loop_above(monkeypatch):
    ran = []
    for name in ("_scan_merges", "_cached_merges"):
        loop = getattr(linkage, name)
        monkeypatch.setattr(
            linkage, name, lambda sums, t, loop=loop, name=name: ran.append(name) or loop(sums, t))
    with scan_max(12):
        for n in (0, 1, 2, 12, 13):
            average_link([f"m{i:02d}" for i in range(n)], np.zeros((n, n)), 0.0)
    assert ran == ["_scan_merges", "_scan_merges", "_cached_merges"]


def test_a_dense_block_peaks_near_its_two_matrices():
    # the loops hold sums and averages, 2 * 8 n^2 bytes; the 4 n^2 bytes of
    # entries gathered above the diagonal are freed before the loop runs,
    # and holding them through it reads about 2.6 * 8 n^2. At tau 0.9 the
    # cached loop (n > SCAN_MAX) never rescans a large share of its rows;
    # at tau 0.5 one merge leaves 974 stale rows, and rescanning them all
    # at once would peak near 2.9 * 8 n^2.
    n = 1000
    scores = np.random.default_rng(0).integers(0, 20, (n, n)) * 0.05
    ids = [f"m{i:04d}" for i in range(n)]
    for tau in (0.9, 0.5):
        tracemalloc.start()
        try:
            _, merges = average_link(ids, scores, tau)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(merges) > n / 2
        assert peak < 2.5 * 8 * n * n, (tau, peak / (8 * n * n))
