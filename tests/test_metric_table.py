"""The overlap-table metrics against the former per-cluster loops, bit for bit."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cdcoref import (
    Partition,
    b_cubed,
    ceaf_e,
    evaluate,
    filter_singletons,
    lea,
    muc,
)
from cdcoref.metrics import SINGLETON_POLICIES

from helpers import partition_pair_strategy, random_partition, reference_metrics


def assert_matches_reference(key, response, policy):
    report = evaluate(key, response, policy)
    if policy == "omitted":
        key, response = filter_singletons(key), filter_singletons(response)
    expected = reference_metrics(key, response)
    assert (report.muc, report.b_cubed, report.ceaf_e, report.lea) == expected
    assert (muc(key, response), b_cubed(key, response),
            ceaf_e(key, response), lea(key, response)) == expected


@settings(max_examples=300, deadline=None)
@given(partition_pair_strategy(max_mentions=30), st.sampled_from(SINGLETON_POLICIES))
def test_small_partitions_match_reference(pair, policy):
    # overlapping mention subsets: twinless mentions on both sides, and
    # either side may be empty
    key, response = pair
    assert_matches_reference(key, response, policy)


@pytest.mark.parametrize("seed", range(6))
def test_large_partitions_match_reference(seed):
    # hundreds of clusters of mixed sizes, so per-cluster terms round and
    # any other summation order than cluster order shows in the last bit
    rng = random.Random(7100 + seed)
    for _ in range(4):
        n = rng.randrange(100, 600)
        universe = [f"m{i:03d}" for i in range(n)]
        key_members = [m for m in universe if rng.random() < 0.9]
        response_members = [m for m in universe if rng.random() < 0.9]
        key = random_partition(rng, key_members)
        # coarser labels give the response larger clusters than the key
        labels = [rng.randrange(1, n // rng.choice((2, 3, 5)) + 2) for _ in response_members]
        groups: dict = {}
        for m, label in zip(response_members, labels):
            groups.setdefault(label, set()).add(m)
        response = Partition(groups.values())
        for policy in SINGLETON_POLICIES:
            assert_matches_reference(key, response, policy)
            assert_matches_reference(response, key, policy)


def test_empty_and_disjoint_sides():
    empty, other = Partition([]), Partition([["a", "b"], ["c"]])
    for policy in SINGLETON_POLICIES:
        assert_matches_reference(empty, empty, policy)
        assert_matches_reference(empty, other, policy)
        assert_matches_reference(other, empty, policy)
        assert_matches_reference(other, Partition([["x", "y"], ["z"]]), policy)


def test_ceaf_e_with_several_optimal_alignments():
    # several alignments reach the same optimum, and their totals differ in
    # the last bit; solving the overlap graph's components one by one picks
    # another of them and reads 43.928571428571420
    key = Partition([[0, 11, 15], [1, 8, 10], [2, 7, 22, 28], [3], [4, 5, 18],
                     [6, 17, 23], [9, 20, 21], [12], [13, 14], [19], [24],
                     [25, 27, 29]])
    response = Partition([[0, 24], [1, 16, 18, 20], [2], [3, 9, 17], [4, 7, 19],
                          [5, 22], [6, 14, 21, 28], [10, 13, 15, 29], [11, 27],
                          [12], [23], [26]])
    assert ceaf_e(key, response).recall == 43.92857142857144
    assert_matches_reference(key, response, "included")
