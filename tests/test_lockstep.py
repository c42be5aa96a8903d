"""The lock-step engine and the size buckets against the heap oracle.

`average_link_blocks` runs many independent blocks at once, and
`cluster_components` buckets a run's components by size before handing
each bucket to it or, below STACK_MIN blocks, block by block to
`average_link`. Every block's clusters and merge log, scores compared by
`repr` so that -0.0 stays -0.0, must be `heap_average_link`'s on that
block alone, with `average_link` forced to each of its two loops and with
its cap between two block sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdcoref.clustering
from cdcoref import Mention, average_link
from cdcoref.clustering import STACK_MIN, cluster_components
from cdcoref.linkage import average_link_blocks
from helpers import SCAN_CAPS, heap_average_link, scan_max, traced

NEG_INF = float("-inf")
# 10 and 14 share a bucket (14^2 <= 2 * 10^2), 15 starts the next one
SIZES = [0, 1, 2, 3, 4, 5, 7, 10, 14, 15, 20]
THRESHOLDS = [-0.5, -0.2, 0.0, 0.05, 0.2, 0.65]
# the cached loop everywhere, the scan everywhere, and a cap that blocks of
# 14 items are at and blocks of 15 one above
CAPS = SCAN_CAPS + (14,)


def oracle(ids, scores, threshold):
    rank = {x: k for k, x in enumerate(sorted(ids))}
    return traced(heap_average_link(
        ids, lambda a, b: float(scores[min(rank[a], rank[b]), max(rank[a], rank[b])]),
        threshold))


@st.composite
def batches(draw):
    """Blocks of mixed sizes over distinct ids, given in shuffled order,
    with (m, m) arrays over the sorted ids of which only the entries above
    the diagonal count. Scores lie on a few grid values, 0.0 and -0.0
    among them, with -inf holes; a block may copy an earlier one's scores, so equal
    averages meet across blocks, or hold no finite score at all."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(st.sampled_from([2, 3, 9]))
    # 0 among the values, at the bottom, in the middle or on top
    offset = draw(st.sampled_from([0, steps // 2, steps - 1]))
    blocks = []
    for k, m in enumerate(draw(st.lists(st.sampled_from(SIZES), max_size=12))):
        same = [s for _, s in blocks if len(s) == m]
        if same and draw(st.booleans()):
            scores = same[0].copy()
        else:
            scores = (rng.integers(0, steps, (m, m)) - offset) * 0.05
            scores[(scores == 0) & (rng.random((m, m)) < 0.5)] = -0.0
            scores[rng.random((m, m)) < draw(st.sampled_from([0.0, 0.4, 1.0]))] = NEG_INF
            # below the diagonal is never read
            below = draw(st.sampled_from([np.nan, np.inf, 7.0]))
            scores = np.where(np.tri(m, dtype=bool), below, scores)
        ids = [f"b{k:02d}m{i:02d}" for i in rng.permutation(m).tolist()]
        blocks.append((ids, scores))
    return blocks


@settings(max_examples=300, deadline=None)
@given(blocks=batches(), threshold=st.sampled_from(THRESHOLDS))
def test_every_block_equals_the_heap_oracle(blocks, threshold):
    got = average_link_blocks(blocks, threshold)
    assert len(got) == len(blocks)
    for (ids, scores), result in zip(blocks, got):
        want = oracle(ids, scores, threshold)
        assert traced(result) == want
        for cap in CAPS:
            with scan_max(cap):
                assert traced(average_link(ids, scores, threshold)) == want


@settings(max_examples=200, deadline=None)
@given(blocks=batches(), threshold=st.sampled_from(THRESHOLDS))
def test_buckets_equal_the_heap_oracle_and_stack_only_at_the_cutoff(blocks, threshold):
    components = [([Mention(x, "d", 0, 0, "event") for x in sorted(ids)], scores)
                  for ids, scores in blocks]
    handed, stacked = [], []
    one, many = cdcoref.clustering.average_link, cdcoref.clustering.average_link_blocks

    def recording(items, scores, threshold):
        handed.append(items[0] if items else None)
        return one(items, scores, threshold)

    def recording_blocks(bucket, threshold):
        stacked.append([len(items) for items, _ in bucket])
        handed.extend(items[0] if items else None for items, _ in bucket)
        return many(bucket, threshold)

    want = [oracle(ids, scores, threshold) for ids, scores in blocks]
    for cap in CAPS:
        handed.clear()
        cdcoref.clustering.average_link = recording
        cdcoref.clustering.average_link_blocks = recording_blocks
        try:
            with scan_max(cap):
                got = cluster_components(components, threshold)
        finally:
            cdcoref.clustering.average_link = one
            cdcoref.clustering.average_link_blocks = many
        assert [traced(result) for result in got] == want
        # each block once, to one engine
        assert sorted(handed, key=str) == sorted(
            (min(ids) if ids else None for ids, _ in blocks), key=str)
    # a stacked bucket spans sizes within a factor sqrt(2), so it pads
    # within twice its sum of m^2
    for sizes in stacked:
        assert len(sizes) >= STACK_MIN
        assert max(sizes) ** 2 <= 2 * min(sizes) ** 2


def test_a_bucket_below_the_cutoff_runs_block_by_block(monkeypatch):
    rng = np.random.default_rng(4)
    blocks = []
    for k, m in enumerate([6] * (STACK_MIN - 1) + [20] * STACK_MIN):
        scores = np.triu(rng.integers(0, 9, (m, m)) * 0.05, 1)
        blocks.append(([Mention(f"b{k}m{i:02d}", "d", 0, 0, "event") for i in range(m)], scores))
    stacked = []
    many = cdcoref.clustering.average_link_blocks
    monkeypatch.setattr(cdcoref.clustering, "average_link_blocks",
                        lambda bucket, t: stacked.append(len(bucket)) or many(bucket, t))
    cluster_components(blocks, 0.2)
    assert stacked == [STACK_MIN]


def test_errors_are_those_of_the_first_block_average_link_rejects():
    fine = (["a", "b"], np.array([[0.0, 0.5], [0.0, 0.0]]))
    nan = (["c", "d"], np.array([[0.0, np.nan], [0.0, 0.0]]))
    twice = (["e", "e"], np.zeros((2, 2)))
    wide = (["f", "g"], np.zeros((3, 3)))
    for blocks, message in [
        ([fine, nan, twice], "bad score nan for ('c', 'd')"),
        ([fine, twice, nan], "duplicate items"),
        ([fine, wide, nan], "score array has shape (3, 3), expected (2, 2)"),
    ]:
        with pytest.raises(ValueError) as stacked:
            average_link_blocks(blocks, 0.0)
        assert str(stacked.value) == message
        for cap in SCAN_CAPS:
            with scan_max(cap), pytest.raises(ValueError) as first:
                for ids, scores in blocks:
                    average_link(ids, scores, 0.0)
            assert str(first.value) == message
    with pytest.raises(ValueError, match="threshold must be finite"):
        average_link_blocks([fine], float("nan"))
    assert average_link_blocks([], 0.0) == []
