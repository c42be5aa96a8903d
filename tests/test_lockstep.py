"""The lock-step engine and the size buckets against the heap oracle.

`average_link_blocks` runs many independent blocks at once, and
`cluster_components` buckets a run's components by size before handing
each bucket to the lock-step `_lockstep_merges` or, below STACK_MIN
blocks, block by block to `_merges`, and reads each block's clusters from
its slot log with `_clusters`. Every block's clusters and merge log, the
pipeline's replayed from its slot log, scores compared by `repr` so that
-0.0 stays -0.0, must be `heap_average_link`'s on that block alone, with
`average_link` forced to each of its two loops and with its cap between
two block sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdcoref.clustering
import cdcoref.linkage
from cdcoref import ClusteringConfig, EvalConfig, Mention, ScoreTable, average_link, run_pipeline
from cdcoref.clustering import STACK_MIN, cluster_components
from cdcoref.linkage import _clusters, _replay, average_link_blocks
from helpers import SCAN_CAPS, heap_average_link, scan_max, traced
from test_components import corpus_config, corpus_of

NEG_INF = float("-inf")
# 10 and 14 share a bucket (14^2 <= 2 * 10^2), 15 starts the next one
SIZES = [0, 1, 2, 3, 4, 5, 7, 10, 14, 15, 20]
THRESHOLDS = [-0.5, -0.2, 0.0, 0.05, 0.2, 0.65]
# the cached loop everywhere, the scan everywhere, and a cap that blocks of
# 14 items are at and blocks of 15 one above
CAPS = SCAN_CAPS + (14,)


def symmetric(scores):
    """A block as the pipeline hands it over: the entries above the
    diagonal mirrored below it, -inf on the diagonal."""
    out = np.where(np.tri(len(scores), k=-1, dtype=bool), scores.T, scores)
    np.fill_diagonal(out, NEG_INF)
    return out


def pipeline_blocks(blocks):
    """`cluster_components`' input for (ids, scores) blocks, in fresh
    arrays, as the engines overwrite them."""
    return [([Mention(x, "d", 0, 0, "event") for x in sorted(ids)], symmetric(scores))
            for ids, scores in blocks]


def replayed(blocks, got):
    """Each block's `cluster_components` result as clusters and merge log,
    scores as their repr; its clusters must be those replayed from its
    slot log."""
    out = []
    for (ids, _), (clusters, log) in zip(blocks, got):
        result = _replay(sorted(ids), log)
        assert clusters == result[0]
        out.append(traced(result))
    return out


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
    handed, stacked = [], []
    one, many = cdcoref.clustering._merges, cdcoref.clustering._lockstep_merges

    def recording(scores, threshold):
        handed.append(id(scores))
        return one(scores, threshold)

    def recording_blocks(bucket, threshold):
        stacked.append([len(scores) for scores in bucket])
        handed.extend(id(scores) for scores in bucket)
        return many(bucket, threshold)

    want = [oracle(ids, scores, threshold) for ids, scores in blocks]
    for cap in CAPS:
        handed.clear()
        components = pipeline_blocks(blocks)
        cdcoref.clustering._merges = recording
        cdcoref.clustering._lockstep_merges = recording_blocks
        try:
            with scan_max(cap):
                got = cluster_components(components, threshold)
        finally:
            cdcoref.clustering._merges = one
            cdcoref.clustering._lockstep_merges = many
        assert replayed(blocks, got) == want
        # each block once, to one engine
        assert sorted(handed) == sorted(id(scores) for _, scores in components)
    # a stacked bucket spans sizes within a factor sqrt(2), so it pads
    # within twice its sum of m^2
    for sizes in stacked:
        assert len(sizes) >= STACK_MIN
        assert max(sizes) ** 2 <= 2 * min(sizes) ** 2


def test_a_bucket_below_the_cutoff_runs_block_by_block(monkeypatch):
    rng = np.random.default_rng(4)
    blocks = []
    for k, m in enumerate([6] * (STACK_MIN - 1) + [20] * STACK_MIN):
        scores = symmetric(np.triu(rng.integers(0, 9, (m, m)) * 0.05, 1))
        blocks.append(([Mention(f"b{k}m{i:02d}", "d", 0, 0, "event") for i in range(m)], scores))
    stacked = []
    many = cdcoref.clustering._lockstep_merges
    monkeypatch.setattr(cdcoref.clustering, "_lockstep_merges",
                        lambda bucket, t: stacked.append(len(bucket)) or many(bucket, t))
    cluster_components(blocks, 0.2)
    assert stacked == [STACK_MIN]


@pytest.mark.parametrize("threshold", [-0.1, 0.0, 0.05])
def test_buckets_at_and_below_the_cutoff_equal_the_heap_oracle(threshold):
    # STACK_MIN - 1 blocks of 8 run one by one, STACK_MIN blocks of 20 in
    # lock-step; scores hold -0.0, and each block an item whose row is all
    # -inf, the first block of each size all of its rows
    rng = np.random.default_rng(11)
    blocks = []
    for k, m in enumerate([8] * (STACK_MIN - 1) + [20] * STACK_MIN):
        scores = (rng.integers(0, 5, (m, m)) - 2) * 0.05
        scores[(scores == 0) & (rng.random((m, m)) < 0.5)] = -0.0
        scores[rng.random((m, m)) < 0.3] = NEG_INF
        scores[k % m] = scores[:, k % m] = NEG_INF
        if k in (0, STACK_MIN - 1):
            scores[:] = NEG_INF
        blocks.append(([f"b{k:02d}m{i:02d}" for i in rng.permutation(m).tolist()], scores))
    got = replayed(blocks, cluster_components(pipeline_blocks(blocks), threshold))
    assert got == [oracle(ids, scores, threshold) for ids, scores in blocks]
    if threshold <= 0.0:
        assert any(score == "-0.0" for _, log in got for *_, score in log)


@st.composite
def slot_logs(draw):
    """Ids and a slot log of merging slot b into a live slot a < b, with
    scores in any order."""
    n = draw(st.integers(0, 12))
    alive, log = list(range(n)), []
    for _ in range(draw(st.integers(0, max(n - 1, 0)))):
        a, b = sorted(draw(st.lists(st.sampled_from(alive), min_size=2, max_size=2,
                                    unique=True)))
        alive.remove(b)
        log.append((a, b, draw(st.sampled_from([1.0, 0.5, 0.0, -0.0, -0.5]))))
    return [f"x{k:02d}" for k in range(n)], log


@settings(max_examples=300, deadline=None)
@given(case=slot_logs())
def test_the_label_pass_gives_the_replayed_clusters(case):
    ids, log = case
    assert _clusters(ids, log) == _replay(ids, log)[0]


def test_pipeline_runs_build_no_merge(monkeypatch):
    # STACK_MIN components of 5 mentions run in lock-step, two of 30 one by one
    sizes = [5] * STACK_MIN + [30, 30]
    ids = [f"m{k:03d}" for k in range(sum(sizes))]
    rng = np.random.default_rng(5)
    entries, start = {}, 0
    for m in sizes:
        group = ids[start : start + m]
        start += m
        for p, a in enumerate(group):
            for b in group[p + 1 :]:
                entries[a, b] = float(rng.integers(0, 5)) * 0.25
    table = ScoreTable(entries)
    candidates = [Mention(x, "d", k, k, "event", "w", 0.0) for k, x in enumerate(ids)]
    predicted = EvalConfig(unit_level="corpus", mention_source="predicted",
                           mention_type="event", clustering=ClusteringConfig(0.5, 1.0))
    made = []
    monkeypatch.setattr(cdcoref.linkage, "Merge", lambda *args: made.append(args))
    for config, given_candidates in [(corpus_config(0.5), None), (predicted, candidates)]:
        partition, _ = run_pipeline(corpus_of(ids), config, table, candidates=given_candidates)
        assert any(len(cluster) > 1 for cluster in partition.clusters)
    assert made == []
    average_link(["a", "b"], np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)
    assert len(made) == 1


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
