"""Clustering a unit per connected component of its scored-pair graph.

Under the "never merge" default, a cluster pair that spans two components
of a unit's scored-pair graph averages -inf, so `build_response` clusters
each component of two or more mentions on its own. These tests hold the
pooled partitions to `heap_average_link` run on the whole unit, and the
errors to those of the engine on the whole unit's array.
"""

import contextlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdcoref.harness
import cdcoref.linkage
from cdcoref import (
    ClusteringConfig,
    Corpus,
    Document,
    EvalConfig,
    Mention,
    Partition,
    SchemaError,
    ScoreTable,
    Token,
    average_link,
    build_response,
)
from cdcoref.harness import _combined_scores, _component_arrays, _components, _sigmoid
from helpers import heap_average_link, run_python
from test_run_determinism import generated_inputs, write_inputs

NEG_INF = float("-inf")
GRID = [k / 4 for k in range(-4, 5)]  # few values, so ties are common


def corpus_of(ids, scores=None) -> Corpus:
    """One document holding one single-token event mention per id, in the
    order given, each its own gold cluster; `scores` are mention scores."""
    scores = scores or {}
    doc = Document("d", "t", "t/s", tuple(Token("d", 0, k, "w") for k in range(len(ids))))
    mentions = tuple(
        Mention(x, "d", k, k, "event", "w", scores.get(x)) for k, x in enumerate(ids)
    )
    return Corpus({"d": doc}, mentions, Partition([x] for x in ids))


def corpus_config(threshold, gold_mode=True, sigmoid=False) -> EvalConfig:
    return EvalConfig(
        unit_level="corpus",
        mention_type="event",
        clustering=ClusteringConfig(threshold, 1.0, gold_mention_mode=gold_mode),
        apply_sigmoid=sigmoid,
    )


@contextlib.contextmanager
def linkage_calls():
    """The items of every block whose clusters the pipeline reads from an
    engine's slot log, sorted by their smallest item, as blocks of one
    bucket run in size order; on exit, also checks that either engine, the
    one-block `_merges` or the lock-step `_lockstep_merges`, ran each
    block once."""
    calls, engine_blocks = [], []
    one, stacked = cdcoref.linkage._merges, cdcoref.linkage._lockstep_merges
    read = cdcoref.harness._clusters

    def recording(scores, threshold):
        engine_blocks.append(1)
        return one(scores, threshold)

    def recording_blocks(blocks, threshold):
        engine_blocks.extend(1 for _ in blocks)
        return stacked(blocks, threshold)

    def reading(ids, log):
        calls.append(frozenset(ids))
        return read(ids, log)

    cdcoref.linkage._merges = recording
    cdcoref.linkage._lockstep_merges = recording_blocks
    cdcoref.harness._clusters = reading
    try:
        yield calls
    finally:
        cdcoref.linkage._merges = one
        cdcoref.linkage._lockstep_merges = stacked
        cdcoref.harness._clusters = read
        calls.sort(key=min)
    assert len(engine_blocks) == len(calls)


def oracle_components(ids, pairs) -> list[frozenset]:
    """Connected components by repeated merging of any two that share a pair."""
    groups = [{x} for x in ids]
    for a, b in pairs:
        ga = next(g for g in groups if a in g)
        gb = next(g for g in groups if b in g)
        if ga is not gb:
            ga |= gb
            groups.remove(gb)
    return sorted((frozenset(g) for g in groups), key=min)


@st.composite
def component_units(draw):
    """Ids in several groups, interleaved in id order; scores on GRID for
    some pairs inside a group and for none across groups, unless a finite
    default scores every pair."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    ids = [f"m{k:02d}" for k in range(sum(sizes))]
    order = draw(st.permutations(ids))
    groups, start = [], 0
    for size in sizes:
        groups.append(sorted(order[start : start + size]))
        start += size
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    entries = {}
    for group in groups:
        for a, b in itertools.combinations(group, 2):
            if draw(st.floats(0, 1)) < density:
                entries[a, b] = draw(st.sampled_from(GRID))
    default = draw(st.sampled_from([NEG_INF, NEG_INF, -0.5, 0.25]))
    mention_scores = {x: draw(st.sampled_from(GRID)) for x in ids}
    return ids, entries, default, mention_scores


@settings(max_examples=300, deadline=None)
@given(
    unit=component_units(),
    gold_mode=st.booleans(),
    sigmoid=st.booleans(),
    threshold=st.sampled_from([-1.0, -0.25, 0.0, 0.25, 0.5, 0.6, 0.75, 1.0, 1.5]),
)
def test_pooled_components_equal_the_whole_unit_oracle(unit, gold_mode, sigmoid, threshold):
    ids, entries, default, mention_scores = unit
    table = ScoreTable(entries, default)

    def score(a, b):
        raw = entries.get((a, b), entries.get((b, a), default))
        if raw == NEG_INF:
            return NEG_INF  # unscored: never merged, sigmoid or not
        if not gold_mode:
            raw = mention_scores[a] + mention_scores[b] + raw
        return _sigmoid(raw) if sigmoid else raw

    want, _ = heap_average_link(ids, score, threshold)
    with linkage_calls() as calls:
        got, _ = build_response(
            corpus_of(ids), corpus_config(threshold, gold_mode, sigmoid), table,
            None if gold_mode else mention_scores,
        )
    assert got == Partition(want)
    # one engine call per component of two or more mentions, none for the rest
    scored = itertools.combinations(ids, 2) if default != NEG_INF else entries
    assert calls == [c for c in oracle_components(ids, scored) if len(c) > 1]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 30), data=st.data())
def test_component_labels_are_the_smallest_member(n, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                         st.integers(0, max(n - 1, 0))), max_size=40))
    pairs = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]}) if n else []
    i = np.array([p[0] for p in pairs], np.int64)
    j = np.array([p[1] for p in pairs], np.int64)
    want = [0] * n
    for group in oracle_components(range(n), pairs):
        for p in group:
            want[p] = min(group)
    assert _components(n, i, j).tolist() == want


def whole_unit_error(ids, table, mention_scores, config):
    """(type, message) that the engine raises on the whole unit's array."""
    unit = sorted(corpus_of(ids, mention_scores).gold_mentions, key=lambda m: m.mention_id)
    i, j, scored = _combined_scores(unit, table, config.clustering, False)
    dense = np.full((len(unit), len(unit)), NEG_INF)
    dense[i, j] = scored
    with pytest.raises(ValueError) as e:
        average_link(ids, dense, config.clustering.merge_threshold)
    return type(e.value), str(e.value)


class TestErrorsAsOnTheWholeUnit:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_first_overflow_in_row_major_order_over_all_components(self):
        # {a, d, e} is clustered first, but the whole unit's first bad
        # entry in row-major order is (b, c) of the second component
        ids = list("abcdef")
        scores = {"a": 0.0, "f": 0.0, **{x: 1e308 for x in "bcde"}}
        table = ScoreTable({("a", "d"): 0.5, ("d", "e"): 1e308, ("b", "c"): 1e308,
                            ("a", "f"): 0.0})
        config = corpus_config(0.0, gold_mode=False)
        want = whole_unit_error(ids, table, scores, config)
        assert want == (ValueError, "bad score inf for ('b', 'c')")
        with pytest.raises(ValueError) as e:
            build_response(corpus_of(ids, scores), config, table)
        assert (type(e.value), str(e.value)) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bad_scores_on_the_pipeline_route(self, bad):
        # the pipeline checks a unit's scored pairs once, in _component_arrays,
        # and hands the engines blocks that they do not check again
        ids = list("abcd")
        unit = sorted(corpus_of(ids).gold_mentions, key=lambda m: m.mention_id)
        i, j, scored = np.array([0, 1, 2]), np.array([1, 3, 3]), np.array([0.5, bad, bad])
        dense = np.full((4, 4), NEG_INF)
        dense[i, j] = scored
        with pytest.raises(ValueError) as want:
            average_link(ids, dense, 0.0)
        with pytest.raises(ValueError) as got:
            _component_arrays(unit, i, j, scored)
        assert str(got.value) == str(want.value) == f"bad score {bad!r} for ('b', 'd')"

    def test_mention_without_a_score(self):
        # a and e have no mention score; only e is in a scored pair
        ids = list("abcde")
        table = ScoreTable({("b", "c"): 0.5, ("c", "e"): 0.5, ("b", "d"): 0.0})
        scores = {"b": 0.0, "c": 0.0, "d": 0.0}
        with pytest.raises(SchemaError, match=r"^mention 'e' has no mention score$"):
            build_response(corpus_of(ids, scores), corpus_config(0.0, gold_mode=False), table)
        part, _ = build_response(
            corpus_of(ids, {**scores, "e": 0.0}), corpus_config(0.0, gold_mode=False), table
        )
        # b and c merge; every other cross pair averages in an unscored -inf
        assert part == Partition([["a"], ["b", "c"], ["d"], ["e"]])

    def test_repeated_mention_id(self):
        # only hand-built candidates can repeat an id
        candidates = [Mention("a", "d", 0, 0, "event", "w", 1.0),
                      Mention("a", "d", 1, 1, "event", "w", 1.0)]
        config = EvalConfig(unit_level="corpus", mention_source="predicted",
                            mention_type="event", clustering=ClusteringConfig(0.0, 1.0))
        with pytest.raises(ValueError, match=r"^duplicate items$"):
            build_response(corpus_of(list("ab")), config, ScoreTable(), candidates=candidates)


def test_many_components_allocate_far_below_the_dense_unit():
    # 16 components of 60 mentions, every pair inside a component scored:
    # the dense route held about four n x n float64 arrays, 32 n^2 bytes
    size, count = 60, 16
    ids = [f"m{k:04d}" for k in range(size * count)]
    groups = [ids[c::count] for c in range(count)]  # interleaved in id order
    table = ScoreTable({
        (a, b): GRID[(k * 7 + c) % len(GRID)]
        for c, group in enumerate(groups)
        for k, (a, b) in enumerate(itertools.combinations(group, 2))
    })
    corpus, config = corpus_of(ids), corpus_config(0.5)
    # the corpus memo, outside the trace; a lower tau then builds anew
    build_response(corpus, corpus_config(1.0), table)
    tracemalloc.start()
    try:
        part, _ = build_response(corpus, config, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(ids)
    assert all(any(c <= set(g) for g in groups) for c in part)
    assert peak < 32 * n * n / 10, peak


GUARD = """
import json, sys
import cdcoref.linkage
from cdcoref.cli import main
calls, one, stacked = [], cdcoref.linkage._merges, cdcoref.linkage._lockstep_merges
def recording(scores, threshold):
    calls.append(len(scores))
    return one(scores, threshold)
def recording_blocks(blocks, threshold):
    calls.extend(len(scores) for scores in blocks)
    return stacked(blocks, threshold)
cdcoref.linkage._merges = recording
cdcoref.linkage._lockstep_merges = recording_blocks
configs, key, response = json.loads(sys.argv[1])
codes = [main(["pipeline", "--config", config]) for config in configs]
codes += [main(["evaluate", "--key", key, "--response", response, "--singletons", flag])
          for flag in ("include", "omit")]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps([codes, calls, loaded]))
"""


def test_runs_load_no_scipy_module_but_the_assignment_extension(tmp_path):
    # CEAFe's solver is loaded from scipy.optimize._lsap alone: neither the
    # scipy.optimize package nor scipy.sparse, scipy.sparse.csgraph or
    # scipy.linalg is imported
    directory = tmp_path / "in"
    inputs = generated_inputs(random.Random(3))
    write_inputs(directory, inputs)
    corpus = inputs["corpus"]
    key = directory / "key.json"
    key.write_text(json.dumps({"mentions": corpus["mentions"], "clusters": corpus["clusters"]}),
                   encoding="utf-8")
    configs = []
    for policy in ("included", "omitted"):
        config = directory / f"run_{policy}.json"
        config.write_text(json.dumps({
            "corpus": "corpus.json", "scores": "scores.jsonl", "unit_level": "corpus",
            "mention_type": "all", "singleton_policy": policy, "output": "response.json",
            "clustering": {"tau": 0.25, "lambda": 0.4},
        }), encoding="utf-8")
        configs.append(str(config))
    argument = json.dumps([configs, str(key), str(directory / "response.json")])
    codes, calls, loaded = run_python(GUARD, argument)
    assert codes == [0, 0, 0, 0]
    assert loaded == ["scipy.optimize._lsap"]
    # score rows stay within a topic, so the one unit splits
    assert len(calls) > 1
