"""Score tables, span pruning, agglomerative clustering, training pairs."""

import json
import math
import random

import numpy as np
import pytest

from cdcoref import (
    ClusteringConfig,
    Mention,
    Merge,
    Partition,
    SchemaError,
    ScoreTable,
    average_link,
    combine_pair_score,
    generate_training_pairs,
    prune_spans,
    read_mention_scores,
    read_score_file,
    write_score_file,
    write_training_pairs,
)
from helpers import (
    brute_force_average_link,
    dyadic_score_table,
    mention_clusters,
    score_lookup,
    score_matrix,
)

INF = float("inf")


def table(**pairs) -> ScoreTable:
    """Shorthand: table(ab=0.9, ac=0.5) for single-letter mention ids."""
    return ScoreTable({(k[0], k[1]): v for k, v in pairs.items()})


class TestScoreTable:
    def test_symmetric_lookup(self):
        t = table(ab=0.7)
        assert [list(x) for x in t.pairs(["a", "b"])] == [[0], [1], [0.7]]
        # positions of the smaller id, then of the larger one
        assert [list(x) for x in t.pairs(["b", "a"])] == [[1], [0], [0.7]]
        assert len(t) == 1

    def test_absent_pair_uses_default(self):
        assert [list(x) for x in table(ab=0.7).pairs(["a", "z"])] == [[], [], []]
        assert table(ab=0.7).default == -INF
        assert ScoreTable(default=0.5).default == 0.5
        assert score_lookup(ScoreTable(default=0.5))("a", "z") == 0.5

    def test_reversed_entry_later_wins(self):
        t = ScoreTable({("a", "b"): 0.1, ("b", "a"): 0.9})
        assert list(t.items()) == [(("a", "b"), 0.9)]
        assert len(t) == 1

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="self-pair"):
            ScoreTable({("a", "a"): 1.0})

    def test_non_finite_entry_rejected(self):
        for bad in (INF, -INF, float("nan")):
            with pytest.raises(ValueError, match="finite"):
                ScoreTable({("a", "b"): bad})

    def test_entry_that_is_not_a_number_rejected(self):
        # the rule read_score_file applies to a row: "0.5" and true are not numbers
        for bad in ("0.5", True, False, None):
            with pytest.raises(ValueError, match="^score must be a number$"):
                ScoreTable({("a", "b"): bad})
        t = ScoreTable({("a", "b"): np.float64(0.5), ("a", "c"): np.float32(0.25)})
        assert list(t.items()) == [(("a", "b"), 0.5), (("a", "c"), 0.25)]

    def test_nan_default_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ScoreTable(default=float("nan"))


class TestAverageLink:
    def test_single_merge_then_stop(self):
        t = table(ab=0.9, ac=0.5, bc=0.1)
        clusters, merges = average_link(["a", "b", "c"], score_matrix(t, "abc"), 0.4)
        assert clusters == [frozenset("ab"), frozenset("c")]
        # after the first merge, avg({a,b}, {c}) = (0.5 + 0.1) / 2 = 0.3
        assert merges == [Merge(frozenset("a"), frozenset("b"), 0.9)]

    def test_threshold_is_inclusive(self):
        t = table(ab=0.9, ac=0.5, bc=0.1)
        clusters, merges = average_link(["a", "b", "c"], score_matrix(t, "abc"), 0.3)
        assert clusters == [frozenset("abc")]
        assert merges[1] == Merge(frozenset("ab"), frozenset("c"), pytest.approx(0.3))

    def test_averages_not_single_link(self):
        # one strong link must not drag a whole cluster across the threshold
        t = table(ab=1.0, cd=1.0, ac=1.0, ad=0.0, bc=0.0, bd=0.0)
        clusters, _ = average_link("abcd", score_matrix(t, "abcd"), 0.5)
        assert clusters == [frozenset("ab"), frozenset("cd")]

    def test_equal_scores_merge_smallest_ids_first(self):
        t = ScoreTable(
            {("c", "d"): 0.8, ("a", "b"): 0.8},
            default=-INF,
        )
        _, merges = average_link("abcd", score_matrix(t, "abcd"), 0.5)
        assert [sorted(m.left | m.right) for m in merges] == [["a", "b"], ["c", "d"]]

    def test_never_merge_score(self):
        # absent table pairs score -inf and lose to any finite threshold
        t = ScoreTable()
        clusters, merges = average_link(["a", "b"], score_matrix(t, "ab"), -1000.0)
        assert clusters == [frozenset("a"), frozenset("b")]
        assert merges == []

    def test_empty_and_singleton_inputs(self):
        assert average_link([], np.ones((0, 0)), 0.5) == ([], [])
        assert average_link(["x"], np.ones((1, 1)), 0.5) == ([frozenset("x")], [])

    def test_input_order_is_irrelevant(self):
        t = table(ab=0.9, ac=0.5, bc=0.1)
        fwd = average_link(["a", "b", "c"], score_matrix(t, "abc"), 0.3)
        rev = average_link(["c", "b", "a"], score_matrix(t, "abc"), 0.3)
        assert fwd == rev

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="finite"):
            average_link(["a", "b"], np.zeros((2, 2)), INF)
        with pytest.raises(ValueError, match="duplicate"):
            average_link(["a", "a"], np.zeros((2, 2)), 0.5)
        with pytest.raises(ValueError, match="bad score"):
            average_link(["a", "b"], np.full((2, 2), math.nan), 0.5)
        with pytest.raises(ValueError, match="bad score"):
            average_link(["a", "b"], np.full((2, 2), INF), 0.5)

    def test_matches_full_rescan_oracle(self):
        rng = random.Random(20260823)
        for _ in range(60):
            n = rng.randrange(2, 7)
            ids = [f"m{i}" for i in range(n)]
            t = dyadic_score_table(rng, ids)
            threshold = rng.randrange(-8, 17) / 16
            got_clusters, got_merges = average_link(ids, score_matrix(t, sorted(ids)), threshold)
            want_clusters, want_merges = brute_force_average_link(ids, score_lookup(t), threshold)
            assert got_clusters == want_clusters
            assert len(got_merges) == len(want_merges)
            for got, (a, b, avg) in zip(got_merges, want_merges):
                assert {got.left, got.right} == {a, b}
                # dyadic scores make both routes bit-exact
                assert got.score == avg

    def test_raising_threshold_never_merges_more(self):
        rng = random.Random(7)
        for _ in range(30):
            ids = [f"m{i}" for i in range(rng.randrange(2, 7))]
            t = dyadic_score_table(rng, ids)
            lo, _ = average_link(ids, score_matrix(t, sorted(ids)), 0.2)
            hi, _ = average_link(ids, score_matrix(t, sorted(ids)), 0.8)
            # every high-threshold cluster sits inside one low-threshold cluster
            for c in hi:
                assert any(c <= big for big in lo)


class TestClusteringConfig:
    @pytest.mark.parametrize(
        "mention_type, threshold, ratio, width",
        [("event", 0.65, 0.25, 10), ("entity", 0.6, 0.35, 15), ("all", 0.55, 0.4, 15)],
    )
    def test_tuned_defaults(self, mention_type, threshold, ratio, width):
        cfg = ClusteringConfig.for_mention_type(mention_type)
        assert cfg.merge_threshold == threshold
        assert cfg.prune_ratio == ratio
        assert cfg.max_span_width == width
        assert cfg.gold_mention_mode is False

    def test_gold_mode_flag(self):
        assert ClusteringConfig.for_mention_type("event", gold_mention_mode=True).gold_mention_mode

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="mention type"):
            ClusteringConfig.for_mention_type("verb")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"merge_threshold": INF, "prune_ratio": 0.5},
            {"merge_threshold": 0.5, "prune_ratio": 0.0},
            {"merge_threshold": 0.5, "prune_ratio": 1.5},
            {"merge_threshold": 0.5, "prune_ratio": 0.5, "max_span_width": 0},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            ClusteringConfig(**kwargs)


def _candidate(mid, score, doc="d", start=0, end=0):
    return Mention(mid, doc, start, end, "event", mention_score=score)


class TestPruneSpans:
    def test_keeps_top_scores(self):
        cands = [_candidate(f"m{i}", float(i), start=i, end=i) for i in range(8)]
        kept = prune_spans(cands, 0.5, 8)
        assert [m.mention_id for m in kept] == ["m7", "m6", "m5", "m4"]

    def test_budget_survives_float_artifacts(self):
        # 0.3 * 10 is 2.9999999999999996 in floats; the budget must be 3
        cands = [_candidate(f"m{i}", float(i), start=i, end=i) for i in range(5)]
        assert len(prune_spans(cands, 0.3, 10)) == 3

    def test_boundary_tie_prefers_earlier_span(self):
        cands = [
            _candidate("late", 1.0, start=5, end=5),
            _candidate("early", 1.0, start=2, end=2),
            _candidate("top", 2.0, start=9, end=9),
        ]
        kept = prune_spans(cands, 0.5, 4)
        assert [m.mention_id for m in kept] == ["top", "early"]

    def test_budget_beyond_supply(self):
        cands = [_candidate("a", 1.0), _candidate("b", 2.0, start=1, end=1)]
        assert len(prune_spans(cands, 1.0, 50)) == 2

    def test_missing_score_rejected(self):
        bare = Mention("m", "d", 0, 0, "event")
        with pytest.raises(SchemaError, match="no mention score"):
            prune_spans([bare], 0.5, 10)


class TestCombinePairScore:
    def test_predicted_mode_sums_all_three(self):
        assert combine_pair_score(1.0, 2.0, 0.5) == 3.5

    def test_gold_mode_keeps_only_pairwise(self):
        assert combine_pair_score(1.0, 2.0, 0.5, gold_mention_mode=True) == 0.5

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            combine_pair_score(INF, 0.0, 0.0)


class TestAgglomerativeCluster:
    MENTIONS = [Mention(x, "d", i, i, "event") for i, x in enumerate("cab")]

    def test_accepts_mention_objects(self):
        part, merges = mention_clusters(
            self.MENTIONS, score_matrix(table(ab=0.9, ac=0.1, bc=0.2), "abc"), 0.5
        )
        assert part == Partition([["a", "b"], ["c"]])
        assert merges == [Merge(frozenset("a"), frozenset("b"), 0.9)]

    def test_unscored_pairs_never_merge(self):
        scores = score_matrix(table(ab=0.9), "abc")
        part, _ = mention_clusters(self.MENTIONS, scores, -1.0)
        assert part == Partition([["a", "b"], ["c"]])


class TestTrainingPairs:
    GOLD = Partition([["a", "b", "c"], ["d", "e"], ["f"]])

    def test_positives_complete_and_labeled(self):
        pairs = generate_training_pairs(self.GOLD, negative_ratio=1)
        positives = [(a, b) for a, b, label in pairs if label == 1]
        assert positives == [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e")]

    def test_negative_cap_and_pool(self):
        # cross-cluster pool: 3*2 + 3*1 + 2*1 = 11 pairs
        pairs = generate_training_pairs(self.GOLD, negative_ratio=2)
        negatives = [(a, b) for a, b, label in pairs if label == 0]
        assert len(negatives) == 8
        assert len(set(negatives)) == 8
        for a, b in negatives:
            assert self.GOLD.mention_index[a] != self.GOLD.mention_index[b]

    def test_ratio_larger_than_pool_takes_all(self):
        pairs = generate_training_pairs(self.GOLD, negative_ratio=20)
        assert sum(1 for *_, label in pairs if label == 0) == 11

    def test_deterministic_for_fixed_seed(self):
        a = generate_training_pairs(self.GOLD, negative_ratio=2, seed=3)
        b = generate_training_pairs(self.GOLD, negative_ratio=2, seed=3)
        assert a == b

    def test_all_singletons_warns_and_returns_nothing(self):
        with pytest.warns(UserWarning, match="singleton"):
            assert generate_training_pairs(Partition([["a"], ["b"]])) == []

    def test_bad_ratio(self):
        with pytest.raises(ValueError, match="negative_ratio"):
            generate_training_pairs(self.GOLD, negative_ratio=0)


class TestScoreFiles:
    def test_round_trip_with_default(self, tmp_path):
        t = ScoreTable({("a", "b"): 0.5, ("a", "c"): -0.25}, default=0.1)
        path = tmp_path / "scores.jsonl"
        write_score_file(path, t)
        again = read_score_file(path)
        assert again.default == 0.1
        assert sorted(again.items()) == sorted(t.items())

    def test_never_merge_default_not_written(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_score_file(path, table(ab=0.5))
        assert "default" not in path.read_text()
        assert read_score_file(path).default == -INF

    def test_bad_json_line_numbered(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"m1": "a", "m2": "b", "score": 1}\nnot json\n')
        with pytest.raises(SchemaError, match="scores.jsonl:2"):
            read_score_file(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"m1": "a", "score": 1}\n')
        with pytest.raises(SchemaError, match="m2"):
            read_score_file(path)

    def test_non_finite_score(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"m1": "a", "m2": "b", "score": 1e999}\n')
        with pytest.raises(SchemaError, match="finite"):
            read_score_file(path)

    def test_mention_score_round_trip(self, tmp_path):
        path = tmp_path / "mentions.jsonl"
        path.write_text(
            '{"mention_id": "a", "score": 1.5}\n{"mention_id": "b", "score": -2}\n'
        )
        assert read_mention_scores(path) == {"a": 1.5, "b": -2.0}

    def test_mention_score_errors(self, tmp_path):
        path = tmp_path / "mentions.jsonl"
        path.write_text('{"mention_id": "a"}\n')
        with pytest.raises(SchemaError, match="score"):
            read_mention_scores(path)

    def test_training_pair_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_training_pairs(path, [("a", "b", 1), ("a", "c", 0)])
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert rows == [
            {"m1": "a", "m2": "b", "label": 1},
            {"m1": "a", "m2": "c", "label": 0},
        ]


def test_merge_log_scores_reflect_merge_time_averages():
    t = table(ab=1.0, ac=0.8, bc=0.0, ad=0.0, bd=0.0, cd=0.0)
    _, merges = average_link("abcd", score_matrix(t, "abcd"), 0.4)
    assert [m.score for m in merges] == [1.0, pytest.approx(0.4)]
    assert merges[1].left | merges[1].right == frozenset("abc")


def test_math_isfinite_guard_allows_negative_threshold():
    clusters, _ = average_link(["a", "b"], np.full((2, 2), -5.0), -10.0)
    assert clusters == [frozenset("ab")]
    assert not math.isinf(-10.0)


class TestScoreFileRowChecks:
    @pytest.mark.parametrize(
        "row",
        [
            '{"m1": 1, "m2": "a", "score": 0.5}',
            '{"m1": "a", "m2": ["x"], "score": 0.5}',
            '{"m1": null, "m2": "a", "score": 0.5}',
        ],
    )
    def test_non_string_ids(self, tmp_path, row):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"m1": "a", "m2": "b", "score": 1}\n' + row + "\n")
        with pytest.raises(SchemaError, match=r"scores.jsonl:2: m1 and m2"):
            read_score_file(path)

    @pytest.mark.parametrize("score", ['"0.5"', "true", "false", "null", "[1]"])
    def test_non_numeric_score(self, tmp_path, score):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"default": 0.1}\n{"m1": "a", "m2": "b", "score": %s}\n' % score)
        with pytest.raises(SchemaError, match=r"scores.jsonl:2: score must be a number"):
            read_score_file(path)

    def test_integer_score_accepted(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"m1": "b", "m2": "a", "score": 2}\n')
        assert list(read_score_file(path).items()) == [(("a", "b"), 2.0)]


class TestPruneSpansSharedSpans:
    def test_best_candidate_of_a_span_is_kept(self):
        cands = [
            _candidate("low", 1.0, start=3, end=3),
            _candidate("high", 2.0, start=3, end=3),
            _candidate("other", 1.5, start=4, end=4),
        ]
        assert [m.mention_id for m in prune_spans(cands, 1.0, 10)] == ["high", "other"]

    def test_tie_goes_to_the_smaller_mention_id(self):
        cands = [_candidate("m2", 1.0, start=3, end=3), _candidate("m1", 1.0, start=3, end=3)]
        assert [m.mention_id for m in prune_spans(cands, 1.0, 10)] == ["m1"]

    def test_budget_counts_spans(self):
        cands = [
            _candidate("a", 3.0, start=0, end=0),
            _candidate("b", 2.0, start=0, end=0),
            _candidate("c", 1.0, start=1, end=1),
        ]
        assert [m.mention_id for m in prune_spans(cands, 0.5, 4)] == ["a", "c"]
