"""Evaluation units, pipeline runs, partition files, config-driven runs.

The pipeline expectations on the three-document corpus are hand-derived:
with lemma scores, subtopic units reproduce the gold event clusters, topic
units over-merge the two T1 subtopics, and a single corpus unit also pulls
in the unrelated T2 strikes.
"""

import json
import math
import random
from dataclasses import replace

import pytest

from cdcoref import (
    ClusteringConfig,
    EvalConfig,
    InvariantError,
    Mention,
    Partition,
    SchemaError,
    ScoreTable,
    build_response,
    evaluation_units,
    group_documents,
    harness,
    load_corpus,
    load_partition_file,
    partition_on_spans,
    run_evaluation,
    run_pipeline,
    run_pipeline_from_config,
    save_partition_file,
)
from conftest import write_json
from helpers import lemma_score_table, score_lookup


@pytest.fixture
def toy_lemma_scores(toy_corpus):
    return lemma_score_table(toy_corpus.gold_mentions)


def event_config(level, **kwargs):
    return EvalConfig(
        unit_level=level,
        mention_type="event",
        singleton_policy="omitted",
        **kwargs,
    )


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.unit_level == "gold_topic"
        assert cfg.mention_source == "gold"
        assert cfg.singleton_policy == "included"
        assert cfg.mention_type == "all"
        # clustering resolves from the mention type; gold source drops
        # per-mention scores from pair combination
        assert cfg.clustering == ClusteringConfig(
            0.55, 0.4, gold_mention_mode=True, max_span_width=15
        )

    def test_clustering_follows_mention_type(self):
        cfg = EvalConfig(mention_type="event", mention_source="predicted")
        assert cfg.clustering == ClusteringConfig(
            0.65, 0.25, gold_mention_mode=False, max_span_width=10
        )

    def test_explicit_clustering_kept(self):
        custom = ClusteringConfig(0.9, 0.1)
        assert EvalConfig(clustering=custom).clustering == custom

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"unit_level": "paragraph"},
            {"mention_source": "guessed"},
            {"singleton_policy": "sometimes"},
            {"mention_type": "noun"},
        ],
    )
    def test_rejects_unknown_choices(self, kwargs):
        with pytest.raises(ValueError, match="unknown"):
            EvalConfig(**kwargs)

    def test_predicted_topic_needs_doc_threshold(self):
        with pytest.raises(ValueError, match="doc_threshold"):
            EvalConfig(unit_level="predicted_topic")
        EvalConfig(unit_level="predicted_topic", doc_threshold=0.1)


class TestEvaluationUnits:
    def test_corpus_is_one_unit(self, toy_corpus):
        units = evaluation_units(toy_corpus, event_config("corpus"))
        assert units == [("corpus", frozenset({"a1", "a2", "b1"}))]

    def test_gold_topic_groups(self, toy_corpus):
        units = evaluation_units(toy_corpus, event_config("gold_topic"))
        assert units == [
            ("T1", frozenset({"a1", "a2"})),
            ("T2", frozenset({"b1"})),
        ]

    def test_gold_subtopic_groups(self, toy_corpus):
        units = evaluation_units(toy_corpus, event_config("gold_subtopic"))
        assert units == [
            ("T1/s1", frozenset({"a1"})),
            ("T1/s2", frozenset({"a2"})),
            ("T2/s3", frozenset({"b1"})),
        ]

    def test_predicted_topic_recovers_gold_topics(self, toy_corpus):
        units = evaluation_units(
            toy_corpus, event_config("predicted_topic", doc_threshold=0.1)
        )
        assert units == [
            ("predicted_0", frozenset({"a1", "a2"})),
            ("predicted_1", frozenset({"b1"})),
        ]

    def test_high_doc_threshold_isolates_documents(self, toy_corpus):
        units = evaluation_units(
            toy_corpus, event_config("predicted_topic", doc_threshold=0.99)
        )
        assert [sorted(docs) for _, docs in units] == [["a1"], ["a2"], ["b1"]]


class TestRunPipeline:
    def test_subtopic_units_are_perfect(self, toy_corpus, toy_lemma_scores):
        response, report = run_pipeline(
            toy_corpus, event_config("gold_subtopic"), toy_lemma_scores
        )
        assert response == Partition(
            [["e1", "e2"], ["e3"], ["e4", "e5"], ["e6", "e7"]]
        )
        for prf in (report.muc, report.b_cubed, report.ceaf_e, report.lea):
            assert prf.f1 == pytest.approx(100.0)
        assert report.conll_f1 == pytest.approx(100.0)

    def test_topic_units_over_merge_subtopics(self, toy_corpus, toy_lemma_scores):
        response, report = run_pipeline(
            toy_corpus, event_config("gold_topic"), toy_lemma_scores
        )
        assert response == Partition([["e1", "e2", "e4", "e5"], ["e3"], ["e6", "e7"]])
        assert report.muc.recall == pytest.approx(100.0)
        assert report.muc.precision == pytest.approx(75.0)
        assert report.muc.f1 == pytest.approx(600.0 / 7)
        assert report.b_cubed.f1 == pytest.approx(80.0)
        assert report.ceaf_e.recall == pytest.approx(500.0 / 9)
        assert report.ceaf_e.precision == pytest.approx(250.0 / 3)
        assert report.ceaf_e.f1 == pytest.approx(200.0 / 3)
        assert report.lea.f1 == pytest.approx(500.0 / 7)
        assert report.conll_f1 == pytest.approx((600.0 / 7 + 80.0 + 200.0 / 3) / 3)

    def test_single_corpus_unit_over_merges_topics(self, toy_corpus, toy_lemma_scores):
        response, report = run_pipeline(
            toy_corpus, event_config("corpus"), toy_lemma_scores
        )
        assert response == Partition([["e1", "e2", "e4", "e5", "e6", "e7"], ["e3"]])
        assert report.muc.f1 == pytest.approx(75.0)
        assert report.b_cubed.f1 == pytest.approx(50.0)
        assert report.ceaf_e.f1 == pytest.approx(25.0)
        assert report.lea.f1 == pytest.approx(100.0 / 3)
        assert report.conll_f1 == pytest.approx(50.0)

    def test_finer_units_score_higher_here(self, toy_corpus, toy_lemma_scores):
        scores = [
            run_pipeline(toy_corpus, event_config(level), toy_lemma_scores)[1].conll_f1
            for level in ("gold_subtopic", "gold_topic", "corpus")
        ]
        assert scores[0] > scores[1] > scores[2]

    def test_predicted_topics_match_gold_topics_here(self, toy_corpus, toy_lemma_scores):
        _, predicted = run_pipeline(
            toy_corpus,
            event_config("predicted_topic", doc_threshold=0.1),
            toy_lemma_scores,
        )
        _, gold = run_pipeline(
            toy_corpus, event_config("gold_topic"), toy_lemma_scores
        )
        assert predicted.to_dict() == gold.to_dict()

    def test_response_clusters_never_cross_units(self, toy_corpus, toy_lemma_scores):
        by_id = {m.mention_id: m for m in toy_corpus.gold_mentions}
        config = event_config("gold_subtopic")
        response, _ = build_response(toy_corpus, config, toy_lemma_scores)
        unit_docs = [docs for _, docs in evaluation_units(toy_corpus, config)]
        for cluster in response:
            docs = {by_id[m].doc_id for m in cluster}
            assert any(docs <= unit for unit in unit_docs)

    def test_entity_type_selects_only_entities(self, toy_corpus, toy_lemma_scores):
        config = EvalConfig(
            unit_level="corpus", mention_type="entity", singleton_policy="omitted"
        )
        response, report = run_pipeline(toy_corpus, config, toy_lemma_scores)
        assert response == Partition([["n1", "n2", "n3"]])
        assert report.muc.f1 == pytest.approx(200.0 / 3)

    def test_singleton_policy_changes_numbers(self, toy_corpus, toy_lemma_scores):
        cfg_omit = event_config("gold_topic")
        cfg_keep = EvalConfig(unit_level="gold_topic", mention_type="event")
        _, omitted = run_pipeline(toy_corpus, cfg_omit, toy_lemma_scores)
        _, included = run_pipeline(toy_corpus, cfg_keep, toy_lemma_scores)
        assert included.singleton_policy == "included"
        assert omitted.singleton_policy == "omitted"
        assert included.b_cubed.f1 != pytest.approx(omitted.b_cubed.f1)

    def test_without_scores_everything_stays_singleton(self, toy_corpus):
        response, _ = run_pipeline(toy_corpus, event_config("gold_topic"))
        assert all(len(c) == 1 for c in response)


def candidate(mid, doc, start, end, score, mtype="event"):
    return Mention(mid, doc, start, end, mtype, mention_score=score)


class TestPredictedMentions:
    """Candidate spans, width filtering, and per-unit score pruning."""

    def test_requires_candidates(self, toy_corpus):
        config = event_config("corpus", mention_source="predicted")
        with pytest.raises(SchemaError, match="candidate"):
            build_response(toy_corpus, config)

    def test_prunes_to_score_budget(self, toy_corpus):
        # corpus unit has 24 tokens; prune_ratio 1/8 keeps the 3 best spans
        config = event_config(
            "corpus",
            mention_source="predicted",
            clustering=ClusteringConfig(0.5, 1.0 / 8.0, max_span_width=3),
        )
        cands = [
            candidate("c1", "a1", 1, 1, 4.0),
            candidate("c2", "a1", 5, 5, 3.0),
            candidate("c3", "a1", 7, 7, 2.0),
            candidate("c4", "a2", 1, 1, 1.0),
            candidate("c5", "a2", 5, 5, 0.5),
        ]
        _, kept = build_response(toy_corpus, config, candidates=cands)
        assert [m.mention_id for m in kept] == ["c1", "c2", "c3"]

    def test_width_filter_runs_before_pruning(self, toy_corpus):
        config = event_config(
            "corpus",
            mention_source="predicted",
            clustering=ClusteringConfig(0.5, 1.0 / 8.0, max_span_width=1),
        )
        cands = [
            candidate("wide", "a1", 0, 4, 9.0),
            candidate("c1", "a1", 1, 1, 3.0),
            candidate("c2", "a1", 5, 5, 2.0),
            candidate("c3", "a1", 7, 7, 1.0),
        ]
        _, kept = build_response(toy_corpus, config, candidates=cands)
        assert [m.mention_id for m in kept] == ["c1", "c2", "c3"]

    def test_type_filter(self, toy_corpus):
        config = event_config(
            "corpus",
            mention_source="predicted",
            clustering=ClusteringConfig(0.5, 1.0, max_span_width=3),
        )
        cands = [
            candidate("ev", "a1", 1, 1, 1.0),
            candidate("en", "a1", 0, 0, 5.0, mtype="entity"),
        ]
        _, kept = build_response(toy_corpus, config, candidates=cands)
        assert [m.mention_id for m in kept] == ["ev"]

    def test_combined_scores_drive_merges(self, toy_corpus):
        # combined score = span_i + span_j + pairwise; 4.0 + 3.0 + 0.8 = 7.8
        config = event_config(
            "corpus",
            mention_source="predicted",
            clustering=ClusteringConfig(7.5, 1.0, max_span_width=3),
        )
        cands = [
            candidate("c1", "a1", 1, 1, 4.0),
            candidate("c2", "a1", 5, 5, 3.0),
            candidate("c3", "a1", 7, 7, 2.9),
        ]
        pair_scores = ScoreTable(
            {("c1", "c2"): 0.8, ("c1", "c3"): 0.7, ("c2", "c3"): 0.6}
        )
        response, _ = build_response(toy_corpus, config, pair_scores, candidates=cands)
        # (c1,c3) = 4.0+2.9+0.7 = 7.6 also clears 7.5 alone, but after the
        # first merge avg({c1,c2}, {c3}) = (7.6 + 6.5) / 2 < 7.5
        assert response == Partition([["c1", "c2"], ["c3"]])

    def test_mention_score_overrides(self, toy_corpus):
        config = event_config(
            "corpus",
            mention_source="predicted",
            clustering=ClusteringConfig(0.5, 1.0 / 8.0, max_span_width=3),
        )
        cands = [
            candidate("c1", "a1", 1, 1, 4.0),
            candidate("c2", "a1", 5, 5, 3.0),
            candidate("c3", "a1", 7, 7, 2.0),
            candidate("c4", "a2", 1, 1, 1.0),
        ]
        overrides = {"c1": -10.0}
        _, kept = build_response(
            toy_corpus, config, mention_scores=overrides, candidates=cands
        )
        assert [m.mention_id for m in kept] == ["c2", "c3", "c4"]

    def test_sigmoid_squashes_combined_scores(self, toy_corpus):
        cands = [candidate("c1", "a1", 1, 1, 2.0), candidate("c2", "a1", 5, 5, 1.5)]
        pair_scores = ScoreTable({("c1", "c2"): 0.8})
        combined = 2.0 + 1.5 + 0.8
        squashed = 1.0 / (1.0 + math.exp(-combined))

        def run(threshold):
            config = event_config(
                "corpus",
                mention_source="predicted",
                apply_sigmoid=True,
                clustering=ClusteringConfig(threshold, 1.0, max_span_width=3),
            )
            return build_response(toy_corpus, config, pair_scores, candidates=cands)[0]

        assert run(squashed - 1e-6) == Partition([["c1", "c2"]])
        assert run(squashed + 1e-6) == Partition([["c1"], ["c2"]])

    def test_span_identity_scoring_ignores_mention_ids(self, toy_corpus):
        # candidates reproduce the a1 event spans under different ids
        config = event_config(
            "gold_subtopic",
            mention_source="predicted",
            clustering=ClusteringConfig(0.5, 1.0, max_span_width=3),
        )
        cands = [
            candidate("x1", "a1", 1, 1, 1.0),
            candidate("x2", "a1", 5, 5, 1.0),
            candidate("x3", "a1", 7, 7, 1.0),
        ]
        pair_scores = ScoreTable({("x1", "x2"): 5.0})
        _, report = run_pipeline(toy_corpus, config, pair_scores, candidates=cands)
        # key (omitted): {e1,e2},{e4,e5},{e6,e7}; response: {(a1,1),(a1,5)}
        # so exactly one of three key clusters is recovered, perfectly
        assert report.muc.recall == pytest.approx(100.0 / 3)
        assert report.muc.precision == pytest.approx(100.0)
        assert report.ceaf_e.recall == pytest.approx(100.0 / 3)
        assert report.ceaf_e.precision == pytest.approx(100.0)


class TestPartitionOnSpans:
    def test_rekeys_by_span(self):
        mentions = [
            Mention("a", "d", 0, 0, "event"),
            Mention("b", "d", 1, 2, "event"),
        ]
        part = partition_on_spans(Partition([["a", "b"]]), mentions)
        assert part == Partition([[("d", 0, 0), ("d", 1, 2)]])

    def test_duplicate_spans_collapse_within_cluster(self):
        mentions = [
            Mention("a", "d", 0, 0, "event"),
            Mention("b", "d", 0, 0, "entity"),
        ]
        part = partition_on_spans(Partition([["a", "b"]]), mentions)
        assert part == Partition([[("d", 0, 0)]])

    def test_duplicate_spans_across_clusters_rejected(self):
        mentions = [
            Mention("a", "d", 0, 0, "event"),
            Mention("b", "d", 0, 0, "entity"),
        ]
        with pytest.raises(InvariantError, match="ambiguous"):
            partition_on_spans(Partition([["a"], ["b"]]), mentions)

    def test_unknown_member_rejected(self):
        with pytest.raises(SchemaError, match="unknown mentions"):
            partition_on_spans(Partition([["ghost"]]), [])


class TestPartitionFiles:
    def test_round_trip_with_mentions(self, tmp_path):
        mentions = [
            Mention("a", "d", 0, 0, "event", head_lemma="x", mention_score=0.5),
            Mention("b", "d", 1, 1, "entity"),
        ]
        part = Partition([["a", "b"]])
        path = tmp_path / "part.json"
        save_partition_file(path, part, mentions)
        loaded, loaded_mentions = load_partition_file(path)
        assert loaded == part
        assert loaded_mentions == mentions

    def test_round_trip_without_mentions(self, tmp_path):
        path = tmp_path / "part.json"
        save_partition_file(path, Partition([["a"], ["b", "c"]]))
        loaded, loaded_mentions = load_partition_file(path)
        assert loaded == Partition([["a"], ["b", "c"]])
        assert loaded_mentions is None

    def test_missing_clusters_field(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"mentions": []})
        with pytest.raises(SchemaError, match="clusters"):
            load_partition_file(path)

    def test_cluster_member_not_in_mention_table(self, tmp_path):
        path = write_json(
            tmp_path / "bad.json", {"mentions": [], "clusters": [["a"]]}
        )
        with pytest.raises(SchemaError, match="unknown mentions"):
            load_partition_file(path)

    def test_non_string_member(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"clusters": [[1]]})
        with pytest.raises(SchemaError, match="mention ids"):
            load_partition_file(path)


class TestRunEvaluation:
    def _mention(self, mid, doc, pos):
        return {
            "mention_id": mid,
            "doc_id": doc,
            "start_token": pos,
            "end_token": pos,
            "type": "event",
        }

    def test_span_matching_when_both_sides_have_mentions(self, tmp_path):
        key = {
            "mentions": [self._mention("k1", "d", 0), self._mention("k2", "d", 1)],
            "clusters": [["k1", "k2"]],
        }
        resp = {
            "mentions": [self._mention("r9", "d", 0), self._mention("r7", "d", 1)],
            "clusters": [["r7", "r9"]],
        }
        report = run_evaluation(
            write_json(tmp_path / "key.json", key),
            write_json(tmp_path / "resp.json", resp),
            "included",
        )
        assert report.conll_f1 == pytest.approx(100.0)

    def test_id_matching_without_mention_tables(self, tmp_path):
        key = {"clusters": [["m1", "m2"]]}
        resp = {"clusters": [["m1", "m2"]]}
        other = {"clusters": [["x1", "x2"]]}
        perfect = run_evaluation(
            write_json(tmp_path / "key.json", key),
            write_json(tmp_path / "resp.json", resp),
            "included",
        )
        disjoint = run_evaluation(
            write_json(tmp_path / "key2.json", key),
            write_json(tmp_path / "other.json", other),
            "included",
        )
        assert perfect.conll_f1 == pytest.approx(100.0)
        assert disjoint.conll_f1 == pytest.approx(0.0)

    def test_policy_is_applied(self, tmp_path):
        key = {"clusters": [["m1", "m2"], ["s"]]}
        resp = {"clusters": [["m1", "m2"], ["t"]]}
        k = write_json(tmp_path / "key.json", key)
        r = write_json(tmp_path / "resp.json", resp)
        included = run_evaluation(k, r, "included")
        omitted = run_evaluation(k, r, "omitted")
        assert omitted.conll_f1 == pytest.approx(100.0)
        assert included.conll_f1 < 100.0


class TestPipelineConfigFile:
    def _write_inputs(self, tmp_path, toy_corpus_file, extra):
        corpus_rel = "toy_corpus.json"
        (tmp_path / corpus_rel).write_text(
            open(toy_corpus_file, encoding="utf-8").read()
        )
        scores_rel = "scores.jsonl"
        from cdcoref import load_corpus, write_score_file

        corpus = load_corpus(toy_corpus_file)
        write_score_file(tmp_path / scores_rel, lemma_score_table(corpus.gold_mentions))
        config = {
            "corpus": corpus_rel,
            "scores": scores_rel,
            "unit_level": "gold_topic",
            "mention_type": "event",
            "singleton_policy": "omitted",
            **extra,
        }
        return write_json(tmp_path / "run.json", config)

    def test_matches_direct_run(self, tmp_path, toy_corpus_file, toy_corpus, toy_lemma_scores):
        config_path = self._write_inputs(tmp_path, toy_corpus_file, {})
        response, report = run_pipeline_from_config(config_path)
        direct_response, direct_report = run_pipeline(
            toy_corpus, event_config("gold_topic"), toy_lemma_scores
        )
        assert response == direct_response
        assert report.to_dict() == direct_report.to_dict()

    def test_writes_output_partition(self, tmp_path, toy_corpus_file):
        config_path = self._write_inputs(
            tmp_path, toy_corpus_file, {"output": "response.json"}
        )
        response, _ = run_pipeline_from_config(config_path)
        saved, mentions = load_partition_file(tmp_path / "response.json")
        assert saved == response
        assert mentions is not None and len(mentions) == 7

    def test_clustering_override(self, tmp_path, toy_corpus_file):
        # tau above the lemma score of 1.0 blocks every merge
        config_path = self._write_inputs(
            tmp_path, toy_corpus_file, {"clustering": {"tau": 1.5, "lambda": 0.5}}
        )
        response, _ = run_pipeline_from_config(config_path)
        assert all(len(c) == 1 for c in response)

    def test_missing_corpus_path(self, tmp_path):
        config_path = write_json(tmp_path / "run.json", {"unit_level": "corpus"})
        with pytest.raises(SchemaError, match="corpus"):
            run_pipeline_from_config(config_path)

    def test_bad_unit_level_is_schema_error(self, tmp_path, toy_corpus_file):
        config_path = self._write_inputs(
            tmp_path, toy_corpus_file, {"unit_level": "chapter"}
        )
        with pytest.raises(SchemaError, match="unit_level"):
            run_pipeline_from_config(config_path)

    def test_clustering_needs_tau_and_lambda(self, tmp_path, toy_corpus_file):
        config_path = self._write_inputs(
            tmp_path, toy_corpus_file, {"clustering": {"tau": 0.5}}
        )
        with pytest.raises(SchemaError, match="lambda"):
            run_pipeline_from_config(config_path)


class TestCombinedScoreArray:
    """The per-unit combined scores equal the per-pair formula bit for bit."""

    @pytest.mark.parametrize("default", [-0.35, -math.inf])
    @pytest.mark.parametrize("gold_mode", [False, True])
    def test_matches_per_pair_combination_under_sigmoid(self, default, gold_mode):
        import random

        from cdcoref import combine_pair_score
        from cdcoref.harness import _combined_scores, _sigmoid

        rng = random.Random(41)
        unit = [
            candidate(f"c{k:02d}", "a1", k, k, rng.uniform(-3.0, 3.0)) for k in range(30)
        ]
        rng.shuffle(unit)
        overrides = {"c03": 0.7, "c08": -1.3}
        table = ScoreTable(
            {
                (a.mention_id, b.mention_id): rng.randrange(-20, 21) * 0.05
                for i, a in enumerate(unit)
                for b in unit[i + 1 :]
                if rng.random() < 0.6
            },
            default=default,
        )
        config = ClusteringConfig(0.5, 1.0, gold_mention_mode=gold_mode)
        ordered = sorted(unit, key=lambda m: m.mention_id)
        # build_response hands over mentions whose scores are overridden
        overridden = [replace(m, mention_score=overrides.get(m.mention_id, m.mention_score))
                      for m in ordered]
        rows, cols, scored = _combined_scores(overridden, table, config, True)
        got = dict(zip(zip(rows.tolist(), cols.tolist()), scored.tolist()))
        # one entry per pair, i < j, in row-major order
        assert list(got) == sorted(got) and len(got) == len(scored)

        def span(m):
            return overrides.get(m.mention_id, m.mention_score)

        lookup = score_lookup(table)
        for i, a in enumerate(ordered):
            for j, b in enumerate(ordered[i + 1 :], start=i + 1):
                raw = lookup(a.mention_id, b.mention_id)
                if raw == -math.inf:
                    # unscored: never merged, sigmoid or not
                    assert (i, j) not in got, (a.mention_id, b.mention_id)
                else:
                    want = _sigmoid(combine_pair_score(span(a), span(b), raw, gold_mode))
                    assert got[i, j] == want, (a.mention_id, b.mention_id)

    def test_unscored_pairs_never_merge_under_sigmoid(self, toy_corpus):
        # sigmoid(-inf) would be 0, which clears any tau <= 0
        cands = [candidate("c1", "a1", 1, 1, 2.0), candidate("c2", "a1", 5, 5, 1.5)]
        config = event_config(
            "corpus",
            mention_source="predicted",
            apply_sigmoid=True,
            clustering=ClusteringConfig(-1.0, 1.0, max_span_width=3),
        )
        response, _ = build_response(toy_corpus, config, ScoreTable(), candidates=cands)
        assert response == Partition([["c1"], ["c2"]])


def test_one_span_offered_as_event_and_entity(toy_corpus):
    # with mention_type "all" both candidates pass the type filter; they
    # used to be kept as two singletons on one span, which scoring on span
    # identity rejected as "ambiguous across clusters"
    config = EvalConfig(
        unit_level="corpus",
        mention_source="predicted",
        mention_type="all",
        clustering=ClusteringConfig(0.5, 1.0, max_span_width=3),
    )
    cands = [
        candidate("c1", "a1", 1, 1, 1.0),
        candidate("c2", "a1", 1, 1, 1.0, mtype="entity"),
        candidate("c3", "a1", 5, 5, 1.0),
    ]
    response, _ = run_pipeline(toy_corpus, config, candidates=cands)
    assert response == Partition([["c1"], ["c3"]])


def sweep_corpus_data(seed, n_docs=12):
    """Documents in three topics drawn from overlapping vocabularies, with
    single-token event and entity mentions clustered within topics."""
    rng = random.Random(seed)
    vocab = {t: [f"{t}w{i}" for i in range(8)] + [f"common{i}" for i in range(4)]
             for t in ("T0", "T1", "T2")}
    documents, mentions, clusters = [], [], {}
    for d in range(n_docs):
        topic = f"T{d % 3}"
        doc_id = f"doc{d:02d}"
        words = [rng.choice(vocab[topic]) for _ in range(rng.randrange(6, 20))]
        documents.append({
            "doc_id": doc_id, "topic_id": topic, "subtopic_id": f"{topic}s{d % 2}",
            "tokens": [{"sentence": i // 5, "text": w} for i, w in enumerate(words)],
        })
        for pos in rng.sample(range(len(words)), rng.randrange(1, 5)):
            mid = f"{doc_id}m{pos}"
            mtype = rng.choice(("event", "entity"))
            mentions.append({"mention_id": mid, "doc_id": doc_id, "start_token": pos,
                             "end_token": pos, "type": mtype})
            clusters.setdefault((topic, mtype, rng.randrange(2)), []).append(mid)
    scores = ScoreTable({
        (a["mention_id"], b["mention_id"]): rng.choice((0.2, 0.4, 0.6, 0.8))
        for i, a in enumerate(mentions) for b in mentions[i + 1:] if rng.random() < 0.6
    })
    return {"documents": documents, "mentions": mentions,
            "clusters": list(clusters.values())}, scores


def sweep_config(tau, unit_level="predicted_topic", doc_threshold=0.05, mention_type="event"):
    return EvalConfig(
        unit_level=unit_level,
        mention_type=mention_type,
        clustering=ClusteringConfig(tau, 0.4, gold_mention_mode=True),
        doc_threshold=doc_threshold if unit_level == "predicted_topic" else None,
    )


def run_bytes(corpus, config, scores):
    """A run's partition, report and units, as text to compare bytewise."""
    partition, report = run_pipeline(corpus, config, scores)
    units = [(uid, sorted(docs)) for uid, docs in evaluation_units(corpus, config)]
    return json.dumps([[sorted(c) for c in partition.clusters], units]) + report.to_json()


class TestRunInvariantMemo:
    """Units and the span-keyed gold key are computed once per Corpus
    instance; no sequence of runs on one corpus may tell them apart from
    runs on a freshly loaded one."""

    TAUS = (0.2, 0.4, 0.5, 0.6, 0.8)

    def test_sweep_orders_match_fresh_corpus(self, tmp_path):
        data, scores = sweep_corpus_data(seed=3)
        path = write_json(tmp_path / "sweep.json", data)
        shared = load_corpus(path)
        sweep = [sweep_config(t) for t in self.TAUS]
        others = [
            sweep_config(0.5, unit_level="gold_topic"),
            sweep_config(0.5, unit_level="gold_subtopic", mention_type="entity"),
            sweep_config(0.4, unit_level="corpus", mention_type="all"),
            sweep_config(0.6, doc_threshold=0.3),
            sweep_config(0.6, doc_threshold=0.3, mention_type="entity"),
            sweep_config(0.4, doc_threshold=0.9, mention_type="all"),
        ]
        interleaved = [c for pair in zip(sweep, others) for c in pair] + sweep[::2]
        configs = sweep + sweep[::-1] + interleaved
        for config in configs:
            assert run_bytes(shared, config, scores) == run_bytes(load_corpus(path), config, scores)
        # the predicted-topic settings grouped different units
        assert len({tuple(evaluation_units(shared, c)) for c in configs}) >= 3

    def test_grouping_runs_once_per_setting(self, tmp_path, monkeypatch):
        data, scores = sweep_corpus_data(seed=4)
        corpus = load_corpus(write_json(tmp_path / "sweep.json", data))
        calls = []

        def counted(docs, threshold):
            calls.append(threshold)
            return group_documents(docs, threshold)

        monkeypatch.setattr(harness, "group_documents", counted)
        for tau in self.TAUS:
            run_pipeline(corpus, sweep_config(tau), scores)
            run_pipeline(corpus, sweep_config(tau, doc_threshold=0.3), scores)
        assert calls == [0.05, 0.3]

    def test_returned_units_are_fresh_lists(self, toy_corpus):
        config = event_config("predicted_topic", doc_threshold=0.1)
        first = evaluation_units(toy_corpus, config)
        first.clear()
        assert evaluation_units(toy_corpus, config) == [
            ("predicted_0", frozenset({"a1", "a2"})),
            ("predicted_1", frozenset({"b1"})),
        ]

    def test_corpora_never_share_units(self, tmp_path):
        config = sweep_config(0.5)
        datas = [sweep_corpus_data(seed, n_docs=6 + seed)[0] for seed in range(6)]
        paths = [write_json(tmp_path / f"c{i}.json", d) for i, d in enumerate(datas)]
        expected = [evaluation_units(load_corpus(p), config) for p in paths]
        assert len({tuple(e) for e in expected}) == len(expected)
        # two live corpora, used in turn
        a, b = load_corpus(paths[0]), load_corpus(paths[1])
        for _ in range(2):
            assert evaluation_units(a, config) == expected[0]
            assert evaluation_units(b, config) == expected[1]
        # corpora dropped before the next is loaded, so ids may be reused
        del a, b
        for path, units in zip(paths, expected):
            assert evaluation_units(load_corpus(path), config) == units

    def test_replace_starts_with_an_empty_memo(self, toy_corpus, toy_lemma_scores):
        config = event_config("gold_topic")
        run_pipeline(toy_corpus, config, toy_lemma_scores)
        assert toy_corpus._memo
        docs = dict(toy_corpus.documents)
        docs["b1"] = replace(docs["b1"], topic_id="T1")
        moved = replace(toy_corpus, documents=docs)
        assert moved._memo == {}
        assert evaluation_units(moved, config) == [("T1", frozenset({"a1", "a2", "b1"}))]
        assert evaluation_units(toy_corpus, config)[0] == ("T1", frozenset({"a1", "a2"}))

    def test_memo_is_left_out_of_eq_and_repr(self, toy_corpus_file, toy_lemma_scores):
        used, fresh = load_corpus(toy_corpus_file), load_corpus(toy_corpus_file)
        for level in ("gold_topic", "corpus"):
            run_pipeline(used, event_config(level), toy_lemma_scores)
        assert used._memo and not fresh._memo
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert "_memo" not in repr(used)
