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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcoref import (
    ClusteringConfig,
    Corpus,
    Document,
    EvalConfig,
    InvariantError,
    Mention,
    Partition,
    SchemaError,
    ScoreTable,
    Token,
    build_response,
    evaluate,
    evaluation_units,
    group_documents,
    harness,
    load_corpus,
    load_partition_file,
    partition_on_spans,
    run_evaluation,
    run_pipeline,
    run_pipeline_from_config,
    run_sweep_from_config,
    save_partition_file,
    write_score_file,
)
from cdcoref.corpus import MENTION_TYPES, mention_to_json
from cdcoref.harness import MENTION_SOURCES, UNIT_LEVELS, response_members
from cdcoref.metrics import _Overlap
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


class TestSweepConfigFile:
    """A pipeline config whose `clustering.tau` is a list runs each tau on
    inputs loaded once, and links once."""

    def write_config(self, tmp_path, taus, name="run.json", **extra):
        data, _ = sweep_corpus_data(seed=9)
        write_json(tmp_path / "corpus.json", data)
        candidates, overrides, scores = predicted_inputs(data, seed=9)
        write_score_file(tmp_path / "scores.jsonl", scores)
        write_json(tmp_path / "cands.json",
                   {"mentions": [mention_to_json(m) for m in candidates]})
        (tmp_path / "ms.jsonl").write_text("".join(
            json.dumps({"mention_id": k, "score": v}) + "\n" for k, v in overrides.items()))
        config = {
            "corpus": "corpus.json", "scores": "scores.jsonl",
            "candidates": "cands.json", "mention_scores": "ms.jsonl",
            "mention_source": "predicted", "unit_level": "gold_topic",
            "mention_type": "event", "clustering": {"tau": taus, "lambda": 0.4},
            **extra,
        }
        return write_json(tmp_path / name, config)

    def test_each_tau_matches_its_own_run(self, tmp_path, monkeypatch):
        calls, engine = [], harness._merges_per_block

        def counted(blocks, threshold):
            calls.append(threshold)
            return engine(blocks, threshold)

        monkeypatch.setattr(harness, "_merges_per_block", counted)
        taus = [0.8, 0.2, 1.5, 0.2, -1.0, 0.5]
        runs = run_sweep_from_config(self.write_config(tmp_path, taus))
        assert calls == [-1.0]
        assert [tau for tau, _, _ in runs] == taus
        responses = set()
        for k, (tau, response, report) in enumerate(runs):
            single = self.write_config(tmp_path, tau, f"run{k}.json", output=f"out{k}.json")
            alone, alone_report = run_pipeline_from_config(single)
            assert response == alone == load_partition_file(tmp_path / f"out{k}.json")[0]
            assert report.to_json() == alone_report.to_json()
            responses.add(response)
        assert len(responses) >= 4

    def test_a_list_needs_the_sweep_and_no_output(self, tmp_path):
        path = self.write_config(tmp_path, [0.5, 0.6])
        with pytest.raises(SchemaError, match=r"run\.json: clustering\.tau: expected a number$"):
            run_pipeline_from_config(path)
        run_pipeline_from_config(self.write_config(tmp_path, [0.5]))
        path = self.write_config(tmp_path, [0.5, 0.6], output="out.json")
        with pytest.raises(SchemaError, match=r"run\.json: output: needs a single clustering\.tau$"):
            run_sweep_from_config(path)
        assert not (tmp_path / "out.json").exists()


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


def predicted_inputs(data, seed):
    """Candidate spans of one and two tokens over `data`'s documents, with
    mention scores on a grid, overrides for some of them, and pair scores
    within each topic on the non-dyadic 0.05 grid, so averages round."""
    rng = random.Random(seed)
    candidates = []
    for doc in data["documents"]:
        for start in range(len(doc["tokens"])):
            for end in (start, start + 1)[: 1 + (start + 1 < len(doc["tokens"]))]:
                if rng.random() < 0.6:
                    candidates.append(candidate(
                        f"{doc['doc_id']}c{start}-{end}", doc["doc_id"], start, end,
                        rng.choice((-0.5, 0.0, 0.25, 0.5, 1.0)),
                        rng.choice(("event", "entity"))))
    topic = {d["doc_id"]: d["topic_id"] for d in data["documents"]}
    scores = ScoreTable({
        (a.mention_id, b.mention_id): rng.randrange(-4, 12) * 0.05
        for i, a in enumerate(candidates) for b in candidates[i + 1:]
        if topic[a.doc_id] == topic[b.doc_id] and rng.random() < 0.6
    })
    overrides = {m.mention_id: rng.choice((-0.25, 0.5, 0.75))
                 for m in candidates if rng.random() < 0.3}
    return candidates, overrides, scores


def predicted_config(tau, unit_level, mention_type="event", prune_ratio=0.4, sigmoid=False):
    return EvalConfig(
        unit_level=unit_level,
        mention_source="predicted",
        mention_type=mention_type,
        clustering=ClusteringConfig(tau, prune_ratio),
        doc_threshold=0.05 if unit_level == "predicted_topic" else None,
        apply_sigmoid=sigmoid,
    )


def outcome(corpus, config, *inputs):
    """What `run_pipeline` computes, with the selected mentions: the
    response, the report as JSON text, the mentions and the response file's
    mention table as JSON text, which tells -0.0 from 0.0 and 1 from 1.0."""
    response, mentions = build_response(corpus, config, *inputs)
    report = harness._score_response(corpus, config, response, corpus._memo["response"])
    table = json.dumps([mention_to_json(m) for m in response_members(response, mentions)])
    return response, report.to_json(), mentions, table


def run_bytes(corpus, config, scores):
    """A run's partition, report and units, as text to compare bytewise."""
    partition, report = run_pipeline(corpus, config, scores)
    units = [(uid, sorted(docs)) for uid, docs in evaluation_units(corpus, config)]
    return json.dumps([[sorted(c) for c in partition.clusters], units]) + report.to_json()


class TestRunInvariantMemo:
    """Units and the span-keyed gold key are computed once per Corpus
    instance, and the tau-free part of the last response is kept on it;
    no sequence of runs on one corpus may tell them apart from runs on a
    freshly loaded one."""

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

    @staticmethod
    def merge_averages(corpus, config, inputs):
        """The sorted distinct averages of every merge at `config`'s tau."""
        build_response(corpus, config, *inputs)
        logs = [log for _, log in corpus._memo["response"].blocks]
        return sorted({score for log in logs for _, _, score in log})

    def test_predicted_sweeps_match_fresh_corpus(self, tmp_path):
        data, _ = sweep_corpus_data(seed=5)
        path = write_json(tmp_path / "sweep.json", data)
        shared = load_corpus(path)
        candidates, overrides, scores = predicted_inputs(data, seed=5)
        inputs = [scores, overrides, candidates]

        def check(config, *args):
            args = args or inputs
            got = outcome(shared, config, *args)
            assert got == outcome(load_corpus(path), config, *args)
            return got

        for level in ("gold_topic", "predicted_topic", "corpus"):
            averages = self.merge_averages(
                load_corpus(path), predicted_config(-10.0, level), inputs)
            assert len(averages) > 10
            # merge averages themselves, and a tau between two of them
            taus = [averages[len(averages) * k // 5] for k in range(5)]
            taus.append((taus[1] + averages[averages.index(taus[1]) + 1]) / 2)
            others = [
                predicted_config(taus[2], "gold_subtopic"),
                predicted_config(taus[2], level, mention_type="all"),
                predicted_config(taus[2], level, prune_ratio=0.25),
                predicted_config(0.5, level, sigmoid=True),
            ]
            sweep = [predicted_config(t, level) for t in sorted(taus)]
            repeated = [sweep[k] for k in (0, 0, 3, 1, 1, 5, 5, 2)]
            interleaved = [c for pair in zip(sweep, others) for c in pair]
            responses = [check(c)[0] for c in sweep + sweep[::-1] + repeated + interleaved]
            # the sweep's responses differ, so the cut moved
            assert len(set(responses[: len(sweep)])) >= 4

        config = predicted_config(taus[3], "gold_topic")
        low = predicted_config(taus[0], "gold_topic")
        check(low)
        # inputs changed in place between calls
        kept = check(config)[2]
        overrides[kept[0].mention_id] = 2.0
        check(config)
        del overrides[next(iter(overrides))]
        check(config)
        candidates.append(candidate("doc00extra", "doc00", 0, 0, 3.0))
        check(config)
        candidates[0] = replace(candidates[0], mention_score=-1.0)
        check(config)
        candidates.pop()
        check(config)
        # an equal but distinct table, and none
        check(config, ScoreTable(dict(scores.items())), overrides, candidates)
        check(low, ScoreTable(dict(scores.items())), overrides, candidates)
        check(config, None, overrides, candidates)
        check(config, None, overrides, candidates)
        check(config, scores, None, candidates)

        # a call that raises stores nothing: the same call raises again
        bad = candidates + [candidate("doc00none", "doc00", 1, 1, None)]
        for _ in range(2):
            with pytest.raises(SchemaError, match=r"^candidate 'doc00none' has no mention score$"):
                build_response(shared, config, scores, overrides, bad)
        check(config)
        check(low)

    def test_a_non_monotone_log_is_cut_not_filtered(self, tmp_path):
        # three scores of 0.1 sum to 0.30000000000000004, so a cluster of
        # three meets a fourth mention at an average above 0.1, after merges
        # at 0.1: above 0.1 the engine stops at the first merge
        data, _ = sweep_corpus_data(seed=7)
        path = write_json(tmp_path / "sweep.json", data)
        ids = sorted(m["mention_id"] for m in data["mentions"])
        scores = ScoreTable({(a, b): 0.1 for i, a in enumerate(ids) for b in ids[i + 1:]})
        shared = load_corpus(path)
        above = math.nextafter(0.1, 1.0)
        taus = [0.1, above, math.nextafter(above, 1.0), 0.1, above]
        for tau in taus:
            config = sweep_config(tau, unit_level="corpus", mention_type="all")
            got = outcome(shared, config, scores)
            assert got == outcome(load_corpus(path), config, scores)
            if tau > 0.1:
                assert len(got[0]) == len(ids)
        averages = [score for _, log in shared._memo["response"].blocks for _, _, score in log]
        assert averages[0] == 0.1 and max(averages) > above

    def test_equal_scores_of_another_sign_or_type_rebuild(self, tmp_path):
        data, _ = sweep_corpus_data(seed=8)
        path = write_json(tmp_path / "sweep.json", data)
        shared = load_corpus(path)
        candidates, overrides, scores = predicted_inputs(data, seed=8)
        config = predicted_config(0.3, "corpus")
        _, _, kept, _ = outcome(shared, config, scores, overrides, candidates)
        target = kept[0].mention_id
        tables = set()
        for value in (0.0, -0.0, 1, 1.0, True):
            # an override: in place, then in an equal but distinct dict
            overrides[target] = value
            for inputs in ([scores, overrides, candidates],
                           [scores, dict(overrides), list(candidates)]):
                got = outcome(shared, config, *inputs)
                assert got == outcome(load_corpus(path), config, *inputs)
                tables.add(got[3])
        assert len(tables) == 5  # each value is written differently
        del overrides[target]
        at = next(k for k, m in enumerate(candidates) if m.mention_id == target)
        for value in (0.0, -0.0, 0.0):
            # a candidate's own score, on an equal but distinct mention
            candidates[at] = replace(candidates[at], mention_score=value)
            got = outcome(shared, config, scores, overrides, candidates)
            assert got == outcome(load_corpus(path), config, scores, overrides, candidates)
            assert ('"score": -0.0' in got[3]) == (math.copysign(1.0, value) < 0)

    def test_an_ascending_sweep_links_once(self, tmp_path, monkeypatch):
        data, _ = sweep_corpus_data(seed=6)
        path = write_json(tmp_path / "sweep.json", data)
        inputs = predicted_inputs(data, seed=6)[::-1]
        calls, engine = [], harness._merges_per_block

        def counted(blocks, threshold):
            calls.append(threshold)
            return engine(blocks, threshold)

        monkeypatch.setattr(harness, "_merges_per_block", counted)
        taus = [-1.0, 0.0, 0.5, 1.0, 1.5]
        for order in (taus, taus[::-1]):
            calls.clear()
            corpus = load_corpus(path)
            for tau in order:
                run_pipeline(corpus, predicted_config(tau, "gold_topic"), *inputs)
            assert calls == (taus[:1] if order == taus else order)
        # the singleton policy is read by scoring alone
        for policy in ("omitted", "included"):
            config = replace(predicted_config(taus[0], "gold_topic"), singleton_policy=policy)
            run_pipeline(corpus, config, *inputs)
        assert calls == taus[::-1]

    def test_interleaved_policies_and_types_match_fresh_corpus(self, tmp_path):
        data, _ = sweep_corpus_data(seed=10)
        path = write_json(tmp_path / "sweep.json", data)
        shared = load_corpus(path)
        candidates, overrides, scores = predicted_inputs(data, seed=10)
        configs = [
            replace(make(tau, level, mention_type=mtype), singleton_policy=policy)
            for make in (predicted_config, sweep_config)
            for level in ("gold_topic", "corpus")
            for tau in (0.2, 0.6)
            for mtype in ("event", "all", "entity")
            for policy in ("omitted", "included")
        ]
        random.Random(10).shuffle(configs)
        reports = set()
        for config in configs:
            got = outcome(shared, config, scores, overrides, candidates)
            assert got == outcome(load_corpus(path), config, scores, overrides, candidates)
            reports.add(got[1])
        assert len(reports) >= len(configs) // 2

    def test_an_ascending_sweep_scores_on_codes(self, tmp_path, monkeypatch):
        data, _ = sweep_corpus_data(seed=11)
        path = write_json(tmp_path / "sweep.json", data)
        inputs = predicted_inputs(data, seed=11)[::-1]
        expected = {}
        for config in [predicted_config(tau, "gold_topic") for tau in (0.2, 0.4, 0.6, 0.8)]:
            response, mentions = build_response(load_corpus(path), config, *inputs)
            key = harness._span_key(load_corpus(path), config)
            expected[config] = evaluate(key, partition_on_spans(response, mentions)).to_json()
        calls = []

        def counted(name):
            function = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return wrapper

        for name in ("partition_on_spans", "evaluate", "_span_codes"):
            monkeypatch.setattr(harness, name, counted(name))
        corpus = load_corpus(path)
        for config in expected:
            assert run_pipeline(corpus, config, *inputs)[1].to_json() == expected[config]
        assert calls == ["_span_codes"]
        # the sweep config takes the same route
        calls.clear()
        sweep = TestSweepConfigFile().write_config(tmp_path, [0.8, 0.2, 0.6, 0.4])
        assert len(run_sweep_from_config(sweep)) == 4
        assert calls == ["_span_codes"]

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


# --- scoring through span codes, against the object route ---------------------


@st.composite
def scoring_case(draw):
    """A corpus of 1-4 documents with doc ids that sort apart from their
    order, some with no mentions; gold mentions of both types on a few
    spans, so spans are shared inside a cluster and across clusters;
    candidates on the same spans, some absent from the key, or none; pair
    scores on a tie-heavy grid, with a finite default or none, so that
    mentions on one span merge; and configs run in turn on the corpus."""
    names = draw(st.lists(st.sampled_from(["b", "a", "a0", "B", "\xe9"]),
                          min_size=1, max_size=4, unique=True))
    documents = {}
    for k, d in enumerate(names):
        words = draw(st.lists(st.sampled_from(["strike", "union", "vote"]), min_size=1, max_size=4))
        documents[d] = Document(d, f"T{k % 2}", f"s{draw(st.integers(0, 1))}",
                                tuple(Token(d, 0, i, w) for i, w in enumerate(words)))
    spans = [(d, start, end) for d, doc in documents.items()
             for start in range(len(doc)) for end in range(start, min(start + 2, len(doc)))]
    kinds = st.sampled_from(MENTION_TYPES)
    gold = draw(st.lists(st.tuples(st.sampled_from(spans), kinds, st.integers(-1, 2)), max_size=8))
    mentions = [Mention(f"g{i}", *span, kind) for i, (span, kind, _) in enumerate(gold)]
    clusters = {}
    for i, (_, _, c) in enumerate(gold):
        clusters.setdefault(c if c >= 0 else f"alone{i}", []).append(f"g{i}")
    corpus = Corpus(documents, tuple(mentions), Partition(clusters.values()))
    grid = st.sampled_from((-0.5, 0.0, 0.25, 0.5, 1.0))
    candidates = [Mention(f"c{i}", *span, kind, mention_score=score) for i, (span, kind, score)
                  in enumerate(draw(st.lists(st.tuples(st.sampled_from(spans), kinds, grid),
                                             max_size=8)))]
    ids = [m.mention_id for m in mentions + candidates]
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    scores = ScoreTable(draw(st.dictionaries(pairs, grid, max_size=30)) if len(ids) > 1 else {},
                        draw(st.sampled_from((-math.inf, 0.25, 1.0))))
    config = st.builds(
        lambda level, source, kind, policy, tau, ratio: EvalConfig(
            unit_level=level, mention_source=source, mention_type=kind, singleton_policy=policy,
            clustering=ClusteringConfig(tau, ratio, gold_mention_mode=source == "gold"),
            doc_threshold=0.3 if level == "predicted_topic" else None),
        st.sampled_from(UNIT_LEVELS), st.sampled_from(MENTION_SOURCES),
        st.sampled_from(("event", "entity", "all")), st.sampled_from(("included", "omitted")),
        grid, st.sampled_from((0.5, 1.0)))
    return corpus, (scores, None, candidates), draw(st.lists(config, min_size=1, max_size=4))


def result(run):
    """A report's JSON text, or the type and message of what `run` raised."""
    try:
        return "report", run().to_json()
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(scoring_case())
def test_coded_scoring_matches_the_object_route(case):
    corpus, inputs, configs = case
    for config in configs:
        with mock.patch.object(harness, "partition_on_spans", wraps=partition_on_spans) as rekey, \
                mock.patch.object(harness, "_report", wraps=harness._report) as report:
            got = result(lambda: run_pipeline(corpus, config, *inputs)[1])
        response, mentions = build_response(corpus, config, *inputs)
        expected = result(lambda: evaluate(harness._span_key(corpus, config),
                                           partition_on_spans(response, mentions),
                                           config.singleton_policy))
        assert got == expected
        # only a span in two clusters takes the object route
        assert (rekey.call_count == 0) == (expected[0] == "report")
        if expected[0] == "report":
            # the very table the object route builds, rows in its order
            least = 2 if config.singleton_policy == "omitted" else 1
            want = _Overlap.of_clusters(*(
                [c for c in side if len(c) >= least] for side in
                (harness._span_key(corpus, config), partition_on_spans(response, mentions))))
            table = report.call_args.args[0]
            for name in _Overlap.__slots__:
                have, wanted = getattr(table, name), getattr(want, name)
                assert have.dtype == wanted.dtype and np.array_equal(have, wanted), name


@pytest.mark.parametrize("offset, extra_doc", [
    (2.5, None),  # int64 would truncate it onto the gold span at 2
    (2**64 + 2, None),  # outside int64
    (2, 7),  # a doc id that does not sort with the strings
])
@pytest.mark.parametrize("policy", ["included", "omitted"])
def test_spans_the_codes_cannot_order_take_the_object_route(offset, extra_doc, policy):
    documents = {"d": Document("d", "T", "s", tuple(Token("d", 0, i, "w") for i in range(4)))}
    if extra_doc is not None:
        documents[extra_doc] = Document(extra_doc, "T", "s", (Token(extra_doc, 0, 0, "w"),))
    gold = (Mention("g0", "d", 1, 1, "event"), Mention("g1", "d", 2, 2, "event"),
            Mention("g2", "d", 3, 3, "event"))
    corpus = Corpus(documents, gold, Partition([["g0", "g2"], ["g1"]]))
    candidates = [Mention("c0", "d", 1, 1, "event", mention_score=1.0),
                  Mention("c1", "d", offset, offset, "event", mention_score=1.0),
                  Mention("c2", "d", 3, 3, "event", mention_score=1.0)]
    config = EvalConfig(mention_source="predicted", mention_type="event", singleton_policy=policy,
                        clustering=ClusteringConfig(0.5, 1.0, gold_mention_mode=False))
    scores = ScoreTable({("c0", "c2"): 1.0})
    with mock.patch.object(harness, "partition_on_spans", wraps=partition_on_spans) as rekey:
        report = run_pipeline(corpus, config, scores, None, candidates)[1]
    assert rekey.call_count == 2  # the key and the response
    response, mentions = build_response(corpus, config, scores, None, candidates)
    expected = evaluate(harness._span_key(corpus, config), partition_on_spans(response, mentions),
                        policy)
    assert report.to_json() == expected.to_json()
