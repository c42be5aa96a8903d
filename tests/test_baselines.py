"""Singleton and head-lemma baselines."""

import random

import pytest

from cdcoref import (
    Mention,
    Partition,
    SchemaError,
    agglomerative_cluster_trace,
    head_lemma_baseline,
    lemma_pair_scorer,
    lemma_score_table,
    singleton_baseline,
)


def lemma_mention(mid, lemma):
    return Mention(mid, "d", 0, 0, "event", head_lemma=lemma)


class TestSingletonBaseline:
    def test_one_cluster_per_mention(self, example_corpus):
        part = singleton_baseline(example_corpus.gold_mentions)
        assert len(part) == 10
        assert all(len(c) == 1 for c in part)

    def test_empty_input(self):
        assert singleton_baseline([]) == Partition([])


class TestHeadLemmaBaseline:
    def test_groups_by_casefolded_lemma(self, example_corpus):
        # lemmas were chosen so the baseline reproduces the gold clusters,
        # including "fire"/"Fire" and "quit"/"QUIT" casefold matches
        part = head_lemma_baseline(example_corpus.gold_mentions)
        assert part == example_corpus.gold_partition

    def test_missing_lemma_rejected(self):
        with pytest.raises(SchemaError, match="no head lemma"):
            head_lemma_baseline([Mention("m", "d", 0, 0, "event")])


class TestLemmaScorer:
    def test_pair_values(self):
        a, b, c = (
            lemma_mention("a", "Strike"),
            lemma_mention("b", "strike"),
            lemma_mention("c", "offer"),
        )
        assert lemma_pair_scorer(a, b) == 1.0
        assert lemma_pair_scorer(a, c) == 0.0

    def test_missing_lemma_rejected(self):
        with pytest.raises(SchemaError, match="no head lemma"):
            lemma_pair_scorer(lemma_mention("a", "x"), Mention("b", "d", 0, 0, "event"))

    def test_table_materializes_all_pairs(self):
        mentions = [lemma_mention(f"m{i}", l) for i, l in enumerate("xxy")]
        t = lemma_score_table(mentions)
        assert len(t) == 3
        assert t.get("m0", "m1") == 1.0
        assert t.get("m0", "m2") == 0.0

    def test_clustering_lemma_scores_equals_baseline(self):
        rng = random.Random(5)
        lemmas = ["strike", "offer", "quit", "blaze"]
        for _ in range(25):
            mentions = [
                lemma_mention(f"m{i}", rng.choice(lemmas))
                for i in range(rng.randrange(1, 9))
            ]
            table = lemma_score_table(mentions)
            for threshold in (0.25, 0.5, 1.0):
                clustered = agglomerative_cluster_trace(mentions, table, threshold)[0]
                assert clustered == head_lemma_baseline(mentions)
