"""Singleton and head-lemma baselines."""

import random

import pytest

from cdcoref import (
    Mention,
    Partition,
    SchemaError,
    head_lemma_baseline,
    singleton_baseline,
)
from helpers import lemma_score_table, mention_clusters, score_matrix


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
    def test_clustering_lemma_scores_equals_baseline(self):
        rng = random.Random(5)
        lemmas = ["strike", "offer", "quit", "blaze"]
        for _ in range(25):
            mentions = [
                lemma_mention(f"m{i}", rng.choice(lemmas))
                for i in range(rng.randrange(1, 9))
            ]
            ids = sorted(m.mention_id for m in mentions)
            scores = score_matrix(lemma_score_table(mentions), ids)
            for threshold in (0.25, 0.5, 1.0):
                clustered = mention_clusters(mentions, scores, threshold)[0]
                assert clustered == head_lemma_baseline(mentions)
