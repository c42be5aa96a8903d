"""Corpus data model: partitions, validation, JSON round-trips."""

import json
from dataclasses import replace

import pytest

from cdcoref import (
    InvariantError,
    Partition,
    SchemaError,
    filter_singletons,
    load_corpus,
    save_corpus,
)
from conftest import GOLD_CLUSTERS, example_corpus_data, write_json


class TestPartition:
    def test_order_insensitive_equality(self):
        a = Partition([["x", "y"], ["z"]])
        b = Partition([["z"], ["y", "x"]])
        assert a == b
        assert hash(a) == hash(b)

    def test_canonical_cluster_order(self):
        p = Partition([["m9"], ["m1", "m3"], ["m2"]])
        assert [sorted(c) for c in p] == [["m1", "m3"], ["m2"], ["m9"]]

    def test_mentions_and_cluster_of(self):
        p = Partition([["a", "b"], ["c"]])
        assert p.mentions() == {"a", "b", "c"}
        assert p.clusters[p.mention_index["a"]] == {"a", "b"}
        assert "missing" not in p.mention_index
        assert len(p) == 2

    def test_empty_cluster_rejected(self):
        with pytest.raises(InvariantError):
            Partition([["a"], []])

    def test_overlapping_clusters_rejected(self):
        with pytest.raises(InvariantError, match="more than one cluster"):
            Partition([["a", "b"], ["b", "c"]])

    def test_restricted_to_keeps_singleton_remnants(self):
        p = Partition([["a", "b", "c"], ["d", "e"], ["f"]])
        q = p.restricted_to({"a", "d", "e"})
        assert q == Partition([["a"], ["d", "e"]])


class TestLoadCorpus:
    def test_example_shape(self, example_corpus):
        assert set(example_corpus.documents) == {"d1", "d2"}
        d1 = example_corpus.documents["d1"]
        assert len(d1) == 12
        assert d1.tokens[1].text == "board"
        # tokens 7.. belong to the second sentence of d1
        assert d1.tokens[6].sentence_index == 0
        assert d1.tokens[7].sentence_index == 1
        assert d1.topic_id == "t1" and d1.subtopic_id == "t1a"
        assert example_corpus.split == "test"
        assert example_corpus.token_count(example_corpus.documents) == 21
        assert example_corpus.token_count(["d2"]) == 9

    def test_unlisted_mentions_become_singletons(self, example_corpus):
        assert example_corpus.gold_partition == Partition(GOLD_CLUSTERS)

    def test_mention_fields(self, example_corpus):
        by_id = {m.mention_id: m for m in example_corpus.gold_mentions}
        a = by_id["A"]
        assert a.span() == ("d1", 1, 1)
        assert a.width() == 1
        assert a.head_lemma == "board"
        assert a.mention_score == 1.5
        z = by_id["B"]
        assert z.mention_score is None

    def test_mentions_of_type(self, toy_corpus):
        assert len(toy_corpus.mentions_of_type("event")) == 7
        assert len(toy_corpus.mentions_of_type("entity")) == 3
        assert len(toy_corpus.mentions_of_type("all")) == 10
        with pytest.raises(SchemaError):
            toy_corpus.mentions_of_type("pronoun")

    def test_round_trip(self, example_corpus, tmp_path):
        out = tmp_path / "copy.json"
        save_corpus(example_corpus, out)
        again = load_corpus(out)
        assert again.documents == example_corpus.documents
        assert again.gold_mentions == example_corpus.gold_mentions
        assert again.gold_partition == example_corpus.gold_partition
        assert again.split == example_corpus.split

    def test_documents_are_read_only(self, example_corpus, tmp_path):
        with pytest.raises(TypeError):
            example_corpus.documents["d3"] = example_corpus.documents["d1"]
        with pytest.raises(TypeError):
            del example_corpus.documents["d1"]
        assert set(example_corpus.documents) == {"d1", "d2"}
        out = tmp_path / "copy.json"
        save_corpus(example_corpus, out)
        assert load_corpus(out) == example_corpus

    def test_documents_are_copied_at_construction(self, example_corpus):
        documents = dict(example_corpus.documents)
        corpus = replace(example_corpus, documents=documents)
        documents["d3"] = documents["d1"]
        assert set(corpus.documents) == {"d1", "d2"}

    def test_saved_clusters_include_singletons(self, example_corpus, tmp_path):
        out = tmp_path / "copy.json"
        save_corpus(example_corpus, out)
        data = json.loads(out.read_text())
        assert ["A"] in data["clusters"]
        assert ["F", "G"] in data["clusters"]


class TestLoadErrors:
    def _load_mutated(self, tmp_path, mutate):
        data = example_corpus_data()
        mutate(data)
        return load_corpus(write_json(tmp_path / "bad.json", data))

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"documents": [,]}')
        with pytest.raises(SchemaError, match="line 1"):
            load_corpus(path)

    def test_missing_top_level_field(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"documents": []})
        with pytest.raises(SchemaError, match="mentions"):
            load_corpus(path)

    def test_bad_token_reports_path(self, tmp_path):
        def mutate(data):
            data["documents"][0]["tokens"][3]["text"] = 7

        with pytest.raises(SchemaError, match=r"documents\[0\].tokens\[3\].text"):
            self._load_mutated(tmp_path, mutate)

    def test_unknown_cluster_member(self, tmp_path):
        def mutate(data):
            data["clusters"][0].append("NOPE")

        with pytest.raises(SchemaError, match="NOPE"):
            self._load_mutated(tmp_path, mutate)

    def test_duplicate_mention_id(self, tmp_path):
        def mutate(data):
            data["mentions"].append(dict(data["mentions"][0]))

        with pytest.raises(InvariantError):
            self._load_mutated(tmp_path, mutate)

    def test_span_outside_document(self, tmp_path):
        def mutate(data):
            data["mentions"][0]["end_token"] = 99

        with pytest.raises(InvariantError, match="outside"):
            self._load_mutated(tmp_path, mutate)

    def test_inverted_span(self, tmp_path):
        def mutate(data):
            data["mentions"][0]["start_token"] = 5
            data["mentions"][0]["end_token"] = 2

        with pytest.raises(InvariantError, match="bad span"):
            self._load_mutated(tmp_path, mutate)

    def test_unknown_document_reference(self, tmp_path):
        def mutate(data):
            data["mentions"][0]["doc_id"] = "ghost"

        with pytest.raises(InvariantError, match="ghost"):
            self._load_mutated(tmp_path, mutate)

    def test_unknown_mention_type(self, tmp_path):
        def mutate(data):
            data["mentions"][0]["type"] = "verb"

        with pytest.raises(SchemaError, match="verb"):
            self._load_mutated(tmp_path, mutate)

    def test_boolean_score_rejected(self, tmp_path):
        def mutate(data):
            data["mentions"][0]["score"] = True

        with pytest.raises(SchemaError, match="score"):
            self._load_mutated(tmp_path, mutate)

    def test_unknown_split(self, tmp_path):
        def mutate(data):
            data["split"] = "dev"

        with pytest.raises(SchemaError, match="split"):
            self._load_mutated(tmp_path, mutate)


class TestFilterSingletons:
    def test_drops_only_size_one(self, example_corpus):
        filtered = filter_singletons(example_corpus.gold_partition)
        assert filtered == Partition([["F", "G"], ["H", "I", "J"]])

    def test_idempotent(self, example_corpus):
        once = filter_singletons(example_corpus.gold_partition)
        assert filter_singletons(once) == once

    def test_empty_result_allowed(self):
        assert len(filter_singletons(Partition([["a"], ["b"]]))) == 0
