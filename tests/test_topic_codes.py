"""The coded term table behind `group_documents` and `tfidf_vectors`
against the former tuple counting and per-pair clustering
(`helpers.reference_tfidf_vectors`, `helpers.callable_cluster_documents`),
on tokens whose lowercase collides, changes length or holds separators."""

import random
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cdcoref import Document, Token, average_link, group_documents, tfidf_vectors, topics

from helpers import callable_cluster_documents, reference_tfidf_vectors

# case collisions ("The"/"the"), lowercase that changes length ("İ" has a
# two-character lowercase, "ẞ" lowercases onto "ß"), Greek sigmas, and
# tokens holding a space or newline that a joined n-gram key would confuse
# with two tokens ("a b" against "a", "b")
WORDS = ("The", "the", "İ", "i̇", "ẞ", "ß", "Σ", "σ", "ς", "ΟΣ", "a b", "a", "b", "a\nb", "")


def make_doc(doc_id, words):
    return Document(doc_id, "t", "s", tuple(Token(doc_id, 0, i, w) for i, w in enumerate(words)))


@st.composite
def corpora(draw, max_docs=8):
    """1..max_docs documents drawn from a small pool of texts, so that
    duplicate, empty and one-token documents and shared n-grams are
    common; doc ids are a shuffle of the input order."""
    pool = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=7), min_size=1, max_size=5))
    n = draw(st.integers(1, max_docs))
    texts = [draw(st.sampled_from(pool)) for _ in range(n)]
    ids = draw(st.permutations(range(n)))
    return [make_doc(f"d{i:02d}", text) for i, text in zip(ids, texts)]


def with_warnings(build, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = build(*args)
    return result, [str(w.message) for w in caught]


def assert_vectors_match(docs):
    vectors, warned = with_warnings(tfidf_vectors, docs)
    expected, expected_warned = with_warnings(reference_tfidf_vectors, docs)
    assert warned == expected_warned
    assert [v.doc_id for v in vectors] == [v.doc_id for v in expected]
    assert [list(v.weights.items()) for v in vectors] == [
        list(v.weights.items()) for v in expected
    ]
    assert [v.norm() for v in vectors] == [v.norm() for v in expected]


def assert_groups_match(docs, threshold):
    """`group_documents` gives the oracle's clusters, warnings and, through
    the `average_link` call it makes, the oracle's whole merge log."""
    vectors, expected_warned = with_warnings(reference_tfidf_vectors, docs)
    expected = callable_cluster_documents(vectors, threshold)
    calls = []

    def recording(*args):
        calls.append(average_link(*args))
        return calls[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topics, "average_link", recording)
        clusters, warned = with_warnings(group_documents, docs, threshold)
    assert clusters == expected[0]
    assert calls == [expected]
    assert warned == expected_warned


@settings(max_examples=300, deadline=None)
@given(corpora())
def test_tfidf_vectors_match_former_counting(docs):
    assert_vectors_match(docs)


@settings(max_examples=300, deadline=None)
@given(corpora(), st.data())
def test_group_documents_matches_callable_path(docs, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vectors = reference_tfidf_vectors(docs)
    # thresholds exactly on merge averages, so ties and the inclusive
    # threshold are exercised
    _, merges = callable_cluster_documents(vectors, -1.0)
    threshold = data.draw(st.sampled_from(sorted({0.0, 1.0, *(m.score for m in merges)})))
    assert_groups_match(docs, threshold)


@pytest.mark.parametrize(
    "texts",
    [
        [["the"]],
        [[]],
        [["The", "cat"], ["the", "cat"]],
        [["a b"], ["a", "b"]],
        [["x"], []],
        [["ΟΣ", "ος"], ["ος"]],
    ],
)
@pytest.mark.parametrize("threshold", [0.0, 0.5])
def test_one_and_two_documents(texts, threshold):
    docs = [make_doc(f"d{i}", t) for i, t in enumerate(texts)]
    assert_vectors_match(docs)
    assert_groups_match(docs, threshold)


def test_larger_random_corpus():
    # enough distinct tokens and documents that bigram and trigram codes
    # run well past the vocabulary size
    rng = random.Random(5)
    vocab = [f"w{i}" for i in range(60)] + [f"W{i}" for i in range(20)]
    docs = [
        make_doc(f"doc{rng.randrange(10**6):06d}-{i}", rng.choices(vocab, k=rng.randrange(0, 120)))
        for i in range(40)
    ]
    assert_vectors_match(docs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vectors = reference_tfidf_vectors(docs)
    _, merges = callable_cluster_documents(vectors, -1.0)
    for threshold in (0.0, 0.05, merges[len(merges) // 2].score):
        assert_groups_match(docs, threshold)


def test_table_entries_are_grouped_by_document_in_insertion_order():
    docs = [make_doc("b", ["x", "y", "x"]), make_doc("a", ["y", "z"]), make_doc("c", ["q"])]
    table = topics._term_table(docs)
    terms = table.terms()
    assert np.array_equal(table.doc, np.sort(table.doc))
    got = [[terms[c] for c in table.code[table.doc == d]] for d in range(3)]
    expected = [list(v.weights) for v in reference_tfidf_vectors(docs)]
    assert got == expected


def test_duplicate_doc_ids_rejected():
    with pytest.raises(ValueError, match="duplicate doc_id"):
        group_documents([make_doc("a", ["x"]), make_doc("a", ["y"])], 0.5)


def test_no_documents_rejected():
    with pytest.raises(ValueError, match="at least one document"):
        group_documents([], 0.5)
