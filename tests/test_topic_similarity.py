"""TF-IDF counting and the document similarity array against the former
per-pair path (`helpers.reference_tfidf_vectors`,
`helpers.callable_cluster_documents`), and the left-to-right sums both
rely on."""

import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cdcoref import (
    DocVector,
    Document,
    Token,
    average_link,
    cluster_documents,
    cosine,
    tfidf_vectors,
)
from cdcoref.topics import _similarities

from helpers import callable_cluster_documents, reference_tfidf_vectors

# "A" lowercases onto "a"; five words make shared n-grams and ties common
WORDS = ("a", "A", "b", "c", "d")


def make_doc(doc_id, words):
    return Document(doc_id, "t", "s", tuple(Token(doc_id, 0, i, w) for i, w in enumerate(words)))


@st.composite
def corpora(draw, max_docs=9):
    """1..max_docs documents drawn from a small pool of texts, so that
    duplicates (tied cosines), empty documents, documents whose every
    n-gram is in all others (all weights zero) and equal term counts are
    common; doc ids are a shuffle of the input order."""
    pool = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=8), min_size=1, max_size=5))
    n = draw(st.integers(1, max_docs))
    texts = [draw(st.sampled_from(pool)) for _ in range(n)]
    ids = draw(st.permutations(range(n)))
    return [make_doc(f"d{i:02d}", text) for i, text in zip(ids, texts)]


@st.composite
def vector_sets(draw, max_docs=9):
    """Hand-built vectors over eight terms with weights from a few values
    of very different scale, so that summation order shows in the last
    bit, and shuffled term orders of equal length."""
    terms = [(w,) for w in "pqrstuvw"]
    values = st.sampled_from((1.0, 1e-8, 0.1, 0.7, 3.0, math.log(2.0), 1e8))
    n = draw(st.integers(0, max_docs))
    vectors = []
    for i in draw(st.permutations(range(n))):
        keys = draw(st.lists(st.sampled_from(terms), unique=True, max_size=6))
        vectors.append(DocVector(f"v{i}", {k: draw(values) for k in keys}))
    return vectors


def cosine_array(vectors):
    """Upper triangle of `cosine` over vectors sorted by doc id."""
    ordered = sorted(vectors, key=lambda v: v.doc_id)
    out = np.zeros((len(ordered), len(ordered)))
    for i, u in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            out[i, j] = cosine(u, ordered[j])
    return out


def assert_same_as_callable_path(vectors, data):
    ordered = sorted(vectors, key=lambda v: v.doc_id)
    sims = _similarities(ordered)
    expected = cosine_array(vectors)
    upper = np.triu_indices(len(vectors), 1)
    assert np.array_equal(sims[upper], expected[upper])

    ids = [v.doc_id for v in vectors]
    # thresholds exactly on pairwise similarities and on merge averages
    _, merges = callable_cluster_documents(vectors, -1.0)
    candidates = sorted({0.0, 1.0, *expected[upper].tolist(), *(m.score for m in merges)})
    threshold = data.draw(st.sampled_from(candidates))
    clusters, merges = callable_cluster_documents(vectors, threshold)
    assert average_link(ids, sims, threshold) == (clusters, merges)
    assert cluster_documents(vectors, threshold) == clusters
    assert cluster_documents(vectors[::-1], threshold) == clusters


def vectors_with_warnings(build, docs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vectors = build(docs)
    return vectors, [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None)
@given(corpora())
def test_tfidf_matches_former_counting(docs):
    vectors, warned = vectors_with_warnings(tfidf_vectors, docs)
    expected, expected_warned = vectors_with_warnings(reference_tfidf_vectors, docs)
    assert warned == expected_warned
    assert [v.doc_id for v in vectors] == [v.doc_id for v in expected]
    # weights, their insertion order and the norms
    assert [list(v.weights.items()) for v in vectors] == [
        list(v.weights.items()) for v in expected
    ]
    assert [v.norm() for v in vectors] == [v.norm() for v in expected]


@settings(max_examples=300, deadline=None)
@given(corpora(), st.data())
def test_tfidf_corpora_cluster_as_callable_path(docs, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vectors = tfidf_vectors(docs)
    assert_same_as_callable_path(vectors, data)


@settings(max_examples=300, deadline=None)
@given(vector_sets(), st.data())
def test_hand_built_vectors_cluster_as_callable_path(vectors, data):
    assert_same_as_callable_path(vectors, data)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_inputs(n):
    vectors = [DocVector(f"v{i}", {("x",): 1.0}) for i in range(n)]
    assert _similarities(vectors).shape == (n, n)
    assert cluster_documents(vectors, 0.5) == callable_cluster_documents(vectors, 0.5)[0]


def test_all_zero_vectors():
    vectors = [DocVector("a", {}), DocVector("b", {}), DocVector("c", {("x",): 2.0})]
    assert not _similarities(vectors).any()
    assert cluster_documents(vectors, 0.0) == [frozenset("abc")]
    assert cluster_documents(vectors, 1e-12) == [frozenset("a"), frozenset("b"), frozenset("c")]


def _loop_sum(values):
    total = 0.0
    for x in values:
        total += x
    return total


def test_sums_run_left_to_right():
    weights = {("a",): 1.0, ("b",): 1e-8, ("c",): 1e-8, ("d",): 1e-8, ("e",): 1e-8}
    squares = [w * w for w in weights.values()]
    total = _loop_sum(squares)
    # a compensated sum (builtin sum on Python 3.12 and later) differs here,
    # also after the square root
    assert math.sqrt(total) != math.sqrt(math.fsum(squares))
    u, v = DocVector("u", weights), DocVector("v", dict(weights))
    assert u.norm() == math.sqrt(total)
    assert cosine(u, v) == total / (math.sqrt(total) * math.sqrt(total))
    assert _similarities([u, v])[0, 1] == cosine(u, v)


@pytest.mark.parametrize("first, second", [("u", "v"), ("v", "u")])
def test_equal_term_counts_read_the_smaller_doc_id(first, second):
    # the same terms in opposite orders: the two summation orders differ
    # in the last bit, and `cosine` iterates its first argument on a tie
    x = DocVector(first, {("a",): 1.0, ("b",): 1e-8, ("c",): 1e-8})
    y = DocVector(second, {("c",): 1e-8, ("b",): 1e-8, ("a",): 1.0})
    assert cosine(x, y) != cosine(y, x)
    ordered = sorted([x, y], key=lambda v: v.doc_id)
    assert _similarities(ordered)[0, 1] == cosine(*ordered)


class Colliding:
    """A term that shares its hash with every other Colliding."""

    def __init__(self, text):
        self.text = text

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return isinstance(other, Colliding) and self.text == other.text


def test_terms_sharing_a_hash_are_told_apart():
    p, q, r = Colliding("p"), Colliding("q"), Colliding("r")
    vectors = [
        DocVector("a", {p: 1.0, q: 2.0}),
        DocVector("b", {Colliding("q"): 3.0, r: 1.0}),
        DocVector("c", {r: 5.0}),
        DocVector("d", {Colliding("s"): 1.0}),
    ]
    sims = _similarities(vectors)
    expected = cosine_array(vectors)
    upper = np.triu_indices(len(vectors), 1)
    assert np.array_equal(sims[upper], expected[upper])
    assert expected[0, 1] > 0.0 and expected[1, 2] > 0.0 and expected[0, 2] == 0.0


def test_non_finite_weights_rejected():
    vectors = [DocVector("a", {("x",): math.inf}), DocVector("b", {("x",): 1.0})]
    with pytest.raises(ValueError, match="non-finite"):
        cluster_documents(vectors, 0.5)
