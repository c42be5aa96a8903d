"""TF-IDF document vectors and topic clustering.

Terms are 1-, 2- and 3-grams over each document's full lowercased token
sequence (n-grams may cross sentence boundaries). Term frequency is the raw
count and idf = ln(N / df) with no smoothing, stemming or stop-wording, so
a term present in every document carries zero weight.

Every sum here runs strictly left to right (`metrics._ordered_sum`), never
through builtin `sum`, which compensates on Python 3.12 and later, so
topics do not depend on the interpreter. `cosine` is the reference
definition of similarity. `group_documents` goes from documents to topics
without building a term tuple or a `DocVector`: `_term_table` codes every
n-gram as an integer and counts them with sorts over the whole corpus, in
O(T log T) time for T tokens, and `_similarity_array` reproduces `cosine`
bit for bit on every pair from one (n, n) array in O(sum_u n |u|) time and
O(n^2 + n max|u|) memory beyond the postings. `tfidf_vectors` and
`cluster_documents` go through the same table and array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Document, write_json
from .linkage import average_link
from .metrics import _ordered_sum


@dataclass(frozen=True, eq=False)
class DocVector:
    doc_id: str
    weights: Mapping[tuple[str, ...], float] = field(default_factory=dict)
    # computed once at construction; `cosine` reads it
    _norm: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_norm", self.norm())

    def norm(self) -> float:
        """Euclidean norm, the squares added strictly in insertion order."""
        w = np.fromiter(self.weights.values(), np.float64, len(self.weights))
        return math.sqrt(_ordered_sum(w * w))


class _TermTable(NamedTuple):
    """The nonzero tf*idf weights of a corpus as coded entries.

    Entry k is term `code[k]` of document `doc[k]` (a position in the
    input) with weight `weight[k]`. Entries are grouped by document in
    input order, and each document's entries are in the order a `Counter`
    fed its unigrams, then its bigrams, then its trigrams would hold them:
    first occurrence within each n. Codes below V = len(vocab) are
    unigrams (token codes); the next len(bigrams) codes are bigrams, held
    in `bigrams` as a * V + b over their token codes; the rest are
    trigrams, held in `trigrams` as i * V + c for the bigram at index i.
    """

    doc: np.ndarray
    code: np.ndarray
    weight: np.ndarray
    vocab: list[str]
    bigrams: np.ndarray
    trigrams: np.ndarray

    def terms(self) -> list[tuple[str, ...]]:
        """The term tuple of every code."""
        v = len(self.vocab)
        unigrams = [(t,) for t in self.vocab]
        first, second = np.divmod(self.bigrams, v)
        bigrams = [(self.vocab[a], self.vocab[b]) for a, b in zip(first.tolist(), second.tolist())]
        head, last = np.divmod(self.trigrams, v)
        trigrams = [bigrams[a] + (self.vocab[c],) for a, c in zip(head.tolist(), last.tolist())]
        return unigrams + bigrams + trigrams


def _term_table(docs: Sequence[Document]) -> _TermTable:
    """Count every document's n-grams and weight them by idf, as codes.

    Lowercased tokens are coded through one dict; bigram codes are made
    dense before they form trigram codes, so no code exceeds T * V for T
    tokens. One `np.unique` over (document, term) gives the counts and
    first occurrences, and `np.bincount` the document frequencies. The
    idf of each df value is `math.log(n / df)`, as `np.log` can differ in
    the last bit.
    """
    if not docs:
        raise ValueError("at least one document is required")
    for doc in docs:
        if not doc.tokens:
            warnings.warn(f"document {doc.doc_id!r} has no tokens")
    texts = [t.text.lower() for doc in docs for t in doc.tokens]
    index = {t: i for i, t in enumerate(dict.fromkeys(texts))}
    v = len(index)
    token = np.fromiter(map(index.__getitem__, texts), np.int64, len(texts))
    n = len(docs)
    token_doc = np.repeat(np.arange(n), [len(doc.tokens) for doc in docs])
    # the n-gram starting at every token, also where it crosses into the
    # next document; only those inside one document are counted below
    bigrams, bigram = np.unique(token[:-1] * v + token[1:], return_inverse=True)
    trigrams, trigram = np.unique(bigram[:-1] * v + token[2:], return_inverse=True)
    in_bigram = token_doc[:-1] == token_doc[1:]
    in_trigram = token_doc[:-2] == token_doc[2:]
    # occurrences by n, then position, so a document's first occurrences
    # come in the order its terms are inserted
    term = np.concatenate([token, v + bigram[in_bigram], v + len(bigrams) + trigram[in_trigram]])
    term_doc = np.concatenate([token_doc, token_doc[:-1][in_bigram], token_doc[:-2][in_trigram]])
    n_terms = v + len(bigrams) + len(trigrams)
    key, first, tf = np.unique(term_doc * n_terms + term, return_index=True, return_counts=True)
    doc, code = np.divmod(key, n_terms)
    # the idf of every df value 1..n, at index df
    idf_of = np.array([0.0] + [math.log(n / df) for df in range(1, n + 1)])
    idf = idf_of[np.bincount(code, minlength=n_terms)[code]]
    keep = np.flatnonzero(idf > 0.0)
    keep = keep[np.argsort(doc[keep] * len(term) + first[keep])]
    return _TermTable(doc[keep], code[keep], tf[keep] * idf[keep], list(index), bigrams, trigrams)


def tfidf_vectors(docs: Sequence[Document]) -> list[DocVector]:
    """One sparse tf*idf vector per document (zero weights dropped).

    A vector's terms are in first-occurrence order within each n: its
    unigrams, then its bigrams, then its trigrams.
    """
    table = _term_table(docs)
    terms = table.terms()
    code, weight = table.code.tolist(), table.weight.tolist()
    bounds = np.searchsorted(table.doc, np.arange(len(docs) + 1)).tolist()
    return [
        DocVector(doc.doc_id, dict(zip(map(terms.__getitem__, code[lo:hi]), weight[lo:hi])))
        for doc, lo, hi in zip(docs, bounds, bounds[1:])
    ]


def cosine(u: DocVector, v: DocVector) -> float:
    """Cosine similarity; 0 when either vector is zero.

    This is the reference definition: the dot product adds w_u * w_v
    strictly left to right over the terms of the vector with fewer terms
    (`u` on a tie), in that vector's insertion order, with 0.0 for terms the
    other lacks, and divides by the product of the two norms.
    `cluster_documents` and `group_documents` reproduce it bit for bit for
    every pair.
    """
    small, large = (u.weights, v.weights)
    if len(small) > len(large):
        small, large = large, small
    dot = _ordered_sum(np.array([w * large.get(term, 0.0) for term, w in small.items()]))
    if dot == 0.0:
        return 0.0
    return dot / (u._norm * v._norm)


def _similarity_array(n: int, doc: np.ndarray, code: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """(n, n) float64 array holding `cosine` of documents i and j at [i, j]
    for i < j; the rest is not read.

    Entry k is term `code[k]` (any int >= 0) of document `doc[k]` (0..n-1,
    in doc_id order) with weight `weight[k]`; each document's entries are
    contiguous and in its vector's insertion order. Norms are taken from
    the same entries. Rank the documents by (term count, doc_id): for
    every pair, `cosine` iterates the lower-ranked side, so each document
    is dotted only with those ranked after it. Term postings give their
    weights for its terms as a (terms, partners) block, 0.0 where a
    partner lacks a term; scaled by its own weights, the last row of
    `np.add.accumulate` holds the same left-to-right sums `cosine` adds.
    Terms that no later partner has are left out of the block, as they
    add exactly 0.0 to every sum when weights are finite. Costs O(n |u|)
    time per document u and O(n^2 + n max|u| + sum |u|) memory; it never
    builds an n x V matrix.
    """
    if not np.isfinite(weight).all():
        raise ValueError("non-finite term weight")
    squares = weight * weight
    runs = np.flatnonzero(np.diff(doc, prepend=-1)).tolist()
    norms = np.zeros(n)
    norms[doc[runs]] = [
        math.sqrt(_ordered_sum(squares[lo:hi])) for lo, hi in zip(runs, runs[1:] + [len(doc)])
    ]
    order = np.argsort(np.bincount(doc, minlength=n), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    norms = norms[order]
    # entries of a term in one document only add nothing; the rest in rank
    # order, each document's still in insertion order
    kept = np.flatnonzero(np.bincount(code)[code] > 1)
    by_rank = kept[np.argsort(rank[doc[kept]], kind="stable")]
    entry_rank, code, weight = rank[doc[by_rank]], code[by_rank], weight[by_rank]
    bounds = np.searchsorted(entry_rank, np.arange(n + 1))
    # postings: entries grouped by term, ranks ascending within a term;
    # each entry's place in them and the end of its term's postings
    by_term = np.argsort(code, kind="stable")
    post_rank, post_weight = entry_rank[by_term], weight[by_term]
    post_at = np.empty_like(by_term)
    post_at[by_term] = np.arange(len(code))
    post_end = np.cumsum(np.bincount(code))[code]

    dots = np.zeros((n, n))
    for r in range(n):
        lo, hi = bounds[r], bounds[r + 1]
        # the postings after r's own entry hold its later-ranked partners
        start = post_at[lo:hi] + 1
        count = post_end[lo:hi] - start
        shared = np.flatnonzero(count)
        if not len(shared):
            continue
        start, count = start[shared], count[shared]
        at = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())
        block = np.zeros((len(shared), n - r - 1))
        block[np.repeat(np.arange(len(shared)), count), post_rank[at] - r - 1] = post_weight[at]
        block *= weight[lo + shared, None]
        dots[r, r + 1 :] = np.add.accumulate(block, axis=0)[-1]

    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(dots == 0.0, 0.0, dots / (norms[:, None] * norms))
    # back to doc_id order, each pair read at its lower rank
    return sims[np.minimum.outer(rank, rank), np.maximum.outer(rank, rank)]


def _similarities(vectors: Sequence[DocVector]) -> np.ndarray:
    """`_similarity_array` over `vectors` in doc_id order, their terms
    coded through one dict."""
    codes: dict = {}
    code = np.array([codes.setdefault(t, len(codes)) for v in vectors for t in v.weights], np.int64)
    doc = np.repeat(np.arange(len(vectors)), [len(v.weights) for v in vectors])
    weight = np.fromiter(chain.from_iterable(v.weights.values() for v in vectors), np.float64)
    return _similarity_array(len(vectors), doc, code, weight)


def group_documents(docs: Sequence[Document], threshold: float) -> list[frozenset[str]]:
    """`cluster_documents(tfidf_vectors(docs), threshold)`, computed from
    the coded term table with no term tuple or `DocVector`."""
    ids = [doc.doc_id for doc in docs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate doc_id in documents")
    table = _term_table(docs)
    at = np.empty(len(ids), dtype=np.int64)
    at[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    sims = _similarity_array(len(ids), at[table.doc], table.code, table.weight)
    clusters, _ = average_link(ids, sims, threshold)
    return clusters


def cluster_documents(
    vectors: Sequence[DocVector], threshold: float
) -> list[frozenset[str]]:
    """Average-link clustering of documents by cosine similarity.

    Merging continues while the best cluster-pair average is >= threshold;
    ties are broken toward the lexicographically least doc_id pair.
    Similarities come from one (n, n) array equal, bit for bit, to `cosine`
    on every pair; see `_similarity_array` for its cost.
    """
    ids = [v.doc_id for v in vectors]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate doc_id in vectors")
    ordered = sorted(vectors, key=lambda v: v.doc_id)
    clusters, _ = average_link(ids, _similarities(ordered), threshold)
    return clusters


def write_topics(path, clusters: Iterable[Iterable[str]], threshold: float) -> None:
    """Write a topic clustering as {"clusters": [[doc_id, ...], ...],
    "threshold": real} with deterministic ordering, to `path` or to stdout
    when `path` is None."""
    write_json(path, {"clusters": sorted(sorted(c) for c in clusters), "threshold": threshold})
