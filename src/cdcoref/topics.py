"""TF-IDF document vectors and topic clustering.

Terms are 1-, 2- and 3-grams over each document's full lowercased token
sequence (n-grams may cross sentence boundaries). Term frequency is the raw
count and idf = ln(N / df) with no smoothing, stemming or stop-wording, so
a term present in every document carries zero weight.

Every sum here runs strictly left to right (`metrics._ordered_sum`), never
through builtin `sum`, which compensates on Python 3.12 and later, so
topics do not depend on the interpreter. `cosine` is the reference
definition of similarity; `cluster_documents` reproduces it bit for bit
from one (n, n) array in O(sum_u n |u|) time and O(n^2 + n max|u|) memory
beyond the postings.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Document, write_json
from .linkage import average_link
from .metrics import _ordered_sum


@dataclass(frozen=True, eq=False)
class DocVector:
    doc_id: str
    weights: Mapping[tuple[str, ...], float] = field(default_factory=dict)
    # computed once at construction; `cosine` and the similarity array read it
    _norm: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_norm", self.norm())

    def norm(self) -> float:
        """Euclidean norm, the squares added strictly in insertion order."""
        w = np.fromiter(self.weights.values(), np.float64, len(self.weights))
        return math.sqrt(_ordered_sum(w * w))


def tfidf_vectors(docs: Sequence[Document]) -> list[DocVector]:
    """One sparse tf*idf vector per document (zero weights dropped).

    A vector's terms are in first-occurrence order within each n: its
    unigrams, then its bigrams, then its trigrams.
    """
    if not docs:
        raise ValueError("at least one document is required")
    counts = []
    df: Counter = Counter()
    for doc in docs:
        if not doc.tokens:
            warnings.warn(f"document {doc.doc_id!r} has no tokens")
        texts = [t.text.lower() for t in doc.tokens]
        c = Counter(zip(texts))
        c.update(zip(texts, texts[1:]))
        c.update(zip(texts, texts[1:], texts[2:]))
        counts.append(c)
        df.update(c.keys())
    n = len(docs)
    return [
        DocVector(doc.doc_id, {t: tf * idf for t, tf in c.items()
                               if (idf := math.log(n / df[t])) > 0.0})
        for doc, c in zip(docs, counts)
    ]


def cosine(u: DocVector, v: DocVector) -> float:
    """Cosine similarity; 0 when either vector is zero.

    This is the reference definition: the dot product adds w_u * w_v
    strictly left to right over the terms of the vector with fewer terms
    (`u` on a tie), in that vector's insertion order, with 0.0 for terms the
    other lacks, and divides by the product of the two norms.
    `cluster_documents` reproduces it bit for bit for every pair.
    """
    small, large = (u.weights, v.weights)
    if len(small) > len(large):
        small, large = large, small
    dot = _ordered_sum(np.array([w * large.get(term, 0.0) for term, w in small.items()]))
    if dot == 0.0:
        return 0.0
    return dot / (u._norm * v._norm)


def _similarities(vectors: list[DocVector]) -> np.ndarray:
    """(n, n) float64 array holding `cosine(vectors[i], vectors[j])` at
    [i, j] for i < j, for `vectors` in doc_id order; the rest is not read.

    Rank the vectors by (term count, position): for every pair, `cosine`
    iterates the lower-ranked side, so each vector is dotted only with the
    vectors ranked after it. Term postings give their weights for its
    terms as a (terms, partners) block, 0.0 where a partner lacks a term;
    scaled by its own weights, the last row of `np.add.accumulate` holds
    the same left-to-right sums `cosine` adds. Terms that no partner has
    are left out of the block, as they add exactly 0.0 to every sum when
    weights are finite. Costs O(n |u|) time per vector u and
    O(n^2 + n max|u| + sum |u|) memory; it never builds an n x V matrix.
    """
    n = len(vectors)
    order = sorted(range(n), key=lambda i: len(vectors[i].weights))
    lengths = [len(vectors[i].weights) for i in order]
    weight = np.fromiter(
        chain.from_iterable(vectors[i].weights.values() for i in order), np.float64, sum(lengths)
    )
    if not np.isfinite(weight).all():
        raise ValueError("non-finite term weight")
    # entries of a term whose hash no other entry has are in one vector
    # only, so they are dropped; the rest are coded exactly, in rank order.
    # Per-entry arrays are freed as soon as they are used, so that the
    # peak stays below that of tfidf_vectors
    terms = [t for i in order for t in vectors[i].weights]
    hashes = np.fromiter(map(hash, terms), np.int64, len(terms))
    by_hash = np.argsort(hashes)
    hashes = hashes[by_hash]
    tie = np.zeros(len(terms) + 1, dtype=bool)
    tie[1:-1] = hashes[1:] == hashes[:-1]
    keep = np.sort(by_hash[tie[1:] | tie[:-1]])
    del hashes, by_hash
    codes: dict = {}
    code = np.fromiter(
        (codes.setdefault(terms[i], len(codes)) for i in keep.tolist()), np.int64, len(keep)
    )
    del terms, codes
    weight = weight[keep]
    entry_rank = np.repeat(np.arange(n), lengths)[keep]
    # postings: entries grouped by term, ranks ascending within a term;
    # each entry's place in them and the end of its term's postings
    by_term = np.argsort(code, kind="stable")
    post_rank, post_weight = entry_rank[by_term], weight[by_term]
    post_at = np.empty_like(by_term)
    post_at[by_term] = np.arange(len(keep))
    post_end = np.cumsum(np.bincount(code))[code]

    dots = np.zeros((n, n))
    bounds = np.searchsorted(entry_rank, np.arange(n + 1))
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

    norms = np.array([vectors[i]._norm for i in order])
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(dots == 0.0, 0.0, dots / (norms[:, None] * norms))
    # back to doc_id order, each pair read at its lower rank
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return sims[np.minimum.outer(rank, rank), np.maximum.outer(rank, rank)]


def cluster_documents(
    vectors: Sequence[DocVector], threshold: float
) -> list[frozenset[str]]:
    """Average-link clustering of documents by cosine similarity.

    Merging continues while the best cluster-pair average is >= threshold;
    ties are broken toward the lexicographically least doc_id pair.
    Similarities come from one (n, n) array equal, bit for bit, to `cosine`
    on every pair; see `_similarities` for its cost.
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
