"""TF-IDF document vectors and topic clustering.

Terms are 1-, 2- and 3-grams over each document's full lowercased token
sequence (n-grams may cross sentence boundaries). Term frequency is the raw
count and idf = ln(N / df) with no smoothing, stemming or stop-wording, so
a term present in every document carries zero weight.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .corpus import Document, write_json
from .linkage import average_link


@dataclass(frozen=True, eq=False)
class DocVector:
    doc_id: str
    weights: Mapping[tuple[str, ...], float] = field(default_factory=dict)
    # computed once at construction; `cosine` reads it for every pair
    _norm: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_norm", self.norm())

    def norm(self) -> float:
        return math.sqrt(sum(w * w for w in self.weights.values()))


def _ngram_counts(texts: Sequence[str]) -> Counter:
    counts: Counter = Counter()
    for n in (1, 2, 3):
        for i in range(len(texts) - n + 1):
            counts[tuple(texts[i : i + n])] += 1
    return counts


def tfidf_vectors(docs: Sequence[Document]) -> list[DocVector]:
    """One sparse tf*idf vector per document (zero weights dropped)."""
    if not docs:
        raise ValueError("at least one document is required")
    counts = []
    df: Counter = Counter()
    for doc in docs:
        if not doc.tokens:
            warnings.warn(f"document {doc.doc_id!r} has no tokens")
        c = _ngram_counts([t.text.lower() for t in doc.tokens])
        counts.append(c)
        df.update(c.keys())
    n = len(docs)
    vectors = []
    for doc, c in zip(docs, counts):
        weights = {}
        for term, tf in c.items():
            idf = math.log(n / df[term])
            if idf > 0.0:
                weights[term] = tf * idf
        vectors.append(DocVector(doc.doc_id, weights))
    return vectors


def cosine(u: DocVector, v: DocVector) -> float:
    """Cosine similarity; 0 when either vector is zero."""
    small, large = (u.weights, v.weights)
    if len(small) > len(large):
        small, large = large, small
    dot = sum(w * large.get(term, 0.0) for term, w in small.items())
    if dot == 0.0:
        return 0.0
    return dot / (u._norm * v._norm)


def cluster_documents(
    vectors: Sequence[DocVector], threshold: float
) -> list[frozenset[str]]:
    """Average-link clustering of documents by cosine similarity.

    Merging continues while the best cluster-pair average is >= threshold;
    ties are broken toward the lexicographically least doc_id pair.
    """
    ids = [v.doc_id for v in vectors]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate doc_id in vectors")
    by_id = {v.doc_id: v for v in vectors}
    clusters, _ = average_link(
        ids, lambda a, b: cosine(by_id[a], by_id[b]), threshold
    )
    return clusters


def write_topics(path, clusters: Iterable[Iterable[str]], threshold: float) -> None:
    """Write a topic clustering as {"clusters": [[doc_id, ...], ...],
    "threshold": real} with deterministic ordering, to `path` or to stdout
    when `path` is None."""
    write_json(path, {"clusters": sorted(sorted(c) for c in clusters), "threshold": threshold})
