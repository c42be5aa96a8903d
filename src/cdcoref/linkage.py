"""Greedy average-link agglomerative clustering with a merge log."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

NEG_INF = -np.inf


@dataclass(frozen=True)
class Merge:
    """One accepted merge: the two clusters joined and their average score."""

    left: frozenset
    right: frozenset
    score: float


def _score_matrix(ids: list, pair_score: np.ndarray) -> np.ndarray:
    """Symmetric (n, n) float64 item-pair scores over `ids`, -inf on the
    diagonal, copied from the entries above the diagonal."""
    n = len(ids)
    scores = np.array(pair_score, dtype=np.float64)
    if scores.shape != (n, n):
        raise ValueError(f"score array has shape {scores.shape}, expected {(n, n)}")
    for i in range(n):
        scores[i, i] = NEG_INF
        scores[i + 1 :, i] = scores[i, i + 1 :]
    bad = np.isnan(scores) | (scores == np.inf)
    if bad.any():
        # the first bad entry in row-major order lies above the diagonal
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"bad score {float(scores[i, j])!r} for ({ids[i]!r}, {ids[j]!r})")
    return scores


def average_link(
    items: Sequence,
    pair_score: np.ndarray,
    threshold: float,
) -> tuple[list[frozenset], list[Merge]]:
    """Cluster `items` bottom-up by average pairwise score.

    Starting from singletons, repeatedly merge the cluster pair with the
    highest mean cross-pair score, as long as that mean is >= threshold
    (inclusive). Equal-best pairs are resolved toward the pair whose sorted
    (smallest-member, smallest-member) ids compare lexicographically least,
    which makes the whole trace deterministic. In each logged Merge, `left`
    is the side holding the smaller smallest member.

    `pair_score` is an (n, n) array of scores over `sorted(items)`, of
    which only the entries above the diagonal are read. Scores of -inf are
    allowed and act as "never merge"; NaN and +inf are rejected. Returns
    the final clusters (canonically sorted) and the ordered merge log.

    Clusters live in slots of two n x n float64 matrices (16 n^2 bytes:
    5 MB at n = 560, 144 MB at n = 3,000): cluster-pair score sums and,
    above the diagonal, their averages. A merge keeps the lower slot, so a
    slot's index is the rank of its cluster's smallest member. Sums update
    as S[a] + S[b] and averages are sum / (|A| |B|), the same floats a
    per-pair priority queue computes. Each row caches its best average
    and first best column, and the next merge is the first maximum over
    rows: the tie rule above. Filling the matrices costs O(n^2); a merge
    costs O(n) plus O(n) per row whose cached best partner was one of the
    merged slots, the "generic" nearest-neighbour scheme of Muellner 2011
    (O(n^3) worst case, close to O(n^2) in practice).
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    ids = list(items)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate items")
    ids.sort()
    n = len(ids)
    sums = _score_matrix(ids, pair_score)
    if n < 2:
        return [frozenset([x]) for x in ids], []

    avg = sums.copy()
    for i in range(n):
        avg[i, : i + 1] = NEG_INF
    best = avg.max(axis=1)
    partner = avg.argmax(axis=1)
    size = np.ones(n, dtype=np.int64)
    clusters: list[frozenset | None] = [frozenset([x]) for x in ids]
    merges: list[Merge] = []

    while True:
        a = int(best.argmax())
        if best[a] < threshold:
            break
        b = int(partner[a])
        merges.append(Merge(clusters[a], clusters[b], float(best[a])))
        clusters[a] = clusters[a] | clusters[b]
        clusters[b] = None
        size[a] += size[b]

        # -inf diagonal and dead slots keep row[a] and row[b] at -inf
        row = sums[a] + sums[b]
        sums[a] = row
        sums[:, a] = row
        sums[b] = NEG_INF
        sums[:, b] = NEG_INF
        means = row / (size[a] * size)
        avg[a, a + 1 :] = means[a + 1 :]
        avg[:a, a] = means[:a]
        avg[b] = NEG_INF
        avg[:b, b] = NEG_INF
        best[b] = NEG_INF

        stale = np.flatnonzero((partner == a) | (partner == b))
        # rows above a whose best survived: the new column a may beat it;
        # head_best and head_partner are views, so writes land in best/partner
        col, head_best, head_partner = avg[:a, a], best[:a], partner[:a]
        better = (col > head_best) | ((col == head_best) & (head_partner > a))
        head_best[better] = col[better]
        head_partner[better] = a
        rows = np.union1d(stale[stale != b], [a])
        partner[rows] = avg[rows].argmax(axis=1)
        best[rows] = avg[rows, partner[rows]]

    final = [c for c in clusters if c is not None]
    return final, merges
