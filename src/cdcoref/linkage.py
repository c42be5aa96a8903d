"""Greedy average-link agglomerative clustering with a merge log."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

NEG_INF = -np.inf
# the most items that `average_link` clusters by a full argmax per merge
# rather than by cached row bests: on 0.05-grid blocks the scan takes
# 0.7-0.8 of the cached loop's time at n = 256, 0.8-0.95 at 320 and
# 1.1-1.2 at 400 (scripts/linkage_crossover.py)
SCAN_MAX = 256


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
    # copies, not sums, so that -0.0 stays -0.0
    np.copyto(scores, scores.T, where=np.tri(n, k=-1, dtype=bool))
    np.fill_diagonal(scores, NEG_INF)
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
    The pipeline clusters each connected component of a unit's scored-pair
    graph on its own, as no merge can join two components, whose cross
    scores are all -inf. It buckets the components of all units by size
    and calls this once per component of a bucket too small to stack;
    larger buckets run through `average_link_blocks`, which gives the same
    results.

    Clusters live in slots of two n x n float64 matrices (16 n^2 bytes:
    5 MB at n = 560, 144 MB at n = 3,000): cluster-pair score sums and
    their averages. A merge keeps the lower slot, so a slot's index is the
    rank of its cluster's smallest member. Sums update as S[a] + S[b] and
    averages are sum / (|A| |B|), the same floats a per-pair priority
    queue computes. Filling the matrices costs O(n^2). Two loops then give
    the same merges:

    - up to SCAN_MAX items, averages are kept on both sides of the
      diagonal and each merge is the first maximum of the whole matrix in
      row-major order. The mirror of a pair lies in a later row, so that
      is the first row holding the best average, at its first such column:
      the tie rule above. A merge costs one O(n^2) argmax and eight O(n)
      array calls, with no bookkeeping.
    - above SCAN_MAX, averages are kept above the diagonal, each row
      caches its best average and first best column, and the next merge
      is the first maximum over rows. A merge costs O(n) plus O(n) per row
      whose cached best partner was one of the merged slots, the "generic"
      nearest-neighbour scheme of Muellner 2011 (O(n^3) worst case, close
      to O(n^2) in practice), but some 35 array calls.

    At the sizes the pipeline meets, both loops are bound by numpy's
    per-call overhead, so the scan wins: it takes about 0.4 of the cached
    loop's time at n = 96, half at 160 and three quarters at 256. Its
    O(n^2) argmax catches up at 350 to 400 items, and it takes twice as
    long at 512 and 4.5 times as long at 800; `scripts/linkage_crossover.py`
    measures the crossover.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    ids = list(items)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate items")
    ids.sort()
    sums = _score_matrix(ids, pair_score)
    if len(ids) < 2:
        log = []
    elif len(ids) <= SCAN_MAX:
        log = _scan_merges(sums, threshold)
    else:
        log = _cached_merges(sums, threshold)
    return _replay(ids, log)


def _replay(
    ids: list, log: Sequence[tuple[int, int, float]]
) -> tuple[list[frozenset], list[Merge]]:
    """The final clusters and merge log of merging slot b into slot a, for
    each (a, b, average) of `log`, starting from one slot per id."""
    clusters: list[frozenset | None] = [frozenset([x]) for x in ids]
    merges: list[Merge] = []
    for a, b, score in log:
        merges.append(Merge(clusters[a], clusters[b], score))
        clusters[a] = clusters[a] | clusters[b]
        clusters[b] = None
    return [c for c in clusters if c is not None], merges


def _scan_merges(sums: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    """`average_link`'s merges by one argmax over all averages per merge."""
    n = len(sums)
    avg = sums.copy()
    flat = avg.reshape(-1)
    size = np.ones(n)  # exact: products of sizes stay below 2^53
    scale = np.empty(n)
    log = []
    while True:
        cell = int(flat.argmax())
        score = float(flat[cell])
        if score < threshold:
            break
        a, b = divmod(cell, n)
        log.append((a, b, score))
        size[a] += size[b]
        # -inf diagonal and dead slots keep row[a] and row[b] at -inf; the
        # row of a dead slot is never read again
        row = np.add(sums[a], sums[b], out=sums[a])
        sums[:, a] = row
        sums[:, b] = NEG_INF
        means = np.divide(row, np.multiply(size, size[a], out=scale), out=avg[a])
        avg[:, a] = means
        avg[b] = NEG_INF
        avg[:, b] = NEG_INF
    return log


def _cached_merges(sums: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    """`average_link`'s merges by cached row-best averages and partners."""
    n = len(sums)
    avg = np.where(np.tri(n, dtype=bool), NEG_INF, sums)
    # the first best entry itself, not max(), which may give 0.0 for -0.0
    partner = avg.argmax(axis=1)
    best = avg[np.arange(n), partner]
    size = np.ones(n, dtype=np.int64)
    log = []

    while True:
        a = int(best.argmax())
        if best[a] < threshold:
            break
        b = int(partner[a])
        log.append((a, b, float(best[a])))
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
        # a is stale itself, as partner[a] == b
        rows = stale[stale != b]
        partner[rows] = avg[rows].argmax(axis=1)
        best[rows] = avg[rows, partner[rows]]
    return log


def _reject(ids: list[list], blocks: Sequence[tuple[Sequence, np.ndarray]]) -> None:
    """Raise the error of the first block that `average_link` rejects."""
    for block, (_, pair_score) in zip(ids, blocks):
        if len(set(block)) != len(block):
            raise ValueError("duplicate items")
        _score_matrix(block, pair_score)


def average_link_blocks(
    blocks: Sequence[tuple[Sequence, np.ndarray]], threshold: float
) -> list[tuple[list[frozenset], list[Merge]]]:
    """`average_link(items, pair_score, threshold)` for each (items,
    pair_score) block, in block order, with the blocks run in lock-step.

    The blocks are padded with -inf to the largest one, n, and stacked
    into (B, n, n) sums and averages and (B, n) best, partner and size
    arrays. Each step merges, in every block whose best average is >=
    threshold, that block's own next pair, with one set of array calls for
    all of them, so the Python loop runs once per merge of the deepest
    block rather than once per merge. Per block, the sums S[a] + S[b], the
    averages sum / (|A| |B|), the tie rule and the rescan of rows whose
    cached partner was merged are those of `average_link`'s cached loop,
    so every result is equal to it, merge log included; the logs are
    rebuilt from the merged slots after the loop. Errors are those of the
    first block that `average_link` rejects. A step costs about as much as
    a few cached single-block merges, and padding costs B n^2 cells
    against the blocks' sum of m^2, so this pays for several blocks of
    similar sizes.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    ids = [sorted(items) for items, _ in blocks]
    count, n = len(ids), max(map(len, ids), default=0)
    sums = np.full((count, n, n), NEG_INF)
    for k, (block, (_, pair_score)) in enumerate(zip(ids, blocks)):
        scores = np.asarray(pair_score, dtype=np.float64)
        if scores.shape != (len(block), len(block)) or len(set(block)) != len(block):
            _reject(ids, blocks)
        sums[k, : len(block), : len(block)] = scores
    # what _score_matrix does per block, on the whole stack
    np.copyto(sums, sums.transpose(0, 2, 1), where=np.tri(n, k=-1, dtype=bool))
    sums[:, np.arange(n), np.arange(n)] = NEG_INF
    if (np.isnan(sums) | (sums == np.inf)).any():
        _reject(ids, blocks)
    logs: list[list] = [[] for _ in ids]
    if n < 2:
        return [_replay(block, []) for block in ids]

    # averages on both sides of the diagonal, which saves masking them: a
    # block's first row that holds its best average has every pair at that
    # average to its right, so the merge chosen is still average_link's
    avg = sums.copy()
    # flat views: slot a of block k is row k * n + a
    flat_sums, flat_avg = sums.reshape(-1, n), avg.reshape(-1, n)
    partner = avg.argmax(axis=2)
    best = np.take_along_axis(avg, partner[:, :, None], axis=2)[:, :, 0]
    for k, block in enumerate(ids):
        partner[k, len(block) :] = -1  # padding, never stale
    size = np.ones((count, n))  # exact: products of sizes stay below 2^53
    flat_best, flat_partner, flat_size = best.ravel(), partner.ravel(), size.ravel()
    slots = np.arange(count * n).reshape(count, n)
    blocks_at = np.arange(count)
    log = []  # per step: blocks, slots a and b, averages

    while True:
        a = best.argmax(axis=1)
        k = np.flatnonzero(best[blocks_at, a] >= threshold)
        if not k.size:
            break
        a = a[k]
        rows = slots[k]
        ra = rows[blocks_at[: len(k)], a]
        b = flat_partner[ra]
        rb = ra - a + b
        log.append((k, a, b, flat_best[ra]))
        flat_size[ra] += flat_size[rb]

        # the -inf diagonals, dead slots and padding keep row and column a
        # at -inf where they meet them; a dead slot's own row is never read
        row = flat_sums[ra] + flat_sums[rb]
        flat_sums[ra] = row
        sums[k, :, a] = row
        sums[k, :, b] = NEG_INF
        means = row / (flat_size[ra][:, None] * size[k])
        flat_avg[ra] = means
        avg[k, :, a] = means
        avg[k, :, b] = NEG_INF

        head_best, head_partner = flat_best[rows], flat_partner[rows]
        a_col = a[:, None]
        stale = (head_partner == a_col) | (head_partner == b[:, None])
        # rows whose best survived: the new column a may beat it
        better = (means > head_best) | ((means == head_best) & (head_partner > a_col))
        flat_best[rows] = np.where(better, means, head_best)
        flat_partner[rows] = np.where(better, a_col, head_partner)
        # a is stale itself, as partner[a] == b; b is dead
        stale[blocks_at[: len(k)], b] = False
        flat_best[rb] = NEG_INF
        flat_partner[rb] = -1
        rows = rows[stale]
        flat_partner[rows] = flat_avg[rows].argmax(axis=1)
        flat_best[rows] = flat_avg[rows, flat_partner[rows]]

    for step in log:
        for k, a, b, score in zip(*(column.tolist() for column in step)):
            logs[k].append((a, b, score))
    return [_replay(block, log_k) for block, log_k in zip(ids, logs)]
