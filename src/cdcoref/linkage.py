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

    This checks its input, has `_merges` log each merge of slot b into
    slot a as (a, b, average), and `_replay`s the log into clusters and
    Merges. The pipeline's `cluster_components` calls the engines below it
    on checked symmetric blocks and reads clusters with `_clusters`.

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
    ids, sums = _checked(items, pair_score)
    return _replay(ids, _merges(sums, threshold))


def _checked(items: Sequence, pair_score: np.ndarray) -> tuple[list, np.ndarray]:
    """The sorted ids of distinct `items` and their `_score_matrix`."""
    ids = list(items)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate items")
    ids.sort()
    return ids, _score_matrix(ids, pair_score)


def _merges(sums: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    """The (a, b, average) slot log of one block's symmetric (n, n) sums,
    -inf on the diagonal and free of NaN and +inf, which it overwrites."""
    if len(sums) < 2:
        return []
    return (_scan_merges if len(sums) <= SCAN_MAX else _cached_merges)(sums, threshold)


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


def _clusters(ids: list, log: Sequence[tuple[int, int, float]]) -> list[frozenset]:
    """`_replay(ids, log)`'s final clusters by one pass over the slots, with
    no Merge: slot b joins slot a < b, so a slot's root is known by its turn."""
    root = list(range(len(ids)))
    for a, b, _ in log:
        root[b] = a
    groups: dict[int, list] = {}
    for slot, x in enumerate(ids):
        root[slot] = root[root[slot]]
        groups.setdefault(root[slot], []).append(x)
    return [frozenset(group) for group in groups.values()]


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


def average_link_blocks(
    blocks: Sequence[tuple[Sequence, np.ndarray]], threshold: float
) -> list[tuple[list[frozenset], list[Merge]]]:
    """`average_link(items, pair_score, threshold)` for each (items,
    pair_score) block, in block order, with the blocks run in lock-step:
    each block is checked as `average_link` checks it, so errors are those
    of the first block it rejects, then `_lockstep_merges` runs them all
    and `_replay` turns each slot log into clusters and a merge log.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    checked = [_checked(items, pair_score) for items, pair_score in blocks]
    logs = _lockstep_merges([sums for _, sums in checked], threshold)
    return [_replay(ids, log) for (ids, _), log in zip(checked, logs)]


def _lockstep_merges(
    blocks: Sequence[np.ndarray], threshold: float
) -> list[list[tuple[int, int, float]]]:
    """`_merges(sums, threshold)` for each block's symmetric sums, -inf on
    the diagonal and free of NaN and +inf, with the blocks run in lock-step.

    The blocks are padded with -inf to the largest one, n, and stacked
    into (B, n, n) sums and averages and (B, n) best, partner and size
    arrays. Each step merges, in every block whose best average is >=
    threshold, that block's own next pair, with one set of array calls for
    all of them, so the Python loop runs once per merge of the deepest
    block rather than once per merge. Per block, the sums S[a] + S[b], the
    averages sum / (|A| |B|), the tie rule and the rescan of rows whose
    cached partner was merged are those of `average_link`'s cached loop,
    so every slot log is equal to `_merges`'. A step costs about as much as
    a dozen scanned single-block merges, and padding costs B n^2 cells
    against the blocks' sum of m^2, so this pays only for many blocks of
    similar sizes (`clustering.STACK_MIN`).
    """
    count, n = len(blocks), max(map(len, blocks), default=0)
    logs: list[list] = [[] for _ in blocks]
    if n < 2:
        return logs
    sums = np.full((count, n, n), NEG_INF)
    for k, block in enumerate(blocks):
        sums[k, : len(block), : len(block)] = block

    # averages on both sides of the diagonal, which saves masking them: a
    # block's first row that holds its best average has every pair at that
    # average to its right, so the merge chosen is still average_link's
    avg = sums.copy()
    # flat views: slot a of block k is row k * n + a
    flat_sums, flat_avg = sums.reshape(-1, n), avg.reshape(-1, n)
    partner = avg.argmax(axis=2)
    best = np.take_along_axis(avg, partner[:, :, None], axis=2)[:, :, 0]
    for k, block in enumerate(blocks):
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
    return logs
