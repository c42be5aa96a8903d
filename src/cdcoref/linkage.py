"""Greedy average-link agglomerative clustering with a merge log."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from typing import Sequence

import numpy as np

NEG_INF = -np.inf
# the most items that `average_link` clusters by a full argmax per merge
# rather than by cached row bests: on 0.05-grid blocks the scan takes
# 0.7-0.8 of the cached loop's time at n = 256, 0.8-0.95 at 320 and
# 1.1-1.2 at 400 (scripts/linkage_crossover.py)
SCAN_MAX = 256
# the fewest blocks of similar size that run in lock-step: B equal dense
# blocks of 24 to 70 items take 1.3-1.7 times as long as one by one at
# B = 4, 0.75-0.98 at B = 8 (0.89-0.98 at 70 items, near break-even) and
# 0.60-0.84 at B = 12 (scripts/linkage_crossover.py --blocks, two runs)
STACK_MIN = 12
# the most stale rows that `_cached_merges` copies to rescan at once
RESCAN_ROWS = 64


@dataclass(frozen=True)
class Merge:
    """One accepted merge: the two clusters joined and their average score."""

    left: frozenset
    right: frozenset
    score: float


def _score_matrix(ids: list, pair_score: np.ndarray) -> np.ndarray:
    """`_symmetric` of the checked entries above the diagonal of the (n, n)
    `pair_score` over `ids`; the gathered entries are freed on return."""
    n = len(ids)
    scores = np.asarray(pair_score, dtype=np.float64)
    if scores.shape != (n, n):
        raise ValueError(f"score array has shape {scores.shape}, expected {(n, n)}")
    upper = ~np.tri(n, dtype=bool)
    flat = scores[upper]
    _check_scores(ids, flat, lambda k: np.argwhere(upper)[k])
    return _symmetric(n, flat)


def _check_scores(ids: list, scores: np.ndarray, pair) -> None:
    """Reject the first NaN or +inf of flat pair `scores` in row-major
    order, naming the items at the positions `pair(k)` of its index k."""
    legal = scores < np.inf  # False for NaN and +inf alone
    if not legal.all():
        k = int(legal.argmin())
        i, j = pair(k)
        raise ValueError(f"bad score {float(scores[k])!r} for ({ids[i]!r}, {ids[j]!r})")


def _symmetric(n: int, scores: np.ndarray) -> np.ndarray:
    """(n, n) copies of `scores`, the entries above the diagonal in row-major
    order, on both sides of it (so -0.0 stays -0.0), -inf on the diagonal."""
    out = np.full((n, n), NEG_INF)
    upper = ~np.tri(n, dtype=bool)
    out[upper] = out.T[upper] = scores
    return out


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

    This checks its input (`_check_scores`), fills it (`_symmetric`), has
    `_merges` log each merge of slot b into slot a as (a, b, average), and
    `_replay`s the log into clusters and Merges. The pipeline checks each
    unit with `_check_scores`, fills a unit of all pairs with `_symmetric`,
    has `_merges_per_block` pick each block's loop and reads `_clusters`.

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
      array calls, with no bookkeeping. The scan has two indexings: one
      block (`_scan_merges`), or a stack of STACK_MIN or more blocks of
      similar size and at most SCAN_MAX^2 cells (`_lockstep_merges`).
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
    return _replay(ids, _merges(_score_matrix(ids, pair_score), threshold))


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
        # a is stale itself, as partner[a] == b; rescanned a chunk of rows
        # at a time, so that no copy of every stale row is held at once
        rows = stale[stale != b]
        for start in range(0, len(rows), RESCAN_ROWS):
            chunk = rows[start : start + RESCAN_ROWS]
            partner[chunk] = avg[chunk].argmax(axis=1)
        best[rows] = avg[rows, partner[rows]]
    return log


def _merges_per_block(
    blocks: Sequence[np.ndarray], threshold: float
) -> list[list[tuple[int, int, float]]]:
    """`_merges(sums, threshold)` for each block, in input order. Blocks are
    bucketed by size, each bucket up to sqrt(2) times its smallest block, so
    that padding keeps it within twice its own sum of m^2 cells. A bucket of
    STACK_MIN or more blocks runs in lock-step if its padded stack holds at
    most SCAN_MAX^2 cells, the scan's bound on the cells of one argmax."""
    order = sorted(range(len(blocks)), key=lambda k: len(blocks[k]))
    logs: list = [None] * len(blocks)
    while order:
        smallest = len(blocks[order[0]])
        bucket = list(takewhile(lambda k: len(blocks[k]) ** 2 <= 2 * smallest**2, order))
        order = order[len(bucket) :]
        stack = [blocks[k] for k in bucket]
        if len(stack) >= STACK_MIN and len(stack) * len(stack[-1]) ** 2 <= SCAN_MAX**2:
            stack_logs = _lockstep_merges(stack, threshold)
        else:
            stack_logs = [_merges(sums, threshold) for sums in stack]
        for k, log in zip(bucket, stack_logs):
            logs[k] = log
    return logs


def _lockstep_merges(
    blocks: Sequence[np.ndarray], threshold: float
) -> list[list[tuple[int, int, float]]]:
    """`_scan_merges` on each block's sums, with the blocks run in lock-step.

    The blocks are padded with -inf to the largest one, n, and stacked into
    (B, n, n) sums and averages. A step takes each block's first maximum
    of its n^2 averages in row-major order, which padding leaves where it
    is, and gives every block whose maximum is >= threshold the scan's
    updates, indexed by block: the Python loop runs once per merge of the
    deepest block, and every slot log is equal to `_merges`'."""
    count, n = len(blocks), max(map(len, blocks), default=0)
    logs: list[list] = [[] for _ in blocks]
    if n < 2:
        return logs
    sums = np.full((count, n, n), NEG_INF)
    for k, block in enumerate(blocks):
        sums[k, : len(block), : len(block)] = block
    avg = sums.copy()
    flat = avg.reshape(count, -1)
    size = np.ones((count, n))  # exact: products of sizes stay below 2^53
    blocks_at = np.arange(count)
    while True:
        cells = flat.argmax(axis=1)
        best = flat[blocks_at, cells]
        k = np.flatnonzero(best >= threshold)
        if not k.size:
            return logs
        a, b = np.divmod(cells[k], n)
        for block, merge in zip(k.tolist(), zip(a.tolist(), b.tolist(), best[k].tolist())):
            logs[block].append(merge)
        size[k, a] += size[k, b]
        # as in the scan, -inf diagonals, dead slots and padding keep rows
        # and columns a and b at -inf where they meet them
        row = sums[k, a] + sums[k, b]
        sums[k, a] = row
        sums[k, :, a] = row
        sums[k, :, b] = NEG_INF
        means = row / (size[k, a][:, None] * size[k])
        avg[k, a] = means
        avg[k, :, a] = means
        avg[k, b] = NEG_INF
        avg[k, :, b] = NEG_INF
