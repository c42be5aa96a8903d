"""Shared builders, random generators, and independent oracle implementations.

The oracles here deliberately take the slow, obvious route (exhaustive
permutation search, full rescans from raw pair scores) so they share no code
path with the package implementations they check. `heap_average_link` is
the package's former per-pair priority-queue linkage, kept verbatim as the
exact-trace oracle for the array engine in `cdcoref.linkage`. Likewise
`reference_metrics` runs the former per-cluster metric loops, kept verbatim
as the bit-exact oracle for the overlap table in `cdcoref.metrics`, and
`reference_tfidf_vectors` and `callable_cluster_documents` are the former
n-gram counting and per-pair `cosine` clustering, the oracles for the
one-pass counting and the similarity array in `cdcoref.topics`, and
`DictScoreTable` is the former dict-of-pairs score table, the oracle for
the array-backed `cdcoref.ScoreTable`.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from typing import Callable, Sequence

import hypothesis.strategies as st
import numpy as np

from cdcoref import (
    PRF,
    DocVector,
    Document,
    Mention,
    Merge,
    Partition,
    ScoreTable,
    average_link,
    cosine,
    optimal_alignment,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def random_partition(rng, members) -> Partition:
    members = list(members)
    if not members:
        return Partition([])
    labels = [rng.randrange(1, len(members) + 1) for _ in members]
    groups: dict[int, set] = {}
    for m, label in zip(members, labels):
        groups.setdefault(label, set()).add(m)
    return Partition(groups.values())


def random_partition_pair(rng, max_mentions=9) -> tuple[Partition, Partition]:
    """Two random partitions over overlapping (not equal) mention subsets."""
    n = rng.randrange(1, max_mentions + 1)
    universe = [f"m{i}" for i in range(n)]
    key_members = [m for m in universe if rng.random() < 0.85]
    resp_members = [m for m in universe if rng.random() < 0.85]
    return random_partition(rng, key_members), random_partition(rng, resp_members)


def random_same_universe_pair(rng, max_mentions=9) -> tuple[Partition, Partition]:
    n = rng.randrange(1, max_mentions + 1)
    universe = [f"m{i}" for i in range(n)]
    return random_partition(rng, universe), random_partition(rng, universe)


def lemma_score_table(mentions: Sequence[Mention]) -> ScoreTable:
    """1.0 for every pair of mentions whose case-folded head lemmas match,
    else 0.0: clustering these scores at a threshold in (0, 1] reproduces
    `head_lemma_baseline`."""
    lemma = {m.mention_id: m.head_lemma.casefold() for m in mentions}
    return ScoreTable(
        {(a, b): float(lemma[a] == lemma[b]) for a, b in itertools.combinations(lemma, 2)}
    )


def dyadic_score_table(rng, ids) -> ScoreTable:
    """Random scores on a dyadic grid (k/16), so any summation order is exact
    in float arithmetic and cross-implementation trace comparisons are safe."""
    entries = {}
    for a, b in itertools.combinations(sorted(ids), 2):
        entries[(a, b)] = rng.randrange(-16, 33) / 16
    return ScoreTable(entries)


class DictScoreTable:
    """The former `ScoreTable`: one dict entry per sorted id pair, each
    row checked as it is added, so the first bad row in order raises. A
    row's score is checked before its ids, as the right side of the
    assignment is evaluated first."""

    def __init__(self, entries=None, default: float = float("-inf")):
        if math.isnan(default):
            raise ValueError("default score must not be NaN")
        self.default = float(default)
        self._entries: dict[tuple, float] = {}
        for (a, b), score in (entries or {}).items():
            self._entries[_pair_key(a, b)] = _checked_score(score, a, b)

    @classmethod
    def from_pairs(cls, triples, default: float = float("-inf")) -> "DictScoreTable":
        table = cls(default=default)
        for a, b, score in triples:
            table._entries[_pair_key(a, b)] = _checked_score(score, a, b)
        return table

    def get(self, a, b) -> float:
        return self._entries.get(_pair_key(a, b), self.default)

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    def matrix(self, ids: Sequence) -> np.ndarray:
        out = np.full((len(ids), len(ids)), self.default)
        position = {x: k for k, x in enumerate(ids)}  # a repeated id: its last position
        for (a, b), score in self._entries.items():
            if a in position and b in position:
                out[position[a], position[b]] = out[position[b], position[a]] = score
        return out


def score_lookup(table: ScoreTable) -> Callable:
    """`(a, b) -> score` over `table`'s entries, its default for an absent
    pair: what the former `ScoreTable.get` returned."""
    entries = dict(table.items())
    return lambda a, b: entries.get(_pair_key(a, b), table.default)


def score_matrix(table: ScoreTable, ids: Sequence) -> np.ndarray:
    """Scores of all pairs of `ids` as an (n, n) array, the default for
    absent pairs and on the diagonal: what the former `ScoreTable.matrix`
    returned, and the array form `average_link` takes."""
    return DictScoreTable(dict(table.items()), table.default).matrix(ids)


def _pair_key(a, b) -> tuple:
    if a == b:
        raise ValueError(f"self-pair ({a!r}, {a!r}) is not scorable")
    return (a, b) if a <= b else (b, a)


def _checked_score(score, a, b) -> float:
    score = float(score)
    if not math.isfinite(score):
        raise ValueError(f"score for ({a!r}, {b!r}) must be finite, got {score!r}")
    return score


def exhaustive_alignment_total(matrix) -> float:
    """Best one-to-one assignment total by trying every permutation."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0 or cols == 0:
        return 0.0
    best = None
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            total = sum(matrix[i][perm[i]] for i in range(rows))
            best = total if best is None else max(best, total)
    else:
        for perm in itertools.permutations(range(rows), cols):
            total = sum(matrix[perm[j]][j] for j in range(cols))
            best = total if best is None else max(best, total)
    return best


def brute_force_average_link(ids, score_fn, threshold):
    """Average-link clustering that rescans every cluster pair from the raw
    member scores on every round. Same tie rule, independent arithmetic."""
    clusters = [frozenset([x]) for x in sorted(ids)]
    merges = []
    while len(clusters) > 1:
        best = None
        for a, b in itertools.combinations(clusters, 2):
            total = 0.0
            for x in sorted(a):
                for y in sorted(b):
                    total += score_fn(x, y)
            avg = total / (len(a) * len(b))
            rank = (-avg, tuple(sorted((min(a), min(b)))))
            if best is None or rank < best[0]:
                best = (rank, a, b, avg)
        _, a, b, avg = best
        if avg < threshold:
            break
        clusters.remove(a)
        clusters.remove(b)
        clusters.append(a | b)
        merges.append((a, b, avg))
    return sorted(clusters, key=lambda c: sorted(c)), merges


def heap_average_link(
    items: Sequence,
    pair_score: Callable,
    threshold: float,
) -> tuple[list[frozenset], list[Merge]]:
    """Cluster `items` bottom-up by average pairwise score.

    Starting from singletons, repeatedly merge the cluster pair with the
    highest mean cross-pair score, as long as that mean is >= threshold
    (inclusive). Equal-best pairs are resolved toward the pair whose sorted
    (smallest-member, smallest-member) ids compare lexicographically least,
    which makes the whole trace deterministic. In each logged Merge, `left`
    is the side holding the smaller smallest member.

    `pair_score` is called exactly once per item pair; cluster-pair sums are
    then maintained incrementally. Scores of -inf are allowed and act as
    "never merge". Returns the final clusters (canonically sorted) and the
    ordered merge log.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    ids = list(items)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate items")
    ids.sort()

    clusters: dict[int, frozenset] = {i: frozenset([x]) for i, x in enumerate(ids)}
    mins: dict[int, object] = dict(enumerate(ids))
    sums: dict[tuple[int, int], float] = {}
    heap: list[tuple] = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            s = pair_score(ids[i], ids[j])
            if math.isnan(s) or s == math.inf:
                raise ValueError(f"bad score {s!r} for ({ids[i]!r}, {ids[j]!r})")
            sums[i, j] = s
            heap.append((-s, (ids[i], ids[j]), i, j))
    heapq.heapify(heap)
    next_id = len(ids)
    merges: list[Merge] = []

    while heap:
        neg_avg, _, i, j = heapq.heappop(heap)
        if i not in clusters or j not in clusters:
            continue
        if -neg_avg < threshold:
            break
        left, right = clusters.pop(i), clusters.pop(j)
        if mins[j] < mins[i]:
            left, right = right, left
        merges.append(Merge(left, right, -neg_avg))
        merged = left | right
        merged_id = next_id
        merged_min = min(mins[i], mins[j])
        next_id += 1
        sums.pop((i, j))
        for k in clusters:
            s = sums.pop((min(i, k), max(i, k))) + sums.pop((min(j, k), max(j, k)))
            sums[k, merged_id] = s
            avg = s / (len(merged) * len(clusters[k]))
            tie = tuple(sorted((merged_min, mins[k])))
            heapq.heappush(heap, (-avg, tie, k, merged_id))
        clusters[merged_id] = merged
        mins[merged_id] = merged_min

    final = sorted(clusters.values(), key=lambda c: sorted(c))
    return final, merges


def _muc_side(a: Partition, b: Partition) -> tuple[int, int]:
    # numerator: links of each a-cluster still recoverable after b partitions
    # it; twinless members each form their own block
    num = den = 0
    for cluster in a.clusters:
        blocks = set()
        twinless = 0
        for m in cluster:
            i = b.mention_index.get(m)
            if i is None:
                twinless += 1
            else:
                blocks.add(i)
        num += len(cluster) - (len(blocks) + twinless)
        den += len(cluster) - 1
    return num, den


def _b_cubed_side(a: Partition, b: Partition) -> tuple[float, int]:
    num = 0.0
    total = 0
    for cluster in a.clusters:
        total += len(cluster)
        counts = Counter(
            b.mention_index[m] for m in cluster if m in b.mention_index
        )
        num += sum(c * c for c in counts.values()) / len(cluster)
    return num, total


def _ceaf_e(key: Partition, response: Partition) -> PRF:
    if not key.clusters or not response.clusters:
        return PRF.from_counts(0, 0, 0, 0)
    sim = np.zeros((len(key.clusters), len(response.clusters)))
    for i, k in enumerate(key.clusters):
        for j, r in enumerate(response.clusters):
            inter = len(k & r)
            if inter:
                sim[i, j] = 2.0 * inter / (len(k) + len(r))
    total = float(sum(sim[i, j] for i, j in optimal_alignment(sim)))
    return PRF.from_counts(total, len(key.clusters), total, len(response.clusters))


def _lea_side(a: Partition, b: Partition) -> tuple[float, int]:
    num = 0.0
    den = 0
    for cluster in a.clusters:
        size = len(cluster)
        den += size
        if size == 1:
            # self-link credit only if the mention is a singleton on both sides
            (m,) = cluster
            i = b.mention_index.get(m)
            resolution = 1.0 if i is not None and len(b.clusters[i]) == 1 else 0.0
        else:
            counts = Counter(
                b.mention_index[m] for m in cluster if m in b.mention_index
            )
            hit = sum(c * (c - 1) // 2 for c in counts.values())
            resolution = hit / (size * (size - 1) // 2)
        num += size * resolution
    return num, den


def reference_metrics(key: Partition, response: Partition) -> tuple[PRF, PRF, PRF, PRF]:
    """MUC, B3, CEAFe and LEA the way the package computed them before the
    overlap table: one pass per cluster and side, and a K x R intersection
    loop for CEAFe."""
    return (
        PRF.from_counts(*_muc_side(key, response), *_muc_side(response, key)),
        PRF.from_counts(*_b_cubed_side(key, response), *_b_cubed_side(response, key)),
        _ceaf_e(key, response),
        PRF.from_counts(*_lea_side(key, response), *_lea_side(response, key)),
    )


def _ngram_counts(texts: Sequence[str]) -> Counter:
    counts: Counter = Counter()
    for n in (1, 2, 3):
        for i in range(len(texts) - n + 1):
            counts[tuple(texts[i : i + n])] += 1
    return counts


def reference_tfidf_vectors(docs: Sequence[Document]) -> list[DocVector]:
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


def callable_cluster_documents(
    vectors: Sequence[DocVector], threshold: float
) -> tuple[list[frozenset], list[Merge]]:
    """Average-link clustering of documents on an array filled by calling
    `cosine` once per pair, smaller id first. Returns the clusters and the
    merge log."""
    by_id = {v.doc_id: v for v in vectors}
    if len(by_id) != len(vectors):
        raise ValueError("duplicate doc_id in vectors")
    ids = sorted(by_id)
    sims = np.full((len(ids), len(ids)), -np.inf)
    for i, a in enumerate(ids):
        for j in range(i + 1, len(ids)):
            sims[i, j] = cosine(by_id[a], by_id[ids[j]])
    return average_link(ids, sims, threshold)


@st.composite
def partition_pair_strategy(draw, max_mentions=8):
    """Key/response partitions over overlapping subsets of a small universe."""
    n = draw(st.integers(1, max_mentions))
    universe = [f"m{i}" for i in range(n)]

    def side():
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        members = [m for m, k in zip(universe, keep) if k]
        labels = draw(
            st.lists(st.integers(0, max_mentions), min_size=len(members), max_size=len(members))
        )
        groups: dict[int, set] = {}
        for m, label in zip(members, labels):
            groups.setdefault(label, set()).add(m)
        return Partition(groups.values())

    return side(), side()


@st.composite
def partition_strategy(draw, max_mentions=8):
    n = draw(st.integers(1, max_mentions))
    members = [f"m{i}" for i in range(n)]
    labels = draw(st.lists(st.integers(0, max_mentions), min_size=n, max_size=n))
    groups: dict[int, set] = {}
    for m, label in zip(members, labels):
        groups.setdefault(label, set()).add(m)
    return Partition(groups.values())


RUNNER = """
import contextlib, io, json, sys
from cdcoref.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def run_cli(argvs, hash_seed):
    """[exit code, stdout, stderr] of `cdcoref` for each argv, in one
    interpreter started with PYTHONHASHSEED=hash_seed."""
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed),
             "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
