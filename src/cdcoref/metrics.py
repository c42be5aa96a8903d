"""Coreference metrics over (key, response) partition pairs.

All metrics natively handle twinless mentions, i.e. mentions present on one
side only: they are never deleted beforehand and simply earn no overlap
credit. Scores are percentages in [0, 100] kept at full float precision;
rounding to one decimal happens only when a report is rendered.

A 0/0 ratio is defined as 0 throughout, so degenerate inputs (empty
partitions, no non-singleton clusters) yield all-zero rows rather than
errors.

CEAFe's alignment runs scipy's compiled `linear_sum_assignment`, loaded
from its extension module alone, so importing this module imports no scipy
package unless that load fails.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Iterable, Sequence

import numpy as np

# filter_singletons is bound for perfbench/spans.py, which wraps it here
from .corpus import Mention, Partition, filter_singletons  # noqa: F401

SINGLETON_POLICIES = ("included", "omitted")


def _load_assignment_solver():
    """scipy's `linear_sum_assignment`, from its compiled extension alone.

    `scipy.optimize`'s `__init__` imports scipy.linalg, scipy.sparse and
    most of scipy: about 0.6 s and 49 MB per process, of which CEAFe needs
    only this one function of the extension `scipy.optimize._lsap`. That
    extension is found by path and loaded without importing either
    package, then registered under its own name, so a later
    `import scipy.optimize` reuses the same module and function. If the
    direct load fails in any way, the public import is the fallback.
    """
    name = "scipy.optimize._lsap"
    if name in sys.modules:
        return sys.modules[name].linear_sum_assignment
    try:
        # find_spec on a top-level name locates scipy without importing it
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        finder = FileFinder(
            os.path.join(root, "optimize"), (ExtensionFileLoader, EXTENSION_SUFFIXES)
        )
        spec = finder.find_spec(name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
        return module.linear_sum_assignment
    except Exception:
        # a single-phase extension is registered as it is created; the
        # public import must not find a half-loaded one
        sys.modules.pop(name, None)
        from scipy.optimize import linear_sum_assignment

        return linear_sum_assignment


linear_sum_assignment = _load_assignment_solver()


@dataclass(frozen=True)
class PRF:
    """Recall / precision / F1 triple on the percentage scale."""

    recall: float
    precision: float
    f1: float

    @classmethod
    def from_counts(cls, r_num, r_den, p_num, p_den) -> "PRF":
        recall = 100.0 * r_num / r_den if r_den else 0.0
        precision = 100.0 * p_num / p_den if p_den else 0.0
        f1 = (
            2.0 * recall * precision / (recall + precision)
            if recall + precision
            else 0.0
        )
        return cls(recall, precision, f1)


def optimal_alignment(similarity) -> list[tuple[int, int]]:
    """Maximum-total-similarity one-to-one matching of rows to columns.

    Entries must be finite and non-negative. Rectangular inputs are fine:
    the smaller side is matched completely, which equals padding with zero
    rows or columns. Returns (row, column) index pairs.
    """
    matrix = np.asarray(similarity, dtype=float)
    if matrix.size == 0:
        return []
    if matrix.ndim != 2:
        raise ValueError("similarity must be a 2-d matrix")
    if not np.isfinite(matrix).all() or (matrix < 0).any():
        raise ValueError("similarity entries must be finite and non-negative")
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    return list(zip(rows.tolist(), cols.tolist()))


def _assignment(shape, rows, cols, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, columns, values) of the pairs, by row, that
    `linear_sum_assignment(sim, maximize=True)` matches in the `shape` matrix
    `sim` holding `values` at (`rows`, `cols`) and 0 elsewhere. The array
    that call solves, -sim transposed when `sim` has more rows than
    columns, is built here with no `sim`, and scipy copies nothing."""
    tall = shape[0] > shape[1]
    if tall:
        shape, rows, cols = shape[::-1], cols, rows
    cost = np.full(shape, -0.0)
    cost[rows, cols] = -values
    rows, cols = linear_sum_assignment(cost)
    matched = -cost[rows, cols]
    if tall:
        order = np.argsort(cols)
        rows, cols, matched = cols[order], rows[order], matched[order]
    return rows, cols, matched


class _Overlap:
    """Key x response overlap counts, kept as the nonzero cells only: cell
    (`key_of[c]`, `response_of[c]`) holds `count[c]` shared mentions, cells
    sorted row-major. A row's twinless mentions are its size minus its row
    sum. Every metric reads both of its sides from this one table.
    """

    __slots__ = ("key_sizes", "response_sizes", "key_of", "response_of", "count")

    def __init__(self, cells: np.ndarray, width: int, key_sizes, response_sizes):
        """From the cell of each shared mention, as key row * `width` plus
        response column, and the cluster sizes of each side in order."""
        cells, self.count = np.unique(cells, return_counts=True)
        self.key_of, self.response_of = np.divmod(cells, width)
        self.key_sizes, self.response_sizes = key_sizes, response_sizes

    @classmethod
    def of_clusters(cls, key: Sequence[frozenset], response: Sequence[frozenset]):
        """From two lists of disjoint clusters in `Partition`'s canonical
        order, joined through a dict in one O(mentions) pass."""
        width = max(len(response), 1)
        index = {m: j for j, cluster in enumerate(response) for m in cluster}
        cells = np.fromiter(
            (i * width + index[m] for i, cluster in enumerate(key) for m in cluster if m in index),
            np.int64,
        )
        return cls(cells, width, _sizes(key), _sizes(response))

    def sides(self):
        """(rows, columns, counts, row sizes, column sizes), key side first."""
        yield self.key_of, self.response_of, self.count, self.key_sizes, self.response_sizes
        yield self.response_of, self.key_of, self.count, self.response_sizes, self.key_sizes


def _sizes(clusters: Sequence[frozenset]) -> np.ndarray:
    return np.fromiter(map(len, clusters), np.int64, len(clusters))


def _row_sums(rows, values, sizes) -> np.ndarray:
    return np.bincount(rows, weights=values, minlength=len(sizes))


def _ordered_sum(terms: np.ndarray) -> float:
    # strictly left to right, one cluster at a time, so scores do not move
    # in the last bit: np.sum adds pairwise, and builtin sum over floats
    # compensates on Python 3.12 and later
    return float(np.add.accumulate(terms)[-1]) if terms.size else 0.0


def _muc(table: _Overlap) -> PRF:
    counts = []
    for rows, _, n, sizes, _ in table.sides():
        # each row splits into one block per nonzero cell plus one block
        # per twinless mention
        twinless = sizes - _row_sums(rows, n, sizes).astype(np.int64)
        blocks = np.bincount(rows, minlength=len(sizes)) + twinless
        counts += [int((sizes - blocks).sum()), int((sizes - 1).sum())]
    return PRF.from_counts(*counts)


def _b_cubed(table: _Overlap) -> PRF:
    counts = []
    for rows, _, n, sizes, _ in table.sides():
        terms = _row_sums(rows, n * n, sizes) / sizes
        counts += [_ordered_sum(terms), int(sizes.sum())]
    return PRF.from_counts(*counts)


def _ceaf_e(table: _Overlap) -> PRF:
    n_key, n_response = len(table.key_sizes), len(table.response_sizes)
    if not n_key or not n_response:
        return PRF.from_counts(0, 0, 0, 0)
    sim = 2.0 * table.count / (
        table.key_sizes[table.key_of] + table.response_sizes[table.response_of]
    )
    _, _, matched = _assignment((n_key, n_response), table.key_of, table.response_of, sim)
    total = _ordered_sum(matched)
    return PRF.from_counts(total, n_key, total, n_response)


def _lea(table: _Overlap) -> PRF:
    counts = []
    for rows, cols, n, sizes, other_sizes in table.sides():
        links = sizes * (sizes - 1) // 2
        hit = _row_sums(rows, n * (n - 1) // 2, sizes)
        resolution = hit / np.maximum(links, 1)
        # a singleton's self-link counts only if its mention is a singleton
        # on the other side too
        self_link = np.zeros(len(sizes))
        self_link[rows[(sizes[rows] == 1) & (other_sizes[cols] == 1)]] = 1.0
        resolution = np.where(sizes == 1, self_link, resolution)
        counts += [_ordered_sum(sizes * resolution), int(sizes.sum())]
    return PRF.from_counts(*counts)


def muc(key: Partition, response: Partition) -> PRF:
    """Link-based metric: fraction of coreference links preserved.

    Singleton clusters carry no links, so they contribute nothing to either
    side; the score is invariant under singleton filtering.
    """
    return _muc(_Overlap.of_clusters(key.clusters, response.clusters))


def b_cubed(key: Partition, response: Partition) -> PRF:
    """Mention-based metric: per-mention overlap of its two clusters.

    Recall averages |k intersect r| / |k| over key mentions; precision is the
    mirror image. A mention absent from the other side contributes 0.
    """
    return _b_cubed(_Overlap.of_clusters(key.clusters, response.clusters))


def ceaf_e(key: Partition, response: Partition) -> PRF:
    """Entity-based metric: optimal one-to-one cluster alignment.

    Cluster similarity is 2|k intersect r| / (|k| + |r|); the total over the
    best alignment is normalized by the key (recall) and response (precision)
    cluster counts. Empty key or response yields zeros.

    The similarities come from the overlap table, built in one O(mentions)
    pass, and scattered, negated, into the one dense float64 array that
    scipy's maximizing assignment on the K x R similarity matrix (K key and
    R response clusters) solves, through the compiled solver that this
    module loads without importing `scipy.optimize`; that solve is nearly
    all of the cost. The matched similarities are added one at a time in
    key-row order.
    """
    return _ceaf_e(_Overlap.of_clusters(key.clusters, response.clusters))


def lea(key: Partition, response: Partition) -> PRF:
    """Link-based metric weighting each cluster by its size.

    A cluster's resolution is the fraction of its links found in the other
    partition; singleton clusters score via a self-link that counts only
    when the mention is reproduced as a singleton.
    """
    return _lea(_Overlap.of_clusters(key.clusters, response.clusters))


def conll_f1(muc_f1: float, b_cubed_f1: float, ceaf_e_f1: float) -> float:
    """Unweighted mean of the MUC, B3 and CEAFe F1 scores."""
    return (muc_f1 + b_cubed_f1 + ceaf_e_f1) / 3.0


def mention_detection_prf(key_mentions: Iterable, response_mentions: Iterable) -> PRF:
    """Exact-boundary mention detection score.

    Accepts Mention objects (matched on (doc_id, start_token, end_token)) or
    pre-computed hashable identities.
    """

    def ident(m):
        return m.span() if isinstance(m, Mention) else m

    key = {ident(m) for m in key_mentions}
    response = {ident(m) for m in response_mentions}
    hits = len(key & response)
    return PRF.from_counts(hits, len(key), hits, len(response))


@dataclass(frozen=True)
class MetricReport:
    """One evaluation row: the four metrics plus their CoNLL summary."""

    muc: PRF
    b_cubed: PRF
    ceaf_e: PRF
    lea: PRF
    conll_f1: float
    singleton_policy: str

    def to_dict(self) -> dict:
        def prf(p: PRF) -> dict:
            return {"recall": p.recall, "precision": p.precision, "f1": p.f1}

        return {
            "muc": prf(self.muc),
            "b_cubed": prf(self.b_cubed),
            "ceaf_e": prf(self.ceaf_e),
            "lea": prf(self.lea),
            "conll_f1": self.conll_f1,
            "singleton_policy": self.singleton_policy,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        """Aligned single-row table: R, P, F1 per metric plus CoNLL F1."""
        label = f"singletons {self.singleton_policy}"
        groups = [
            ("MUC", self.muc),
            ("B3", self.b_cubed),
            ("CEAFe", self.ceaf_e),
            ("LEA", self.lea),
        ]
        width = max(len(label), 20)
        head1 = "".ljust(width)
        head2 = "".ljust(width)
        row = label.ljust(width)
        for name, prf in groups:
            head1 += name.ljust(24)
            head2 += "".join(c.ljust(8) for c in ("R", "P", "F1"))
            row += "".join(
                f"{v:.1f}".ljust(8) for v in (prf.recall, prf.precision, prf.f1)
            )
        head1 += "CoNLL"
        head2 += "F1"
        row += f"{self.conll_f1:.1f}"
        return "\n".join((head1, head2, row))


def evaluate(
    key: Partition, response: Partition, singleton_policy: str = "included"
) -> MetricReport:
    """Score a response partition against a key partition.

    With `singleton_policy="omitted"`, size-1 clusters are removed from both
    partitions before any metric sees them; `"included"` scores them as-is.

    All four metrics read one overlap table, built in O(mentions) from the
    two partitions' clusters; past that, the cost is the one dense K x R
    assignment of CEAFe. Per-cluster terms are added strictly in cluster
    order, so every score is bit-identical to adding them one cluster at a
    time.
    """
    if singleton_policy not in SINGLETON_POLICIES:
        raise ValueError(
            f"unknown singleton policy {singleton_policy!r}; "
            f"expected one of {SINGLETON_POLICIES}"
        )
    key, response = key.clusters, response.clusters
    if singleton_policy == "omitted":
        key, response = [c for c in key if len(c) > 1], [c for c in response if len(c) > 1]
    return _report(_Overlap.of_clusters(key, response), singleton_policy)


def _report(table: _Overlap, singleton_policy: str) -> MetricReport:
    """The four metrics on one overlap table, and their CoNLL summary."""
    m, b, c = _muc(table), _b_cubed(table), _ceaf_e(table)
    return MetricReport(
        muc=m,
        b_cubed=b,
        ceaf_e=c,
        lea=_lea(table),
        conll_f1=conll_f1(m.f1, b.f1, c.f1),
        singleton_policy=singleton_policy,
    )
