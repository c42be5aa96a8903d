"""Span pruning, pairwise-score assembly, and mention clustering."""

from __future__ import annotations

import math
import random
import sys
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain, combinations
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import (SCORE_BOUND, Mention, Partition, SchemaError, _bounded_score, read_jsonl,
                     write_jsonl)
# average_link stays bound here for perfbench/spans.py, which traces it by name
from .linkage import average_link  # noqa: F401

NEVER_MERGE = float("-inf")


class ScoreTable:
    """Symmetric pairwise scores keyed by unordered mention-id pairs.

    Absent pairs fall back to `default`, which is -inf ("never merge")
    unless configured otherwise. Entries must be finite numbers (a bool or
    a string is not one) and self-pairs are rejected, each checked as it is
    added, so the first bad entry raises (a score before its ids). The
    table is not mutated after construction.

    Storage holds no object per entry. The n ids are coded by their rank
    in sorted order; an entry is the key `lo * n + hi` of its two codes
    lo < hi and its score, in two arrays sorted by key, which is (first
    id, second id) order. Of entries that name one pair twice, in either
    order, the later one wins.
    """

    __slots__ = ("default", "_codes", "_keys", "_scores")

    def __init__(self, entries: Mapping | None = None, default: float = NEVER_MERGE):
        if math.isnan(default):
            raise ValueError("default score must not be NaN")
        self.default = float(default)
        rows = _PairRows((a, b, s) for (a, b), s in (entries or {}).items())
        self._codes, self._keys, self._scores = rows.coded()

    @classmethod
    def _from_rows(cls, rows: "_PairRows", default: float) -> "ScoreTable":
        table = cls(default=default)
        table._codes, table._keys, table._scores = rows.coded()
        return table

    def items(self) -> Iterator[tuple[tuple, float]]:
        """((a, b), score) per entry with a < b, sorted by (a, b)."""
        ids = list(self._codes)
        lo, hi = np.divmod(self._keys, len(ids))
        return (
            ((ids[i], ids[j]), score)
            for i, j, score in zip(lo.tolist(), hi.tolist(), self._scores.tolist())
        )

    def __len__(self) -> int:
        return len(self._keys)

    def pairs(self, ids: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries between the distinct `ids`: for each, the positions
        in `ids` of its smaller and of its larger id, and its score, in key
        order. For sorted `ids` that is i < j in row-major order. Ids the
        table does not hold are allowed. Per call, O(len(ids)) lookups, then
        array work on the entries whose smaller id is in `ids` only."""
        codes, n = self._codes, len(self._codes)
        rank = np.full(n, -1)  # code -> position in ids, -1 if absent
        for k, x in enumerate(ids):
            if x in codes:
                rank[codes[x]] = k
        # the entries whose smaller id has code c are the keys [c*n, c*n + n)
        held = np.flatnonzero(rank >= 0)
        start = self._keys.searchsorted(held * n)
        count = self._keys.searchsorted(held * n + n) - start
        # the runs start[c], ..., start[c] + count[c] - 1, concatenated
        rows = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
        lo = np.repeat(held, count)
        i, j = rank[lo], rank[self._keys[rows] - lo * n]
        keep = j >= 0
        return i[keep], j[keep], self._scores[rows[keep]]


class _PairRows:
    """(m1, m2, score) rows checked and coded as they arrive, into flat
    arrays: ids get codes in first-seen order and scores become floats,
    with no object kept per row. A bad row raises as it is added: first a
    score that is not a number (a bool or a string is not), then one that
    is not a float of magnitude at most `bound` (one that is not finite,
    then one out of range, an int of any size compared exactly), then a
    self-pair."""

    __slots__ = ("codes", "left", "right", "scores", "bound")

    def __init__(self, triples: Iterable[tuple] = (), bound: float = sys.float_info.max):
        self.codes: dict = {}
        self.left, self.right, self.scores = array("q"), array("q"), array("d")
        self.bound = bound
        for a, b, score in triples:
            self.add(a, b, score)

    def add(self, a, b, score) -> None:
        codes = self.codes
        left, right = codes.setdefault(a, len(codes)), codes.setdefault(b, len(codes))
        bound = self.bound
        if type(score) is not int:
            # exact types first: cheaper than isinstance on large files
            if type(score) is not float and (
                isinstance(score, bool)
                or not isinstance(score, (int, float, np.integer, np.floating))
            ):
                raise ValueError("score must be a number")
            score = float(score)
        if not -bound <= score <= bound:
            finite = type(score) is int or math.isfinite(score)
            problem = "out of range" if finite else f"must be finite, got {score!r}"
            raise ValueError(f"score for ({a!r}, {b!r}) {problem}")
        if left == right:
            raise ValueError(f"self-pair ({a!r}, {a!r}) is not scorable")
        self.left.append(left)
        self.right.append(right)
        self.scores.append(score)

    def coded(self) -> tuple[dict, np.ndarray, np.ndarray]:
        """({id: rank} in sorted id order, keys, scores): one entry per
        pair, its last row winning, in key order. Row-length arrays are
        reused in place or dropped once used, so at most three are alive
        at once."""
        left = np.frombuffer(self.left, np.int64)
        right = np.frombuffer(self.right, np.int64)
        scores = np.frombuffer(self.scores, np.float64)
        seen = list(self.codes)
        order = sorted(range(len(seen)), key=seen.__getitem__)
        rank = np.empty(len(seen), np.int64)
        rank[order] = np.arange(len(seen))
        left, right = rank[left], rank[right]
        keys = np.minimum(left, right)
        keys *= len(seen)
        keys += np.maximum(left, right, out=right)
        del left, right
        by_key = np.argsort(keys, kind="stable")
        keys = keys[by_key]
        last = np.ones(len(keys), bool)  # each key's last row
        last[:-1] = keys[1:] != keys[:-1]
        keys = keys[last]
        by_key = by_key[last]
        return {seen[c]: r for r, c in enumerate(order)}, keys, scores[by_key]


@dataclass(frozen=True)
class ClusteringConfig:
    """Knobs for span pruning and agglomerative clustering.

    `merge_threshold` is the inclusive stop threshold on average cluster-pair
    scores; `prune_ratio` is the fraction of the unit's token count kept as
    candidate spans; `gold_mention_mode` drops per-mention scores from pair
    score combination.
    """

    merge_threshold: float
    prune_ratio: float
    gold_mention_mode: bool = False
    max_span_width: int = 15

    # tuned per mention type: (merge_threshold, prune_ratio, max_span_width)
    DEFAULTS: ClassVar[dict[str, tuple[float, float, int]]] = {
        "event": (0.65, 0.25, 10),
        "entity": (0.6, 0.35, 15),
        "all": (0.55, 0.4, 15),
    }

    def __post_init__(self):
        if not math.isfinite(self.merge_threshold):
            raise ValueError("merge_threshold must be finite")
        if not (0.0 < self.prune_ratio <= 1.0):
            raise ValueError("prune_ratio must lie in (0, 1]")
        if self.max_span_width < 1:
            raise ValueError("max_span_width must be at least 1")

    @classmethod
    def for_mention_type(
        cls, mention_type: str, gold_mention_mode: bool = False
    ) -> "ClusteringConfig":
        try:
            threshold, ratio, width = cls.DEFAULTS[mention_type]
        except KeyError:
            raise ValueError(f"unknown mention type {mention_type!r}") from None
        return cls(
            merge_threshold=threshold,
            prune_ratio=ratio,
            gold_mention_mode=gold_mention_mode,
            max_span_width=width,
        )


def prune_spans(
    candidates: Sequence[Mention], prune_ratio: float, token_count: int
) -> list[Mention]:
    """Keep the floor(prune_ratio * token_count) best-scoring spans.

    Candidates sharing a span (say, one event and one entity) first
    collapse to the best-scoring one, the smaller mention_id on a tie, as
    spans are the identity that responses are scored on. Ties at the cut
    boundary go to the smaller (doc_id, start_token, end_token). Returns
    fewer spans only when fewer exist; output order is score-descending
    with the same tie rule. Every score must be finite, as a NaN would
    make the ranking depend on the input order.
    """
    if token_count < 0:
        raise ValueError("token_count must be non-negative")
    # the candidate named is the smallest id, whatever the input order
    unscored = [m.mention_id for m in candidates if m.mention_score is None]
    if unscored:
        raise SchemaError(f"candidate {min(unscored)!r} has no mention score")
    bad = [(m.mention_id, m.mention_score)
           for m in candidates if not math.isfinite(m.mention_score)]
    if bad:
        raise SchemaError("candidate %r: mention score must be finite, got %r" % min(bad))
    # epsilon guards against 0.3 * 10 = 2.9999... style float artifacts
    budget = math.floor(prune_ratio * token_count + 1e-9)
    ranked = sorted(
        candidates,
        key=lambda m: (-m.mention_score, m.doc_id, m.start_token, m.end_token, m.mention_id),
    )
    # each span's first candidate in rank order is its best; the dict
    # keeps the spans in that order
    best: dict = {}
    for m in ranked:
        if len(best) >= budget:
            break
        best.setdefault(m.span(), m)
    return list(best.values())


def combine_pair_score(
    mention_score_i: float,
    mention_score_j: float,
    pair_score: float,
    gold_mention_mode: bool = False,
) -> float:
    """Combine two span scores and one pairwise score into a merge score.

    Predicted-mention mode sums all three; gold-mention mode keeps only the
    pairwise term. Arguments may be numpy arrays, combined elementwise.
    """
    for v in (mention_score_i, mention_score_j, pair_score):
        bad = ~np.isfinite(v)
        if bad.any():
            raise ValueError(f"scores must be finite, got {float(np.asarray(v)[bad][0])!r}")
    if gold_mention_mode:
        return pair_score
    return mention_score_i + mention_score_j + pair_score


def generate_training_pairs(
    gold: Partition, negative_ratio: int = 20, seed: int = 0
) -> list[tuple[str, str, int]]:
    """Labeled mention pairs: all positives plus sampled negatives.

    Positives are every unordered within-cluster pair. Negatives are drawn
    uniformly without replacement from the cross-cluster pairs, capped at
    negative_ratio * len(positives). Fixed seed, fixed output order.
    """
    if negative_ratio < 1:
        raise ValueError("negative_ratio must be a positive integer")
    positives = [
        pair
        for cluster in gold.clusters
        for pair in combinations(sorted(cluster), 2)
    ]
    if not positives:
        warnings.warn("no positive pairs: every gold cluster is a singleton")
        return []
    negatives = [
        tuple(sorted((a, b)))
        for ci, cj in combinations(gold.clusters, 2)
        for a in sorted(ci)
        for b in sorted(cj)
    ]
    wanted = min(negative_ratio * len(positives), len(negatives))
    sampled = random.Random(seed).sample(negatives, wanted)
    return [(a, b, 1) for a, b in positives] + [(a, b, 0) for a, b in sampled]


# --- score file I/O -----------------------------------------------------------


def read_score_file(path) -> ScoreTable:
    """Read a JSONL score file: rows {"m1", "m2", "score"}, optionally
    preceded by a {"default": real} header, finite or -Infinity.

    Every score, the default unless it is -Infinity, must be at most
    SCORE_BOUND in magnitude. Rows are checked and coded into flat arrays
    as they stream, so the first bad line raises, at `path:line`."""
    default = NEVER_MERGE
    rows = _PairRows(bound=SCORE_BOUND)
    add = rows.add
    for lineno, obj in read_jsonl(path):
        if "default" in obj and "m1" not in obj:
            default = obj["default"]
            if default != NEVER_MERGE:
                default = _bounded_score(default, f"{path}:{lineno}: default")
            continue
        try:
            m1, m2, score = obj["m1"], obj["m2"], obj["score"]
        except KeyError as e:
            raise SchemaError(f"{path}:{lineno}: missing field {e.args[0]!r}") from None
        if not (isinstance(m1, str) and isinstance(m2, str)):
            raise SchemaError(f"{path}:{lineno}: m1 and m2 must be mention id strings")
        try:
            add(m1, m2, score)
        except ValueError as e:
            raise SchemaError(f"{path}:{lineno}: {e}") from e
    return ScoreTable._from_rows(rows, default)


def write_score_file(path, table: ScoreTable) -> None:
    header = [] if table.default == NEVER_MERGE else [{"default": table.default}]
    rows = ({"m1": a, "m2": b, "score": score} for (a, b), score in table.items())
    write_jsonl(path, chain(header, rows))


def read_mention_scores(path) -> dict[str, float]:
    """Read a JSONL file of rows {"mention_id", "score"}; a score must be a
    finite number of magnitude at most SCORE_BOUND."""
    scores: dict[str, float] = {}
    for lineno, obj in read_jsonl(path):
        if "mention_id" not in obj or "score" not in obj:
            raise SchemaError(f"{path}:{lineno}: expected mention_id and score")
        mention_id, score = obj["mention_id"], obj["score"]
        if not isinstance(mention_id, str):
            raise SchemaError(f"{path}:{lineno}: mention_id must be a string")
        scores[mention_id] = _bounded_score(score, f"{path}:{lineno}: score")
    return scores


def write_training_pairs(path, pairs: Iterable[tuple[str, str, int]]) -> None:
    """Write JSONL rows {"m1", "m2", "label"} to `path`, or to stdout when
    `path` is None."""
    write_jsonl(path, ({"m1": m1, "m2": m2, "label": label} for m1, m2, label in pairs))
