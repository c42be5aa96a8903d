"""Span pruning, pairwise-score assembly, and mention clustering."""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from itertools import chain, combinations
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Mention, Partition, SchemaError, read_jsonl, write_jsonl
from .linkage import Merge, average_link

NEVER_MERGE = float("-inf")


class ScoreTable:
    """Symmetric pairwise scores keyed by unordered mention-id pairs.

    Absent pairs fall back to `default`, which is -inf ("never merge")
    unless configured otherwise. Entries must be finite; self-pairs are
    rejected. The table is not mutated after construction.
    """

    __slots__ = ("_entries", "default", "_coded")

    def __init__(self, entries: Mapping | None = None, default: float = NEVER_MERGE):
        if math.isnan(default):
            raise ValueError("default score must not be NaN")
        self.default = float(default)
        self._entries: dict[tuple, float] = {}
        self._coded = None
        for (a, b), score in (entries or {}).items():
            self._entries[_pair_key(a, b)] = _checked_score(score, a, b)

    @classmethod
    def from_pairs(
        cls, triples: Iterable[tuple], default: float = NEVER_MERGE
    ) -> "ScoreTable":
        """Build from (m1, m2, score) triples; later duplicates overwrite."""
        table = cls(default=default)
        for a, b, score in triples:
            table._entries[_pair_key(a, b)] = _checked_score(score, a, b)
        return table

    def get(self, a, b) -> float:
        return self._entries.get(_pair_key(a, b), self.default)

    def has(self, a, b) -> bool:
        return _pair_key(a, b) in self._entries

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    def matrix(self, ids: Sequence) -> np.ndarray:
        """Scores of all pairs of `ids` as an (n, n) float64 array, with the
        default for absent pairs and on the diagonal. O(len(self)) array
        work per call, after a one-time coding of the entries."""
        codes, left, right, values = self._arrays()
        rank = np.full(len(codes), -1)  # code -> position in ids, -1 if absent
        for k, x in enumerate(ids):
            if x in codes:
                rank[codes[x]] = k
        i, j = rank[left], rank[right]
        keep = (i >= 0) & (j >= 0)
        i, j, v = i[keep], j[keep], values[keep]
        out = np.full((len(ids), len(ids)), self.default)
        out[i, j] = v
        out[j, i] = v
        return out

    def _arrays(self) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
        """The entries as (id -> code, first-id codes, second-id codes,
        scores), built on first use."""
        if self._coded is None:
            codes: dict = {}
            left = [codes.setdefault(a, len(codes)) for a, _ in self._entries]
            right = [codes.setdefault(b, len(codes)) for _, b in self._entries]
            values = np.fromiter(self._entries.values(), np.float64, len(self._entries))
            self._coded = (codes, np.array(left, np.int64), np.array(right, np.int64), values)
        return self._coded


def _pair_key(a, b) -> tuple:
    if a == b:
        raise ValueError(f"self-pair ({a!r}, {a!r}) is not scorable")
    return (a, b) if a <= b else (b, a)


def _checked_score(score, a, b) -> float:
    score = float(score)
    if not math.isfinite(score):
        raise ValueError(f"score for ({a!r}, {b!r}) must be finite, got {score!r}")
    return score


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
    with the same tie rule.
    """
    if token_count < 0:
        raise ValueError("token_count must be non-negative")
    for m in candidates:
        if m.mention_score is None:
            raise SchemaError(f"candidate {m.mention_id!r} has no mention score")
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


def _mention_ids(mentions: Sequence) -> list[str]:
    return [m.mention_id if isinstance(m, Mention) else m for m in mentions]


def agglomerative_cluster_trace(
    mentions: Sequence, scores: ScoreTable | np.ndarray, merge_threshold: float
) -> tuple[Partition, list[Merge]]:
    """Average-link clustering of mentions; also returns the merge log.

    Accepts Mention objects or bare mention ids, and a ScoreTable or an
    (n, n) score array over the sorted mention ids. Every accepted merge in
    the log had average score >= merge_threshold at merge time.
    """
    pair_score = scores.get if isinstance(scores, ScoreTable) else scores
    final, merges = average_link(_mention_ids(mentions), pair_score, merge_threshold)
    return Partition(final), merges


def agglomerative_cluster(
    mentions: Sequence, scores: ScoreTable, merge_threshold: float
) -> Partition:
    return agglomerative_cluster_trace(mentions, scores, merge_threshold)[0]


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
    preceded by a {"default": real} header."""
    default = NEVER_MERGE
    triples = []
    for lineno, obj in read_jsonl(path):
        if "default" in obj and "m1" not in obj:
            default = obj["default"]
            if isinstance(default, bool) or not isinstance(default, (int, float)):
                raise SchemaError(f"{path}:{lineno}: default must be a number")
            continue
        try:
            m1, m2, score = obj["m1"], obj["m2"], obj["score"]
        except KeyError as e:
            raise SchemaError(f"{path}:{lineno}: missing field {e.args[0]!r}") from None
        if not (isinstance(m1, str) and isinstance(m2, str)):
            raise SchemaError(f"{path}:{lineno}: m1 and m2 must be mention id strings")
        # exact types reject bool; cheaper than isinstance on large files
        if type(score) is not float and type(score) is not int:
            raise SchemaError(f"{path}:{lineno}: score must be a number")
        triples.append((m1, m2, score))
    try:
        return ScoreTable.from_pairs(triples, default=float(default))
    except (ValueError, OverflowError) as e:
        raise SchemaError(f"{path}: {e}") from e


def write_score_file(path, table: ScoreTable) -> None:
    header = [] if table.default == NEVER_MERGE else [{"default": table.default}]
    rows = ({"m1": a, "m2": b, "score": score} for (a, b), score in sorted(table.items()))
    write_jsonl(path, chain(header, rows))


def read_mention_scores(path) -> dict[str, float]:
    """Read a JSONL file of rows {"mention_id", "score"}."""
    scores: dict[str, float] = {}
    for lineno, obj in read_jsonl(path):
        if "mention_id" not in obj or "score" not in obj:
            raise SchemaError(f"{path}:{lineno}: expected mention_id and score")
        mention_id, score = obj["mention_id"], obj["score"]
        if not isinstance(mention_id, str):
            raise SchemaError(f"{path}:{lineno}: mention_id must be a string")
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise SchemaError(f"{path}:{lineno}: score must be a number")
        try:
            scores[mention_id] = float(score)
        except OverflowError:
            raise SchemaError(f"{path}:{lineno}: score out of range") from None
    return scores


def write_training_pairs(path, pairs: Iterable[tuple[str, str, int]]) -> None:
    """Write JSONL rows {"m1", "m2", "label"} to `path`, or to stdout when
    `path` is None."""
    write_jsonl(path, ({"m1": m1, "m2": m2, "label": label} for m1, m2, label in pairs))
