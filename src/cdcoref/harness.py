"""End-to-end orchestration: evaluation units, pipeline runs, config files.

A pipeline run selects mentions per evaluation unit (a set of documents),
clusters them, and pools the per-unit clusters into one response partition
that is scored once against the corpus-wide key. Response clusters never
cross units; key clusters are left whole, so gold clusters spanning units
penalize per-unit responses instead of being macro-averaged away.

Key/response matching uses exact span identity (doc_id, start_token,
end_token), so predicted spans line up with gold spans regardless of ids.

A `Corpus` is never mutated after construction, so what depends only on
the corpus and the unit settings, never on tau, is computed once per
`Corpus` instance and kept on it: the evaluation units per (unit_level,
doc_threshold), predicted topics included, and the span-keyed gold key per
mention_type. Repeated runs on one loaded corpus, such as an in-process
tau sweep, gain; a one-shot `cdcoref pipeline` or `cluster` run does the
same work as before.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .clustering import (
    ClusteringConfig,
    ScoreTable,
    cluster_components,
    combine_pair_score,
    prune_spans,
    read_mention_scores,
    read_score_file,
)
from .corpus import (
    Corpus,
    InvariantError,
    Mention,
    Partition,
    SchemaError,
    _partition_columns,
    _require,
    load_candidates,
    load_corpus,
    load_partition_file,
    read_json,
    save_partition_file,
)
from .metrics import SINGLETON_POLICIES, MetricReport, _Overlap, _report, evaluate
# cluster_documents and tfidf_vectors stay bound here unused, as
# perfbench/spans.py wraps them by these names
from .topics import cluster_documents, group_documents, tfidf_vectors  # noqa: F401

UNIT_LEVELS = ("gold_subtopic", "gold_topic", "predicted_topic", "corpus")
MENTION_SOURCES = ("gold", "predicted")
MENTION_TYPE_CHOICES = ("event", "entity", "all")


@dataclass(frozen=True)
class EvalConfig:
    """Full configuration of one evaluation run."""

    unit_level: str = "gold_topic"
    mention_source: str = "gold"
    singleton_policy: str = "included"
    mention_type: str = "all"
    clustering: ClusteringConfig | None = None
    doc_threshold: float | None = None
    apply_sigmoid: bool = False

    def __post_init__(self):
        if self.unit_level not in UNIT_LEVELS:
            raise ValueError(f"unknown unit_level {self.unit_level!r}")
        if self.mention_source not in MENTION_SOURCES:
            raise ValueError(f"unknown mention_source {self.mention_source!r}")
        if self.singleton_policy not in SINGLETON_POLICIES:
            raise ValueError(f"unknown singleton_policy {self.singleton_policy!r}")
        if self.mention_type not in MENTION_TYPE_CHOICES:
            raise ValueError(f"unknown mention_type {self.mention_type!r}")
        if self.unit_level == "predicted_topic":
            if self.doc_threshold is None or not math.isfinite(self.doc_threshold):
                raise ValueError("predicted_topic requires a finite doc_threshold")
        if self.clustering is None:
            object.__setattr__(
                self,
                "clustering",
                ClusteringConfig.for_mention_type(
                    self.mention_type,
                    gold_mention_mode=self.mention_source == "gold",
                ),
            )


def _memoized(corpus: Corpus, key: tuple, compute):
    """`compute()`, computed once per corpus instance and `key`."""
    memo = corpus._memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def evaluation_units(
    corpus: Corpus, config: EvalConfig
) -> list[tuple[str, frozenset[str]]]:
    """Deterministically ordered (unit_id, doc_ids) pairs for one run,
    grouped once per corpus, unit_level and doc_threshold."""
    key = ("units", config.unit_level, config.doc_threshold)
    return list(_memoized(corpus, key, lambda: _units(corpus, config)))


def _units(corpus: Corpus, config: EvalConfig) -> tuple[tuple[str, frozenset[str]], ...]:
    if config.unit_level == "corpus":
        return (("corpus", frozenset(corpus.documents)),)
    if config.unit_level == "predicted_topic":
        docs = [corpus.documents[d] for d in sorted(corpus.documents)]
        clusters = group_documents(docs, config.doc_threshold)
        return tuple(
            (f"predicted_{i}", frozenset(cluster))
            for i, cluster in enumerate(clusters)
        )
    groups: dict[str, set[str]] = {}
    for doc in corpus.documents.values():
        if config.unit_level == "gold_topic":
            unit_id = doc.topic_id
        else:
            unit_id = f"{doc.topic_id}/{doc.subtopic_id}"
        groups.setdefault(unit_id, set()).add(doc.doc_id)
    return tuple((uid, frozenset(groups[uid])) for uid in sorted(groups))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _combined_scores(
    unit: Sequence[Mention],
    pair_scores: ScoreTable,
    config: ClusteringConfig,
    apply_sigmoid: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Final merge scores of one unit's scored pairs, `unit` sorted by
    mention id: positions i < j in row-major order, and their scores. A
    mention's span score is its `mention_score`. Under a finite table
    default every pair is scored; otherwise only the pairs that the table
    holds, and the rest are never merged, with or without the sigmoid."""
    n = len(unit)
    i, j, raw = pair_scores.pairs([m.mention_id for m in unit])
    if pair_scores.default != -np.inf:
        full = np.full(n * (n - 1) // 2, pair_scores.default)
        full[i * (2 * n - i - 1) // 2 + j - i - 1] = raw
        (i, j), raw = np.triu_indices(n, 1), full
    if config.gold_mention_mode:
        scored = combine_pair_score(0.0, 0.0, raw, gold_mention_mode=True)
    else:
        spans = np.array([m.mention_score for m in unit], float)  # None reads as NaN
        missing = np.isnan(spans)
        unscored = np.union1d(i[missing[i]], j[missing[j]])
        if unscored.size:
            raise SchemaError(f"mention {unit[unscored[0]].mention_id!r} has no mention score")
        scored = combine_pair_score(spans[i], spans[j], raw)
    if apply_sigmoid:
        # math.exp, not np.exp: the two differ in the last bit on some inputs
        scored = np.array([_sigmoid(s) for s in scored.tolist()])
    return i, j, scored


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Per position, the smallest position of its connected component in
    the graph on n positions with edges (i, j). Each round hooks every root
    that an edge joins to a smaller root onto the smallest such root, then
    jumps pointers until every label is a root."""
    label = np.arange(n)
    while True:
        a, b = label[i], label[j]
        apart = a != b
        if not apart.any():
            return label
        a, b = a[apart], b[apart]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := label[label], label):
            label = up


def _component_arrays(
    unit: Sequence[Mention], i: np.ndarray, j: np.ndarray, scored: np.ndarray
) -> tuple[list[frozenset], list[tuple[list[Mention], np.ndarray]]]:
    """Split one unit, sorted by mention id, with its scored pairs from
    `_combined_scores`, at the connected components of its scored-pair
    graph: no merge can join two components, as their cross sums are -inf.
    Returns a singleton per mention in no scored pair, and per component of
    two or more mentions, its mentions and their symmetric (m, m) score
    array, -inf on the diagonal, for `cluster_components`, which checks
    nothing again. Errors are those of `average_link` on the whole unit."""
    ids = [m.mention_id for m in unit]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate items")
    bad = np.flatnonzero(np.isnan(scored) | (scored == np.inf))
    if bad.size:
        k = bad[0]
        raise ValueError(f"bad score {float(scored[k])!r} for ({ids[i[k]]!r}, {ids[j[k]]!r})")
    n = len(unit)
    if n > 1 and len(i) == n * (n - 1) // 2:  # all pairs scored: no labelling
        scores = np.full((n, n), -np.inf)
        upper = ~np.tri(n, dtype=bool)  # all (i, j), in row-major order
        scores[upper] = scores.T[upper] = scored
        return [], [(unit, scores)]
    label = _components(n, i, j)
    size = np.bincount(label, minlength=n)
    members = np.argsort(label, kind="stable")  # by component, then position
    first = np.cumsum(size) - size  # where each component starts in members
    rank = np.empty(n, dtype=np.int64)  # position within its component
    rank[members] = np.arange(n) - first[label[members]]
    # one buffer holds each component's m x m cells in turn, row-major; the
    # row of position p starts at cell row[p]
    cells = np.where(size > 1, size * size, 0)
    start = np.cumsum(cells) - cells
    row = start[label] + rank * size[label]
    buffer = np.full(int(cells.sum()), -np.inf)
    buffer[row[i] + rank[j]] = buffer[row[j] + rank[i]] = scored
    roots = np.flatnonzero(size > 1)
    components = [
        ([unit[p] for p in members[first[r] : first[r] + m].tolist()],
         buffer[start[r] : start[r] + m * m].reshape(m, m))
        for r, m in zip(roots.tolist(), size[roots].tolist())
    ]
    singletons = [frozenset([ids[p]]) for p in np.flatnonzero(size[label] == 1).tolist()]
    return singletons, components


def partition_on_spans(
    partition: Partition, mentions: Sequence[Mention]
) -> Partition:
    """Re-key a partition from mention ids to span identity.

    Mentions with identical spans inside one cluster collapse into one;
    identical spans across clusters violate disjointness and raise.
    """
    spans = {m.mention_id: m.span() for m in mentions}
    missing = partition.mentions() - spans.keys()
    if missing:
        raise SchemaError(f"partition references unknown mentions: {sorted(missing)[:5]}")
    span = spans.__getitem__
    try:
        return Partition(frozenset(map(span, c)) for c in partition.clusters)
    except InvariantError as e:
        raise InvariantError(f"span identity is ambiguous across clusters: {e}") from e


def build_response(
    corpus: Corpus,
    config: EvalConfig,
    pair_scores: ScoreTable | None = None,
    mention_scores: Mapping[str, float] | None = None,
    candidates: Sequence[Mention] | None = None,
) -> tuple[Partition, list[Mention]]:
    """Cluster per evaluation unit and pool the clusters.

    Returns the pooled response partition over mention ids, plus the mentions
    that survived selection (gold or pruned), with `mention_scores` applied.
    """
    if pair_scores is None:
        pair_scores = ScoreTable()

    if config.mention_source == "predicted":
        if candidates is None:
            raise SchemaError("predicted mention_source requires candidate mentions")
        pool = [
            m
            for m in candidates
            if (config.mention_type == "all" or m.mention_type == config.mention_type)
            and m.width() <= config.clustering.max_span_width
        ]
    else:
        pool = corpus.mentions_of_type(config.mention_type)
    if mention_scores is not None:
        pool = [
            m
            if m.mention_id not in mention_scores
            else Mention(
                m.mention_id,
                m.doc_id,
                m.start_token,
                m.end_token,
                m.mention_type,
                m.head_lemma,
                mention_scores[m.mention_id],
            )
            for m in pool
        ]

    units = evaluation_units(corpus, config)
    unit_of_doc = {d: u for u, (_, doc_ids) in enumerate(units) for d in doc_ids}
    members: list[list[Mention]] = [[] for _ in units]
    for m in pool:
        if m.doc_id in unit_of_doc:
            members[unit_of_doc[m.doc_id]].append(m)

    response_clusters: list[frozenset] = []
    response_mentions: list[Mention] = []
    components = []  # of every unit: no merge crosses a unit
    for (_, doc_ids), unit in zip(units, members):
        if config.mention_source == "predicted":
            unit = prune_spans(
                unit, config.clustering.prune_ratio, corpus.token_count(doc_ids)
            )
        if not unit:
            continue
        response_mentions.extend(unit)
        unit = sorted(unit, key=lambda m: m.mention_id)
        # the unit's pair arrays are freed before the next unit's are built
        singletons, unit_components = _component_arrays(
            unit,
            *_combined_scores(unit, pair_scores, config.clustering, config.apply_sigmoid),
        )
        response_clusters.extend(singletons)
        components.extend(unit_components)
    for clusters, _ in cluster_components(components, config.clustering.merge_threshold):
        response_clusters.extend(clusters)
    return Partition(response_clusters), response_mentions


def run_pipeline(
    corpus: Corpus,
    config: EvalConfig,
    pair_scores: ScoreTable | None = None,
    mention_scores: Mapping[str, float] | None = None,
    candidates: Sequence[Mention] | None = None,
) -> tuple[Partition, MetricReport]:
    """Cluster per evaluation unit, pool, and score against the gold key.

    Returns the pooled response partition (over mention ids) and the metric
    report computed on span identity under the configured singleton policy.
    """
    response, response_mentions = build_response(
        corpus, config, pair_scores, mention_scores, candidates
    )
    return response, _score_response(corpus, config, response, response_mentions)


def _score_response(
    corpus: Corpus, config: EvalConfig, response: Partition, mentions: Sequence[Mention]
) -> MetricReport:
    return evaluate(
        _memoized(corpus, ("key", config.mention_type), lambda: _span_key(corpus, config)),
        partition_on_spans(response, mentions),
        config.singleton_policy,
    )


def _span_key(corpus: Corpus, config: EvalConfig) -> Partition:
    """The gold key over span identity, restricted to the mention type."""
    gold = corpus.mentions_of_type(config.mention_type)
    key = corpus.gold_partition.restricted_to(m.mention_id for m in gold)
    return partition_on_spans(key, gold)


def response_members(response: Partition, mentions: Sequence[Mention]) -> list[Mention]:
    """The mention table of a response partition file: the members of each
    cluster in id order, cluster by cluster, taken from `mentions` (the
    selected mentions `build_response` returns)."""
    by_id = {m.mention_id: m for m in mentions}
    return [by_id[mid] for c in response.clusters for mid in sorted(c)]


# --- partition files and pipeline config files ---------------------------


def run_evaluation(key_path, response_path, singleton_policy: str) -> MetricReport:
    """Score two partition files against each other.

    When both files carry mention tables, matching happens on span identity;
    otherwise raw mention ids are compared directly. Reports and errors are
    those of `evaluate` on what `load_partition_file` and `partition_on_spans`
    return. When every check passes, no `Mention`, `Partition` or set is
    built, and the overlap table comes from joint integer codes of the two
    files' members; else that object path runs, and alone words the errors.
    """
    key = read_json(key_path, _partition_columns)
    # a bad key is reported before the response file is read
    response = None if key is None else read_json(response_path, _partition_columns)
    if response is not None and singleton_policy in SINGLETON_POLICIES:
        table = _coded_table(key, response, singleton_policy == "omitted")
        if table is not None:
            return _report(table, singleton_policy)
    key, key_mentions = load_partition_file(key_path)
    response, response_mentions = load_partition_file(response_path)
    if key_mentions is not None and response_mentions is not None:
        key = partition_on_spans(key, key_mentions)
        response = partition_on_spans(response, response_mentions)
    return evaluate(key, response, singleton_policy)


def _coded_table(key: tuple, response: tuple, omitted: bool) -> _Overlap | None:
    """The overlap table of two files' `_partition_columns`, or None where
    the object path raises or holds an offset outside int64. A member's
    code is its span's rank among the spans of both mention tables, so
    codes order as `Partition` orders spans (or ids, without both tables)."""
    (key_members, key_lengths, key_table), (members, lengths, table) = key, response
    if key_table is None or table is None:
        # ids match as they are: each member is a row with its id as doc id
        key_table, table = ((range(len(m)), m, [0] * len(m), [0] * len(m))
                            for m in (key_members, members))
    docs, n = key_table[1] + table[1], len(key_table[1]) + len(table[1])
    doc_rank = {d: r for r, d in enumerate(sorted(set(docs)))}
    try:
        spans = [np.fromiter(map(doc_rank.__getitem__, docs), np.int64, n),
                 *(np.array(key_table[k] + table[k], np.int64) for k in (2, 3))]
    except OverflowError:
        return None
    by_span = np.lexsort(spans[::-1])  # by document, then start, then end
    new = np.any([c[by_span[1:]] != c[by_span[:-1]] for c in spans], axis=0)
    span_code = np.empty(n, np.int64)
    span_code[by_span] = np.cumsum(np.r_[0, new])  # distinct spans before, in order
    codes = [span_code[np.array(key_table[0], np.int64)],
             span_code[np.array(table[0], np.int64) + len(key_table[1])]]
    sides = []
    for code, cluster_lengths in zip(codes, (key_lengths, lengths)):
        k = len(cluster_lengths)
        cluster = np.repeat(np.arange(k), cluster_lengths)
        of_code = np.full(n, k)  # k: in no cluster
        of_code[code] = cluster
        if (of_code[code] != cluster).any():  # a code in two clusters
            return None
        present = np.flatnonzero(of_code < k)
        sizes = np.bincount(of_code[present], minlength=k)  # each code once
        smallest = np.full(k, n)
        np.minimum.at(smallest, of_code[present], present)
        order = np.argsort(smallest)
        order = order[sizes[order] > 1] if omitted else order
        row = np.full(k + 1, -1)  # -1 for no cluster, or a dropped one
        row[order] = np.arange(len(order))
        sides.append((row[of_code], sizes[order]))
    (key_of, key_sizes), (response_of, response_sizes) = sides
    width = max(len(response_sizes), 1)
    shared = (key_of >= 0) & (response_of >= 0)
    return _Overlap(key_of[shared] * width + response_of[shared], width, key_sizes, response_sizes)


def _config_from_json(raw: Mapping, base: str) -> tuple[EvalConfig, dict]:
    """An EvalConfig and the input and output paths, resolved against `base`;
    an empty or absent optional path is None."""
    paths = {"corpus": os.path.join(base, _require(raw, "corpus", str, ""))}
    for key in ("scores", "mention_scores", "candidates", "output"):
        value = _require(raw, key, str, "", None)
        paths[key] = os.path.join(base, value) if value else None
    source = _require(raw, "mention_source", str, "", "gold")
    cc = _require(raw, "clustering", dict, "", None)
    try:
        clustering = None if cc is None else ClusteringConfig(
            merge_threshold=_require(cc, "tau", float, "clustering"),
            prune_ratio=_require(cc, "lambda", float, "clustering"),
            gold_mention_mode=_require(
                cc, "gold_mention_mode", bool, "clustering", source == "gold"
            ),
            max_span_width=_require(cc, "max_span_width", int, "clustering", 15),
        )
        config = EvalConfig(
            unit_level=_require(raw, "unit_level", str, "", "gold_topic"),
            mention_source=source,
            singleton_policy=_require(raw, "singleton_policy", str, "", "included"),
            mention_type=_require(raw, "mention_type", str, "", "all"),
            clustering=clustering,
            doc_threshold=_require(raw, "doc_threshold", float, "", None),
            apply_sigmoid=_require(raw, "sigmoid", bool, "", False),
        )
    except ValueError as e:
        raise SchemaError(str(e)) from e
    return config, paths


def run_pipeline_from_config(config_path) -> tuple[Partition, MetricReport]:
    """Execute a pipeline described by a JSON config file.

    The config mirrors EvalConfig plus input paths (resolved relative to the
    config file): {"corpus", "unit_level", "mention_source",
    "singleton_policy", "mention_type", "clustering": {"tau", "lambda",
    "gold_mention_mode", "max_span_width"}, "doc_threshold", "sigmoid",
    "scores", "mention_scores", "candidates", "output"}.
    """
    base = os.path.dirname(os.path.abspath(config_path))
    config, paths = read_json(config_path, lambda raw: _config_from_json(raw, base))
    corpus, response, mentions = _response_from_paths(config, paths)
    return response, _score_response(corpus, config, response, mentions)


def _response_from_paths(
    config: EvalConfig, paths: Mapping
) -> tuple[Corpus, Partition, list[Mention]]:
    """Load the inputs that `paths` names, build the pooled response, and
    write it with its mention table to the output path, if there is one.
    Returns the corpus, the response and the selected mentions."""
    corpus = load_corpus(paths["corpus"])
    pair_scores = read_score_file(paths["scores"]) if paths["scores"] else None
    mention_scores = (
        read_mention_scores(paths["mention_scores"]) if paths["mention_scores"] else None
    )
    candidates = load_candidates(paths["candidates"]) if paths["candidates"] else None
    response, mentions = build_response(
        corpus, config, pair_scores, mention_scores, candidates
    )
    if paths["output"]:
        save_partition_file(paths["output"], response, response_members(response, mentions))
    return corpus, response, mentions
