"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: `Tracer.install` replaces the
public names that cdcoref's modules bind (for example `average_link` as
bound in `cdcoref.clustering`) with timing wrappers, and `uninstall` puts
the originals back. Per-pair callables such as `ScoreTable.get` are never
wrapped; their counts are derived from n. `cosine` and `DocVector.norm` are
per-pair too but cheap enough to count (cosine also accumulates its time),
and they record no span.

Each span is [name, start, end, parent index, op id, covered seconds], where
covered is the time its children took, so self time = end - start - covered.
Spans stay in memory until `write` is called at the end of the run.

Which end-to-end metric each layer metric should move, and where:
  linkage.mentions.*        op_s, peak_rss_mb on gold-corpus, predicted-topic
  linkage.documents.*       op_s on gold-predtopic
  harness.build_response.self_s (score combination, pool filtering)
                            op_s on predicted-topic, less on gold-corpus
  harness.evaluation_units.s, topics.*
                            op_s on gold-predtopic only
  clustering.prune_spans.*  op_s on predicted-topic (small share)
  setup layers (corpus.load_corpus.s, clustering.read_score_file.*,
  clustering.read_mention_scores.s, harness.load_candidates.s)
                            setup_s on the three pipeline workloads
  metrics.*, corpus.filter_singletons.s
                            op_s on evaluate-files, ~1% of predicted-topic
  harness.load_partition_file.s, harness.partition_on_spans.s, cli.main.self_s
                            op_s on evaluate-files
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("corpus", "clustering", "linkage", "harness", "metrics", "topics", "cli")

# Counts that the inputs and the (digest-checked) outputs fix, so no change
# to the program can move them: reported with the traced run to describe
# the workload, but not declared as per-layer metrics.
DESCRIPTORS = {
    "linkage.mentions.n": "count",
    "linkage.mentions.pairs": "count",
    "linkage.mentions.merges": "count",
    "linkage.mentions.scored_frac": "ratio",
    "linkage.documents.n": "count",
    "clustering.prune_spans.in": "count",
    "clustering.prune_spans.kept": "count",
    "clustering.read_score_file.rows": "count",
    "metrics.ceaf_e.cells": "count",
    "metrics.ceaf_e.nonzero_frac": "ratio",
}

# (module, bound attribute, span name); a module lists a name it binds when
# the call path looks it up there. The benchmark itself calls the harness
# and cli entry points through these same bindings.
SPANS = [
    ("harness", "load_corpus", "corpus.load_corpus"),
    ("harness", "read_score_file", "clustering.read_score_file"),
    ("harness", "read_mention_scores", "clustering.read_mention_scores"),
    ("harness", "load_candidates", "harness.load_candidates"),
    ("harness", "run_pipeline", "harness.run_pipeline"),
    ("harness", "build_response", "harness.build_response"),
    ("harness", "evaluation_units", "harness.evaluation_units"),
    ("harness", "prune_spans", "clustering.prune_spans"),
    ("harness", "tfidf_vectors", "topics.tfidf_vectors"),
    ("harness", "cluster_documents", "topics.cluster_documents"),
    ("harness", "partition_on_spans", "harness.partition_on_spans"),
    ("harness", "evaluate", "metrics.evaluate"),
    ("harness", "load_partition_file", "harness.load_partition_file"),
    ("cli", "run_evaluation", "harness.run_evaluation"),
    ("cli", "main", "cli.main"),
    ("clustering", "average_link", "linkage.mentions"),
    ("topics", "average_link", "linkage.documents"),
    ("metrics", "muc", "metrics.muc"),
    ("metrics", "b_cubed", "metrics.b_cubed"),
    ("metrics", "ceaf_e", "metrics.ceaf_e"),
    ("metrics", "lea", "metrics.lea"),
    ("metrics", "optimal_alignment", "metrics.optimal_alignment"),
    ("metrics", "filter_singletons", "corpus.filter_singletons"),
]


def _linkage_counts(args, result) -> dict:
    items, pair_score = args[0], args[1]
    n = len(items)
    counts = {"n": n, "pairs": n * (n - 1) // 2, "merges": len(result[1])}
    # the combined ScoreTable stores finite entries only; -inf is its default
    table = getattr(pair_score, "__self__", None)
    if table is not None:
        counts["finite"] = len(table)
    return counts


def _ceaf_counts(args, result) -> dict:
    key, response = args
    index = response.mention_index
    nonzero = {(i, index[m]) for m, i in key.mention_index.items() if m in index}
    return {"cells": len(key.clusters) * len(response.clusters), "nonzero": len(nonzero)}


COUNTERS = {
    "linkage.mentions": _linkage_counts,
    "linkage.documents": _linkage_counts,
    "clustering.prune_spans": lambda args, result: {"in": len(args[0]), "kept": len(result)},
    "clustering.read_score_file": lambda args, result: {"rows": len(result)},
    "topics.tfidf_vectors": lambda args, result: {"docs": len(args[0])},
    "metrics.ceaf_e": _ceaf_counts,
}


class Tracer:
    """Records spans and counts around cdcoref's public functions."""

    def __init__(self, cdcoref_modules: dict):
        self.modules = cdcoref_modules
        self.spans: list[list] = []
        self.counts: dict = defaultdict(float)
        self.stack: list[int] = []
        self.op = "setup"
        self._originals: list = []

    def _count(self, key: str, value: float) -> None:
        self.counts[self.op, key] += value

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self.stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    self._count(f"{name}.{key}", value)
            if stack:
                # the parent's self time excludes this span and its counting
                spans[stack[-1]][5] += perf_counter() - span[1]
            return result

        return wrapper

    def _wrap_cosine(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(u, v):
            t0 = perf_counter()
            result = fn(u, v)
            dt = perf_counter() - t0
            self.counts[self.op, "topics.cosine.calls"] += 1
            self.counts[self.op, "topics.cosine.s"] += dt
            if stack:
                spans[stack[-1]][5] += dt
            return result

        return wrapper

    def _wrap_norm(self, fn):
        @functools.wraps(fn)
        def wrapper(vec):
            self.counts[self.op, "topics.norm.calls"] += 1
            return fn(vec)

        return wrapper

    def _patch(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(self.modules[module], attr, functools.partial(self._wrap, name))
        topics = self.modules["topics"]
        self._patch(topics, "cosine", self._wrap_cosine)
        self._patch(topics.DocVector, "norm", self._wrap_norm)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, covered in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "self": end - start - covered}) + "\n")

    def per_op(self) -> dict:
        """{op id: {metric: value}} with calls, total and self seconds per
        span name and per layer, plus the recorded counts."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, op, covered in self.spans:
            row = out[op]
            dur = end - start
            row[f"{name}.calls"] += 1
            row[f"{name}.s"] += dur
            row[f"{name}.self_s"] += dur - covered
            layer = name.split(".", 1)[0]
            row[f"{layer}.self_s"] += dur - covered
            # a layer's total counts only its outermost spans
            p = parent
            while p != -1 and not self.spans[p][0].startswith(layer + "."):
                p = self.spans[p][3]
            if p == -1:
                row[f"{layer}.calls"] += 1
                row[f"{layer}.s"] += dur
        for (op, key), value in self.counts.items():
            out[op][key] += value
            if key == "topics.cosine.s":
                out[op]["topics.self_s"] += value
        return out


def layer_metrics(tracer: Tracer, op_ids: list) -> dict:
    """Per-layer metrics: medians over the traced ops, plus setup spans."""
    rows = tracer.per_op()

    def med(key: str) -> float:
        return statistics.median(rows[op].get(key, 0.0) for op in op_ids)

    def ratio(num: str, den: str) -> float:
        return statistics.median(
            rows[op].get(num, 0.0) / rows[op][den] if rows[op].get(den) else 0.0
            for op in op_ids
        )

    setup = rows["setup"]
    metrics = {}
    for layer in LAYERS:
        for suffix in ("calls", "s", "self_s"):
            metrics[f"{layer}.{suffix}"] = med(f"{layer}.{suffix}")
    for key in (
        "linkage.mentions.s", "linkage.mentions.n", "linkage.mentions.pairs",
        "linkage.mentions.merges", "linkage.documents.s", "linkage.documents.n",
        "harness.build_response.s", "harness.build_response.self_s",
        "harness.evaluation_units.s", "topics.tfidf_vectors.s",
        "topics.cluster_documents.s", "topics.cosine.calls", "topics.cosine.s",
        "clustering.prune_spans.s", "clustering.prune_spans.in",
        "clustering.prune_spans.kept", "metrics.evaluate.s", "metrics.muc.s",
        "metrics.b_cubed.s", "metrics.lea.s", "metrics.ceaf_e.s",
        "metrics.ceaf_e.self_s", "metrics.optimal_alignment.s",
        "metrics.ceaf_e.cells", "corpus.filter_singletons.s",
        "harness.load_partition_file.s", "harness.partition_on_spans.s",
        "cli.main.s", "cli.main.self_s",
    ):
        metrics[key] = med(key)
    metrics["linkage.mentions.scored_frac"] = ratio(
        "linkage.mentions.finite", "linkage.mentions.pairs")
    metrics["metrics.ceaf_e.nonzero_frac"] = ratio(
        "metrics.ceaf_e.nonzero", "metrics.ceaf_e.cells")
    metrics["topics.norm_calls_per_doc"] = ratio(
        "topics.norm.calls", "topics.tfidf_vectors.docs")
    for key in ("corpus.load_corpus.s", "clustering.read_score_file.s",
                "clustering.read_mention_scores.s", "harness.load_candidates.s"):
        metrics[key] = setup.get(key, 0.0)
    metrics["clustering.read_score_file.rows"] = setup.get(
        "clustering.read_score_file.rows", 0.0)
    return metrics
