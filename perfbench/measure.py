"""One benchmark process: set up one workload, run its operations, report.

Started fresh by run.py for every run, with `src` on PYTHONPATH and BLAS
pinned to one thread. It runs a single closed loop: the next operation
starts only after the previous one has returned. It prints one JSON line:
setup seconds (from the parent's spawn time to the first operation), every
operation's wall seconds, output digest and invariant errors, peak RSS, and
with --trace 1 the per-layer metrics.

    python3 measure.py --workload gold-corpus --inputs DIR --seconds 10 \
        --trace 0 --spawned-at <perf_counter of the parent at spawn>
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import replace

SWEEP_TAU = {
    # predicted mode merges on s_m(i) + s_m(j) + s_a, gold mode on s_a alone
    "predicted-topic": (1.0, 1.25, 1.5, 1.75),
    "gold-corpus": (0.6, 0.65, 0.7, 0.75),
    "gold-predtopic": (0.6, 0.65, 0.7, 0.75),
}
DOC_THRESHOLD = 0.05
POLICIES = {"include": "included", "omit": "omitted"}


def load(cd, workload: str, inputs: str) -> dict:
    """Load what stays fixed across operations, through harness bindings."""
    harness = cd.harness
    path = functools.partial(os.path.join, inputs)
    if workload == "evaluate-files":
        responses = sorted(f for f in os.listdir(inputs) if f.startswith("response_"))
        return {"key": path("key.json"), "responses": [path(f) for f in responses]}
    state = {
        "corpus": harness.load_corpus(path("corpus.json")),
        "pair_scores": harness.read_score_file(path("scores.jsonl")),
        "mention_scores": None,
        "candidates": None,
    }
    if workload == "predicted-topic":
        state["candidates"] = harness.load_candidates(path("candidates.json"))
        state["mention_scores"] = harness.read_mention_scores(path("mention_scores.jsonl"))
    return state


def pipeline_config(cd, workload: str, tau: float):
    gold = workload != "predicted-topic"
    clustering = replace(
        cd.ClusteringConfig.for_mention_type("event", gold_mention_mode=gold),
        merge_threshold=tau,
    )
    return cd.EvalConfig(
        unit_level={"predicted-topic": "gold_topic", "gold-corpus": "corpus",
                    "gold-predtopic": "predicted_topic"}[workload],
        mention_source="gold" if gold else "predicted",
        mention_type="event",
        clustering=clustering,
        doc_threshold=DOC_THRESHOLD if workload == "gold-predtopic" else None,
    )


def sweep(cd, workload: str, state: dict) -> list:
    """One pass over the workload's operations, as (label, callable)."""
    if workload == "evaluate-files":
        def score(response):
            out = io.StringIO()
            codes = []
            with contextlib.redirect_stdout(out):
                for flag in POLICIES:
                    codes.append(cd.cli.main(["evaluate", "--key", state["key"],
                                              "--response", response,
                                              "--singletons", flag, "--json"]))
            return codes, out.getvalue()

        return [(os.path.basename(r), functools.partial(score, r)) for r in state["responses"]]

    def pipeline(config):
        return cd.harness.run_pipeline(state["corpus"], config, state["pair_scores"],
                                       state["mention_scores"], state["candidates"])

    return [(f"tau={tau}", functools.partial(pipeline, pipeline_config(cd, workload, tau)))
            for tau in SWEEP_TAU[workload]]


# --- output checks -------------------------------------------------------------


def _report_errors(report: dict, policy: str) -> list[str]:
    errors = []
    values = [report["conll_f1"]] + [
        report[m][k] for m in ("muc", "b_cubed", "ceaf_e", "lea")
        for k in ("recall", "precision", "f1")
    ]
    if not all(0.0 <= v <= 100.0 for v in values):
        errors.append("score outside [0, 100]")
    mean = (report["muc"]["f1"] + report["b_cubed"]["f1"] + report["ceaf_e"]["f1"]) / 3
    if not math.isclose(report["conll_f1"], mean, rel_tol=1e-12, abs_tol=1e-9):
        errors.append("CoNLL F1 is not the mean of MUC, B3 and CEAFe F1")
    if report["singleton_policy"] != policy:
        errors.append(f"singleton_policy {report['singleton_policy']!r} != {policy!r}")
    return errors


def expected_selection(state: dict, config) -> set:
    """Mention ids a response must cover: every gold event mention, or per
    gold topic the floor(lambda * tokens) best event candidates, ranked by
    (-score, doc_id, start, end, id) as prune_spans documents."""
    corpus = state["corpus"]
    if config.mention_source == "gold":
        return {m.mention_id for m in corpus.gold_mentions if m.mention_type == "event"}
    scores = state["mention_scores"]
    topic = {d.doc_id: d.topic_id for d in corpus.documents.values()}
    tokens: dict = {}
    for d in corpus.documents.values():
        tokens[d.topic_id] = tokens.get(d.topic_id, 0) + len(d.tokens)
    by_unit: dict = {}
    for m in state["candidates"]:
        if m.mention_type == "event" and m.width() <= config.clustering.max_span_width:
            by_unit.setdefault(topic[m.doc_id], []).append(m)
    selected = set()
    for unit, ms in by_unit.items():
        budget = math.floor(config.clustering.prune_ratio * tokens[unit] + 1e-9)
        ms.sort(key=lambda m: (-scores[m.mention_id], m.doc_id, m.start_token,
                               m.end_token, m.mention_id))
        selected.update(m.mention_id for m in ms[:budget])
    return selected


def check(workload: str, state: dict, label: str, result, selections: dict):
    """(digest, errors) of one operation's output."""
    if workload == "evaluate-files":
        codes, text = result
        errors = [f"exit code {c}" for c in codes if c != 0]
        decoder = json.JSONDecoder()
        pos = 0
        for policy in POLICIES.values():
            report, pos = decoder.raw_decode(text, pos)
            pos += 1
            errors += _report_errors(report, policy)
        return hashlib.sha256(text.encode()).hexdigest(), errors
    partition, report = result
    canonical = json.dumps([sorted(c) for c in partition.clusters]) + "\n" + report.to_json()
    errors = _report_errors(report.to_dict(), "included")
    if partition.mentions() != selections[label]:
        errors.append("response does not cover exactly the selected mentions")
    return hashlib.sha256(canonical.encode()).hexdigest(), errors


# --- the loop --------------------------------------------------------------------


def run_ops(workload, state, ops, seconds, tracer, selections) -> list:
    """Whole sweeps until `seconds` have passed; one record per operation.

    With a tracer, sweeps alternate untraced and traced, starting untraced,
    so that drift in machine speed falls on both alike; each record says
    whether it was traced, and a traced op's spans carry its index.
    """
    records = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) // len(ops) % 2 == 1
        if traced:
            tracer.install()
        for label, op in ops:
            gc.collect()
            if traced:
                tracer.op = len(records)
            t0 = time.perf_counter()
            dt = None
            try:
                result = op()
                dt = time.perf_counter() - t0
                digest, errors = check(workload, state, label, result, selections)
            except Exception as e:  # any failure counts; the run goes on
                digest, errors = None, [f"{type(e).__name__}: {e}"]
            if dt is None:
                dt = time.perf_counter() - t0
            records.append({"op": label, "s": dt, "digest": digest, "errors": errors,
                            "traced": traced})
        if traced:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds and (tracer is None or traced):
            return records


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    import cdcoref as cd
    import cdcoref.cli  # noqa: F401  (binds cd.cli)

    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer({name: getattr(cd, name) for name in
                         ("harness", "clustering", "topics", "metrics", "cli")})
        tracer.install()
    state = load(cd, args.workload, args.inputs)
    setup_s = time.perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    ops = sweep(cd, args.workload, state)
    selections = {}
    if args.workload != "evaluate-files":
        for tau in SWEEP_TAU[args.workload]:
            config = pipeline_config(cd, args.workload, tau)
            selections[f"tau={tau}"] = expected_selection(state, config)

    if tracer is not None:
        tracer.uninstall()
    out = {"setup_s": setup_s}
    out["ops"] = records = run_ops(args.workload, state, ops, args.seconds, tracer, selections)
    if tracer is not None:
        traced = [i for i, r in enumerate(records) if r["traced"]]
        layers = layer_metrics(tracer, traced)
        untraced_s = statistics.median(r["s"] for r in records if not r["traced"])
        traced_s = statistics.median(records[i]["s"] for i in traced)
        layers.update({"trace.untraced_op_s": untraced_s, "trace.op_s": traced_s,
                       "trace.overhead_s": traced_s - untraced_s,
                       "trace.spans_per_op": sum(s[4] != "setup" for s in tracer.spans)
                       / len(traced)})
        out["layers"] = layers
        if args.spans_out:
            tracer.write(args.spans_out)

    import numpy
    import scipy

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "scipy": scipy.__version__}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
