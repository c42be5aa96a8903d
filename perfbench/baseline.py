#!/usr/bin/env python3
"""Measure the baseline of the current commit and write baseline.json.

Runs run.py once per seed on every workload untraced, exactly as
`python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`,
then once traced per workload. Records for each end-to-end metric its
median, quartiles and spread ((Q3 - Q1) / median, the steadiness the
benchmark's bounds are checked against), the per-layer metrics with each
layer's share of the traced op_s, and the run metadata (versions, nproc,
input sizes, ops per run, workload descriptors).

    python3 perfbench/baseline.py
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import run
import spans

SEEDS = range(1, 11)
OUT = os.path.join(run.HERE, "baseline.json")


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, run metadata) of one run.py invocation."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.HERE, ".out", f"{workload}-{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        return result, json.load(fh)


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    report: dict = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in run.FAMILY:
        values: dict = {}
        runs = []
        for seed in SEEDS:
            result, meta = bench(workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {meta['failures']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            runs.append({"seed": seed, "ops": meta["ops_per_run"],
                         **{k: m["value"] for k, m in result["metrics"].items()}})
            print(workload, runs[-1], flush=True)
        traced, tmeta = bench(workload, SEEDS[0], seconds, 1)
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        op_s = layers["trace.op_s"]
        report["workloads"][workload] = {
            "sizes": meta["sizes"],
            "ops_per_run": statistics.median(r["ops"] for r in runs),
            "end_to_end": {k: spread(v) for k, v in values.items()},
            "runs": runs,
            "layer_share_of_op_s": {
                layer: {"total": layers[f"{layer}.s"] / op_s,
                        "self": layers[f"{layer}.self_s"] / op_s}
                for layer in spans.LAYERS
            },
            "per_layer": layers,
            "descriptors": {k: m["value"] for k, m in tmeta["descriptors"].items()},
        }
        report["versions"] = meta["versions"]
        report["nproc"] = meta["nproc"]
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
