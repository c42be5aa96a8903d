#!/usr/bin/env python3
"""Benchmark for cdcoref: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports cdcoref from `src` and needs
nothing installed. Each run:

1. generates the workload's inputs from the seed (gen.py, a separate
   process; cached per input family and seed under perfbench/.cache),
2. starts a fresh process (measure.py) that imports cdcoref, loads the
   inputs that stay fixed across operations, and runs whole sweeps of
   operations one after another until S seconds have passed,
3. with --trace 0, then starts SETUP_SAMPLES fresh processes that only set
   up, so that setup_s is a median,
4. checks every operation's output: digests recorded at the reference
   commit (references.json) for shipped seeds, structural invariants for
   every seed,
5. prints each metric with its unit, writes the full result with run
   metadata to perfbench/.out, and prints the result as the last line.

Workloads (all event mentions; the default "never merge" for unscored
pairs):
  predicted-topic  run_pipeline, predicted mentions, gold_topic units, a
                   tau sweep over shared inputs; dense scored graph per
                   unit, so linkage and score combination dominate
  gold-corpus      run_pipeline, gold mentions, one corpus-level unit with
                   about 12% of pairs scored on a coarse grid (ties)
  gold-predtopic   the gold-corpus inputs at predicted_topic units; TF-IDF
                   document grouping dominates
  evaluate-files   `cdcoref evaluate --json` in-process under both singleton
                   policies on distinct response files; CEAFe dominates

--trace 0 reports op_s (median seconds of one operation), setup_s (median
seconds from a fresh process to its first operation) and peak_rss_mb
(ru_maxrss of the measuring process). --trace 1 alternates untraced and
traced sweeps, and reports per-layer medians per traced operation,
setup-layer seconds and the tracing overhead (traced minus untraced op_s).
The metric names and units in the result line are those declared in
BENCHMARK.json. With --trace 1 the workload descriptors (counts fixed by the
inputs and outputs, such as linkage.mentions.n) are printed and written to
perfbench/.out too, but are not metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import DESCRIPTORS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FAMILY = {
    "predicted-topic": "predicted",
    "gold-corpus": "gold",
    "gold-predtopic": "gold",
    "evaluate-files": "files",
}
SETUP_SAMPLES = 10
CHILD_TIMEOUT = 150


def inputs_for(workload: str, seed: int, size: str) -> str:
    """Directory with the generated inputs, generating them once."""
    out = os.path.join(HERE, ".cache", f"{FAMILY[workload]}-{size}-{seed}")
    if not os.path.exists(os.path.join(out, "sizes.json")):
        tmp = f"{out}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                        "--family", FAMILY[workload], "--size", size,
                        "--seed", str(seed), "--out", tmp],
                       check=True, timeout=CHILD_TIMEOUT)
        shutil.rmtree(out, ignore_errors=True)
        os.replace(tmp, out)
    return out


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def measure(workload, inputs, seconds, trace, setup_only=False, spans_out=None) -> dict:
    """Run measure.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), "--workload", workload,
           "--inputs", inputs, "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=child_env(),
                          cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_references(workload: str, seed: int) -> list | None:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def failures(records: list, reference: list | None) -> list[str]:
    """One message per failed operation: an exception, a broken invariant,
    or (for shipped seeds) a digest that differs from the reference."""
    out = []
    for i, rec in enumerate(records):
        problems = list(rec["errors"])
        if reference is not None and rec["digest"] is not None:
            if rec["digest"] != reference[i % len(reference)]:
                problems.append("output differs from the reference digest")
        if problems:
            out.append(f"op {i} ({rec['op']}): {'; '.join(problems)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cdcoref benchmark")
    parser.add_argument("--workload", choices=sorted(FAMILY), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cdcoref", "__init__.py")):
        print(f"error: no cdcoref sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        inputs = inputs_for(args.workload, args.seed, args.size)
        with open(os.path.join(inputs, "sizes.json"), encoding="utf-8") as fh:
            sizes = json.load(fh)
        os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)
        stem = os.path.join(HERE, ".out", f"{args.workload}-{args.seed}-trace{args.trace}")
        result = measure(args.workload, inputs, args.seconds, args.trace,
                         spans_out=f"{stem}.spans.jsonl" if args.trace else None)
        # All samples follow the measurement, so each comes after the same
        # load: on a 2-vCPU VM, set-ups started before the measurement ran
        # up to 25% faster than those after it, and a median over both
        # groups jumped between them.
        setups = [measure(args.workload, inputs, 0, 0, setup_only=True)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_SAMPLES)]
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    records = result["ops"]
    reference = load_references(args.workload, args.seed) if args.size == "full" else None
    failed = failures(records, reference)
    for line in failed:
        print(f"FAILED {line}")
    summary = {
        "op_s": (statistics.median(r["s"] for r in records), "s"),
        "setup_s": (statistics.median(setups or [result["setup_s"]]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "fail_frac": (len(failed) / len(records), "ratio"),
    }
    values = result["layers"] if args.trace else {k: v for k, (v, _) in summary.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    descriptors = {name: {"value": values[name], "unit": unit}
                   for name, unit in DESCRIPTORS.items()} if args.trace else {}

    nproc = len(os.sched_getaffinity(0))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} ops in whole sweeps, closed loop, 1 caller")
    print(f"  inputs {json.dumps(sizes)}; {json.dumps(result['versions'])}; nproc {nproc}")
    for name, (value, unit) in summary.items():
        print(f"  {name:<36} {value:14.6g} {unit}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:14.6g} {m['unit']}")
        for name, m in descriptors.items():
            print(f"  {name:<36} {m['value']:14.6g} {m['unit']} (workload descriptor)")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "sizes": sizes,
        "ops_per_run": len(records), "setup_samples": setups,
        "versions": result["versions"], "nproc": nproc,
        "op_seconds": [r["s"] for r in records],
        "reference_checked": reference is not None,
        "summary": {k: v for k, (v, _) in summary.items()},
        "metrics": metrics, "descriptors": descriptors, "failures": failed,
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
