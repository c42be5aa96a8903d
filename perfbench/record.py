#!/usr/bin/env python3
"""Record the reference output digests that run.py checks operations against.

For every workload and seed, runs one sweep of operations in a fresh
measuring process and stores each operation's output digest (sha256 of the
canonical response partition plus MetricReport.to_json(), or of the
captured `cdcoref evaluate` stdout) in references.json. Run it only on a
commit whose outputs are the reference; a later commit must reproduce these
digests byte for byte.

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import shutil

import run

REFERENCE_SEEDS = range(0, 20)


def main() -> None:
    digests: dict = {w: {} for w in run.FAMILY}
    for seed in REFERENCE_SEEDS:
        made = set()
        for workload in run.FAMILY:
            inputs = run.inputs_for(workload, seed, "full")
            made.add(inputs)
            records = run.measure(workload, inputs, 0, 0)["ops"]
            bad = [r for r in records if r["errors"] or r["digest"] is None]
            if bad:
                raise SystemExit(f"{workload} seed {seed}: {bad}")
            digests[workload][str(seed)] = [r["digest"] for r in records]
            print(workload, seed, len(records), "ops", flush=True)
        for inputs in made:
            shutil.rmtree(inputs, ignore_errors=True)
    path = os.path.join(run.HERE, "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
