"""A traced smoke run of the benchmark on every workload.

`perfbench/run.py --trace 1` wraps names that cdcoref's modules bind, so
it fails when one of them is renamed or no longer bound. Each run starts
one process on tiny inputs and takes seconds.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("predicted-topic", "gold-corpus", "gold-predtopic", "evaluate-files")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", "1", "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
