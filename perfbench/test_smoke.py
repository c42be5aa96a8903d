"""Smoke tests for the benchmark itself: tiny inputs, a few seconds in all.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def declared(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


@pytest.mark.parametrize("workload", sorted(run.FAMILY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == declared(kind)
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and m["unit"]
    if trace == "1":
        for name in spans.DESCRIPTORS:
            assert f"  {name} " in proc.stdout


def test_generator_is_deterministic_per_seed(tmp_path):
    for family in gen.GENERATORS:
        a, b, c = (tmp_path / x for x in "abc")
        gen.generate(family, "smoke", 3, a)
        gen.generate(family, "smoke", 3, b)
        gen.generate(family, "smoke", 4, c)
        files = sorted(os.listdir(a))
        assert files == sorted(os.listdir(b))
        assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
        assert any((a / f).read_bytes() != (c / f).read_bytes() for f in files)


def test_digest_mismatch_counts_as_failure():
    records = [{"op": "tau=0.5", "errors": [], "digest": "x"},
               {"op": "tau=0.6", "errors": [], "digest": "y"},
               {"op": "tau=0.5", "errors": [], "digest": "x"}]
    assert run.failures(records, ["x", "y"]) == []
    assert len(run.failures(records, ["x", "z"])) == 1
    records[2]["errors"] = ["boom"]
    assert len(run.failures(records, None)) == 1


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"))
    proc = bench("--workload", "gold-corpus", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
