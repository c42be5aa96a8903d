"""The example scripts the README documents run to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("singleton_study.py", []),
        ("pipeline_demo.py", ["--out", "{tmp}"]),
        ("linkage_crossover.py", ["--sizes", "6", "9", "--repeats", "1"]),
        ("linkage_crossover.py", ["--blocks", "1", "3", "--sizes", "6", "9", "--repeats", "1"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script),
         *(a.format(tmp=tmp_path) for a in args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
