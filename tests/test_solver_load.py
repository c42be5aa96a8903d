"""CEAFe's solver, scipy's compiled `linear_sum_assignment`, loaded from its
extension `scipy.optimize._lsap` alone.

`metrics` loads that extension without importing the `scipy.optimize`
package and registers it under its own name, so a later
`import scipy.optimize` reuses it; if the direct load fails, the public
import is the fallback, and reports are the same bytes either way.
"""

import json
import os
import subprocess
import sys

import pytest

from helpers import ROOT, run_python

IDENTITY = """
import json, sys
ORDER
from scipy.optimize import _lsap
print(json.dumps([
    scipy.optimize.linear_sum_assignment is cdcoref.metrics.linear_sum_assignment,
    _lsap is sys.modules["scipy.optimize._lsap"],
    _lsap.linear_sum_assignment is cdcoref.metrics.linear_sum_assignment,
]))
"""

# each makes the direct load fail without touching the import system that
# the fallback's `from scipy.optimize import ...` goes through
BREAKS = {
    "extension not found": """
import importlib.machinery
# keeps the name: importlib.abc registers machinery.FileFinder by name
class FileFinder(importlib.machinery.FileFinder):
    def find_spec(self, fullname, target=None):
        return None
importlib.machinery.FileFinder = FileFinder
""",
    "load raises": """
import importlib.util
create = importlib.util.module_from_spec
def module_from_spec(spec):
    create(spec)
    raise ImportError("no " + spec.name)
importlib.util.module_from_spec = module_from_spec
""",
    "scipy not found": """
import importlib.util
importlib.util.find_spec = lambda name, package=None: None
""",
}

EVALUATE = """
import contextlib, io, json, sys
BREAK
import cdcoref.metrics
from cdcoref.cli import main
# the public import is the only route to the package
fallback = "scipy.optimize" in sys.modules
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
import scipy.optimize
print(json.dumps([runs, fallback,
                  cdcoref.metrics.linear_sum_assignment is scipy.optimize.linear_sum_assignment]))
"""


@pytest.mark.parametrize("order", [
    "import cdcoref.metrics\nimport scipy.optimize",
    "import scipy.optimize\nimport cdcoref.metrics",
])
def test_metrics_calls_scipys_own_function(order):
    assert run_python(IDENTITY.replace("ORDER", order)) == [True, True, True]


@pytest.fixture(scope="module")
def smoke_files(tmp_path_factory):
    """perfbench's `files` inputs at smoke size: a key and four responses
    with mention tables."""
    out = tmp_path_factory.mktemp("files")
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "gen.py"), "--family", "files",
         "--size", "smoke", "--seed", "7", "--out", str(out)],
        check=True, capture_output=True, timeout=120,
    )
    return out


@pytest.mark.parametrize("failure", sorted(BREAKS))
def test_fallback_gives_identical_reports(smoke_files, failure):
    argvs = [["evaluate", "--key", str(smoke_files / "key.json"),
              "--response", str(smoke_files / f"response_{i}.json"), "--singletons", flag, "--json"]
             for i in range(4) for flag in ("include", "omit")]
    direct = run_python(EVALUATE.replace("BREAK", ""), json.dumps(argvs))
    fallback = run_python(EVALUATE.replace("BREAK", BREAKS[failure]), json.dumps(argvs))
    assert all(code == 0 and out for code, out in direct[0])
    assert fallback[0] == direct[0]
    assert direct[1:] == [False, True]
    assert fallback[1:] == [True, True]
