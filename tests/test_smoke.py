"""Whole-program checks: every demo runs to completion, and importing the
package, building catalog charts and their frame fields leaves the heavy
optional modules unloaded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], cwd=tmp_path)  # demo 06 writes OBJ files into out/
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_linalg_unloaded(tmp_path):
    proc = run_python(["-c", "import sys, subdirac; print('scipy.linalg' in sys.modules)"],
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


NO_SYMPY = """
import sys
import subdirac

for name in sorted(subdirac.CATALOG):
    chart = subdirac.catalog_chart(name)
    subdirac.build_frame_field(chart, shape=(17,) * chart.k)
    if "sympy" in sys.modules:
        print(name)
        break
else:
    print("none")
"""


def test_catalog_charts_leave_sympy_unloaded(tmp_path):
    proc = run_python(["-c", NO_SYMPY], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "none"  # else the first chart that loaded sympy
