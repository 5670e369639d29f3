"""Smoke check of the pipeline benchmark.

Runs one op of every workload in this process (in trace mode, one traced
op plus the untraced op it is compared against), validates the summary line
against BENCHMARK.json and pins the exact per-op call counts of the grid
layers.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = ["sphere-cli", "torus4-cli", "pointwise-probe"]

# per-op call counts of the seed implementation
EXACT_COUNTS = {
    "sphere-cli": {"spinors.spin_lift.calls": 50182, "geometry.build_frame_field.calls": 7},
    "torus4-cli": {"spinors.spin_lift.calls": 11717, "geometry.build_frame_field.calls": 5},
    "pointwise-probe": {"spinors.spin_lift.calls": 2, "geometry.build_frame_field.calls": 0},
}


def run_bench(workload, trace, monkeypatch, capsys, tmp_path):
    """Runs exactly min_ops ops: ``--seconds 0`` stops the loop right after them."""
    ops = 2 if trace else 1  # trace mode compares a traced op with an untraced one
    for cls in (run.CliWorkload, run.ProbeWorkload):
        monkeypatch.setattr(cls, "min_ops", ops)
    monkeypatch.setattr(run, "OUT", tmp_path)  # keep smoke results out of perfbench/out
    status = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                       "--trace", str(trace)])
    return status, capsys.readouterr().out


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_summary_schema(workload, trace, monkeypatch, capsys, tmp_path):
    status, out = run_bench(workload, trace, monkeypatch, capsys, tmp_path)
    assert status == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] == (2 if trace else 1)

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(summary["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        metric = summary["metrics"][m["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, m["name"]
    if trace:
        for name, count in EXACT_COUNTS[workload].items():
            assert summary["metrics"][name]["value"] == count, name
        assert summary["metrics"]["trace.overhead"]["value"] > 0
        if workload != "pointwise-probe":
            assert summary["metrics"]["trace.coverage"]["value"] >= 0.9


def test_compare_refuses_mixed_run_lengths(tmp_path):
    import compare

    for seconds in (1, 35):
        result = {"workload": "torus4-cli", "trace": 0, "seconds": seconds,
                  "summary": {"metrics": {"op_ms": {"value": 1.0, "unit": "ms"}}}}
        (tmp_path / f"r{seconds}.json").write_text(json.dumps(result))
    with pytest.raises(SystemExit, match="different --seconds"):
        compare.load(tmp_path)


def test_refuses_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in BENCH.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus4-cli", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
