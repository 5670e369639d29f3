import dataclasses
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subdirac import cli, weierstrass
from subdirac.dirac import frame_lift_coefficients
from subdirac.geometry import CATALOG, build_frame_field, catalog_chart
from subdirac.meshio import export_obj


def run_cli(args):
    return cli.main(args)


# --- obj export ---------------------------------------------------------------

def test_obj_2x2_grid(tmp_path):
    coords = np.array([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]], dtype=float)
    path = tmp_path / "q.obj"
    export_obj(coords, path, chart_id="quad")
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# quad")
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert sum(1 for l in lines if l.startswith("f ")) == 2


def test_obj_surface_counts(tmp_path):
    n1, n2 = 16, 12
    grid = np.random.default_rng(0).normal(size=(n1, n2, 3))
    path = tmp_path / "s.obj"
    export_obj(grid, path)
    lines = path.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == n1 * n2
    assert sum(1 for l in lines if l.startswith("f ")) == 2 * (n1 - 1) * (n2 - 1)


def test_obj_curve_polyline(tmp_path):
    curve = np.random.default_rng(1).normal(size=(20, 3))
    path = tmp_path / "c.obj"
    export_obj(curve, path)
    lines = path.read_text().splitlines()
    polylines = [l for l in lines if l.startswith("l ")]
    assert len(polylines) == 1
    assert len(polylines[0].split()) == 21


def test_obj_r4_projection_noted(tmp_path):
    grid = np.random.default_rng(2).normal(size=(9, 9, 4))
    path = tmp_path / "p.obj"
    export_obj(grid, path)
    text = path.read_text()
    assert "orthographic projection" in text
    assert all(len(l.split()) == 4 for l in text.splitlines() if l.startswith("v "))


def reference_export_obj(coords, path, chart_id="chart"):
    """The line-by-line OBJ writer that export_obj replaced."""
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[-1]
    grid_shape = coords.shape[:-1]
    lines = [f"# {chart_id}: grid {'x'.join(str(s) for s in grid_shape)}"]
    if n == 4:
        lines.append("# ambient dimension 4: orthographic projection onto the first three axes")
    verts = coords.reshape(-1, n)[:, :3]
    if verts.shape[1] == 2:
        verts = np.column_stack([verts, np.zeros(len(verts))])
    for v in verts:
        lines.append("v " + " ".join(f"{c:.17g}" for c in v))
    if len(grid_shape) == 1:
        indices = " ".join(str(i + 1) for i in range(grid_shape[0]))
        lines.append(f"l {indices}")
    else:
        n1, n2 = grid_shape
        for i in range(n1 - 1):
            for j in range(n2 - 1):
                a = i * n2 + j + 1
                b = a + 1
                c = a + n2
                d = c + 1
                lines.append(f"f {a} {b} {d}")
                lines.append(f"f {a} {d} {c}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _awkward_surface():
    grid = np.random.default_rng(3).normal(size=(11, 9, 3))
    grid[0, 0] = [-0.0, 1e-300, 1e17]
    grid[4, 5] = [-1e-300, -1e17, 0.1 + 0.2]
    return grid


@pytest.mark.parametrize("coords", [
    _awkward_surface(),
    np.random.default_rng(4).normal(size=(40, 3)),  # space curve
    np.random.default_rng(5).normal(size=(25, 2)),  # plane curve, zero third column
    np.random.default_rng(6).normal(size=(8, 13, 4)),  # R^4, projected
], ids=["surface", "space-curve", "plane-curve", "r4-surface"])
def test_obj_bytes_match_reference_writer(tmp_path, coords):
    # surfaces of two shapes back to back, then the first again: the face
    # block is formatted once per grid shape and reused
    other = np.random.default_rng(7).normal(size=(9, 12, 3))
    for i, grid in enumerate([coords, other, coords]):
        export_obj(grid, tmp_path / f"new{i}.obj", chart_id="id")
        reference_export_obj(grid, tmp_path / f"ref{i}.obj", chart_id="id")
        assert (tmp_path / f"new{i}.obj").read_bytes() == (tmp_path / f"ref{i}.obj").read_bytes()


def test_obj_unsupported_dimension(tmp_path):
    with pytest.raises(ValueError):
        export_obj(np.zeros((4, 4, 5)), tmp_path / "x.obj")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_obj_rejects_non_finite_before_opening(tmp_path, bad):
    grid = np.random.default_rng(8).normal(size=(5, 6, 3))
    grid[2, 3, 1] = bad
    path = tmp_path / "bad.obj"
    with pytest.raises(ValueError, match=rf"1 non-finite \[{bad!r}\].*\(2, 3\)"):
        export_obj(grid, path)
    assert not path.exists()


def test_non_finite_reconstruction_is_the_failed_suite_entry(tmp_path, monkeypatch):
    study = cli._reconstruction_study

    def study_with_a_nan(*args, **kwargs):
        report, coords = study(*args, **kwargs)
        coords[0][3, 4, 0] = np.nan
        return report, coords

    monkeypatch.setattr(cli, "_reconstruction_study", study_with_a_nan)
    assert run_cli(["--command", "reconstruct", "--chart", "sphere", "--grid", "17",
                    "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "report-reconstruct.json").read_text())
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [(c["name"], c["error"]) for c in failed] == [("reconstruct-suite", "ValueError")]
    assert "non-finite [nan]" in failed[0]["value"]
    assert (tmp_path / "sphere-source.obj").exists()
    assert not (tmp_path / "sphere-reconstructed.obj").exists()


# Values for the whole-array '%.17g': Python's writer is the oracle.
def _power_of_ten_neighbour(k, toward, sign):
    p = float(f"1e{k}")
    return sign * (p if toward is None else float(np.nextafter(p, toward)))


def _decimal_tie(s, frac, sign):
    """An odd r / 2**s with exactly 18 significant digits, so its last digit
    is a 5 and '%.17g' rounds a half-way tie: (k + 0.5) 10**(E - 16) for the
    17-digit k, with E = 17 - s in the fixed range (3 <= s <= 21)."""
    lo, hi = 10.0 ** (17 - s) * 2.0 ** s, min(10.0 ** (18 - s) * 2.0 ** s, 2.0 ** 53)
    r = math.ceil(lo + frac * (hi - lo - 2)) | 1
    return sign * float(np.ldexp(float(r), -s))


SIGNS = st.sampled_from([1.0, -1.0])
OBJ_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.builds(_power_of_ten_neighbour, st.integers(-6, 19),
              st.sampled_from([None, 0.0, np.inf]), SIGNS),
    st.builds(_decimal_tie, st.integers(3, 21), st.floats(0, 1), SIGNS),
    st.sampled_from([0.0, -0.0, 1e-4, 1e17, 5e-324, 2.2250738585072014e-308]),
)


def _same_obj(tmp_path, coords):
    export_obj(coords, tmp_path / "new.obj", chart_id="prop")
    reference_export_obj(coords, tmp_path / "ref.obj", chart_id="prop")
    return (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


def test_decimal_ties_are_ties():
    for s in range(3, 22):
        for frac in (0.0, 0.37, 1.0):
            digits = Decimal(_decimal_tie(s, frac, 1.0)).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5


# tmp_path is shared by the examples of one test: each example overwrites the files
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(OBJ_VALUES, min_size=1, max_size=60))
def test_obj_values_match_reference_writer(tmp_path, values):
    values += [0.0] * (-len(values) % 3)
    assert _same_obj(tmp_path, np.array(values).reshape(-1, 3))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), shape=st.sampled_from([(7, 2), (9, 3), (4, 5, 3), (3, 6, 4)]))
def test_obj_grids_match_reference_writer(tmp_path, data, shape):
    # curves, plane curves, surfaces and R^4 surfaces
    coords = data.draw(hnp.arrays(np.float64, shape, elements=OBJ_VALUES))
    assert _same_obj(tmp_path, coords)


@pytest.mark.parametrize("name", ["sphere", "graph", "enneper"])
def test_reconstruct_source_obj_matches_reference(tmp_path, name):
    # exact zeros (graph, enneper) and coordinates below 1e-4 that take the
    # exponent notation (sphere, enneper)
    assert run_cli(["--command", "reconstruct", "--chart", name, "--grid", "17",
                    "--seed", "7", "--out", str(tmp_path)]) == 0
    source = build_frame_field(catalog_chart(name), shape=(17, 17)).x
    reference_export_obj(source, tmp_path / "ref.obj", chart_id=f"{name} source")
    assert (tmp_path / f"{name}-source.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


# --- checks container -----------------------------------------------------------

def test_checks_do_not_short_circuit():
    checks = cli.Checks()
    checks.run("boom", lambda: 1 / 0, 1e-12)
    checks.add("fine", 0.0, 1e-12)
    assert [e["pass"] for e in checks.entries] == [False, True]
    assert not checks.all_pass


def test_checks_floor():
    checks = cli.Checks()
    checks.add_floor("big-enough", 0.5, 1e-2)
    checks.add_floor("too-small", 1e-5, 1e-2)
    assert [e["pass"] for e in checks.entries] == [True, False]


# --- cli driver ------------------------------------------------------------------

def test_verify_algebra_exit_zero(tmp_path):
    assert run_cli(["--command", "verify-algebra", "--m", "4", "--seed", "7",
                    "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report-verify-algebra.json").read_text())
    assert report["command"] == "verify-algebra"
    assert all(c["pass"] for c in report["checks"])
    numeric = [c for c in report["checks"] if isinstance(c["value"], float)]
    assert max(c["value"] for c in numeric) <= 1e-12


def test_reports_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["--command", "verify-reciprocity", "--seed", "11", "--out", str(a)])
    run_cli(["--command", "verify-reciprocity", "--seed", "11", "--out", str(b)])
    ra = json.loads((a / "report-verify-reciprocity.json").read_text())
    rb = json.loads((b / "report-verify-reciprocity.json").read_text())
    assert ra["checks"] == rb["checks"]


def test_geometry_command(tmp_path):
    assert run_cli(["--command", "geometry", "--chart", "torus", "--grid", "17,17",
                    "--seed", "1", "--out", str(tmp_path)]) == 0


def test_reconstruct_writes_meshes(tmp_path):
    assert run_cli(["--command", "reconstruct", "--chart", "enneper", "--grid", "33",
                    "--out", str(tmp_path)]) == 0
    assert (tmp_path / "enneper-source.obj").exists()
    assert (tmp_path / "enneper-reconstructed.obj").exists()
    report = json.loads((tmp_path / "report-reconstruct.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert "reconstruction-order" in names


@pytest.mark.parametrize("chart", ["plane", "graph"])
def test_reconstruct_exact_charts_skip_the_order(tmp_path, chart):
    # the trapezoid rule rebuilds these charts to rounding at both resolutions
    assert run_cli(["--command", "reconstruct", "--chart", chart, "--out", str(tmp_path)]) == 0
    checks = json.loads((tmp_path / "report-reconstruct.json").read_text())["checks"]
    names = {c["name"]: c for c in checks}
    assert "reconstruction-order" not in names
    for name in ("reconstruction-error-coarse", "reconstruction-error-fine"):
        assert names[name]["tolerance"] == 1e-13 and names[name]["pass"]


def test_reconstruct_projects_r4_chart(tmp_path):
    assert run_cli(["--command", "reconstruct", "--chart", "clifford-torus-r4",
                    "--grid", "17", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "clifford-torus-r4-reconstructed.obj").read_text()
    assert "orthographic projection" in text


def test_dirac_tube_check_passes_on_the_saddle(tmp_path):
    # the graph's mean curvature changes sign, so its geometric-measure defect is
    # small (about 0.002); it is held against its predicted limit, not a fixed floor
    assert run_cli(["--command", "dirac", "--chart", "graph", "--grid", "17", "--seed", "7",
                    "--out", str(tmp_path)]) == 0
    checks = json.loads((tmp_path / "report-dirac.json").read_text())["checks"]
    entry = next(c for c in checks if c["name"] == "selfadjointization-defect-geometric-measure")
    assert entry["pass"] and entry["tolerance"] == 0.05 and entry["value"] < 0.02


@pytest.mark.parametrize("chart, grid", [("sphere", "17"), ("clifford-torus-r4", "9"),
                                         ("helix-curve", "17")])
def test_all_shares_frame_fields_with_the_single_commands_checks(tmp_path, monkeypatch,
                                                                chart, grid):
    built = []
    build = weierstrass.build_frame_field
    monkeypatch.setattr(weierstrass, "build_frame_field",
                        lambda chart, shape: built.append(shape) or build(chart, shape=shape))
    common = ["--chart", chart, "--grid", grid, "--seed", "7"]
    assert run_cli(["--command", "all", *common, "--out", str(tmp_path / "all")]) == 0
    assert len(built) == len(set(built)) == 2  # the coarse and the fine field, once each
    report = json.loads((tmp_path / "all" / "report-all.json").read_text())
    single = []
    for command in ("geometry", "dirac", "reconstruct"):
        assert run_cli(["--command", command, *common, "--out", str(tmp_path / command)]) == 0
        single += json.loads((tmp_path / command / f"report-{command}.json").read_text())["checks"]
    assert report["checks"][-len(single):] == single


def test_inline_json_config(tmp_path):
    cfg = json.dumps({"command": "geometry", "chart": "graph", "grid": [17, 17],
                      "out": str(tmp_path)})
    assert run_cli(["--config", cfg]) == 0


def test_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "verify-algebra", "m": 3,
                                "trials": 80, "out": str(tmp_path)}))
    assert run_cli(["--config", str(path)]) == 0


def test_usage_error_small_grid(tmp_path):
    assert run_cli(["--command", "dirac", "--chart", "sphere", "--grid", "4",
                    "--out", str(tmp_path)]) == 2


def test_usage_error_unknown_chart(tmp_path):
    assert run_cli(["--command", "geometry", "--chart", "moebius",
                    "--out", str(tmp_path)]) == 2


def test_usage_error_bad_command():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--command", "frobnicate"])
    assert exc.value.code == 2


def test_usage_error_k_not_less_than_n(tmp_path):
    cfg = json.dumps({"command": "verify-reciprocity", "pairs": [[3, 3]],
                      "out": str(tmp_path)})
    assert run_cli(["--config", cfg]) == 2


def test_custom_reciprocity_pairs(tmp_path):
    cfg = json.dumps({"command": "verify-reciprocity", "pairs": [[2, 4]],
                      "trials": 80, "out": str(tmp_path)})
    assert run_cli(["--config", cfg]) == 0
    report = json.loads((tmp_path / "report-verify-reciprocity.json").read_text())
    assert any(c["name"] == "frobenius-(2,4)" for c in report["checks"])


def test_tolerance_overrides(tmp_path):
    # an absurdly tight override makes an otherwise-passing check fail,
    # and the report still carries every check
    cfg = json.dumps({"command": "verify-algebra", "m": 3, "trials": 80,
                      "tolerances": {"associativity": 1e-30},
                      "out": str(tmp_path)})
    assert run_cli(["--config", cfg]) == 1
    report = json.loads((tmp_path / "report-verify-algebra.json").read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["associativity"]["pass"] is False
    assert by_name["associativity"]["tolerance"] == 1e-30
    assert by_name["rep-homomorphism"]["pass"] is True


def test_failing_check_writes_report_and_exits_one(tmp_path, monkeypatch):
    def failing_suite(cfg, checks, *rest):
        checks.add("deliberate-failure", 1.0, 1e-12)
        checks.add("still-recorded", 0.0, 1e-12)

    monkeypatch.setattr(cli, "suite_geometry", failing_suite)
    cfg = cli.parse_config(["--command", "geometry", "--out", str(tmp_path)])
    assert cli.run(cfg) == 1
    report = json.loads((tmp_path / "report-geometry.json").read_text())
    assert [c["pass"] for c in report["checks"]] == [False, True]


def test_usage_error_algebra_dimension(tmp_path):
    assert run_cli(["--command", "verify-algebra", "--m", "13", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "report-verify-algebra.json").exists()


def test_numerical_failure_is_a_failed_entry(tmp_path):
    # a degenerate sphere breaks every grid suite; the algebra and
    # reciprocity checks that passed stay in the report
    cfg = json.dumps({"command": "all", "chart": "sphere", "params": {"r": 0.0},
                      "m": 3, "trials": 40, "pairs": [[1, 2]], "grid": 9,
                      "out": str(tmp_path)})
    assert run_cli(["--config", cfg]) == 1
    report = json.loads((tmp_path / "report-all.json").read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["associativity"]["pass"] and by_name["frobenius-(1,2)"]["pass"]
    for suite in ("geometry", "dirac", "reconstruct"):
        entry = by_name[f"{suite}-suite"]
        assert entry["pass"] is False
        assert entry["error"] == "ImmersionError"
        assert entry["value"].startswith("error: immersion condition violated")


def test_failed_suite_does_not_stop_the_rest(tmp_path, monkeypatch):
    from subdirac.geometry import IntegrabilityError

    def passing(name):
        return lambda cfg, checks, *rest: checks.add(name, 0.0, 1e-12)

    def raising(cfg, checks, *rest):
        checks.add("before-the-failure", 0.0, 1e-12)
        raise IntegrabilityError("normal connection residual 1e-1 above 1e-3")

    monkeypatch.setattr(cli, "suite_verify_algebra", passing("algebra"))
    monkeypatch.setattr(cli, "suite_verify_reciprocity", passing("reciprocity"))
    monkeypatch.setattr(cli, "suite_geometry", raising)
    monkeypatch.setattr(cli, "suite_dirac", passing("dirac"))
    monkeypatch.setattr(cli, "suite_reconstruct", passing("reconstruct"))
    cfg = cli.parse_config(["--command", "all", "--out", str(tmp_path)])
    assert cli.run(cfg) == 1
    report = json.loads((tmp_path / "report-all.json").read_text())
    assert [(c["name"], c["pass"], c.get("error")) for c in report["checks"]] == [
        ("algebra", True, None), ("reciprocity", True, None),
        ("before-the-failure", True, None),
        ("geometry-suite", False, "IntegrabilityError"),
        ("dirac", True, None), ("reconstruct", True, None)]


@pytest.mark.parametrize("chart, grid", [("helix-curve", [17, 17]), ("sphere", [17, 17, 17])])
def test_grid_dimension_mismatch_runs_no_suite(tmp_path, monkeypatch, chart, grid):
    called = []
    for name in ("suite_verify_algebra", "suite_verify_reciprocity", "suite_geometry",
                 "suite_dirac", "suite_reconstruct"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: called.append(name))
    cfg = json.dumps({"command": "all", "chart": chart, "grid": grid, "out": str(tmp_path)})
    assert run_cli(["--config", cfg]) == 2
    assert called == []
    assert not (tmp_path / "report-all.json").exists()


def test_grid_commands_compile_the_chart_once(tmp_path, monkeypatch):
    compiled = []
    catalog_chart = cli.catalog_chart
    monkeypatch.setattr(cli, "catalog_chart",
                        lambda name, **params: compiled.append(name) or catalog_chart(name, **params))
    for name in ("suite_verify_algebra", "suite_verify_reciprocity", "suite_geometry",
                 "suite_dirac", "suite_reconstruct"):
        monkeypatch.setattr(cli, name, lambda cfg, checks, *rest: None)
    cfg = cli.parse_config(["--command", "all", "--chart", "helix-curve", "--out", str(tmp_path)])
    assert cli.run(cfg) == 0
    assert compiled == ["helix-curve"]


@pytest.mark.parametrize("bad", [
    {"refined_grid": [33, 33]},
    {"refined_grid": 65},
    {"params": [1]},
    {"refined_grid": [5, 5]},
    {"refined_grid": [65]},
    {"tolerances": {"kernel-orthonormality": "tight"}},
    {"command": "verify-algebra", "seed": "abc"},
    {"command": "verify-algebra", "seed": 1.5},
    {"seed": -1},
    {"seed": True},
    {"params": {"r": "x"}},
    {"params": {"R": 3}},
    {"params": {"r": True}},
    {"command": "all", "trials": -8},
    {"command": "verify-algebra", "trials": 0},
    {"command": "verify-reciprocity", "trials": 8.0},
    {"chart": ["sphere"]},
    {"command": "verify-algebra", "m": 1.5},
    {"command": "verify-algebra", "m": True},
    {"command": "geometry", "grid": [17.9]},
    {"command": "verify-reciprocity", "pairs": [[1.5, 3]]},
    {"refined_grid": [40.5, 40]},
    {"command": "verify-algebra", "out": 5},
    {"command": "verify-reciprocity", "pairs": [[0, 3]]},
    {"command": "verify-algebra", "chart": "moebius"},
    {"command": "verify-reciprocity", "grid": [17, 17, 17]},
    {"params": {"r": float("nan")}},
    {"params": {"r": float("inf")}},
    {"command": "verify-algebra", "tolerances": {"associativity": float("nan")}},
    {"command": "verify-algebra", "tolerances": {"associativity": -1}},
    {"command": "verify-algebra", "tolerances": {"associativity": float("inf")}},
], ids=["refined-grid", "refined-scalar", "params-list", "refined-small", "refined-short",
        "tolerance-text",
        "seed-text", "seed-float", "seed-negative", "seed-bool", "param-text", "param-unknown",
        "param-bool", "trials-negative", "trials-zero", "trials-float", "chart-list",
        "m-float", "m-bool", "grid-float", "pair-float", "refined-float", "out-number",
        "pair-zero", "algebra-unknown-chart", "reciprocity-grid-mismatch", "param-nan",
        "param-inf", "tolerance-nan", "tolerance-negative", "tolerance-inf"])
def test_malformed_config_runs_no_suite(tmp_path, monkeypatch, capsys, bad):
    called = []
    for name in ("suite_verify_algebra", "suite_verify_reciprocity", "suite_geometry",
                 "suite_dirac", "suite_reconstruct"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: called.append(name))
    cfg = dict({"command": "dirac", "chart": "sphere", "grid": 17, "out": str(tmp_path)}, **bad)
    assert run_cli(["--config", json.dumps(cfg)]) == 2
    assert called == []
    assert list(tmp_path.glob("report-*.json")) == []
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--config", '{"trails": 8}'], "unknown config keys ['trails']; accepted: ['chart'"),
    (["--grid", "abc"], "--grid takes comma-separated integers, got 'abc'"),
    (["--config", "nofile.json"], "cannot read config 'nofile.json'"),
    (["--config", "{bad"], "cannot read config '{bad'"),
    (["--command", "geometry", "--chart", "sphere", "--config", '{"params": {"r": NaN}}'],
     "chart 'sphere' takes the finite real parameters ['r']; got r=nan"),
    (["--command", "verify-algebra", "--config", '{"tolerances": {"associativity": NaN}}'],
     "tolerances must map check names to finite numbers >= 0, got {'associativity': nan}"),
    (["--command", "verify-algebra", "--config", '{"tolerances": {"associativity": -1}}'],
     "tolerances must map check names to finite numbers >= 0, got {'associativity': -1}"),
], ids=["unknown-key", "grid-text", "config-missing", "config-not-json", "param-nan",
        "tolerance-nan", "tolerance-negative"])
def test_unreadable_input_is_one_usage_error_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    called = []
    for name in ("suite_verify_algebra", "suite_verify_reciprocity", "suite_geometry",
                 "suite_dirac", "suite_reconstruct"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: called.append(name))
    assert run_cli([*argv, "--out", str(tmp_path)]) == 2
    assert called == []
    assert list(tmp_path.glob("report-*.json")) == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: " + message) and err.count("\n") == 1


def test_out_naming_a_file_is_one_usage_error_line(tmp_path, monkeypatch, capsys):
    called = []
    monkeypatch.setattr(cli, "suite_verify_algebra", lambda *args: called.append(1))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out in (afile, afile / "reports"):
        assert run_cli(["--command", "verify-algebra", "--m", "2", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "Traceback" not in err
        assert err.startswith(f"usage error: out {str(out)!r} cannot be made a directory") \
            and err.count("\n") == 1
    assert called == []
    assert afile.read_text() == "kept\n"
    assert list(tmp_path.rglob("report-*.json")) == []


def test_report_echoes_the_checked_config(tmp_path):
    # flags over the document over the defaults, with the grids and pairs resolved
    assert run_cli(["--command", "geometry", "--chart", "sphere", "--grid", "17",
                    "--config", '{"seed": 3, "m": 5}', "--seed", "9", "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "report-geometry.json").read_text())["config"]
    assert config["grid"] == [17, 17] and config["refined_grid"] == [33, 33]
    assert config["pairs"] == [[1, 2], [1, 3], [2, 3], [2, 4], [3, 5]]
    assert (config["seed"], config["m"], config["chart"]) == (9, 5, "sphere")
    assert sorted(config) == sorted([*cli.DEFAULTS, "refined_grid"])


def test_the_argument_parser_is_built_once(monkeypatch):
    built = []
    parser_class = cli.argparse.ArgumentParser
    monkeypatch.setattr(cli, "argparse", SimpleNamespace(
        ArgumentParser=lambda *args, **kwargs: built.append(1) or parser_class(*args, **kwargs)))
    cli._parser.cache_clear()
    for _ in range(3):
        cli.parse_config(["--command", "verify-algebra"])
    assert built == [1]


def test_sampled_algebra_checks_draw_at_least_once(monkeypatch):
    # trials = 1 rounds every trials // c loop down to zero draws, which
    # would report a vacuous value=0.0 [PASS]
    draws, current = {}, [None]

    class Counting(cli.Checks):
        def run(self, name, fn, tolerance, center=0.0):
            current[0] = name
            super().run(name, fn, tolerance, center)

    def counted(fn):
        def wrapper(*args, **kwargs):
            draws[current[0]] = draws.get(current[0], 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "_random_multivector", counted(cli._random_multivector))
    monkeypatch.setattr(cli, "vector_pairing", counted(cli.vector_pairing))
    checks = Counting()
    cli.suite_verify_algebra(cli.parse_config(["--m", "3", "--config", '{"trials": 1}']), checks)
    assert checks.all_pass
    # three multivectors per associativity draw, two per reversion and
    # homomorphism draw, one pairing per dimension 2..5
    assert draws == {"associativity": 3, "reversion-antiautomorphism": 2,
                     "rep-homomorphism": 2, "primitive-spinor-inner-product": 4}


# --- scipy stays unloaded ---------------------------------------------------------

NO_SCIPY_LINALG = """
import sys

import numpy as np

import subdirac as sd
from subdirac import cli

status = [cli.main(["--command", command, "--chart", chart, "--grid", grid, "--out", sys.argv[1]])
          for chart, grid in (("sphere", "17"), ("clifford-torus-r4", "9"), ("helix-curve", "17"))
          for command in ("dirac", "reconstruct")]
rng = np.random.default_rng(5)
for name in ("sphere", "clifford-torus-r4"):
    chart = sd.catalog_chart(name)
    k, n = chart.k, chart.n
    s = np.array([lo + 0.4 * (hi - lo) for lo, hi in chart.rectangle])
    frame = sd.adapted_frames(chart, s)
    gamma, _, _ = sd.weingarten(chart, s, frame)
    sd.rho(chart, s, np.full(n - k, 1e-3), gamma=gamma)
    rep = sd.build_gamma_rep(n)
    tau = sd.spin_lift(frame.rotation, rep)
    status.append(int(np.abs(sd.recover_rotation(tau, rep) - frame.rotation).max() > 1e-12))
    psi = sd.Spinor(n, rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim))
    phi = sd.Spinor(k, rng.normal(size=1 << k // 2) + 1j * rng.normal(size=1 << k // 2))
    intw = sd.reference_intertwiner(k, n).with_tau(tau)
    status.append(int(sd.check_reciprocity(psi, phi, intw) > 1e-12))


def surface_in_r5(s):
    u, v = s[..., 0], s[..., 1]
    return np.stack([u, v, u**2 / 2, 0.7 * u * v, v**2 / 2 + 0.2 * u**3], axis=-1)


chart = sd.ImmersionChart.from_callable("surface-r5", surface_in_r5, 2, 5, [(-0.7, 0.7)] * 2)
status.append(int(not 0.9 < sd.build_frame_field(chart, shape=(33, 33)).gtilde_residual < 1.0))
print(status, "scipy.linalg" in sys.modules)
"""


def test_catalog_commands_and_queries_leave_scipy_linalg_unloaded(tmp_path):
    # no command or query loads scipy.linalg; a codimension-3 frame field (a
    # numpy chart, as sympy would load scipy itself) needs none either
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_LINALG, str(tmp_path)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * 11} False"


NO_SCIPY = """
import sys

sys.modules["scipy"] = None  # any import of scipy or a submodule raises ImportError

from subdirac import cli

runs = [["--command", "verify-algebra", "--m", "7"], ["--command", "verify-algebra", "--m", "12"],
        ["--command", "verify-reciprocity", "--config", '{"pairs": [[3, 8]]}']]
runs += [["--command", "all", "--chart", chart, "--grid", grid]
         for chart, grid in (("sphere", "17"), ("clifford-torus-r4", "9"), ("helix-curve", "17"))]
status = [cli.main(args + ["--seed", "7", "--out", sys.argv[1]]) for args in runs]
print(status, sorted(name for name, module in sys.modules.items()
                     if name.split(".")[0] == "scipy" and module is not None))
"""


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    # the spin lift is numpy-only for every m, like every other path
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * 6} []", proc.stdout


# --- the CLI kernels run on lift coefficients -------------------------------------

NO_DENSE_OPERATOR = """
import sys

import subdirac
from subdirac import cli, dirac

def forbidden(*args, **kwargs):
    raise RuntimeError("dense operator or complex lift built on the CLI path")

names = ("submanifold_dirac", "intrinsic_dirac", "frame_lift_field", "frame_spinor_fields",
         "apply_operator", "dirac_residual", "pointwise_pairings")
for module in [m for key, m in sys.modules.items() if key.startswith("subdirac")]:
    for name in names:
        if hasattr(module, name):
            setattr(module, name, forbidden)
dirac.DiracOperator.__init__ = forbidden
status = [cli.main(["--command", command, "--chart", chart, "--grid", grid, "--seed", "7",
                    "--out", sys.argv[1]])
          for chart, grid in (("sphere", "17"), ("graph", "17"), ("clifford-torus-r4", "9"),
                              ("helix-curve", "17"), ("circle-curve", "17"))
          for command in ("dirac", "reconstruct")]
print(status)
"""


def test_dirac_and_reconstruct_build_no_operator_and_no_complex_lift(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_DENSE_OPERATOR, str(tmp_path)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([0] * 10), proc.stdout


# --- one fine-grid pass per command ------------------------------------------------

STRIDE_CASES = [(name, {}) for name in sorted(CATALOG)] + [
    (name, {"r": r}) for name in ("sphere", "clifford-torus-r4") for r in (0.85, 1.2)]


@pytest.mark.parametrize("name, params", STRIDE_CASES,
                         ids=[name + "".join(f"-r{r}" for r in params.values())
                              for name, params in STRIDE_CASES])
def test_coarse_level_read_off_the_fine_one_is_a_fresh_build(name, params):
    chart = catalog_chart(name, **params)
    cfg = cli.parse_config(["--chart", name, "--config", json.dumps({"params": params})])
    fields = weierstrass.GridLevels(chart, cfg.grid)
    derived, fine = fields.levels()
    fresh = build_frame_field(chart, shape=cfg.grid)
    # the helix's Procrustes normal frame depends on the step: a separate build
    assert fields.nested == (name != "helix-curve")
    assert np.shares_memory(derived.x_planes, fine.x_planes) == fields.nested
    for field in dataclasses.fields(fresh):
        if field.name.endswith("_planes"):
            assert np.array_equal(getattr(derived, field.name), getattr(fresh, field.name)), \
                field.name
    assert derived.gtilde_residual == fresh.gtilde_residual
    assert derived.spacings == fresh.spacings
    assert all(map(np.array_equal, derived.axes, fresh.axes))
    assert np.array_equal(fields.coeffs(cfg.grid), frame_lift_coefficients(fresh, fields.rep))


def test_helix_checks_keep_their_separate_coarse_build(tmp_path):
    # read off the fine level, the helix's convergence-ratio deviation would be 0.27
    values = {}
    for command in ("dirac", "reconstruct"):
        assert run_cli(["--command", command, "--chart", "helix-curve", "--seed", "7",
                        "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / f"report-{command}.json").read_text())
        values.update((c["name"], c["value"]) for c in report["checks"])
    assert values["kernel-convergence-ratio"] == pytest.approx(1.6484583460485425e-4, abs=1e-8)
    assert values["reconstruction-order"] == pytest.approx(3.962647266941843e-05, abs=1e-8)
    assert values["reconstruction-error-fine"] == pytest.approx(9.155355114576214e-05, rel=1e-9)


@pytest.mark.parametrize("name", ["sphere", "clifford-torus-r4"])
def test_grid_commands_build_and_lift_each_level_once(tmp_path, monkeypatch, name):
    built, lifted = [], []
    build, lift = weierstrass.build_frame_field, weierstrass.frame_lift_coefficients
    monkeypatch.setattr(weierstrass, "build_frame_field",
                        lambda chart, shape: built.append(shape) or build(chart, shape=shape))
    monkeypatch.setattr(weierstrass, "frame_lift_coefficients",
                        lambda frames, rep: lifted.append(frames.grid_shape) or lift(frames, rep))
    calls = {}
    for command in ("geometry", "dirac", "reconstruct"):
        built.clear()
        lifted.clear()
        assert run_cli(["--command", command, "--chart", name, "--grid", "17", "--seed", "7",
                        "--out", str(tmp_path)]) == 0
        calls[command] = (list(built), list(lifted))
    assert calls == {"geometry": ([(17, 17)], []),
                     "dirac": ([(33, 33)], [(33, 33)]),
                     "reconstruct": ([(33, 33)], [(33, 33)])}
