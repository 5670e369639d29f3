import json

import numpy as np
import pytest

from subdirac import cli
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
    export_obj(coords, tmp_path / "new.obj", chart_id="id")
    reference_export_obj(coords, tmp_path / "ref.obj", chart_id="id")
    assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


def test_obj_unsupported_dimension(tmp_path):
    with pytest.raises(ValueError):
        export_obj(np.zeros((4, 4, 5)), tmp_path / "x.obj")


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


def test_reconstruct_projects_r4_chart(tmp_path):
    assert run_cli(["--command", "reconstruct", "--chart", "clifford-torus-r4",
                    "--grid", "17", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "clifford-torus-r4-reconstructed.obj").read_text()
    assert "orthographic projection" in text


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
    cfg = dict(cli.DEFAULTS, command="geometry", out=str(tmp_path))
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
    cfg = dict(cli.DEFAULTS, command="all", out=str(tmp_path))
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
    assert cli.run(dict(cli.DEFAULTS, command="all", chart="helix-curve", out=str(tmp_path))) == 0
    assert compiled == ["helix-curve"]


@pytest.mark.parametrize("bad", [
    {"refined_grid": 65},
    {"params": [1]},
    {"refined_grid": [5, 5]},
    {"refined_grid": [65]},
    {"tolerances": {"kernel-orthonormality": "tight"}},
], ids=["refined-scalar", "params-list", "refined-small", "refined-short", "tolerance-text"])
def test_malformed_config_runs_no_suite(tmp_path, monkeypatch, bad):
    called = []
    for name in ("suite_verify_algebra", "suite_verify_reciprocity", "suite_geometry",
                 "suite_dirac", "suite_reconstruct"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: called.append(name))
    cfg = dict({"command": "dirac", "chart": "sphere", "grid": 17, "out": str(tmp_path)}, **bad)
    assert run_cli(["--config", json.dumps(cfg)]) == 2
    assert called == []
    assert not (tmp_path / "report-dirac.json").exists()
