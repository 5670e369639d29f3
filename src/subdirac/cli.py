"""Command-line verification suites and mesh emission.

Every command runs a batch of named checks, prints one pass/fail line per
check, and writes a JSON report.  A failing check never aborts the rest of
the suite, and a suite that raises on the numbers (immersion loss, focal
distance, an ambiguous spin-lift sign, ...) is recorded as one failed entry
while the remaining suites still run.  The exit status is 0 only when
everything passed, 1 otherwise, and 2 for a configuration problem, which
is rejected before any suite runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import clifford
from .dirac import (
    dirac_residual,
    frame_spinor_fields,
    intrinsic_dirac,
    pointwise_pairings,
    selfadjointization_check,
    submanifold_dirac,
)
from .geometry import CATALOG, adapted_frames, build_frame_field, catalog_chart, rho, weingarten
from .meshio import export_obj
from .reciprocity import check_reciprocity, recover_embedding, reference_intertwiner, restrict, induce
from .spinors import (
    Spinor,
    build_gamma_rep,
    primitive_spinor,
    recover_rotation,
    rep_of,
    spin_lift,
    spinor_dim,
    vector_pairing,
)
from .weierstrass import _reconstruction_study

COMMANDS = ("verify-algebra", "verify-reciprocity", "geometry", "dirac", "reconstruct", "all")
GRID_COMMANDS = ("geometry", "dirac", "reconstruct", "all")

DEFAULTS = {
    "command": "all",
    "chart": "sphere",
    "params": {},
    "grid": None,
    "refined_grid": None,
    "m": 4,
    "pairs": None,
    "seed": 0,
    "trials": 400,
    "tolerances": {},
    "out": ".",
}


class UsageError(ValueError):
    pass


class Checks:
    """Named value/tolerance assertions that never short-circuit.

    overrides maps check names to replacement tolerances (config key
    "tolerances").
    """

    def __init__(self, overrides=None):
        self.entries = []
        self.overrides = dict(overrides or {})

    def add(self, name, value, tolerance, center=0.0):
        value = float(value)
        tolerance = float(self.overrides.get(name, tolerance))
        ok = bool(abs(value - center) <= tolerance)
        shown = value if center == 0.0 else abs(value - center)
        self.entries.append({"name": name, "value": shown, "tolerance": tolerance,
                             "pass": ok})

    def add_floor(self, name, value, floor):
        """Lower-bounded check: passes when value >= floor (reported as-is)."""
        value = float(value)
        floor = float(self.overrides.get(name, floor))
        self.entries.append({"name": name, "value": value, "tolerance": floor,
                             "pass": bool(value >= floor)})

    def run(self, name, fn, tolerance, center=0.0):
        try:
            self.add(name, fn(), tolerance, center)
        except Exception as exc:  # a crashed check is a failed check, not a crashed report
            self.fail(name, exc, float(tolerance))

    def fail(self, name, exc, tolerance=None):
        """Failed entry for a computation that raised; names the exception class."""
        self.entries.append({"name": name, "value": f"error: {exc}", "tolerance": tolerance,
                             "pass": False, "error": type(exc).__name__})

    @property
    def all_pass(self):
        return all(e["pass"] for e in self.entries)


def _random_so(rng, m):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _random_multivector(rng, m, nnz=5):
    return clifford.Multivector(
        m, {int(rng.integers(0, 1 << m)): float(rng.normal()) for _ in range(nnz)})


# ---------------------------------------------------------------------------
# suites


def suite_verify_algebra(cfg, checks: Checks):
    m = int(cfg["m"])
    rng = np.random.default_rng(cfg["seed"])
    trials = int(cfg["trials"])

    def generator_relations():
        worst = 0.0
        for mm in range(1, min(m, 6) + 1):
            for i in range(1, mm + 1):
                ei = clifford.Multivector.basis_vector(mm, i)
                worst = max(worst, (ei * ei - 1).max_abs_coeff())
                for j in range(i + 1, mm + 1):
                    ej = clifford.Multivector.basis_vector(mm, j)
                    worst = max(worst, (ei * ej + ej * ei).max_abs_coeff())
        return worst

    checks.run("generator-relations", generator_relations, 0.0)

    def associativity():
        worst = 0.0
        for _ in range(trials // 4):
            a, b, c = (_random_multivector(rng, m) for _ in range(3))
            diff = (a * b) * c - a * (b * c)
            worst = max(worst, diff.max_abs_coeff())
        return worst

    checks.run("associativity", associativity, 1e-12)

    def reversion_identity():
        worst = 0.0
        for _ in range(trials // 4):
            a, b = _random_multivector(rng, m), _random_multivector(rng, m)
            diff = clifford.reversion(a * b) - clifford.reversion(b) * clifford.reversion(a)
            worst = max(worst, diff.max_abs_coeff())
        return worst

    checks.run("reversion-antiautomorphism", reversion_identity, 1e-12)

    rep = build_gamma_rep(m)

    def gamma_relations():
        worst = 0.0
        eye = np.eye(rep.dim)
        for i, g in enumerate(rep.gammas):
            worst = max(worst, np.abs(g - g.conj().T).max())
            for j, h in enumerate(rep.gammas):
                worst = max(worst, np.abs(g @ h + h @ g - 2 * (i == j) * eye).max())
        return worst

    checks.run("gamma-relations", gamma_relations, 1e-12)

    def rep_homomorphism():
        worst = 0.0
        for _ in range(trials // 8):
            a, b = _random_multivector(rng, m), _random_multivector(rng, m)
            diff = rep_of(a * b, rep) - rep_of(a, rep) @ rep_of(b, rep)
            worst = max(worst, np.abs(diff).max())
        return worst

    checks.run("rep-homomorphism", rep_homomorphism, 1e-12)

    def inner_product_recovery():
        worst = 0.0
        for mm in (2, 3, 4, 5):
            repm = build_gamma_rep(mm)
            for _ in range(trials):
                v, w = rng.normal(size=mm), rng.normal(size=mm)
                val = vector_pairing(primitive_spinor(v, repm), w, repm)
                worst = max(worst, abs(val - v @ w))
        return worst

    checks.run("primitive-spinor-inner-product", inner_product_recovery, 1e-12)

    def lift_round_trip():
        worst = 0.0
        for _ in range(max(trials // 20, 5)):
            r = _random_so(rng, m)
            tau = spin_lift(r, rep)
            for j in range(m):
                conj = tau.matrix @ rep.gammas[j] @ tau.matrix.conj().T
                worst = max(worst, np.abs(conj - rep.gamma(r[:, j])).max())
        return worst

    checks.run("spin-lift-round-trip", lift_round_trip, 1e-10)

    def rotation_recovery():
        worst = 0.0
        for mm in (3, 4):
            repm = build_gamma_rep(mm)
            r = _random_so(rng, mm)
            out = recover_rotation(spin_lift(r, repm), repm)
            worst = max(worst, np.abs(out - r).max())
        return worst

    checks.run("rotation-recovery", rotation_recovery, 1e-12)


def suite_verify_reciprocity(cfg, checks: Checks):
    rng = np.random.default_rng(cfg["seed"])
    trials = int(cfg["trials"])
    for k, n in _pairs(cfg):
        rep_n = build_gamma_rep(n)

        def frobenius(k=k, n=n, rep_n=rep_n):
            worst = 0.0
            base = reference_intertwiner(k, n)
            for _ in range(max(trials // 40, 3)):
                intw = base.with_tau(spin_lift(_random_so(rng, n), rep_n))
                for _ in range(20):
                    psi = Spinor(n, rng.normal(size=spinor_dim(n)) + 1j * rng.normal(size=spinor_dim(n)))
                    phi = Spinor(k, rng.normal(size=spinor_dim(k)) + 1j * rng.normal(size=spinor_dim(k)))
                    worst = max(worst, check_reciprocity(psi, phi, intw))
                    worst = max(worst, np.abs(restrict(induce(phi, intw), intw).components
                                              - phi.components).max())
            return worst

        checks.run(f"frobenius-({k},{n})", frobenius, 1e-12)

    for k, n in [(2, 3), (4, 5)]:
        rep_n = build_gamma_rep(n)

        def grassmannian(k=k, n=n, rep_n=rep_n):
            worst = 0.0
            base = reference_intertwiner(k, n)
            for _ in range(max(trials // 40, 3)):
                intw = base.with_tau(spin_lift(_random_so(rng, n), rep_n))
                u = rng.normal(size=n)
                vals = recover_embedding(u, intw)
                worst = max(worst, np.abs(vals - intw.embedding.iota.T @ u).max())
            return worst

        checks.run(f"embedding-recovery-({k},{n})", grassmannian, 1e-12)


def _pairs(cfg):
    return [tuple(p) for p in cfg.get("pairs") or [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)]]


def _grid(cfg):
    grid = cfg.get("grid")
    if grid is None:
        return None
    return tuple(int(g) for g in (grid if isinstance(grid, (list, tuple)) else [grid]))


def _grid_for(chart, cfg):
    refined = cfg.get("refined_grid")
    if refined and len(refined) != chart.k:
        raise UsageError(f"refined grid {refined} does not match chart dimension k={chart.k}")
    grid = _grid(cfg)
    if grid is None:
        return chart.grid_shape
    if len(grid) == 1 and chart.k == 2:
        grid = grid * 2
    if len(grid) != chart.k:
        raise UsageError(f"grid {grid} does not match chart dimension k={chart.k}")
    return grid


def _refined(shape):
    return tuple(2 * (g - 1) + 1 for g in shape)


def _chart_for(cfg):
    chart = catalog_chart(cfg["chart"], **cfg.get("params", {}))
    if chart.n > 6:
        raise UsageError("grid commands support ambient dimension n <= 6")
    return chart


def suite_geometry(cfg, checks: Checks, chart, shape):
    ff = build_frame_field(chart, shape=shape)

    rot = ff.frame_rotation
    eye = np.eye(chart.n)
    checks.add("frame-orthonormality",
               np.abs(np.einsum("...ij,...kj->...ik", rot, rot) - eye).max(), 1e-10)
    checks.add("frame-determinant", np.abs(np.linalg.det(rot) - 1).max(), 1e-10)
    checks.add("trace-relation",
               np.abs(np.einsum("...daa->...d", ff.weingarten) - ff.mean_curvature).max(), 1e-12)
    checks.add("normal-connection-residual", ff.gtilde_residual, 5e-2)

    def mean_curvature_vs_rho():
        rng = np.random.default_rng(cfg["seed"])
        delta = 1e-5
        worst = 0.0
        for _ in range(8):
            s = np.array([lo + (hi - lo) * rng.uniform(0.15, 0.85) for lo, hi in chart.rectangle])
            fr = adapted_frames(chart, s)
            gamma, _, mean = weingarten(chart, s, fr)
            for d in range(chart.n - chart.k):
                q = np.zeros(chart.n - chart.k)
                q[d] = delta
                slope = (np.sqrt(rho(chart, s, q, gamma=gamma))
                         - np.sqrt(rho(chart, s, -q, gamma=gamma))) / (2 * delta)
                worst = max(worst, abs(slope - mean[d]))
        return worst

    checks.run("mean-curvature-vs-sqrt-rho-slope", mean_curvature_vs_rho, 1e-6)

    if chart.name == "sphere":
        def sphere_rho():
            r = chart.params.get("r", 1.0)
            rng = np.random.default_rng(cfg["seed"])
            worst = 0.0
            for _ in range(8):
                s = np.array([lo + (hi - lo) * rng.uniform(0.15, 0.85)
                              for lo, hi in chart.rectangle])
                for q in (-0.2, 0.1, 0.3):
                    worst = max(worst, abs(rho(chart, s, [q]) - ((r + q) / r) ** 4))
            return worst

        checks.run("sphere-rho-closed-form", sphere_rho, 1e-10)


def suite_dirac(cfg, checks: Checks, chart, shape):
    fine = tuple(cfg["refined_grid"]) if cfg.get("refined_grid") else _refined(shape)

    residuals = []
    orth = 0.0
    ff_coarse = fields_coarse = None
    for sh in (shape, fine):
        ff = build_frame_field(chart, shape=sh)
        op = submanifold_dirac(ff)
        fields = frame_spinor_fields(ff)
        residuals.append(max(dirac_residual(op, f) for f in fields))
        gram = pointwise_pairings(fields)
        orth = max(orth, np.abs(gram - np.eye(gram.shape[-1])).max())
        if ff_coarse is None:
            ff_coarse, fields_coarse = ff, fields
    checks.add("kernel-orthonormality", orth, 1e-10)
    if residuals[1] < 1e-13:
        checks.add("kernel-residual-fine", residuals[1], 1e-12)
    else:
        checks.add("kernel-convergence-ratio", residuals[0] / residuals[1], 0.5, center=4.0)

    if chart.n - chart.k == 1 and np.abs(ff.mean_curvature).max() > 1e-6:
        op0 = intrinsic_dirac(ff_coarse)
        control = min(dirac_residual(op0, f) for f in fields_coarse)
        floor = 0.4 * float(np.abs(ff_coarse.mean_curvature).min())
        checks.add_floor("curvature-term-necessity", control, floor)

        without, with_ = selfadjointization_check(chart, frames=ff_coarse)
        checks.add_floor("selfadjointization-defect-geometric-measure", without, 1e-2)
        checks.add("selfadjointization-defect-flattened-measure", with_, 1e-6)


def suite_reconstruct(cfg, checks: Checks, chart, shape, out_dir: Path):
    fine = tuple(cfg["refined_grid"]) if cfg.get("refined_grid") else _refined(shape)
    ff = build_frame_field(chart, shape=shape)
    report, coords = _reconstruction_study([ff, build_frame_field(chart, shape=fine)])
    checks.add("bilinear-vs-derivative", report.bilinear_max_deviation, 1e-10)
    checks.add("reconstruction-order", report.convergence_order, 0.2, center=2.0)
    errs = report.extras["errors_by_resolution"]
    checks.add("reconstruction-error-fine", errs[1], max(4 * errs[0] / 3.5, 1e-12))
    if chart.k == 2:
        paths = report.extras["path_residuals"]
        if paths[1] > 1e-13:
            checks.add("path-independence-order", np.log2(paths[0] / paths[1]), 0.3, center=2.0)
        else:
            checks.add("path-independence-residual", paths[1], 1e-13)

    if chart.n in (3, 4) or chart.k == 1:
        export_obj(ff.x, out_dir / f"{chart.name}-source.obj", chart_id=f"{chart.name} source")
        export_obj(coords[0], out_dir / f"{chart.name}-reconstructed.obj",
                   chart_id=f"{chart.name} reconstructed")


# ---------------------------------------------------------------------------
# driver


def load_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        text = args.config
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text()
        loaded = json.loads(text)
        if not isinstance(loaded, dict):
            raise UsageError("config document must be a JSON object")
        cfg.update(loaded)
    if args.command:
        cfg["command"] = args.command
    if args.chart:
        cfg["chart"] = args.chart
    if args.grid:
        cfg["grid"] = [int(g) for g in args.grid.split(",")]
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out:
        cfg["out"] = args.out
    if args.m is not None:
        cfg["m"] = args.m
    if cfg["command"] not in COMMANDS:
        raise UsageError(f"unknown command {cfg['command']!r}; choose from {COMMANDS}")
    return cfg


def validate(cfg: dict):
    """Reject a configuration before any suite runs (exit status 2).

    Checks what needs no chart compiled: the algebra dimension, the
    reciprocity pairs, the chart name and parameters, the grid and refined
    grid floor, and that every tolerance override is a number.
    """
    command = cfg["command"]
    refined = cfg.get("refined_grid")
    if refined and not isinstance(refined, (list, tuple)):
        raise UsageError("refined_grid must list one resolution per chart axis")
    try:
        m = int(cfg["m"]) if command in ("verify-algebra", "all") else 1
        pairs = ([(int(k), int(n)) for k, n in _pairs(cfg)]
                 if command in ("verify-reciprocity", "all") else [])
        grid = _grid(cfg) or ()
        refined = tuple(int(g) for g in refined) if refined else ()
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed configuration: {exc}") from exc
    tolerances = cfg.get("tolerances") or {}
    if not isinstance(tolerances, dict) or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in tolerances.values()):
        raise UsageError("tolerances must map check names to numbers")
    if not 1 <= m <= 12:
        raise UsageError(f"algebra dimension m={m} outside 1..12")
    for k, n in pairs:
        if not k < n <= 12:
            raise UsageError(f"reciprocity pair ({k},{n}) needs k < n <= 12")
    if command in GRID_COMMANDS:
        if cfg["chart"] not in CATALOG:
            raise UsageError(f"unknown chart {cfg['chart']!r}; available: {sorted(CATALOG)}")
        if not isinstance(cfg.get("params", {}), dict):
            raise UsageError("params must be a JSON object of chart parameters")
        if any(g < 8 for g in grid + refined):
            raise UsageError("grid resolutions must be at least 8 per axis")


def run(cfg: dict) -> int:
    """Execute one suite; returns the process exit status.

    The grid commands compile the chart and check the grid and refined grid
    dimensions and n <= 6 before the first suite runs, and share that chart.
    """
    t0 = time.perf_counter()
    validate(cfg)
    checks = Checks(overrides=cfg.get("tolerances"))
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    command = cfg["command"]
    grid_args = ()
    if command in GRID_COMMANDS:
        chart = _chart_for(cfg)
        grid_args = (chart, _grid_for(chart, cfg))
    suites = (("verify-algebra", suite_verify_algebra, ()),
              ("verify-reciprocity", suite_verify_reciprocity, ()),
              ("geometry", suite_geometry, grid_args),
              ("dirac", suite_dirac, grid_args),
              ("reconstruct", suite_reconstruct, grid_args + (out_dir,)))
    for name, suite, extra in suites:
        if command not in (name, "all"):
            continue
        try:
            suite(cfg, checks, *extra)
        except (ValueError, ArithmeticError) as exc:  # numerical failure: report it, go on
            checks.fail(f"{name}-suite", exc)

    report = {
        "command": command,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "checks": checks.entries,
        "timing-ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    report_path = out_dir / f"report-{command}.json"
    report_path.write_text(json.dumps(report, indent=2, default=str) + "\n")

    for entry in checks.entries:
        status = "PASS" if entry["pass"] else "FAIL"
        print(f"[{status}] {entry['name']}: value={entry['value']} tol={entry['tolerance']}")
    print(f"report written to {report_path}")
    return 0 if checks.all_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subdirac",
        description="verification suites for the spinor-frame immersion machinery",
        epilog="catalogued charts: " + ", ".join(sorted(CATALOG)))
    parser.add_argument("--config", help="JSON config file path, or an inline JSON object")
    parser.add_argument("--command", choices=COMMANDS)
    parser.add_argument("--chart", help="catalogued chart name")
    parser.add_argument("--grid", help="grid resolution, e.g. 65 or 65,65")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--m", type=int, help="algebra dimension for verify-algebra")
    parser.add_argument("--out", help="output directory for reports and meshes")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        return run(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
