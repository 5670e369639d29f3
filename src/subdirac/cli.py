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
import dataclasses
import functools
import json
import numbers
import sys
import time
from pathlib import Path

import numpy as np

from . import clifford
from .dirac import _gram_blocks, lift_residuals, selfadjointization_check
from .geometry import CATALOG, ImmersionChart, adapted_frames, catalog_chart, rho, weingarten
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
from .weierstrass import GridLevels, _reconstruction_study

COMMANDS = ("verify-algebra", "verify-reciprocity", "geometry", "dirac", "reconstruct", "all")
GRID_COMMANDS = ("geometry", "dirac", "reconstruct", "all")

DEFAULTS = {
    "command": "all",
    "chart": "sphere",
    "params": {},
    "grid": None,
    "m": 4,
    "pairs": None,
    "seed": 0,
    "trials": 400,
    "tolerances": {},
    "out": ".",
}
DEFAULT_PAIRS = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 5))


class UsageError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class Config:
    """parse_config's checked DEFAULTS keys, with the refined grid derived from grid
    and the chart compiled from chart and params."""

    command: str
    chart: str
    params: dict
    grid: tuple
    refined_grid: tuple
    m: int
    pairs: tuple
    seed: int
    trials: int
    tolerances: dict
    out: str
    compiled_chart: ImmersionChart


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


def suite_verify_algebra(cfg: Config, checks: Checks):
    m, trials = cfg.m, cfg.trials
    rng = np.random.default_rng(cfg.seed)

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
        for _ in range(max(trials // 4, 1)):
            a, b, c = (_random_multivector(rng, m) for _ in range(3))
            diff = (a * b) * c - a * (b * c)
            worst = max(worst, diff.max_abs_coeff())
        return worst

    checks.run("associativity", associativity, 1e-12)

    def reversion_identity():
        worst = 0.0
        for _ in range(max(trials // 4, 1)):
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
        for _ in range(max(trials // 8, 1)):
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


def suite_verify_reciprocity(cfg: Config, checks: Checks):
    rng = np.random.default_rng(cfg.seed)
    trials = cfg.trials
    for k, n in cfg.pairs:
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


def suite_geometry(cfg: Config, checks: Checks, fields: GridLevels):
    chart = fields.chart
    ff = fields.frames(cfg.grid)

    rot = ff.frame_rotation
    eye = np.eye(chart.n)
    checks.add("frame-orthonormality",
               np.abs(np.einsum("...ij,...kj->...ik", rot, rot) - eye).max(), 1e-10)
    checks.add("frame-determinant", np.abs(np.linalg.det(rot) - 1).max(), 1e-10)
    checks.add("trace-relation",
               np.abs(np.einsum("...daa->...d", ff.weingarten) - ff.mean_curvature).max(), 1e-12)
    checks.add("normal-connection-residual", ff.gtilde_residual, 5e-2)

    def mean_curvature_vs_rho():
        rng = np.random.default_rng(cfg.seed)
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
            rng = np.random.default_rng(cfg.seed)
            worst = 0.0
            for _ in range(8):
                s = np.array([lo + (hi - lo) * rng.uniform(0.15, 0.85)
                              for lo, hi in chart.rectangle])
                for q in (-0.2, 0.1, 0.3):
                    worst = max(worst, abs(rho(chart, s, [q]) - ((r + q) / r) ** 4))
            return worst

        checks.run("sphere-rho-closed-form", sphere_rho, 1e-10)


def suite_dirac(cfg: Config, checks: Checks, fields: GridLevels):
    chart, rep = fields.chart, fields.rep
    residuals = fields.kernel_residuals()
    orth = max(np.abs(gram - np.eye(rep.dim)).max()
               for c in fields.distinct_coeffs() for _, gram in _gram_blocks(c, rep))
    checks.add("kernel-orthonormality", orth, 1e-10)
    if residuals[1] < 1e-13:
        checks.add("kernel-residual-fine", residuals[1], 1e-12)
    else:
        checks.add("kernel-convergence-ratio", residuals[0] / residuals[1], 0.5, center=4.0)

    ff_coarse, ff = fields.levels()
    if chart.n - chart.k == 1 and np.abs(ff.mean_curvature).max() > 1e-6:
        control = float(lift_residuals(ff_coarse, fields.coeffs(cfg.grid), rep,
                                       with_mean=False).min())
        floor = 0.4 * float(np.abs(ff_coarse.mean_curvature).min())
        checks.add_floor("curvature-term-necessity", control, floor)

        # the geometric-measure defect against its limit, the flattened one against zero
        without, with_, limit = selfadjointization_check(chart, frames=ff_coarse)
        checks.run("selfadjointization-defect-geometric-measure", lambda: without / limit,
                   0.05, center=1.0)
        checks.add("selfadjointization-defect-flattened-measure", with_, 1e-6)


def suite_reconstruct(cfg: Config, checks: Checks, fields: GridLevels):
    chart, out_dir = fields.chart, Path(cfg.out)
    report, coords = _reconstruction_study(fields)
    checks.add("bilinear-vs-derivative", report.bilinear_max_deviation, 1e-10)
    errs = report.extras["errors_by_resolution"]
    if max(errs) > 1e-13:
        checks.add("reconstruction-order", report.convergence_order, 0.2, center=2.0)
        checks.add("reconstruction-error-fine", errs[1], max(4 * errs[0] / 3.5, 1e-12))
    else:
        # exact to rounding at both resolutions (plane, graph): the fitted order is noise
        checks.add("reconstruction-error-coarse", errs[0], 1e-13)
        checks.add("reconstruction-error-fine", errs[1], 1e-13)
    if chart.k == 2:
        paths = report.extras["path_residuals"]
        if paths[1] > 1e-13:
            checks.add("path-independence-order", np.log2(paths[0] / paths[1]), 0.3, center=2.0)
        else:
            checks.add("path-independence-residual", paths[1], 1e-13)

    if chart.n in (3, 4) or chart.k == 1:
        export_obj(fields.frames(cfg.grid).x, out_dir / f"{chart.name}-source.obj",
                   chart_id=f"{chart.name} source")
        export_obj(coords[0], out_dir / f"{chart.name}-reconstructed.obj",
                   chart_id=f"{chart.name} reconstructed")


# ---------------------------------------------------------------------------
# driver


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
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
    return parser


def _is_integer(value, low, high=float("inf")) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value <= high)


def _shape(key: str, value, k: int) -> tuple:
    """value as a grid shape of k resolutions, each an integer >= 8."""
    if not (isinstance(value, (list, tuple)) and len(value) == k
            and all(_is_integer(g, 8) for g in value)):
        raise UsageError(f"{key} must list {k} integer resolutions >= 8 (chart dimension "
                         f"k={k}), got {value!r}")
    return tuple(value)


def parse_config(argv=None) -> Config:
    """The flags over the --config document (inline JSON or a file) over DEFAULTS.

    Every value is checked whatever the command, and any fault raises
    UsageError (exit status 2) before a suite runs.  Integers must be exact
    (no bools); one grid resolution applies to every axis; grid defaults to
    the chart's shape.  The refined grid is 2 (g - 1) + 1 per axis, the
    halved step that the grid suites' convergence orders assume.
    """
    args = _parser().parse_args(argv)
    raw = dict(DEFAULTS)
    if args.config is not None:
        text = args.config
        try:
            document = json.loads(text if text.lstrip().startswith("{") else Path(text).read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {text!r}: {exc}") from exc
        if not isinstance(document, dict):
            raise UsageError("config document must be a JSON object")
        raw.update(document)
    raw.update({key: value for key, value in vars(args).items()
                if value is not None and key != "config"})
    if args.grid is not None:
        try:
            raw["grid"] = [int(g) for g in args.grid.split(",")]
        except ValueError:
            raise UsageError(f"--grid takes comma-separated integers, got {args.grid!r}") from None
    unknown = sorted(set(raw) - set(DEFAULTS))
    if unknown:
        raise UsageError(f"unknown config keys {unknown}; accepted: {sorted(DEFAULTS)}")

    if raw["command"] not in COMMANDS:
        raise UsageError(f"unknown command {raw['command']!r}; choose from {COMMANDS}")
    for key, low, high in (("m", 1, 12), ("seed", 0, float("inf")), ("trials", 1, float("inf"))):
        if not _is_integer(raw[key], low, high):
            raise UsageError(f"{key} must be an integer in [{low}, {high}], got {raw[key]!r}")
    pairs = DEFAULT_PAIRS if raw["pairs"] is None else raw["pairs"]
    if not (isinstance(pairs, (list, tuple)) and pairs and all(
            isinstance(p, (list, tuple)) and len(p) == 2 and _is_integer(p[0], 1)
            and _is_integer(p[1], p[0] + 1, 12) for p in pairs)):
        raise UsageError(f"pairs must list integer pairs [k, n] with 1 <= k < n <= 12, "
                         f"got {pairs!r}")
    tolerances = raw["tolerances"]
    if not isinstance(tolerances, dict) or not all(
            isinstance(t, numbers.Real) and not isinstance(t, bool) and 0 <= t <= sys.float_info.max
            for t in tolerances.values()):
        raise UsageError(f"tolerances must map check names to finite numbers >= 0, got {tolerances!r}")
    if not isinstance(raw["out"], str):
        raise UsageError(f"out must be a path string, got {raw['out']!r}")
    out = Path(raw["out"])
    existing = next(p for p in (out, *out.parents) if p.exists())  # run creates the rest
    if not existing.is_dir():
        raise UsageError(f"out {raw['out']!r} cannot be made a directory: {str(existing)!r} "
                         "exists and is not one")
    if not isinstance(raw["params"], dict):
        raise UsageError("params must be a JSON object of chart parameters")
    try:
        chart = catalog_chart(raw["chart"], **raw["params"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    grid = chart.grid_shape if raw["grid"] is None else raw["grid"]
    if not isinstance(grid, (list, tuple)):
        grid = [grid]
    grid = _shape("grid", list(grid) * chart.k if len(grid) == 1 else grid, chart.k)
    refined = tuple(2 * (g - 1) + 1 for g in grid)
    return Config(raw["command"], raw["chart"], raw["params"], grid, refined, raw["m"],
                  tuple(tuple(p) for p in pairs), raw["seed"], raw["trials"], tolerances,
                  raw["out"], chart)


def run(cfg: Config) -> int:
    """Execute one command on a checked configuration; returns the process exit status.

    The grid suites share cfg's compiled chart and one weierstrass.GridLevels
    of its frame fields, lift coefficients and bilinears on the grid and
    the refined grid.
    """
    t0 = time.perf_counter()
    checks = Checks(overrides=cfg.tolerances)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    command = cfg.command
    grid_args = ((GridLevels(cfg.compiled_chart, (cfg.grid, cfg.refined_grid)),)
                 if command in GRID_COMMANDS else ())
    suites = (("verify-algebra", suite_verify_algebra, ()),
              ("verify-reciprocity", suite_verify_reciprocity, ()),
              ("geometry", suite_geometry, grid_args),
              ("dirac", suite_dirac, grid_args),
              ("reconstruct", suite_reconstruct, grid_args))
    for name, suite, extra in suites:
        if command not in (name, "all"):
            continue
        try:
            suite(cfg, checks, *extra)
        except (ValueError, ArithmeticError) as exc:  # numerical failure: report it, go on
            checks.fail(f"{name}-suite", exc)

    report = {
        "command": command,
        "config": {key: getattr(cfg, key) for key in sorted([*DEFAULTS, "refined_grid"])},
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
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
