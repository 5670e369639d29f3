"""Pipeline benchmark for subdirac.

    python3 perfbench/run.py --workload sphere-cli --seed 1 --seconds 35 --trace 0

Drives the public entry points from outside the package: the CLI through
``subdirac.cli.main([...])`` in this process, and the pointwise library
functions.  Each workload is a closed loop with one client: an op starts
when the previous one has ended.  A run does the workload's minimum op
count, then goes on while the next op should end within ``--seconds``.
Every op is checked; a failed op is counted, never fatal.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics; the spans go to perfbench/out/spans/ when the run ends.  Every run
writes its full result, with the environment, to perfbench/out/results/.
The last line of stdout is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from setup_sample import cold_setup
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Ops are small-matrix work that BLAS threads do not speed up; one thread
# keeps the timings steady on a shared machine.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CHILDREN = 4  # fresh-interpreter set-up samples, besides this process's own


class CliWorkload:
    """One op: ``--command dirac`` then ``--command reconstruct`` on one chart.

    The seed draws the chart radius r in [0.85, 1.2]; the work per op does
    not depend on r.
    """

    min_ops = 3

    def __init__(self, chart, grid):
        self.charts = (chart,)
        self.chart, self.grid = chart, grid

    def start(self, seed, workdir, compiled, reps):
        self.cli = importlib.import_module("subdirac.cli")
        self.workdir = workdir
        self.config = json.dumps({"params": {"r": round(random.Random(seed).uniform(0.85, 1.2), 6)}})
        self.seed = seed
        self.objs = [workdir / f"{self.chart}-{kind}.obj" for kind in ("source", "reconstructed")]

    def prepare(self, i):
        for path in self.objs:
            path.unlink(missing_ok=True)

    def run(self, i):
        ok, extra = True, {}
        for command in ("dirac", "reconstruct"):
            argv = ["--command", command, "--chart", self.chart, "--grid", str(self.grid),
                    "--seed", str(self.seed), "--config", self.config, "--out", str(self.workdir)]
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                status = self.cli.main(argv)
            extra[f"{command}_ms"] = 1e3 * (time.perf_counter() - t0)
            if status != 0 or "[FAIL]" in buf.getvalue():
                ok = False
                sys.stderr.write(f"{command} exited {status}:\n{buf.getvalue()}")
        extra["obj_bytes"] = sum(p.stat().st_size for p in self.objs if p.is_file())
        return ok and all(p.is_file() for p in self.objs), extra


class ProbeWorkload:
    """One op: a pointwise query at a seeded interior point of each chart.

    The sphere query runs first, then the clifford-torus-r4 one.  An op
    holds both because the two charts' query times form two separate modes:
    the median over single queries falls in the gap between them and moves
    with the noise far more than the median over pairs.  Steps of a query,
    each checked at the tolerance the library's own suites use:
      1. adapted_frames, weingarten, rho at +-1e-5: mean curvature equals the
         slope of sqrt(rho) (1e-6);
      2. spin_lift of the frame, recover_rotation gives it back (1e-12);
      3. reference_intertwiner(k, n).with_tau(tau): check_reciprocity on
         seeded spinors (1e-12);
      4. the rotor u*w of seeded vectors is in the Clifford group and its
         adjoint rotation has determinant 1 (1e-10).
    """

    charts = ("sphere", "clifford-torus-r4")
    min_ops = 1000  # so the p99 has at least ten samples beyond it
    delta = 1e-5

    def start(self, seed, workdir, compiled, reps):
        import numpy as np

        self.np = np
        self.sd = importlib.import_module("subdirac")
        self.rng = np.random.default_rng(seed)
        self.compiled, self.reps = compiled, reps

    def prepare(self, i):
        self.queries = [self._draw(chart) for chart in self.compiled]

    def _draw(self, chart):
        rng = self.rng
        s = self.np.array([lo + (hi - lo) * rng.uniform(0.15, 0.85) for lo, hi in chart.rectangle])
        dn, dk = 1 << (chart.n // 2), 1 << (chart.k // 2)
        psi = rng.normal(size=dn) + 1j * rng.normal(size=dn)
        phi = rng.normal(size=dk) + 1j * rng.normal(size=dk)
        return chart, s, psi, phi, rng.normal(size=chart.n), rng.normal(size=chart.n)

    def run(self, i):
        results = [self._query(i, *query) for query in self.queries]
        return all(results), {}

    def _query(self, i, chart, s, psi, phi, u, w):
        sd, np = self.sd, self.np
        k, n = chart.k, chart.n
        rep = self.reps[n]

        frame = sd.adapted_frames(chart, s)
        gamma, _, mean = sd.weingarten(chart, s, frame)
        slope_err = 0.0
        for d in range(n - k):
            q = np.zeros(n - k)
            q[d] = self.delta
            slope = (math.sqrt(sd.rho(chart, s, q, gamma=gamma))
                     - math.sqrt(sd.rho(chart, s, -q, gamma=gamma))) / (2 * self.delta)
            slope_err = max(slope_err, abs(slope - mean[d]))

        tau = sd.spin_lift(frame.rotation, rep)
        rot_err = np.abs(sd.recover_rotation(tau, rep) - frame.rotation).max()

        intw = sd.reference_intertwiner(k, n).with_tau(tau)
        recip_err = sd.check_reciprocity(sd.Spinor(n, psi), sd.Spinor(k, phi), intw)

        rotor = sd.Multivector.from_vector(u) * sd.Multivector.from_vector(w)
        in_group = sd.is_clifford_group(rotor)
        det_err = abs(np.linalg.det(sd.adjoint_rotation(rotor)) - 1.0)

        ok = (slope_err <= 1e-6 and rot_err <= 1e-12 and recip_err <= 1e-12
              and in_group and det_err <= 1e-10)
        if not ok:
            sys.stderr.write(f"op {i} on {chart.name}: slope {slope_err:.3e} rotation "
                             f"{rot_err:.3e} reciprocity {recip_err:.3e} group {in_group} "
                             f"det {det_err:.3e}\n")
        return ok


WORKLOADS = {
    "sphere-cli": lambda: CliWorkload("sphere", 65),
    "torus4-cli": lambda: CliWorkload("clifford-torus-r4", 33),
    "pointwise-probe": ProbeWorkload,
}


# ---------------------------------------------------------------------------
# set-up and environment


def setup_samples(charts):
    """Set-up timings: this process's own (cold), then fresh interpreters."""
    own, compiled, reps = cold_setup(str(SRC), list(charts))
    if Path(own["subdirac"]).resolve().parent != SRC / "subdirac":
        raise SystemExit(f"imported subdirac from {own['subdirac']}, not from {SRC}")
    samples = [own]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run([sys.executable, str(HERE / "setup_sample.py"), str(SRC), *charts],
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples, compiled, reps


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(seed):
    import numpy
    import scipy
    import sympy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the closed loop


def drive(workload, seconds, tracer):
    """Run ops back to back; in trace mode every other op is traced.

    Runs workload.min_ops ops, then goes on while the next op, at the mean
    op time so far, ends within ``seconds``.
    """
    records = []
    t_start = time.perf_counter()
    i = 0

    def more():
        if i < workload.min_ops:
            return True
        elapsed = time.perf_counter() - t_start
        return elapsed + elapsed / i <= seconds

    while more():
        traced = tracer is not None and i % 2 == 1
        workload.prepare(i)
        if traced:
            tracer.op = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            ok, extra = workload.run(i)
        except Exception:  # a crashed op is a failed op, not a crashed run
            traceback.print_exc(file=sys.stderr)
            ok, extra = False, {}
        ms = 1e3 * (time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
        records.append({"op": i, "ms": ms, "ok": bool(ok), "traced": traced, **extra})
        i += 1
    return records


def _median(values):
    return statistics.median(values) if values else 0.0


def _p99(values):
    return statistics.quantiles(values, n=100)[98] if len(values) >= 2 else _median(values)


def end_to_end_metrics(records, setups):
    ms = [r["ms"] for r in records]
    return {
        "setup_s": _median([sum(s[k] for k in ("import_ms", "catalog_chart_ms",
                                                "build_gamma_rep_ms")) for s in setups]) / 1e3,
        "op_ms": _median(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


OPERATOR_ASSEMBLY = ("dirac.submanifold_dirac", "dirac.intrinsic_dirac")


def _operator_bytes(op):
    return op.axis_matrices.nbytes + op.potential.nbytes


def per_layer_metrics(records, setups, tracer):
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n_ops = max(len(traced), 1)
    roll = tracer.rollup()

    def row(name):
        return roll.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})

    def total_ms(*names):
        return sum(row(nm)["total_ns"] for nm in names) / 1e6 / n_ops

    def self_ms(name):
        return row(name)["self_ns"] / 1e6 / n_ops

    def calls(name):
        return row(name)["calls"] / n_ops

    cli_self = sum(r["self_ns"] for nm, r in roll.items() if nm.startswith("cli.")) / 1e6 / n_ops
    # cli.main is the root of every CLI op and self times nest exactly, so
    # counting cli.* would make the covered time equal the op however
    # little the layers explain.
    layer_self = sum(r["self_ns"] for nm, r in roll.items() if not nm.startswith("cli.")) / 1e6
    return {
        "dirac.frame_lift_field_ms": self_ms("dirac.frame_lift_field"),
        "spinors.spin_lift_ms": total_ms("spinors.spin_lift"),
        "spinors.spin_lift.calls": calls("spinors.spin_lift"),
        "dirac.frame_lift_field.calls": calls("dirac.frame_lift_field"),
        "dirac.frame_lift_field.scaling": tracer.scaling("dirac.frame_lift_field"),
        "geometry.build_frame_field_ms": total_ms("geometry.build_frame_field"),
        "geometry.build_frame_field.calls": calls("geometry.build_frame_field"),
        "geometry.build_frame_field.scaling": tracer.scaling("geometry.build_frame_field"),
        "dirac.operator_assembly_ms": total_ms("dirac.submanifold_dirac", "dirac.intrinsic_dirac"),
        "dirac.operator_bytes": tracer.hook_total(OPERATOR_ASSEMBLY) / n_ops,
        "dirac.dirac_residual_ms": total_ms("dirac.dirac_residual"),
        "dirac.selfadjointization_check_ms": total_ms("dirac.selfadjointization_check"),
        "weierstrass.immersion_bilinears_ms": self_ms("weierstrass.immersion_bilinears"),
        "weierstrass.reconstruct_immersion_ms": total_ms("weierstrass.reconstruct_immersion"),
        "meshio.export_obj_ms": total_ms("meshio.export_obj"),
        "meshio.obj_bytes": _median([r.get("obj_bytes", 0) for r in records]),
        "cli.self_ms": cli_self,
        "cli.dirac_ms": _median([r["dirac_ms"] for r in plain if "dirac_ms" in r]),
        "cli.reconstruct_ms": _median([r["reconstruct_ms"] for r in plain if "reconstruct_ms" in r]),
        "geometry.adapted_frames_ms": total_ms("geometry.adapted_frames"),
        "geometry.weingarten_ms": total_ms("geometry.weingarten"),
        "geometry.rho_ms": total_ms("geometry.rho"),
        "spinors.recover_rotation_ms": total_ms("spinors.recover_rotation"),
        "reciprocity.check_reciprocity_ms": total_ms("reciprocity.check_reciprocity"),
        "clifford.is_clifford_group_ms": total_ms("clifford.is_clifford_group"),
        "clifford.adjoint_rotation_ms": total_ms("clifford.adjoint_rotation"),
        "setup.import_ms": _median([s["import_ms"] for s in setups]),
        "geometry.catalog_chart_ms": _median([s["catalog_chart_ms"] for s in setups]),
        "spinors.build_gamma_rep_ms": _median([s["build_gamma_rep_ms"] for s in setups]),
        "trace.overhead": (_median([r["ms"] for r in traced]) / _median([r["ms"] for r in plain])
                           if traced and plain else 0.0),
        "trace.coverage": layer_self / sum(r["ms"] for r in traced) if traced else 0.0,
    }


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subdirac" / "__init__.py").is_file():
        print(f"no subdirac sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads, here and in children

    workload = WORKLOADS[args.workload]()
    setups, compiled, reps = setup_samples(workload.charts)
    env = environment(args.seed)
    print("environment: " + json.dumps(env), flush=True)

    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer("subdirac", {name: _operator_bytes for name in OPERATOR_ASSEMBLY})
    t_origin = time.perf_counter_ns()
    try:
        workload.start(args.seed, workdir, compiled, reps)
        records = drive(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values, kind = end_to_end_metrics(records, setups), "end_to_end"
    else:
        values, kind = per_layer_metrics(records, setups, tracer), "per_layer"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    failed = sum(not r["ok"] for r in records)
    summary = {"correct": failed == 0, "attempted": len(records), "failed": failed,
               "metrics": metrics}

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "summary": summary,
              "diagnostics": _diagnostics(records), "setup_samples": setups, "ops": records}
    (OUT / "results" / f"{stamp}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        spans = {"workload": args.workload, "seed": args.seed, **tracer.dump(t_origin),
                 "rollup": tracer.rollup(), "overhead": values["trace.overhead"]}
        (OUT / "spans" / f"{stamp}.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(summary))
    return 0


def _diagnostics(records):
    """Figures kept in the result file but not reported as metrics."""
    plain = [r for r in records if not r["traced"]]
    out = {"ops": len(plain), "op_p99_ms": _p99([r["ms"] for r in plain])}
    for key in ("dirac_ms", "reconstruct_ms"):
        vals = [r[key] for r in plain if key in r]
        if vals:
            out[key] = _median(vals)
    return out


if __name__ == "__main__":
    sys.exit(main())
