"""One cold set-up sample: what a process pays before its first op.

Importing subdirac, compiling the workload's catalogued charts and building
their gamma representations.  run.py calls cold_setup in its own process
and runs this file in fresh interpreters for further samples:

    python3 perfbench/setup_sample.py <src-dir> <chart> [<chart> ...]

which prints one JSON object with the three parts in ms.
"""

import json
import sys
import time


def cold_setup(src, charts):
    """Returns (timings in ms, compiled charts, gamma reps by ambient dimension)."""
    t0 = time.perf_counter()
    if src not in sys.path:
        sys.path.insert(0, src)
    import subdirac

    t1 = time.perf_counter()
    compiled = [subdirac.catalog_chart(name) for name in charts]
    t2 = time.perf_counter()
    reps = {chart.n: subdirac.build_gamma_rep(chart.n) for chart in compiled}
    t3 = time.perf_counter()
    timings = {"import_ms": 1e3 * (t1 - t0), "catalog_chart_ms": 1e3 * (t2 - t1),
               "build_gamma_rep_ms": 1e3 * (t3 - t2), "subdirac": subdirac.__file__}
    return timings, compiled, reps


if __name__ == "__main__":
    print(json.dumps(cold_setup(sys.argv[1], sys.argv[2:])[0]))
