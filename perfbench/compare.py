"""Compare two result sets of the pipeline benchmark.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of result files written by run.py (it writes
them to perfbench/out/results/; move that directory aside between the two
commits).  For every workload and metric present on both sides, one line
gives the base median with its quartiles, the new median with its
quartiles, the ratio new/base and a verdict.

End-to-end metrics carry their bound from BENCHMARK.json.  A pair is
"unresolved" when either side's spread (interquartile range over median)
exceeds the bound, unless every new run beats every base run or loses to
it by more than the bound.  Otherwise it is "worse" when the new median is
worse by more than the bound, "better" when it is better by more than the
base spread, and "same" else.  Per-layer metrics have no bound and get no
verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """(workload, trace) -> metric -> list of values, over every result file.

    Refuses a directory whose runs of one (workload, trace) differ in
    ``--seconds``: a short run, such as one left by a trial, would be
    pooled with full ones.
    """
    out = defaultdict(lambda: defaultdict(list))
    seconds = defaultdict(set)
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        key = (result["workload"], result["trace"])
        seconds[key].add(result["seconds"])
        for name, metric in result["summary"]["metrics"].items():
            out[key][name].append(metric["value"])
    mixed = {key: sorted(s) for key, s in seconds.items() if len(s) > 1}
    if mixed:
        raise SystemExit(f"{directory}: runs of different --seconds in one set: {mixed}")
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0

    def worse_by(b, n):  # share by which n is worse than b
        return sign * (n - b) / b if b else 0.0

    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    base_spread = (b3 - b1) / bm if bm else 0.0
    spread = max(base_spread, (n3 - n1) / nm if nm else 0.0)
    separated = (all(worse_by(b, n) < 0 for b in base for n in new)
                 or all(worse_by(b, n) > bound for b in base for n in new))
    if spread > bound and not separated:
        return "unresolved"
    change = worse_by(bm, nm)
    if change > bound:
        return "worse"
    if -change > base_spread:
        return "better"
    return "same"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])

    def cell(values):
        q1, q2, q3 = quartiles(values)
        return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"

    print(f"{'workload':16} {'metric [unit]':40} {'base median [q1, q3]':36} "
          f"{'new median [q1, q3]':36} {'new/base':>9}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][name], new[key][name]
            meta = info.get(name, {})
            bm, nm = quartiles(b)[1], quartiles(n)[1]
            ratio = f"{nm / bm:9.4f}" if bm else f"{'n/a':>9}"
            print(f"{workload:16} {name + ' [' + meta.get('unit', '?') + ']':40} "
                  f"{cell(b):36} {cell(n):36} {ratio}  "
                  f"{verdict(b, n, meta.get('better', 'lower'), meta.get('bound'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
