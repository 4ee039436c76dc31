"""Compare two sets of benchmark runs, for a claimed gain or a regression check.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the standard output of runs of ``run.py``, one file per
run.  Files are paired in name order, so name them by seed and run the two
sides alternately.  For every workload and metric the script prints each
side's median and quartiles and how many pairs the change wins.  A change is
``better`` when it wins at least nine tenths of ten or more pairs and the medians
differ by more than the parent's quartile distance.  It is ``worse`` when its
median is worse than the parent's by more than the bound in BENCHMARK.json.
A metric whose own spread exceeds its bound is ``unresolved``.

Runs made with numba on and runs made with it off are never compared, nor
runs of different length or trace mode: such a mix is an error.  With numba
installed, ``--kernel fallback`` runs against default runs compare the
compiled kernel with the fallback; without numba both are the fallback.
"""
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> list:
    runs = []
    for path in sorted(directory.iterdir()):
        lines = path.read_text().strip().splitlines()
        context, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append((path.name, context, result))
    return runs


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load_runs(Path(d)) for d in argv]
    contexts = [c for side in sides for _, c, _ in side]
    if len({c["environment"]["numba_enabled"] for c in contexts}) > 1:
        print("compare: runs differ in numba_enabled; they are not comparable", file=sys.stderr)
        return 2
    for key in ("seconds", "trace"):
        if len({c[key] for c in contexts}) > 1:
            print(f"compare: runs differ in {key}; they are not comparable", file=sys.stderr)
            return 2
    declared = json.loads(BENCHMARK.read_text())
    rules = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    workloads = sorted({c["workload"] for c in contexts})
    print(f"{'workload':<12} {'metric':<28} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'ratio':>7} {'wins':>6}  verdict")
    for workload in workloads:
        parent, change = ([r for _, c, r in side if c["workload"] == workload] for side in sides)
        if len(parent) < 2 or len(change) < 2:
            continue
        for name, rule in rules.items():
            if name not in parent[0]["metrics"]:
                continue
            a = [r["metrics"][name]["value"] for r in parent]
            b = [r["metrics"][name]["value"] for r in change]
            sign = 1 if rule["better"] == "higher" else -1
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            pairs = min(len(a), len(b))
            print(f"{workload:<12} {name:<28} {_summary(a):>32} {_summary(b):>32} "
                  f"{_ratio(b, a):>7} {f'{wins}/{pairs}':>6}  "
                  f"{_verdict(a, b, sign, wins, pairs, rule.get('bound'))}")
    return 0


def _summary(v) -> str:
    q = statistics.quantiles(v, n=4)
    return f"{statistics.median(v):.6g} [{q[0]:.4g}, {q[2]:.4g}]"


def _ratio(b, a) -> str:
    ma = statistics.median(a)
    return f"{statistics.median(b) / ma:.3f}" if ma else "-"


def _verdict(a, b, sign, wins, pairs, bound) -> str:
    ma, mb = statistics.median(a), statistics.median(b)
    q = statistics.quantiles(a, n=4)
    if pairs >= 10 and wins >= 0.9 * pairs and abs(mb - ma) > q[2] - q[0]:
        return "better"
    if bound is None or ma == 0:
        return "-"
    if (q[2] - q[0]) / abs(ma) > bound:
        return "unresolved"
    if sign * (ma - mb) / abs(ma) > bound:
        return "worse"
    return "same"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
