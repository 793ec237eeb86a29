#!/usr/bin/env python3
"""Compare two sets of qdvbench results (python3 stdlib only).

    compare.py A.json [A2.json ...] --vs B.json [B2.json ...] [--bounds BENCHMARK.json]

A is the parent (baseline), B the change. Each file is a result written by
`run.sh --out`; its runs are taken in order, and A's k-th run is paired with
B's k-th run, so alternate the two sides when recording them.

One row per workload and end-to-end metric of BENCHMARK.json, plus
error_rate (bound 0). Verdicts:

  gain        at least 10 pairs, B wins at least 9 in 10 of them (ties count
              for neither), and the medians differ by more than A's
              interquartile range
  better      A's spread exceeds the bound, but every B run beats every A run
  unresolved  A's spread (interquartile range / median) exceeds the bound
  regression  B's median is worse than A's by more than the bound
  ok          within the bound

Exits 1 when any row is a regression.
"""
import json
import statistics
import sys
from pathlib import Path


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.extend(json.load(f)["runs"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def values_of(runs, workload, metric):
    out = []
    for run in runs:
        result = run.get(workload)
        if result is None:
            continue
        if metric == "error_rate":
            out.append(result["error_rate"])
        elif metric in result["metrics"]:
            out.append(result["metrics"][metric]["value"])
    return out


def verdict(a, b, better, bound):
    """The section-8 rule for one workload x metric."""
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    spread = (q3 - q1) / abs(med_a) if med_a else 0.0
    worse = sign * (med_a - med_b) / abs(med_a) if med_a else sign * (med_a - med_b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (len(pairs) >= 10 and wins * 10 >= 9 * len(pairs)
            and sign * (med_b - med_a) > (q3 - q1)):
        return "gain", spread, worse, wins, len(pairs)
    if spread > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better", spread, worse, wins, len(pairs)
        return "unresolved", spread, worse, wins, len(pairs)
    if worse > bound:
        return "regression", spread, worse, wins, len(pairs)
    return "ok", spread, worse, wins, len(pairs)


def main(argv):
    if "--vs" not in argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bounds_path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    if "--bounds" in argv:
        k = argv.index("--bounds")
        bounds_path = Path(argv[k + 1])
        argv = argv[:k] + argv[k + 2:]
    split = argv.index("--vs")
    a_runs, b_runs = load_runs(argv[:split]), load_runs(argv[split + 1:])
    if not a_runs or not b_runs:
        print("compare.py: each side needs at least one result file", file=sys.stderr)
        return 2
    with open(bounds_path) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("error_rate", "fraction", "lower", 0.0))

    print("%-8s %-15s %-9s %12s %25s %12s %25s %8s %8s %6s %6s  %s" % (
        "workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3",
        "worse%", "spread%", "bound%", "wins", "verdict"))
    regressions = 0
    for w in spec["workloads"]:
        for name, unit, better, bound in metrics:
            a, b = values_of(a_runs, w["name"], name), values_of(b_runs, w["name"], name)
            if not a or not b:
                print("%-8s %-15s missing on one side" % (w["name"], name))
                continue
            v, spread, worse, wins, pairs = verdict(a, b, better, bound)
            regressions += v == "regression"
            print("%-8s %-15s %-9s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g %8.2f %8.2f %6.1f %3d/%-2d  %s" % (
                w["name"], name, unit, statistics.median(a), *quartiles(a),
                statistics.median(b), *quartiles(b), 100 * worse + 0.0, 100 * spread,
                100 * bound, wins, pairs, v))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
