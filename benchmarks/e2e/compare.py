#!/usr/bin/env python3
"""Compare two sets of benchmark runs under the bounds of BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json

A and B are files written by ``run.py --out`` (each may hold many runs:
several seeds, several workloads).  One row per (end-to-end metric,
workload): the two medians, B's change over A, the bound, each set's own
spread (quartile distance over median) and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better by more than the bound;
* ``within``     neither;
* ``unresolved`` a set's own spread exceeds the bound, so the medians
                 cannot tell (never reported as unchanged) — unless every
                 run of B reads better than every run of A: ``better``.

``failed_share`` has no bound: any increase is ``worse``.  Timings are
also printed divided by ``machine.yardstick_s`` when both sets carry a
traced run (informational, never gated).  Exit status 1 on any
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def spread(values) -> float:
    """Distance between the quartiles over the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a, b, bound: float) -> str:
    """Verdict on lower-is-better values *a* (parent) and *b* (change)."""
    if max(spread(a), spread(b)) > bound:
        return "better" if max(b) < min(a) else "unresolved"
    change = statistics.median(b) / statistics.median(a) - 1.0
    if change > bound:
        return "worse"
    return "better" if change < -bound else "within"


def _load(path: str) -> tuple:
    """``({workload: {metric: [values]}}, yardstick median or None)``."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    values: dict = {}
    for run in runs:
        if run["trace"]:
            continue
        per_metric = values.setdefault(run["workload"], {})
        for metric, value in run["end_to_end"].items():
            per_metric.setdefault(metric, []).append(value)
    yardsticks = [
        run["per_layer"]["machine.yardstick_s"] for run in runs if run["trace"]
    ]
    return values, statistics.median(yardsticks) if yardsticks else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    bounds = {m["name"]: (m["bound"], m["unit"]) for m in benchmark["end_to_end"]}
    (a_runs, a_yard), (b_runs, b_yard) = _load(argv[0]), _load(argv[1])
    worse = 0
    print(f"{'workload':<12} {'metric':<26} {'A':>12} {'B':>12} {'change':>8} "
          f"{'bound':>6} {'sprdA':>6} {'sprdB':>6}  verdict      A/yard   B/yard")
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in a_runs or workload not in b_runs:
            continue
        for metric in [*bounds, "failed_share"]:
            a, b = a_runs[workload][metric], b_runs[workload][metric]
            med_a, med_b = statistics.median(a), statistics.median(b)
            if metric == "failed_share":
                bound, unit = 0.0, "share"
                result = "worse" if statistics.fmean(b) > statistics.fmean(a) else "within"
                change = med_b - med_a
            else:
                bound, unit = bounds[metric]
                result = verdict(a, b, bound)
                change = med_b / med_a - 1.0
            worse += result == "worse"
            normalised = ""
            if unit in ("s", "ms") and a_yard and b_yard:
                scale = 1000.0 if unit == "ms" else 1.0
                normalised = f"{med_a / scale / a_yard:>8.1f} {med_b / scale / b_yard:>8.1f}"
            print(f"{workload:<12} {metric:<26} {med_a:>12.4f} {med_b:>12.4f} {change:>+8.1%} "
                  f"{bound:>6.0%} {spread(a):>6.1%} {spread(b):>6.1%}  {result:<11} {normalised}")
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
