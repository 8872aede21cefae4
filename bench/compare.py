"""Compare two sets of benchmark runs.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the runs of one commit, as ``series.py`` writes them.  Runs
are paired by workload, seed and trace flag.  One row per (metric,
workload) gives each side's median and quartiles, the fraction of pairs
the change won (ties count for neither side) and a verdict:

* ``improved``   the change won at least 9/10 of the pairs and its median
  is better by more than the spread (q3 - q1) of the base runs;
* ``no worse``   the change's median is within the metric's bound from
  ``BENCHMARK.json`` of the base median;
* ``regressed``  it is worse than that;
* ``unresolved`` the runs spread wider than the bound and not every change
  run beat every base run, or the metric has no bound;
* ``unchanged``  every pair read the same (counts).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import jobs


def benchmark_spec() -> dict:
    with open(os.path.join(jobs.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """(q3 - q1) / median, the benchmark's run-to-run spread."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def load_runs(path: str) -> dict:
    """{(workload, seed, trace): {metric: value}}"""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                values = {k: m["value"] for k, m in run["result"]["metrics"].items()}
                runs[(run["workload"], run["seed"], run["trace"])] = values
    return runs


def verdict(base, change, better: str, bound) -> tuple[float, str]:
    """(fraction of pairs won, verdict) for paired lists of values."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, change))
    if all(b == c for b, c in pairs):
        return 0.0, "unchanged"
    won = sum(1 for b, c in pairs if sign * (c - b) > 0) / len(pairs)
    bq, cq = quartiles(base), quartiles(change)
    gain = sign * (cq[1] - bq[1])
    if won >= 0.9 and gain > bq[2] - bq[0]:
        return won, "improved"
    every_better = all(sign * (c - b) > 0 for b in base for c in change)
    if bound is None or (max(spread(base), spread(change)) > bound and not every_better):
        return won, "unresolved"
    return won, "no worse" if -gain <= bound * abs(bq[1]) else "regressed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = benchmark_spec()
    base, change = load_runs(args.base), load_runs(args.change)
    keys = sorted(set(base) & set(change))
    if not keys:
        print("no paired runs (same workload, seed and trace) in the two files", file=sys.stderr)
        return 2
    rows = {}
    for key in keys:
        workload = key[0]
        for metric in base[key].keys() & change[key].keys():
            rows.setdefault((metric, workload), []).append((base[key][metric], change[key][metric]))
    print(f"{'metric':34} {'workload':8} {'n':>3}  {'base median [q1, q3]':31} "
          f"{'change median [q1, q3]':31} {'won':>5}  verdict")
    for (metric, workload), pairs in sorted(rows.items()):
        b, c = [p[0] for p in pairs], [p[1] for p in pairs]
        m = spec.get(metric, {})
        won, word = verdict(b, c, m.get("better", "lower"), m.get("bound"))
        bq, cq = quartiles(b), quartiles(c)
        print(f"{metric:34} {workload:8} {len(pairs):3d}  "
              f"{bq[1]:<10.5g} [{bq[0]:.5g}, {bq[2]:.5g}]".ljust(84)
              + f"{cq[1]:<10.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(32)
              + f"{won:5.2f}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
