"""Run every workload several times and summarize the end-to-end metrics.

    python3 bench/series.py --runs 10 --out runs.jsonl [--trace] [--workloads library,cli]

Each run is ``run.py`` in a fresh process with seed ``--first-seed + k``
and the run length of ``BENCHMARK.json``.  Runs are appended to ``--out``
(the input of ``compare.py``) as they finish.  The summary gives, per
workload, every end-to-end metric with its unit, median, quartiles, spread
(q3 - q1) / median and bound, and the failed ratio over all jobs.
``--trace`` adds one traced run per workload, prints its per-layer metrics
and the tracing overhead (untraced over traced ``jobs_per_s``).

    python3 bench/series.py --summary runs.jsonl

prints the summary of an existing file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import compare
import corpus
import jobs

RUN = os.path.join(jobs.HERE, "run.py")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=jobs.ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(path: str) -> None:
    spec = compare.benchmark_spec()
    runs: dict[tuple[str, int], list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                runs.setdefault((run["workload"], run["trace"]), []).append(run["result"])
    for (workload, trace), results in sorted(runs.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"\n{workload} ({'traced' if trace else 'untraced'}, {len(results)} runs): "
              f"failed_ratio = {failed / attempted:.4g} ratio (n={attempted} jobs, {failed} failed), "
              f"correct = {correct}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3 = compare.quartiles(values)
            bound = spec.get(name, {}).get("bound")
            note = f"  spread {compare.spread(values):.3f}" if len(values) > 1 else ""
            note += f" bound {bound}" if bound is not None else ""
            print(f"  {name:34} {med:<12.6g} {unit:6} [{q1:.6g}, {q3:.6g}]{note}")
    for (workload, trace), results in sorted(runs.items()):
        if trace and (workload, 0) in runs:
            base = statistics.median(r["metrics"]["jobs_per_s"]["value"] for r in runs[(workload, 0)])
            traced = statistics.median(r["metrics"]["trace.jobs_per_s"]["value"] for r in results)
            print(f"tracing overhead on {workload}: untraced {base:.4g} / traced {traced:.4g} "
                  f"jobs_per_s = {base / traced:.3f}x")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run and summarize benchmark series.")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(corpus.WORKLOADS))
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", help="append runs to this file")
    ap.add_argument("--summary", help="summarize this file and run nothing")
    args = ap.parse_args(argv)
    if args.summary:
        summarize(args.summary)
        return 0
    if not args.out:
        ap.error("--out is required unless --summary is given")
    with open(os.path.join(jobs.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    plan = [(w, args.first_seed + k, 0) for k in range(args.runs) for w in args.workloads.split(",")]
    if args.trace:
        plan += [(w, args.first_seed, 1) for w in args.workloads.split(",")]
    for workload, seed, trace in plan:
        result = run_once(workload, seed, seconds, trace)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                 "result": result}) + "\n")
        print(f"{workload} seed {seed} trace {trace}: attempted {result['attempted']} "
              f"failed {result['failed']}", file=sys.stderr)
    summarize(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
