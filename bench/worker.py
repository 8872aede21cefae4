"""Benchmark worker: a fresh interpreter that runs jobs sent by ``run.py``.

    python3 bench/worker.py probe            # set up, print "ready", exit
    python3 bench/worker.py library [--trace --spans PATH]
    python3 bench/worker.py cli --limit S [--trace --spans PATH]

After set-up the worker prints ``ready``; then it reads one JSON job per
line from stdin and answers one JSON line per job: ``{"s": seconds,
"out": output}``, or ``{"error": text}``, plus ``"layers"`` (the job's
per-layer counters) when tracing, ``"rss_kb"``, the peak RSS so far (its
own for library jobs, the largest among its ``toricheight`` child processes
for CLI jobs), and, about once a second, ``"ref"``, the time of a
reference block run after the job.  It exits at end of input.

A library worker runs the jobs in its own interpreter, so ``run.py``
enforces the per-job time limit by killing it.  A CLI worker starts one
``toricheight`` process per job and kills any that outlives ``--limit``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback

import jobs

REF_INTERVAL_S = 1.0  # seconds between reference blocks


class _Reference:
    """Runs a reference block after a job when ``REF_INTERVAL_S`` has passed
    since the last one, so that the parent can tell the machine's speed
    during the run."""

    def __init__(self):
        self.last = float("-inf")

    def maybe(self, reply: dict) -> None:
        if time.perf_counter() - self.last >= REF_INTERVAL_S:
            reply["ref"] = jobs.reference_block()
            self.last = time.perf_counter()


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def _requests():
    for line in sys.stdin:
        if line.strip():
            yield json.loads(line)


def serve_library(trace: bool, spans_path: str | None) -> int:
    th = jobs.import_package()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(th)
    jobs.first_use_setup(th)
    reference = _Reference()
    _reply("ready")
    for req in _requests():
        before = tracer.snapshot() if tracer else None
        if tracer:
            tracer.job = req["i"]
        try:
            dt, out = jobs.run_library(th, req["job"])
            reply = {"s": dt, "out": out}
        except Exception:  # the job failed; report it and keep serving
            reply = {"error": traceback.format_exc(limit=3)}
        if tracer:
            reply["layers"] = tracing.delta(tracer.snapshot(), before)
        reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reference.maybe(reply)
        _reply(reply)
    if tracer and spans_path:
        tracing.write_spans(spans_path, tracer.spans)
    return 0


def serve_cli(limit: float, trace: bool, spans_path: str | None) -> int:
    workdir = os.path.join(jobs.ROOT, ".bench_out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    launcher = [os.path.join(jobs.HERE, "cli_traced.py")] if trace else None
    trace_file = os.path.join(workdir, "trace.json")
    spans = []
    reference = _Reference()
    _reply("ready")
    try:
        for req in _requests():
            env = jobs.cli_env()
            if trace:
                if os.path.exists(trace_file):
                    os.remove(trace_file)
                env["BENCH_TRACE_FILE"] = trace_file
                env["BENCH_SPAWN_T"] = repr(time.monotonic())
            try:
                dt, out = jobs.run_cli(req["job"], workdir, limit, launcher, env)
                reply = {"s": dt, "out": out}
            except subprocess.TimeoutExpired:
                reply = {"timeout": True}
            if trace and os.path.exists(trace_file):
                with open(trace_file, encoding="utf-8") as fh:
                    data = json.load(fh)
                reply["layers"] = data["totals"]
                spans += [(req["i"], *span[1:]) for span in data["spans"]]
            reply["rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            reference.maybe(reply)
            _reply(reply)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if spans_path and trace:
        import tracing

        tracing.write_spans(spans_path, spans)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("probe", "library", "cli"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--limit", type=float, default=30.0)
    args = ap.parse_args(argv)
    if args.mode == "probe":
        jobs.first_use_setup(jobs.import_package())
        _reply("ready")
        return 0
    if args.mode == "library":
        return serve_library(args.trace, args.spans)
    return serve_cli(args.limit, args.trace, args.spans)


if __name__ == "__main__":
    sys.exit(main())
