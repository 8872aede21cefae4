"""Benchmark runner: one run of one workload.

    python3 bench/run.py --workload library --seed 1 --seconds 55 --trace 0

Workloads (see ``corpus.py``): ``library`` cycles through normalized
heights (1-D to 4-D), arithmetic Hilbert norms and Hilbert weights, and
multiheights, mixed integrals and mixed volumes, called in one process;
``cli`` runs one ``toricheight`` process per document.  Each run starts
fresh worker processes, one at a time, and drives them in a closed loop
with one caller: the next job is sent when the previous one has answered.
Every job's output is checked exactly against the corpus's golden value.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``jobs_per_s``  correct jobs per second of the timed phase;
* ``job_s.p50``   median time of one job (a whole process for ``cli``);
* ``job_s.tail``  the workload's tail percentile of job time;
* ``setup_s``     median wall time of ``SETUP_SAMPLES`` fresh interpreters
  that import ``toricheight`` and do the lazy first-use set-up;
* ``peak_rss_mb`` peak RSS of the worker (of its largest ``toricheight``
  child for ``cli``) over the workload's first ``prefix`` jobs.

Job times and ``jobs_per_s`` are scaled to a fixed machine speed: the
worker times ``jobs.reference_block()`` about once a second, and with
``R`` the median of those times in the run, job times are multiplied and
``jobs_per_s`` divided by ``REF_S / R``.  The reference shares no code
with the program, so a change to the program does not move ``R``; what it
removes is the machine's own drift in speed between runs.  The unscaled
figures are printed on the first line.

Every run completes at least the ``prefix`` jobs, even past ``--seconds``,
so that peak RSS and the traced counts measure a fixed amount of work.
With ``--trace 1`` the worker runs with the layer wrappers of
``tracing.py`` and the run reports the per-layer metrics summed over the
prefix (unscaled), so that counts repeat exactly for a seed, plus
``trace.jobs_per_s`` (scaled) over the whole timed phase; its spans go to
``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A job fails if it
raises, outlives the per-job limit, or gives a wrong value or exit code;
``failed / attempted`` is the run's failed ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import corpus
import jobs
import tracing

SETUP_SAMPLES = 5
# Time of jobs.reference_block() on the recording machine at its usual speed
# (2 vCPU, Python 3.11.7): the speed every reported time is scaled to.
REF_S = 0.012
JOB_LIMIT_S = 30.0
START_LIMIT_S = 60.0
WORKER = os.path.join(jobs.HERE, "worker.py")
OUT_DIR = os.path.join(jobs.ROOT, ".bench_out")


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process; ``startup_s`` is the time from spawn to ready."""

    def __init__(self, mode: str, trace: bool = False, spans: str | None = None):
        cmd = [sys.executable, WORKER, mode, "--limit", str(JOB_LIMIT_S)]
        if trace:
            cmd += ["--trace", "--spans", spans]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=jobs.ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            ready = self._read(START_LIMIT_S)
        except WorkerError:
            self.kill()
            raise
        self.startup_s = time.perf_counter() - t0
        if ready != "ready":
            self.kill()
            raise WorkerError(f"worker did not start: {ready!r}")

    def _read(self, timeout: float):
        fd = self.proc.stdout
        if not select.select([fd], [], [], timeout)[0]:
            raise TimeoutError
        line = fd.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    @property
    def alive(self) -> bool:
        return self.proc.returncode is None

    def run(self, i: int, job: dict, limit: float) -> dict:
        """The worker's answer; a worker that outlives ``limit`` or dies
        is killed, and the job counts as timed out or raised."""
        try:
            self.proc.stdin.write((json.dumps({"i": i, "job": job}) + "\n").encode())
            self.proc.stdin.flush()
            return self._read(limit)
        except TimeoutError:
            self.kill()
            return {"timeout": True}
        except (WorkerError, BrokenPipeError) as exc:
            self.kill()
            return {"error": f"worker died: {exc}"}

    def close(self) -> None:
        """End the worker's input and wait for it to write its spans and exit."""
        self.proc.stdin.close()
        try:
            self.proc.wait(START_LIMIT_S)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe and not pipe.closed:
                pipe.close()


def percentile(values, pct: int) -> float:
    """Percentile, interpolated between the nearest order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_setup() -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = Worker("probe")
        samples.append(probe.startup_s)
        probe.kill()
    return samples


def timed_phase(data: dict, workload: str, seed: int, seconds: float, trace: bool):
    """Closed loop over the seeded job sequence for ``seconds`` and at
    least the workload's prefix.  Returns the per-job records and the
    timed wall time."""
    mode = "cli" if workload == "cli" else "library"
    prefix = corpus.WORKLOADS[workload]["prefix"]
    spans_path = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}")
    records, elapsed, started = [], 0.0, 0
    worker, worker_pass = None, None
    sequence = corpus.order(data, seed)
    try:
        while elapsed < seconds or len(records) < prefix:
            pass_no, idx = next(sequence)
            if worker is None or pass_no != worker_pass:
                if worker is not None:
                    worker.close()
                # a fresh worker per pass, so no cache outlives its pass;
                # starting it is set-up, outside the timed phase
                started += 1
                spans = spans_path and f"{spans_path}-{started}.jsonl.gz"
                worker, worker_pass = Worker(mode, trace, spans), pass_no
            entry = data["jobs"][idx]
            t0 = time.perf_counter()
            reply = worker.run(len(records), entry["job"], JOB_LIMIT_S + 5)
            elapsed += time.perf_counter() - t0
            if not worker.alive:
                worker = None
            records.append((idx, entry, reply))
        if worker is not None:
            worker.close()
            worker = None
    finally:
        if worker is not None:
            worker.kill()
    return records, elapsed


def check(records):
    """Per-job (seconds, ok) and the messages of failed jobs; a failed job
    counts as taking the whole time limit."""
    results, problems = [], []
    for idx, entry, reply in records:
        if reply.get("timeout"):
            results.append((JOB_LIMIT_S, False))
            problems.append(f"job {idx} ({entry['kind']}): exceeded {JOB_LIMIT_S:.0f}s")
        elif "error" in reply:
            results.append((JOB_LIMIT_S, False))
            problems.append(f"job {idx} ({entry['kind']}): raised\n{reply['error']}")
        elif reply["out"] != entry["golden"]:
            results.append((reply["s"], False))
            problems.append(f"job {idx} ({entry['kind']}): got {reply['out']}, "
                            f"expected {entry['golden']}")
        else:
            results.append((reply["s"], True))
    return results, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus", help="corpus file (default: the committed one for the workload)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(jobs.SRC, "toricheight", "__init__.py")):
        print(f"bench: no toricheight sources under {jobs.SRC}", file=sys.stderr)
        return 2
    data = corpus.load(args.corpus or corpus.corpus_path(args.workload))
    if data["workload"] != args.workload:
        print(f"bench: {args.corpus} holds the {data['workload']} workload", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    tail = corpus.WORKLOADS[args.workload]["tail"]
    prefix = corpus.WORKLOADS[args.workload]["prefix"]

    setup = [] if trace else measure_setup()
    records, elapsed = timed_phase(data, args.workload, args.seed, args.seconds, trace)
    results, problems = check(records)
    for msg in problems[:5]:
        print(f"bench: FAILED {msg}", file=sys.stderr)

    attempted = len(results)
    failed = sum(1 for _, ok in results if not ok)
    refs = [reply["ref"] for _, _, reply in records if "ref" in reply]
    slowdown = statistics.median(refs) / REF_S if refs else 1.0
    times = [s / slowdown for s, _ in results]
    busy = elapsed - sum(refs)  # the timed phase without the reference blocks
    jobs_per_s = (attempted - failed) * slowdown / busy
    timeouts = sum(1 for _, _, reply in records if reply.get("timeout"))
    rss_kb = max(reply.get("rss_kb", 0) for _, _, reply in records[:prefix])

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} jobs in "
          f"{busy:.2f} s, failed_ratio {failed / attempted:.4f} ({failed}/{attempted}); "
          f"machine {slowdown:.3f}x slower than the reference speed (n={len(refs)} blocks), "
          f"unscaled jobs_per_s {jobs_per_s / slowdown:.4f}")
    if trace:
        totals: dict[str, float] = {}
        for _, _, reply in records[:prefix]:
            for key, val in reply.get("layers", {}).items():
                totals[key] = totals.get(key, 0) + val
        values = tracing.report(totals)
        values["trace.jobs_per_s"] = jobs_per_s
        units = tracing.metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        print(f"# per-layer metrics summed over the first {prefix} jobs")
    else:
        metrics = {
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "job_s.p50": {"value": statistics.median(times), "unit": "s"},
            "job_s.tail": {"value": percentile(times, tail), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
        counts = {"jobs_per_s": 1, "job_s.p50": attempted, "job_s.tail": attempted,
                  "setup_s": len(setup), "peak_rss_mb": prefix}
        for name, m in metrics.items():
            label = f"{name} (p{tail})" if name == "job_s.tail" else name
            print(f"# {label} = {m['value']:.6g} {m['unit']} (n={counts[name]})")
    print(json.dumps({"correct": failed == timeouts, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
