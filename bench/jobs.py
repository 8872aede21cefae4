"""Execute one benchmark job and reduce its output to a canonical, exactly
comparable form.

A job is a JSON object.  Library jobs carry an ``op`` and the data of one
public call; CLI jobs carry an ``argv`` and the input ``files`` that the
``toricheight`` process reads.  ``run_library`` and ``run_cli`` return
``(seconds, output)``, where ``seconds`` times the call alone and ``output``
is what the corpus stores as the golden value.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The console script's entry point, without relying on an installed script.
CLI_MAIN = "import sys; from toricheight.cli import main; sys.exit(main())"


def import_package():
    """Import ``toricheight`` from this checkout's ``src``, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "toricheight", "__init__.py")):
        raise SystemExit(f"bench: no toricheight sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import toricheight

    if not os.path.abspath(toricheight.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported {toricheight.__file__}, not the checkout")
    return toricheight


def first_use_setup(th) -> None:
    """The lazy set-up every computation with coefficients pays once:
    the factorization backend is imported on the first ``relevant_places``."""
    th.relevant_places([6])


def reference_block() -> float:
    """Seconds taken by a fixed block of standard-library work in the style
    of the program's inner loops: exact Gaussian elimination on small
    ``Fraction`` matrices and tuple-keyed dictionary updates.  It shares no
    code with ``toricheight``, so its time measures how fast the machine is
    running at that moment, not the program.  The garbage collector is
    paused so that the size of the caller's heap does not enter it."""
    rng = random.Random(7)
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(6):
            m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(7)] for _ in range(7)]
            for c in range(7):
                p = next((r for r in range(c, 7) if m[r][c]), None)
                if p is None:
                    continue
                m[c], m[p] = m[p], m[c]
                for r in range(c + 1, 7):
                    f = m[r][c] / m[c][c]
                    if f:
                        m[r] = [a - f * b for a, b in zip(m[r], m[c])]
            table: dict = {}
            for i in range(3000):
                key = (i % 31, i % 17, i % 5)
                table[key] = table.get(key, 0) + i
        return time.perf_counter() - t0
    finally:
        gc.enable()


def canon(x) -> dict:
    """Coefficient map of an exact value as strings: ``{"constant": "0",
    "2": "7", "3": "3"}`` for ``7*log(2) + 3*log(3)``."""
    from toricheight.exactnum import as_loglinear

    return {k: str(v) for k, v in as_loglinear(x).coefficient_map().items()}


def _pair(th, doc):
    return th.MonomialPair.make(doc["exponents"], [Fraction(c) for c in doc["coefficients"]])


def _weights(doc):
    return [Fraction(w) for w in doc["weights"]]


def run_library(th, job):
    """Run one library job.  Functions are looked up on the package at call
    time so that a tracer installed on the package namespaces sees them."""
    op = job["op"]
    if op == "height":
        pair = _pair(th, job)
        t0 = time.perf_counter()
        rep = th.normalized_height(pair)
        dt = time.perf_counter() - t0
        return dt, {"value": canon(rep.value), "degree": rep.degree}
    if op == "hnorm":
        pair = _pair(th, job)
        t0 = time.perf_counter()
        val = th.arithmetic_hilbert_norm(pair, job["degree"])
        dt = time.perf_counter() - t0
        return dt, {"value": canon(val)}
    if op == "hilbert_weight":
        exps, weights = job["exponents"], _weights(job)
        t0 = time.perf_counter()
        val = th.hilbert_weight(exps, weights, job["degree"])
        dt = time.perf_counter() - t0
        return dt, {"value": canon(val)}
    if op == "multiheight":
        family = th.EmbeddingFamily(tuple(_pair(th, m) for m in job["pairs"]))
        t0 = time.perf_counter()
        rep = th.multiheight(family)
        dt = time.perf_counter() - t0
        return dt, {"value": canon(rep.value), "degree": rep.degree}
    if op == "mixed_integral":
        roofs = [(r["exponents"], _weights(r)) for r in job["roofs"]]
        t0 = time.perf_counter()
        val = th.mixed_integral([th.roof_from_weight(e, w) for e, w in roofs])
        dt = time.perf_counter() - t0
        return dt, {"value": canon(val)}
    if op == "mixed_volume":
        polys = [[tuple(Fraction(x) for x in pt) for pt in poly] for poly in job["polytopes"]]
        t0 = time.perf_counter()
        val = th.mixed_volume([th.convex_hull(pts) for pts in polys])
        dt = time.perf_counter() - t0
        return dt, {"value": canon(val)}
    raise ValueError(f"unknown job op {op!r}")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("TORIC_HEIGHT_CAP", None)
    return env


def write_inputs(job, workdir: str) -> None:
    for name, text in job["files"].items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_cli(job, workdir: str, limit: float, launcher=None, env=None):
    """Run one ``toricheight`` process on the job's input files.

    ``launcher`` replaces the plain entry point (the traced run uses its
    own).  Returns the process wall time and ``{"exit", "sha256"}`` of its
    standard output; raises ``subprocess.TimeoutExpired`` past ``limit``.
    """
    write_inputs(job, workdir)
    head = [sys.executable] + (launcher or ["-c", CLI_MAIN])
    t0 = time.perf_counter()
    proc = subprocess.run(
        head + job["argv"],
        cwd=workdir,
        env=env or cli_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=limit,
    )
    dt = time.perf_counter() - t0
    return dt, {"exit": proc.returncode, "sha256": hashlib.sha256(proc.stdout).hexdigest()}
