"""Workload definitions, the seeded input generator and the golden corpus.

Each workload draws its jobs from a pool of *kinds*.  A pool is generated
once from a pool seed and stored with its golden outputs in
``bench/corpus/<workload>.json``; ``order`` then turns the run's ``--seed``
into the sequence of jobs the run executes.  The sequence repeats the
workload's ``mix`` (one cycle of kinds), drawing each kind's jobs in a
seeded shuffle, so every stretch of a run has the same proportion of
kinds and runs with different seeds do comparable work.

Regenerate a pool and record its golden values at the current code with

    python3 bench/corpus.py --workload library --pool-seed 0 --out bench/corpus/library.json

The committed corpus uses pool seed 0.  For another pool seed, record the
golden values at the parent commit and pass the file to ``run.py --corpus``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import jobs

PRIMES = (2, 3, 5, 7, 11, 13)

# Job families: each has its generator (below), one cycle of kinds ("mix")
# and the number of cycles its pool holds.
FAMILIES = {
    "heights": ({"1d": 9, "2d": 8, "3d": 2, "4d": 1}, 40),
    "hilbert": ({"n1": 6, "n1wide": 3, "n2": 4, "nhigh": 1, "w1": 4, "w2": 2}, 40),
    "mixed": ({"mh1": 8, "mh2": 1, "mi": 4, "mv2": 5, "mv3": 2}, 30),
    "cli": ({"height": 4, "degree": 2, "chow": 1, "hnorm": 2, "multiheight": 2, "mixedvol": 2,
             "orbits": 1, "compose": 2, "bigheight": 1, "error": 3}, 15),
}

# families: what a workload's cycle is made of; tail: the job_s.tail
# percentile, the highest one that keeps at least ten jobs beyond it in a
# slow run of the committed length; prefix: the leading jobs every run
# completes, over which peak RSS and the traced run's counts are taken, so
# that they measure a fixed amount of work.
WORKLOADS = {
    "library": {"families": ("heights", "hilbert", "mixed"), "tail": 95, "prefix": 100},
    "cli": {"families": ("cli",), "tail": 85, "prefix": 30},
}


def workload_mix(workload: str) -> dict:
    return {kind: n for fam in WORKLOADS[workload]["families"] for kind, n in FAMILIES[fam][0].items()}


CORPUS_DIR = os.path.join(jobs.HERE, "corpus")

# Closed forms printed in the README; the corpus carries both documents.
README_CUBIC = {"exponents": [[0], [1], [2], [3]], "coefficients": ["1", "4", "1/3", "1/2"]}
README_FAMILY = [
    {"exponents": [[0], [1]], "coefficients": ["1/2", "4"]},
    {"exponents": [[0], [1]], "coefficients": ["1/3", "1/2"]},
]


def corpus_path(workload: str) -> str:
    return os.path.join(CORPUS_DIR, f"{workload}.json")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cycle_kinds(mix: dict) -> list[str]:
    """One cycle of kinds, each kind spread evenly over the cycle."""
    slots = []
    for kind, count in mix.items():
        slots += [((i + 0.5) / count, kind) for i in range(count)]
    return [kind for _, kind in sorted(slots)]


def order(corpus: dict, seed: int):
    """Endless job sequence for ``seed``: yields ``(pass_number, index)``
    into ``corpus["jobs"]``.  A pass ends when the pool is used up; the
    next pass reshuffles it."""
    rng = random.Random(seed)
    by_kind: dict[str, list[int]] = {}
    for i, entry in enumerate(corpus["jobs"]):
        by_kind.setdefault(entry["kind"], []).append(i)
    kinds = cycle_kinds(corpus["mix"])
    passes = 0
    while True:
        queues = {}
        for kind, idx in by_kind.items():
            idx = list(idx)
            rng.shuffle(idx)
            queues[kind] = idx
        while all(queues[k] for k in set(kinds)):
            for kind in kinds:
                yield passes, queues[kind].pop()
        passes += 1


# ---------------------------------------------------------------------------
# generators


def _coefficient(rng, primes) -> str:
    num = den = 1
    for p in primes:
        e = rng.randint(-2, 2)
        if e > 0:
            num *= p**e
        elif e < 0:
            den *= p**-e
    return str(Fraction(rng.choice((-1, 1)) * num, den))


def _rational(rng, top=9) -> str:
    return str(Fraction(rng.randint(-top, top), rng.randint(1, 4)))


def _points(rng, dim, count, box):
    if count > (box + 1) ** dim:
        raise ValueError(f"no {count} distinct points in [0, {box}]^{dim}")
    pts = set()
    while len(pts) < count:
        pts.add(tuple(rng.randint(0, box) for _ in range(dim)))
    return sorted(pts)


def _lattice(th, pts):
    _, rank, basis = th.lattice_normalize(pts)
    identity = tuple(tuple(int(i == j) for j in range(len(pts[0]))) for i in range(len(pts[0])))
    return rank, basis == identity


def _exponents(th, rng, dim, count, box, full=False):
    """Distinct points of ``[0, box]^dim`` whose differences span the
    rationals (and the integers, if ``full``)."""
    while True:
        pts = _points(rng, dim, count, box)
        rank, is_full = _lattice(th, pts)
        if rank == dim and (is_full or not full):
            return [list(p) for p in pts]


def _pair(th, rng, dim, count, box, n_primes, full=False):
    """Pair document whose coefficients are signed products of exactly
    ``n_primes`` primes up to 13, so it has ``n_primes + 1`` places."""
    exps = _exponents(th, rng, dim, count, box, full)
    while True:
        primes = rng.sample(PRIMES, n_primes)
        coeffs = [_coefficient(rng, primes) for _ in exps]
        used = {p for c in coeffs for p in primes if Fraction(c).numerator % p == 0}
        used |= {p for c in coeffs for p in primes if Fraction(c).denominator % p == 0}
        if used == set(primes):
            return {"exponents": exps, "coefficients": coeffs}


def _weight_doc(th, rng, dim, count, box):
    exps = _exponents(th, rng, dim, count, box, full=True)
    return {"exponents": exps, "weights": [_rational(rng) for _ in exps]}


def _vertex_list(th, rng, dim, count, box):
    return [[str(x) for x in p] for p in _exponents(th, rng, dim, count, box)]


def _heights(th, rng, kind):
    if kind == "1d":
        doc = _pair(th, rng, 1, rng.randint(4, 7), 8, rng.randint(3, 6))
    elif kind == "2d":
        doc = _pair(th, rng, 2, rng.randint(4, 6), 3, rng.randint(3, 6))
    elif kind == "3d":
        doc = _pair(th, rng, 3, rng.randint(5, 7), 2, rng.randint(3, 6))
    else:
        doc = _pair(th, rng, 4, 6, 1, rng.randint(3, 6))
    return {"op": "height", **doc}


def _hilbert(th, rng, kind):
    if kind == "n1":
        doc, degree = _pair(th, rng, 1, 4, 6, rng.randint(2, 4)), rng.randint(4, 12)
    elif kind == "n1wide":
        doc, degree = _pair(th, rng, 1, rng.randint(5, 6), 8, rng.randint(2, 3)), rng.randint(4, 6)
    elif kind == "n2":
        doc, degree = _pair(th, rng, 2, 4, 2, rng.randint(2, 4)), rng.randint(4, 10)
    elif kind == "nhigh":
        doc, degree = _pair(th, rng, 1, 4, 6, 2), rng.randint(16, 24)
    elif kind == "w1":
        return {"op": "hilbert_weight", **_weight_doc(th, rng, 1, rng.randint(4, 6), 6),
                "degree": rng.randint(4, 12)}
    else:
        return {"op": "hilbert_weight", **_weight_doc(th, rng, 2, rng.randint(4, 5), 2),
                "degree": rng.randint(4, 8)}
    return {"op": "hnorm", **doc, "degree": degree}


def _mixed(th, rng, kind):
    if kind == "mh1":
        pairs = [_pair(th, rng, 1, rng.randint(2, 3), 4, rng.randint(2, 3), full=True)
                 for _ in range(2)]
        return {"op": "multiheight", "pairs": pairs}
    if kind == "mh2":
        pairs = [_pair(th, rng, 2, 3, 2, 1, full=True) for _ in range(3)]
        return {"op": "multiheight", "pairs": pairs}
    if kind == "mi":
        return {"op": "mixed_integral",
                "roofs": [_weight_doc(th, rng, 2, 3, 2) for _ in range(3)]}
    if kind == "mv2":
        return {"op": "mixed_volume",
                "polytopes": [_vertex_list(th, rng, 2, rng.randint(3, 6), 4) for _ in range(2)]}
    return {"op": "mixed_volume",
            "polytopes": [_vertex_list(th, rng, 3, 4, 2) for _ in range(3)]}


def _semiprime(rng) -> int:
    """A 20-24 digit semiprime whose factorization costs 0.3-0.8 s with the
    factorization backend on the machine that records the corpus, so that
    each such job weighs about the same.  Candidates are timed in a child
    process that is killed after 2 s."""
    import sympy

    while True:
        p = sympy.nextprime(rng.randrange(10**9, 3 * 10**10))
        q = sympy.nextprime(rng.randrange(10**10, 10**13))
        n = p * q
        if not 20 <= len(str(n)) <= 24:
            continue
        code = f"import sympy, time; t = time.perf_counter(); sympy.factorint({n}); print(time.perf_counter() - t)"
        try:
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 timeout=2, check=True).stdout
        except subprocess.TimeoutExpired:
            continue
        if 0.3 <= float(out) <= 0.8:
            return n


def _cli(th, rng, kind):
    fmt = rng.choice(("text", "json", "symbolic", "decimal"))
    dim = rng.randint(1, 2)
    small = lambda: _pair(th, rng, dim, rng.randint(3, 5), 6 if dim == 1 else 3, rng.randint(2, 4))
    if kind == "height":
        return {"argv": ["--format", fmt, "height", "a.json"], "files": {"a.json": small()}}
    if kind == "degree":
        doc = _pair(th, rng, dim + rng.randint(0, 1), rng.randint(4, 6), 6 if dim == 1 else 2, 2)
        return {"argv": ["--format", rng.choice(("text", "json")), "degree", "a.json"],
                "files": {"a.json": doc}}
    if kind == "chow":
        doc = _weight_doc(th, rng, dim, rng.randint(4, 5), 6 if dim == 1 else 3)
        return {"argv": ["--format", fmt, "chow-weight", "w.json"], "files": {"w.json": doc}}
    if kind == "hnorm":
        doc = _pair(th, rng, 1, 4, 5, rng.randint(2, 3))
        return {"argv": ["--format", fmt, "hnorm", "a.json", "--degree", str(rng.randint(4, 8))],
                "files": {"a.json": doc}}
    if kind == "multiheight":
        fam = [_pair(th, rng, 1, rng.randint(2, 4), 4, rng.randint(2, 3), full=True)
               for _ in range(2)]
        return {"argv": ["--format", fmt, "multiheight", "f.json"], "files": {"f.json": fam}}
    if kind == "mixedvol":
        doc = {"polytopes": [_vertex_list(th, rng, 2, rng.randint(3, 5), 4) for _ in range(2)]}
        return {"argv": ["--format", fmt, "mixed-volume", "m.json"], "files": {"m.json": doc}}
    if kind == "orbits":
        return {"argv": ["--format", rng.choice(("text", "json")), "orbits", "a.json"],
                "files": {"a.json": small()}}
    if kind == "compose":
        op = rng.choice(("join", "segre", "veronese", "image"))
        a = _pair(th, rng, 1, 3, 3, 2)
        b = _pair(th, rng, 1, 3, 3, 2)
        if op in ("join", "segre"):
            return {"argv": ["compose", op, "a.json", "b.json"], "files": {"a.json": a, "b.json": b}}
        if op == "veronese":
            return {"argv": ["compose", "veronese", "a.json", "--degree", "2"], "files": {"a.json": a}}
        image = {"exponents": [[2, 0, 0], [1, 1, 0], [0, 1, 1]], "coefficients": ["1", "2", "1/3"]}
        return {"argv": ["compose", "image", "a.json", "--image", "i.json"],
                "files": {"a.json": a, "i.json": image}}
    if kind == "bigheight":
        doc = _pair(th, rng, 1, 4, 6, 2)
        doc["coefficients"][rng.randrange(4)] = str(_semiprime(rng))
        return {"argv": ["--format", fmt, "height", "a.json"], "files": {"a.json": doc}}
    # documented error exits, checked by exit code
    which = rng.choice((2, 3, 4))
    if which == 2:
        text = json.dumps(small())
        return {"argv": ["height", "a.json"], "files": {"a.json": text[: rng.randint(1, len(text) - 1)]}}
    if which == 3:
        step = rng.randint(2, 3)
        doc = {"exponents": [[step * i] for i in range(4)], "weights": [_rational(rng) for _ in range(4)]}
        return {"argv": ["chow-weight", "w.json"], "files": {"w.json": doc}}
    doc = _pair(th, rng, 1, 4, 5, 2)
    return {"argv": ["hnorm", "a.json", "--degree", "40", "--cap", "100"], "files": {"a.json": doc}}


GENERATORS = {"heights": _heights, "hilbert": _hilbert, "mixed": _mixed, "cli": _cli}


def _fixed_jobs(family):
    """The README's examples, first in their kind's pool."""
    if family == "heights":
        return [("1d", {"op": "height", **README_CUBIC})]
    if family == "mixed":
        return [("mh1", {"op": "multiheight", "pairs": README_FAMILY})]
    return []


def generate(th, workload: str, pool_seed: int) -> list[tuple[str, dict]]:
    out = []
    for family in WORKLOADS[workload]["families"]:
        mix, cycles = FAMILIES[family]
        rng = random.Random(f"{family}:{pool_seed}")
        jobs_ = _fixed_jobs(family) if pool_seed == 0 else []
        for kind, count in mix.items():
            have = sum(1 for k, _ in jobs_ if k == kind)
            for _ in range(count * cycles - have):
                jobs_.append((kind, GENERATORS[family](th, rng, kind)))
        out += jobs_
    if workload == "cli":
        for _, job in out:
            job["files"] = {k: v if isinstance(v, str) else json.dumps(v)
                            for k, v in job["files"].items()}
    return out


def provenance() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=jobs.ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(), "cpu_count": os.cpu_count()}


def record(workload: str, pool_seed: int) -> dict:
    """Generate the pool and record every job's golden output at the
    current code."""
    th = jobs.import_package()
    jobs.first_use_setup(th)
    entries = []
    with tempfile.TemporaryDirectory(dir=jobs.ROOT, prefix=".bench_record_") as workdir:
        for kind, job in generate(th, workload, pool_seed):
            if workload == "cli":
                _, golden = jobs.run_cli(job, workdir, limit=120)
            else:
                _, golden = jobs.run_library(th, job)
            entries.append({"kind": kind, "job": job, "golden": golden})
    return {
        "workload": workload,
        "pool_seed": pool_seed,
        "mix": workload_mix(workload),
        "recorded_at": provenance(),
        "jobs": entries,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--pool-seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    data = record(args.workload, args.pool_seed)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    head = {k: v for k, v in data.items() if k != "jobs"}
    with open(args.out, "w", encoding="utf-8") as fh:
        # one job per line, so that a diff of the corpus reads job by job
        fh.write(json.dumps(head, sort_keys=True)[:-1] + ', "jobs": [\n')
        fh.write(",\n".join(json.dumps(e, sort_keys=True, separators=(",", ":"))
                            for e in data["jobs"]))
        fh.write("\n]}\n")
    print(f"{args.workload}: {len(data['jobs'])} jobs recorded in "
          f"{time.perf_counter() - t0:.1f}s -> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
