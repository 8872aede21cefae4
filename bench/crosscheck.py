"""Cross-check the committed golden values against independent oracles.

    python3 bench/crosscheck.py

* The README's closed forms: the cubic's height is ``7*log(2) +
  3*log(3)`` and the two-member family's multiheight is ``4*log(2)``.
* ``riemann_roof_oracle`` from ``tests/oracles.py`` on the local roof
  integrals of 1-D and 2-D height jobs; the local integrals are first
  tied to the golden value exactly (their sum times (r+1)!).
* ``hilbert_weight_oracle`` from ``tests/oracles.py`` on the Hilbert jobs
  small enough for its exhaustive float enumeration.

Needs numpy (the test extra).  Exits 1 if any check fails.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction

import corpus
import jobs

ORACLE_SIZE = 200_000  # (D + 1) ** N tuples the Hilbert oracle may enumerate
SAMPLE = 30  # jobs per oracle, the first in pool order that fit it


def _float(value: dict) -> float:
    return sum(float(Fraction(c)) * (1.0 if k == "constant" else math.log(int(k)))
               for k, c in value.items())


def main() -> int:
    sys.path.insert(0, os.path.join(jobs.ROOT, "tests"))
    from oracles import hilbert_weight_oracle, riemann_roof_oracle

    th = jobs.import_package()
    LL = th.LogLinearNumber
    failures = []

    library = corpus.load(corpus.corpus_path("library"))["jobs"]
    heights = [e for e in library if e["job"]["op"] == "height"]
    hilbert = [e for e in library if e["job"]["op"] in ("hnorm", "hilbert_weight")]
    cubic = next(e for e in heights if e["job"]["coefficients"] == corpus.README_CUBIC["coefficients"])
    family = next(e for e in library if e["job"].get("pairs") == corpus.README_FAMILY)
    readme = [(cubic, 7 * LL.log_prime(2) + 3 * LL.log_prime(3)), (family, 4 * LL.log_prime(2))]
    for entry, expected in readme:
        if entry["golden"]["value"] != jobs.canon(expected):
            failures.append(f"README closed form {expected}: golden {entry['golden']['value']}")
    print(f"README closed forms: {len(readme)} checked")

    checked = 0
    for entry in heights:
        job = entry["job"]
        if len(job["exponents"][0]) > 2 or checked >= SAMPLE:
            continue
        pair = th.MonomialPair.make(job["exponents"], [Fraction(c) for c in job["coefficients"]])
        rep = th.normalized_height(pair)
        if jobs.canon(rep.value) != entry["golden"]["value"]:
            failures.append(f"height {job}: library value differs from golden")
        coords, r, _ = th.lattice_normalize(pair.exponents)
        total = LL()
        for place, local in rep.per_place:
            total = total + local
            values = [_float(jobs.canon(w)) for w in th.weight_vector(pair, place)]
            step = Fraction(1, 256 if r == 1 else 64)  # a coarser 2-D grid widens the bound
            approx, bound = riemann_roof_oracle([tuple(b) for b in coords], values, step)
            if abs(approx - _float(jobs.canon(local))) > bound:
                failures.append(f"height {job} at {place}: oracle {approx} +- {bound}")
        if jobs.canon(total * math.factorial(r + 1)) != entry["golden"]["value"]:
            failures.append(f"height {job}: local integrals do not sum to the golden value")
        checked += 1
    print(f"Riemann oracle: {checked} height jobs (1-D and 2-D), every place")

    checked = 0
    for entry in hilbert:
        job = entry["job"]
        if (job["degree"] + 1) ** len(job["exponents"]) > ORACLE_SIZE or checked >= SAMPLE:
            continue
        if job["op"] == "hilbert_weight":
            weights = [[float(Fraction(w)) for w in job["weights"]]]
            exps = job["exponents"]
        else:
            pair = th.MonomialPair.make(job["exponents"], [Fraction(c) for c in job["coefficients"]])
            exps = th.lattice_normalize(pair.exponents)[0]
            weights = [[_float(jobs.canon(w)) for w in th.weight_vector(pair, v)]
                       for v in th.relevant_places(pair.coefficients)]
        approx = sum(hilbert_weight_oracle(exps, w, job["degree"]) for w in weights)
        exact = _float(entry["golden"]["value"])
        if abs(approx - exact) > 1e-9 * max(1.0, abs(exact)):
            failures.append(f"hilbert {job}: oracle {approx}, golden {exact}")
        checked += 1
    print(f"Hilbert oracle: {checked} Hilbert jobs")

    for msg in failures:
        print("FAILED", msg)
    print("all cross-checks passed" if not failures else f"{len(failures)} cross-checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
