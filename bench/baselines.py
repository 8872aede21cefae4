"""Reproduce the reference timings quoted in ROADMAP.md in one command.

    python3 bench/baselines.py

* the height of a 3-D Segre product with 18 monomials (the Segre product
  of a conic and a plane quadric);
* ``arithmetic_hilbert_norm`` of the README's cubic at D = 32;
* the CLI ``toricheight height cubic.json`` process.

Each library case runs in ``REPEATS`` fresh interpreters after the lazy
set-up, the CLI case as ``REPEATS`` whole processes; the median is
printed with every sample.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile

import corpus
import jobs

REPEATS = 5
CONIC = {"exponents": [[0], [1], [2]], "coefficients": ["1", "2", "1/3"]}
QUADRIC = {"exponents": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]],
           "coefficients": ["1", "3", "1/2", "5", "1", "1/4"]}

CASES = {
    "segre_3d_height": (
        "p = th.segre(pair(CONIC), pair(QUADRIC)); assert p.size == 18 and p.n_ambient == 3",
        "th.normalized_height(p)",
    ),
    "cubic_hnorm_D32": ("p = pair(CUBIC)", "th.arithmetic_hilbert_norm(p, 32)"),
}

CHILD = """
import json, sys, time
from fractions import Fraction
sys.path.insert(0, {here!r})
import jobs
th = jobs.import_package()
jobs.first_use_setup(th)
CONIC, QUADRIC, CUBIC = {docs}
pair = lambda d: th.MonomialPair.make(d["exponents"], [Fraction(c) for c in d["coefficients"]])
{prepare}
t0 = time.perf_counter()
{call}
print(time.perf_counter() - t0)
"""


def library_case(prepare: str, call: str) -> list[float]:
    docs = repr((CONIC, QUADRIC, corpus.README_CUBIC))
    code = CHILD.format(here=jobs.HERE, docs=docs, prepare=prepare, call=call)
    return [float(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                                 text=True, timeout=300).stdout) for _ in range(REPEATS)]


def cli_case() -> list[float]:
    job = {"argv": ["height", "cubic.json"], "files": {"cubic.json": json.dumps(corpus.README_CUBIC)}}
    with tempfile.TemporaryDirectory(dir=jobs.ROOT, prefix=".bench_baselines_") as workdir:
        return [jobs.run_cli(job, workdir, limit=60)[0] for _ in range(REPEATS)]


def main() -> int:
    results = {name: library_case(*code) for name, code in CASES.items()}
    results["cli_height_cubic"] = cli_case()
    for name, samples in results.items():
        print(f"{name:18} median {statistics.median(samples):.3f} s  "
              f"samples {' '.join(f'{s:.3f}' for s in samples)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
