"""Traced ``toricheight`` process: the CLI entry point with the benchmark's
layer wrappers installed.

    BENCH_TRACE_FILE=out.json BENCH_SPAWN_T=<monotonic time at spawn> \\
        python3 bench/cli_traced.py <toricheight arguments>

Behaves like ``toricheight`` (same output and exit code) and writes its
per-layer totals, including the CLI phases, and its spans to
``BENCH_TRACE_FILE``.  ``cli.interp_s`` is the time from the spawn to the
first line of this script, ``cli.import_s`` the import of the CLI module.
"""

import time

started = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    t0 = time.monotonic()
    import toricheight
    import toricheight.cli

    import_s = time.monotonic() - t0
    import tracing

    tracer = tracing.Tracer()
    tracer.install(toricheight)
    code = 1
    try:
        code = toricheight.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        totals = tracer.snapshot()
        totals.update(tracer.cli_phases(started - float(os.environ["BENCH_SPAWN_T"]), import_s))
        with open(os.environ["BENCH_TRACE_FILE"], "w", encoding="utf-8") as fh:
            json.dump({"totals": totals, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
