"""Spans and per-layer counters recorded from outside the program.

``Tracer.install`` replaces every public function of the six layer
modules with a timing wrapper, in every module namespace that binds it
(``convex_hull`` is bound in ``geomkernel``, ``roof``, ``toric``, ``mixed``,
``cli`` and the package itself), so that calls between layers are seen
whichever name they go through.  The coercions ``as_fraction`` and
``as_loglinear`` stay unwrapped: they do no layer work and are called
thousands of times per height, which would multiply the tracing cost.
``certified_sign`` is an ``lru_cache``; its hits and misses are read from
``cache_info()`` instead of wrapping it.

Each span records the job id, its own id, its parent's id, the function,
and its start and end; spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import gzip
import inspect
import json
from math import comb
from time import perf_counter

LAYERS = ("exactnum", "geomkernel", "roof", "toric", "mixed", "cli")
UNWRAPPED = {"as_fraction", "as_loglinear"}
# cli's document reader is private but is where its parse time goes
EXTRA = {"cli": ("_read_json",)}
PARSE = {"cli._read_json", "cli.parse_pair_document", "cli.parse_weight_document"}
EMIT = {"exactnum.approximate", "cli.pair_document", "cli.roof_to_json"}

# per-function metrics the benchmark reports, besides ".calls" and ".s"
TIMED = {
    "exactnum.value_sign": ("calls", "s"),
    "exactnum.relevant_places": ("calls", "s"),
    "exactnum.log_abs": ("calls", "s"),
    "exactnum.approximate": ("calls", "s"),
    "geomkernel.convex_hull": ("calls", "points", "s"),
    "geomkernel.upper_envelope": ("calls", "points", "cells", "s"),
    "geomkernel.triangulate": ("calls", "simplices", "s"),
    "geomkernel.det": ("calls", "s"),
    "geomkernel.lattice_normalize": ("calls", "s"),
    "roof.roof_from_weight": ("calls", "s"),
    "roof.roof_integral": ("calls", "s"),
    "toric.hilbert_weight": ("calls", "compositions", "s"),
    "toric.normalized_height": ("s",),
    "toric.degree": ("calls", "s"),
    "mixed.mixed_integral": ("calls", "subsets", "s"),
    "mixed.mixed_volume": ("calls", "s"),
    "mixed.multiheight": ("s",),
}
SELF_LAYERS = ("geomkernel", "roof", "toric", "mixed")
CLI_PHASES = ("interp_s", "import_s", "parse_s", "compute_s", "emit_s")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for fn, parts in TIMED.items():
        for part in parts:
            units[f"{fn}.{part}"] = "s" if part == "s" else "count"
    units["exactnum.certified_sign.hits"] = "count"
    units["exactnum.certified_sign.misses"] = "count"
    for phase in CLI_PHASES:
        units[f"cli.{phase}"] = "s"
    for layer in SELF_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.jobs_per_s"] = "1/s"
    return units


def _sized(args, kwargs, key):
    """The first argument as a sized sequence (materializing an iterator,
    which the wrapped function then receives instead)."""
    if args:
        seq = args[0]
        if not isinstance(seq, (list, tuple)):
            seq = list(seq)
            args = (seq,) + tuple(args[1:])
        return seq, args, kwargs
    seq = kwargs[key]
    if not isinstance(seq, (list, tuple)):
        seq = list(seq)
        kwargs = dict(kwargs, **{key: seq})
    return seq, args, kwargs


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.job = 0
        self.spans: list[tuple] = []
        self.totals: dict[str, float] = {}
        self._stack: list[list] = []  # [span id, name, child time]
        self._active: dict[str, int] = {}
        self._next = 1
        self._cache = None

    # -- installation -----------------------------------------------

    def install(self, package) -> None:
        import importlib

        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            names = [n for n, f in vars(mod).items()
                     if not n.startswith("_") and n not in UNWRAPPED
                     and inspect.isfunction(f) and f.__module__ == mod.__name__]
            for name in names + list(EXTRA.get(layer, ())):
                fn = getattr(mod, name)
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    if getattr(ns, name, None) is fn:
                        setattr(ns, name, wrapper)
        self._cache = modules["exactnum"].certified_sign

    def _wrap(self, name, fn):
        tracer = self
        measure = _MEASURES.get(name)

        def wrapper(*args, **kwargs):
            if measure is not None:
                args, kwargs, before = measure[0](args, kwargs)
            result = tracer._call(name, fn, args, kwargs)
            if measure is not None:
                tracer._add(measure[1](before, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- recording ----------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            dur = t1 - t0
            self._stack.pop()
            self._active[name] -= 1
            self.spans.append((self.job, sid, parent[0] if parent else 0, name, t0, t1))
            self._account(name, dur, frame[2], parent)
            if parent is not None:
                parent[2] += dur

    def _account(self, name, dur, child, parent):
        totals = self.totals
        totals[name + ".calls"] = totals.get(name + ".calls", 0) + 1
        if not self._active[name]:  # outermost call: recursion is counted once
            totals[name + ".s"] = totals.get(name + ".s", 0.0) + dur
        layer = name.split(".", 1)[0]
        totals[layer + ".self_s"] = totals.get(layer + ".self_s", 0.0) + dur - child
        if parent is None or not parent[1].startswith("cli.cmd_"):
            return
        if name in PARSE:
            key = "cli.parse_in_cmd"
        elif name in EMIT or layer == "cli":
            return
        else:
            key = "cli.compute_s"
        totals[key] = totals.get(key, 0.0) + dur

    def _add(self, counts: dict) -> None:
        for key, val in counts.items():
            self.totals[key] = self.totals.get(key, 0) + val

    def cache_counts(self) -> tuple[int, int]:
        info = self._cache.cache_info()
        return info.hits, info.misses

    # -- reporting ----------------------------------------------------

    def snapshot(self) -> dict:
        """Raw totals plus the ``certified_sign`` cache counters."""
        out = dict(self.totals)
        out["exactnum.certified_sign.hits"], out["exactnum.certified_sign.misses"] = self.cache_counts()
        return out

    def cli_phases(self, interp_s: float, import_s: float) -> dict:
        """Split one CLI process into its phases: the parse phase is the
        argument parsing in ``main`` outside the command plus the document
        reading inside it; emission is the rest of the command."""
        t = self.totals
        cmd = sum(v for k, v in t.items() if k.startswith("cli.cmd_") and k.endswith(".s"))
        parse = t.get("cli.main.s", 0.0) - cmd + t.get("cli.parse_in_cmd", 0.0)
        compute = t.get("cli.compute_s", 0.0)
        return {
            "cli.interp_s": interp_s,
            "cli.import_s": import_s,
            "cli.parse_s": parse,
            "cli.compute_s": compute,
            "cli.emit_s": cmd - t.get("cli.parse_in_cmd", 0.0) - compute,
        }


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def report(totals: dict) -> dict:
    """Every per-layer metric, from summed raw totals."""
    return {name: totals.get(name, 0) for name in metric_units() if name != "trace.jobs_per_s"}


def write_spans(path: str, spans) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for job, sid, parent, name, t0, t1 in spans:
            fh.write(json.dumps([job, sid, parent, name, round(t0, 7), round(t1, 7)]))
            fh.write("\n")


# -- work counts read from arguments and results ------------------------


def _points_in(args, kwargs):
    seq, args, kwargs = _sized(args, kwargs, "points")
    return args, kwargs, len(seq)


def _hull(n, result):
    return {"geomkernel.convex_hull.points": n}


def _envelope(n, result):
    return {"geomkernel.upper_envelope.points": n, "geomkernel.upper_envelope.cells": len(result)}


def _nothing(args, kwargs):
    return args, kwargs, None


def _hilbert_in(args, kwargs):
    seq, args, kwargs = _sized(args, kwargs, "exponents")
    degree = args[2] if len(args) > 2 else kwargs["degree_d"]
    return args, kwargs, comb(degree + len(seq) - 1, len(seq) - 1)


def _roofs_in(args, kwargs):
    seq, args, kwargs = _sized(args, kwargs, "roofs")
    return args, kwargs, 2 ** len(seq) - 1


_MEASURES = {
    "geomkernel.convex_hull": (_points_in, _hull),
    "geomkernel.upper_envelope": (_points_in, _envelope),
    "geomkernel.triangulate": (_nothing, lambda _, r: {"geomkernel.triangulate.simplices": len(r)}),
    "toric.hilbert_weight": (_hilbert_in, lambda n, _: {"toric.hilbert_weight.compositions": n}),
    "mixed.mixed_integral": (_roofs_in, lambda n, _: {"mixed.mixed_integral.subsets": n}),
}
