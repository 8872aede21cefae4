"""Command-line interface: parse JSON pair documents, dispatch the exact
computations, and emit text/JSON/symbolic/decimal reports or SVG figures.

Exit codes: 0 success, 1 standard output closed before the report was
written (a pipe whose reader has exited), 2 parse error (including
out-of-range flag values, a document of the wrong shape, such as
``mixed-integral`` weights that are not n+1 documents of one exponent
dimension n, and an ``--out`` path that cannot be written), 3 hypothesis
violation (for example a non-full exponent lattice), 4 enumeration cap
exceeded, 5 ambient dimension above the supported bound, 6 factorization limit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction

from .errors import DimensionLimitError, EnumerationCapError, FactorizationLimitError
from .errors import LatticeHypothesisError, ParseError
from .exactnum import MAX_BITS, LogLinearNumber, Place, as_loglinear, _approximate
from .geomkernel import convex_hull
from .mixed import EmbeddingFamily, mixed_integral, mixed_volume, multiheight
from .roof import Roof, roof_from_weight
from .toric import (
    DEFAULT_ENUMERATION_CAP,
    MonomialPair,
    arithmetic_hilbert_norm,
    chow_weight,
    degree,
    hilbert_weight,
    join,
    monomial_image,
    normalized_height,
    orbit_decomposition,
    segre,
    veronese,
    weight_vector,
)

CAP_ENV_VAR = "TORIC_HEIGHT_CAP"


# ---------------------------------------------------------------------------
# parsing


# Python's bound on the digits of an integer converted from or to text, 4300
# unless PYTHONINTMAXSTRDIGITS sets it (0 lifts it); Pythons before 3.10.7
# have none, and inputs get the default bound there.
_get_digits = getattr(sys, "get_int_max_str_digits", lambda: 4300)
_set_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)


@contextlib.contextmanager
def _unbounded_digits():
    """Lift the digit bound while exact results are written: the inputs are
    bounded, but an exact result may have more digits than any of them."""
    bound = _get_digits()
    _set_digits(0)
    try:
        yield
    finally:
        _set_digits(bound)


def _written_digits(text: str):
    """Digits of the numerator and the denominator that ``Fraction(text)``
    builds before it reduces them, counted without building 10**e."""
    num, _, den = text.replace("_", "").partition("/")
    mantissa, _, exp = num.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    shift = int(exp or 0) - len(frac)
    return len((whole + frac).lstrip("+-").lstrip("0")) + max(shift, 0), len(den.lstrip("0")) + max(-shift, 0)


def _parse_rational(text) -> Fraction:
    if type(text) is int:  # JSON true/false arrive as bool, a subclass of int
        return Fraction(text)
    if isinstance(text, str):
        try:
            bound, digits = _get_digits(), max(_written_digits(text.strip()))
            if bound and digits > bound:
                raise ParseError(f"a numerator or denominator of {digits} digits exceeds the bound of {bound} "
                                 "digits (sys.get_int_max_str_digits; PYTHONINTMAXSTRDIGITS raises it)")
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational number: {text!r}") from exc
    raise ParseError(f"expected a rational string or integer, got {type(text).__name__}")


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: also an integer past the digit bound
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _parse_exponents(doc):
    rows = doc.get("exponents")
    if not isinstance(rows, list) or not rows:
        raise ParseError("document needs a nonempty 'exponents' array")
    out = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not all(type(x) is int for x in row):
            raise ParseError(f"exponents[{i}] must be an array of integers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"exponents[{i}] has length {len(row)}, expected {width}")
        out.append(tuple(row))
    return out


def _array_document(path: str, key: str, what: str) -> list:
    """The nonempty array that a JSON document is or holds under ``key``."""
    doc = _read_json(path)
    rows = doc.get(key) if isinstance(doc, dict) else doc
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"expected a {key!r} array of {what}")
    return rows


def parse_pair_document(doc) -> tuple[MonomialPair, str | None]:
    if not isinstance(doc, dict):
        raise ParseError("a pair document must be a JSON object")
    exps = _parse_exponents(doc)
    coeffs = doc.get("coefficients")
    if not isinstance(coeffs, list) or len(coeffs) != len(exps):
        raise ParseError("'coefficients' must parallel 'exponents'")
    values = [_parse_rational(c) for c in coeffs]
    if any(v == 0 for v in values):
        raise ParseError("coefficients must be nonzero")
    try:
        pair = MonomialPair.make(exps, values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return pair, doc.get("name")


def parse_weight_document(doc):
    if not isinstance(doc, dict):
        raise ParseError("a weight document must be a JSON object")
    exps = _parse_exponents(doc)
    weights = doc.get("weights")
    if not isinstance(weights, list) or len(weights) != len(exps):
        raise ParseError("'weights' must parallel 'exponents'")
    return exps, [_parse_rational(w) for w in weights]


def _named(payload: dict, name) -> dict:
    """``payload``, with ``name`` added last when there is one."""
    if name:
        payload["name"] = name
    return payload


@_unbounded_digits()
def pair_document(pair: MonomialPair, name=None) -> dict:
    exponents = [list(a) for a in pair.exponents]
    return _named({"exponents": exponents, "coefficients": [str(c) for c in pair.coefficients]}, name)


def _at_least(name: str, value: int, low: int) -> int:
    if value < low:
        raise ParseError(f"{name} must be at least {low}, got {value}")
    return value


def _parse_place(text: str) -> Place:
    if text in ("inf", "infty", "oo"):
        return Place.infinite()
    try:
        p = int(text)
    except ValueError as exc:
        raise ParseError(f"place must be 'inf' or a prime, got {text!r}") from exc
    try:
        return Place.finite(p)
    except FactorizationLimitError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# emission


def _value_map(x: LogLinearNumber) -> dict:
    return {k: str(v) for k, v in x.coefficient_map().items()}


def _value_fields(x: LogLinearNumber, bits: int) -> dict:
    text, err = _approximate(x, bits)  # a bound outside the normal double range is a decimal string
    return {"value": _value_map(x), "symbolic": str(x), "decimal": text, "error": err}


@_unbounded_digits()
def _emit(args, payload: dict, value: LogLinearNumber | None):
    fmt = args.format
    if fmt == "json":
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return
    if value is not None and fmt in ("symbolic", "decimal"):
        print(payload[fmt])
        return
    for key, val in payload.items():
        if key in ("value", "per_place"):
            continue
        print(f"{key}: {val}")
    if "per_place" in payload:
        print("per-place:")
        for place, data in payload["per_place"].items():
            print(f"  {place}: {data['symbolic']}")


@_unbounded_digits()
def _report(args, payload: dict, value: LogLinearNumber, per_place=None) -> int:
    """Emit ``payload`` with the value's fields, and per place if given."""
    payload.update(_value_fields(value, args.bits))
    if per_place is not None:
        payload["per_place"] = {str(place): _value_fields(val, args.bits) for place, val in per_place}
    _emit(args, payload, value)
    return 0


# ---------------------------------------------------------------------------
# commands


def _cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ParseError(f"{CAP_ENV_VAR} must be an integer") from exc
        return _at_least(CAP_ENV_VAR, value, 0)
    return DEFAULT_ENUMERATION_CAP


def cmd_height(args) -> int:
    pair, name = parse_pair_document(_read_json(args.input))
    rep = normalized_height(pair)
    payload = {**_named({"command": "height"}, name), "dim": rep.dim, "degree": rep.degree, "scale": rep.scale}
    return _report(args, payload, rep.value, rep.per_place)


def cmd_degree(args) -> int:
    pair, name = parse_pair_document(_read_json(args.input))
    d = degree(pair)
    if args.format in ("symbolic", "decimal"):
        with _unbounded_digits():
            print(d)
    else:
        _emit(args, {**_named({"command": "degree"}, name), "degree": d}, None)
    return 0


def cmd_chow(args) -> int:
    exps, weights = parse_weight_document(_read_json(args.input))
    return _report(args, {"command": "chow-weight"}, chow_weight(exps, weights))


def cmd_hilbert(args) -> int:
    _at_least("--degree", args.degree, 0)
    exps, weights = parse_weight_document(_read_json(args.input))
    val = hilbert_weight(exps, weights, args.degree, _cap(args))
    return _report(args, {"command": "hilbert", "degree": args.degree}, val)


def cmd_hnorm(args) -> int:
    _at_least("--degree", args.degree, 0)
    pair, name = parse_pair_document(_read_json(args.input))
    val = arithmetic_hilbert_norm(pair, args.degree, _cap(args))
    return _report(args, _named({"command": "hnorm", "degree": args.degree}, name), val)


def cmd_mixed_volume(args) -> int:
    rows = _array_document(args.input, "polytopes", "vertex lists")
    n = len(rows)
    polys = []
    for row in rows:
        if not isinstance(row, list) or not row:
            raise ParseError("each polytope is a nonempty array of points")
        bad = next((pt for pt in row if not isinstance(pt, list) or len(pt) != n), None)
        if bad is not None:
            raise ParseError(f"need n polytopes in dimension n; got {n} and the point {bad!r}")
        polys.append(convex_hull([tuple(_parse_rational(x) for x in pt) for pt in row]))
    return _report(args, {"command": "mixed-volume"}, as_loglinear(mixed_volume(polys)))


def cmd_mixed_integral(args) -> int:
    docs = [parse_weight_document(entry) for entry in _array_document(args.input, "weights", "weight documents")]
    dims = sorted({len(exps[0]) for exps, _ in docs})
    if len(dims) != 1:
        raise ParseError(f"weight documents must share one exponent dimension; got {dims}")
    if len(docs) != dims[0] + 1:
        raise ParseError(
            f"need {dims[0] + 1} weight documents for exponent dimension {dims[0]}; got {len(docs)}"
        )
    return _report(args, {"command": "mixed-integral"}, mixed_integral([roof_from_weight(e, w) for e, w in docs]))


def cmd_multiheight(args) -> int:
    members = tuple(parse_pair_document(entry)[0] for entry in _array_document(args.input, "pairs", "pair documents"))
    try:
        family = EmbeddingFamily(members)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    rep = multiheight(family)
    payload = {"command": "multiheight", "dim": rep.dim, "degree": rep.degree, "scale": rep.scale}
    return _report(args, payload, rep.value, rep.per_place)


def cmd_orbits(args) -> int:
    pair, name = parse_pair_document(_read_json(args.input))
    with _unbounded_digits():
        orbits = orbit_decomposition(pair)
        entries = []
        for face, sub in orbits:
            rep = normalized_height(sub)
            entries.append(
                {
                    "face_dim": face.dim,
                    "face_vertices": sorted(face.vertex_ids),
                    "pair": pair_document(sub),
                    "degree": rep.degree,
                    "height": _value_map(rep.value),
                    "symbolic": str(rep.value),
                }
            )
        if args.format == "json":
            _emit(args, _named({"command": "orbits", "orbits": entries}, name), None)
        else:
            print(f"orbits: {len(entries)}")
            for e in entries:
                print(
                    f"  dim {e['face_dim']}  monomials {len(e['pair']['coefficients'])}  "
                    f"degree {e['degree']}  height {e['symbolic']}"
                )
    return 0


def cmd_compose(args) -> int:
    if args.operation in ("join", "segre"):
        if not args.second:
            raise ParseError(f"compose {args.operation} needs two pair documents")
        p1, n1 = parse_pair_document(_read_json(args.input))
        p2, n2 = parse_pair_document(_read_json(args.second))
        out = join(p1, p2) if args.operation == "join" else segre(p1, p2)
        name = f"{args.operation}({n1 or 'a'},{n2 or 'b'})"
    elif args.operation == "veronese":
        if args.degree is None:
            raise ParseError("compose veronese needs --degree")
        _at_least("--degree", args.degree, 1)
        p1, n1 = parse_pair_document(_read_json(args.input))
        out = veronese(p1, args.degree, _cap(args))
        name = f"veronese({n1 or 'a'},{args.degree})"
    else:  # image
        if not args.image:
            raise ParseError("compose image needs --image with the map document")
        p1, n1 = parse_pair_document(_read_json(args.input))
        doc = _read_json(args.image)
        if not isinstance(doc, dict):
            raise ParseError("the image document must be a JSON object")
        rows = _parse_exponents(doc)
        coeffs = doc.get("coefficients")
        if not isinstance(coeffs, list) or len(coeffs) != len(rows):
            raise ParseError("'coefficients' must parallel 'exponents' in the image document")
        try:
            out = monomial_image(p1, rows, [_parse_rational(c) for c in coeffs])
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        name = f"image({n1 or 'a'})"
    text = json.dumps(pair_document(out, name), indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# SVG plotting


_WIDTH, _HEIGHT = 640, 400
_MARGIN_X, _MARGIN_Y = 64, 40


class _Frame:
    def __init__(self, xs, ys):
        self.x0, self.x1 = min(xs), max(xs)
        self.y0, self.y1 = min(ys), max(ys)
        if self.x1 - self.x0 < 1e-9:
            self.x0 -= 1.0
            self.x1 += 1.0
        if self.y1 - self.y0 < 1e-9:
            self.y0 -= 1.0
            self.y1 += 1.0

    def px(self, x):
        return _MARGIN_X + (x - self.x0) / (self.x1 - self.x0) * (_WIDTH - 2 * _MARGIN_X)

    def py(self, y):
        return _HEIGHT - _MARGIN_Y - (y - self.y0) / (self.y1 - self.y0) * (_HEIGHT - 2 * _MARGIN_Y)

    def point(self, x, y):
        return f"{self.px(x):.2f},{self.py(y):.2f}"


def _svg_header():
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]


def _cyclic_order(points):
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def _plot_roof_1d(pair: MonomialPair, place: Place, roof: Roof) -> str:
    gens = [(float(b[0]), float(as_loglinear(lift)), b[0], lift) for b, lift in roof.generators]
    if roof.domain.affine_dim == 0:
        # one exponent: the hull is the vertical segment of the lifts
        lifts = sorted(g[1] for g in gens)
        hull_pts = [(gens[0][0], lifts[0]), (gens[0][0], lifts[-1])]
    else:
        hull = convex_hull([(*g.base, as_loglinear(g.lift)) for g in roof.generators])
        hull_pts = [(float(v[0]), float(as_loglinear(v[1]))) for v in hull.vertices]
    breaks = sorted((v[0], val) for v, val in roof.vertex_values().items())
    roof_pts = [(float(x), float(as_loglinear(val))) for x, val in breaks]
    frame = _Frame(
        [g[0] for g in gens] + [p[0] for p in hull_pts],
        [g[1] for g in gens] + [p[1] for p in hull_pts] + [0.0],
    )
    out = _svg_header()
    out.append(f'<text x="{_MARGIN_X}" y="20" font-size="14">place {place}</text>')
    y_axis = frame.py(0.0)
    out.append(
        f'<line x1="{_MARGIN_X}" y1="{y_axis:.2f}" x2="{_WIDTH - _MARGIN_X}" '
        f'y2="{y_axis:.2f}" stroke="#888" stroke-width="1"/>'
    )
    if len(hull_pts) >= 3:
        ordered = _cyclic_order(hull_pts)
        path = " ".join(frame.point(*p) for p in ordered)
        out.append(f'<polygon points="{path}" fill="#dce6f5" stroke="#5a7bb0" stroke-width="1"/>')
    elif len(hull_pts) == 2:
        a, b = hull_pts
        out.append(
            f'<line x1="{frame.px(a[0]):.2f}" y1="{frame.py(a[1]):.2f}" '
            f'x2="{frame.px(b[0]):.2f}" y2="{frame.py(b[1]):.2f}" '
            f'stroke="#5a7bb0" stroke-width="1"/>'
        )
    path = " ".join(frame.point(*p) for p in roof_pts)
    out.append(f'<polyline points="{path}" fill="none" stroke="black" stroke-width="3"/>')
    for gx, gy, bx, lift in gens:
        out.append(f'<circle cx="{frame.px(gx):.2f}" cy="{frame.py(gy):.2f}" r="3" fill="black"/>')
    for (x, val), (fx, fy) in zip(breaks, roof_pts):
        label = f"({x}, {as_loglinear(val)})"
        out.append(
            f'<text x="{frame.px(fx) + 4:.2f}" y="{frame.py(fy) - 6:.2f}" '
            f'font-size="11">{label}</text>'
        )
    for gx, _, bx, _ in gens:
        out.append(
            f'<text x="{frame.px(gx):.2f}" y="{y_axis + 14:.2f}" font-size="11" '
            f'text-anchor="middle">{bx}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _plot_base_2d(pair: MonomialPair, place: Place, roof: Roof) -> str:
    gens = [((float(b[0]), float(b[1])), b, lift) for b, lift in roof.generators]
    frame = _Frame([g[0][0] for g in gens], [g[0][1] for g in gens])
    out = _svg_header()
    out.append(f'<text x="{_MARGIN_X}" y="20" font-size="14">place {place}</text>')
    dom = [(float(v[0]), float(v[1])) for v in roof.domain.vertices]
    if len(dom) >= 3:
        path = " ".join(frame.point(*p) for p in _cyclic_order(dom))
        out.append(f'<polygon points="{path}" fill="#eef3fa" stroke="#5a7bb0" stroke-width="1"/>')
    for cell in roof.cells:
        pts = [(float(v[0]), float(v[1])) for v in cell.vertices]
        if len(pts) >= 3:
            path = " ".join(frame.point(*p) for p in _cyclic_order(pts))
            out.append(
                f'<polygon points="{path}" fill="none" stroke="black" stroke-width="2"/>'
            )
        elif len(pts) == 2:
            a, b = pts
            out.append(
                f'<line x1="{frame.px(a[0]):.2f}" y1="{frame.py(a[1]):.2f}" '
                f'x2="{frame.px(b[0]):.2f}" y2="{frame.py(b[1]):.2f}" '
                f'stroke="black" stroke-width="2"/>'
            )
    for (gx, gy), base, lift in gens:
        out.append(f'<circle cx="{frame.px(gx):.2f}" cy="{frame.py(gy):.2f}" r="3" fill="black"/>')
        label = f"({base[0]},{base[1]}): {as_loglinear(lift)}"
        out.append(
            f'<text x="{frame.px(gx) + 5:.2f}" y="{frame.py(gy) - 5:.2f}" '
            f'font-size="11">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def roof_to_json(roof: Roof) -> dict:
    """JSON document of a roof: domain vertices, subdivision cells with
    their affine data, and the generator points."""

    def point(p):
        return [str(x) for x in p]

    return {
        "domain": [point(v) for v in roof.domain.vertices],
        "cells": [
            {
                "vertices": [point(v) for v in cell.vertices],
                "gradient": [_value_map(as_loglinear(g)) for g in cell.gradient],
                "offset": _value_map(as_loglinear(cell.offset)),
            }
            for cell in roof.cells
        ],
        "generators": [
            {"base": point(g.base), "lift": _value_map(as_loglinear(g.lift))}
            for g in roof.generators
        ],
    }


def cmd_plot(args) -> int:
    pair, _ = parse_pair_document(_read_json(args.input))
    place = _parse_place(args.place)
    n = pair.n_ambient
    if n not in (1, 2):
        raise ParseError(f"plot supports exponent dimension 1 or 2, got {n}")
    roof = roof_from_weight(pair.exponents, weight_vector(pair, place))
    svg = _plot_roof_1d(pair, place, roof) if n == 1 else _plot_base_2d(pair, place, roof)
    _write_text(args.out, svg)
    if args.format == "json":
        _emit(args, roof_to_json(roof), None)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common_flags(parser, top: bool):
    # top-level flags carry the defaults; per-subcommand copies override
    # them, so the flags work on either side of the subcommand
    parser.add_argument(
        "--format",
        choices=("text", "json", "symbolic", "decimal"),
        default="text" if top else argparse.SUPPRESS,
        help="output format (default: text)",
    )
    parser.add_argument(
        "--bits",
        type=int,
        default=128 if top else argparse.SUPPRESS,
        help="decimal precision in bits",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=None if top else argparse.SUPPRESS,
        help=f"monomial enumeration cap (default {DEFAULT_ENUMERATION_CAP}; "
        f"env {CAP_ENV_VAR} overrides)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricheight",
        description="Exact heights, weights, and mixed integrals of projective "
        "monomial varieties over Q.",
    )
    _add_common_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        _add_common_flags(p, top=False)
        return p

    p = add("height", cmd_height, help="normalized height of a pair document")
    p.add_argument("input")
    p = add("degree", cmd_degree, help="degree of a pair document")
    p.add_argument("input")
    p = add("chow-weight", cmd_chow, help="weighted degeneration degree of a weight document")
    p.add_argument("input")
    p = add("hilbert", cmd_hilbert, help="Hilbert weight of a weight document")
    p.add_argument("input")
    p.add_argument("--degree", type=int, required=True)
    p = add("hnorm", cmd_hnorm, help="arithmetic Hilbert function of a pair document")
    p.add_argument("input")
    p.add_argument("--degree", type=int, required=True)
    p = add("mixed-volume", cmd_mixed_volume, help="mixed volume of vertex lists")
    p.add_argument("input")
    p = add("mixed-integral", cmd_mixed_integral, help="mixed integral of weight documents")
    p.add_argument("input")
    p = add("multiheight", cmd_multiheight, help="multiheight of a family of pair documents")
    p.add_argument("input")
    p = add("orbits", cmd_orbits, help="orbit decomposition of a pair document")
    p.add_argument("input")
    p = add("compose", cmd_compose, help="build a new pair document")
    p.add_argument("operation", choices=("join", "segre", "veronese", "image"))
    p.add_argument("input")
    p.add_argument("second", nargs="?", help="second pair document (join/segre)")
    p.add_argument("--degree", type=int, help="degree for veronese")
    p.add_argument("--image", help="monomial map document for image")
    p.add_argument("--out", help="output path (default stdout)")
    p = add("plot", cmd_plot, help="SVG figure of the roof at one place")
    p.add_argument("input")
    p.add_argument("--place", required=True, help="'inf' or a prime")
    p.add_argument("--out", required=True, help="SVG output path")
    return parser


_EXIT_CODES = {ParseError: 2, LatticeHypothesisError: 3, EnumerationCapError: 4, DimensionLimitError: 5,
               FactorizationLimitError: 6}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _at_least("--bits", args.bits, 16)
        if args.bits > MAX_BITS:
            raise ParseError(f"--bits must be at most {MAX_BITS}, got {args.bits}")
        if args.cap is not None:
            _at_least("--cap", args.cap, 0)
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at shutdown
        return code
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit: point it at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
