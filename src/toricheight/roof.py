"""Concave piecewise-affine roof functions over rational polytopes.

A roof is the upper envelope of finitely many lifted generator points.
Cells form the induced regular subdivision; the function value anywhere is
the minimum of the cell functions, each of which supports the lifted hull
from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

from .exactnum import as_fraction, value_sign
from .geomkernel import (
    AffineCell,
    Face,
    FaceLattice,
    Polytope,
    convex_hull,
    upper_envelope,
    intersect_polytopes,
    _as_value,
    _dedup,
)

__all__ = [
    "LiftedPoint",
    "Roof",
    "roof_from_weight",
    "roof_from_generators",
    "roof_eval",
    "roof_integral",
    "sup_convolution",
    "restrict_to_face",
    "lifted_polytope",
    "roof_pointwise_sum",
]


class LiftedPoint(NamedTuple):
    base: tuple
    lift: object


@dataclass(frozen=True)
class Roof:
    """Concave piecewise-affine function given by its subdivision cells and
    the generator points it envelopes.  The domain, the hull of the
    generator bases, is built on first use."""

    cells: tuple[AffineCell, ...]
    generators: tuple[LiftedPoint, ...]

    @cached_property
    def domain(self) -> Polytope:
        return convex_hull([g.base for g in self.generators])

    @property
    def base_dim(self) -> int:
        return len(self.generators[0].base)

    def min_value(self):
        """Minimum over the domain; concavity puts it at a cell vertex."""
        best = None
        for cell in self.cells:
            for v in cell.vertices:
                val = cell.value_at(v)
                if best is None or value_sign(val - best) < 0:
                    best = val
        return best

    def vertex_values(self):
        """Subdivision vertices with their roof values, deduplicated."""
        out = {}
        for cell in self.cells:
            for v in cell.vertices:
                out.setdefault(v, cell.value_at(v))
        return out


def roof_from_generators(generators) -> Roof:
    gens = _dedup(
        [LiftedPoint(tuple(as_fraction(x) for x in base), _as_value(lift)) for base, lift in generators]
    )
    return Roof(tuple(upper_envelope(gens)), tuple(gens))


def roof_from_weight(exponents, weights) -> Roof:
    """Roof of the lifted points ``(a_i, w_i)`` over the hull of the
    exponent vectors."""
    exponents = [tuple(int(x) for x in a) for a in exponents]
    weights = list(weights)
    if len(exponents) != len(weights):
        raise ValueError("exponents and weights must have equal length")
    if not exponents:
        raise ValueError("need at least one generator")
    return roof_from_generators(zip(exponents, weights))


def roof_eval(f: Roof, x):
    """Value of the roof at a domain point: the minimum of the cell
    functions, every one of which bounds the roof from above."""
    x = tuple(_as_value(c) for c in x)
    if not f.domain.contains(x):
        raise ValueError(f"{x} is outside the roof domain")
    best = None
    for cell in f.cells:
        val = cell.value_at(x)
        if best is None or value_sign(val - best) < 0:
            best = val
    return best


def roof_integral(f: Roof):
    """Exact integral of the roof over its domain.

    Over a zero-dimensional domain this is the roof value itself; a domain
    that is degenerate in its ambient space has measure zero.
    """
    # cells are chart-embedded exactly when the bases are degenerate
    if f.cells[0].polytope.affine_dim < f.base_dim:
        return Fraction(0)
    return sum((cell.integral() for cell in f.cells), Fraction(0))


def sup_convolution(f: Roof, g: Roof) -> Roof:
    """Sup-convolution: the roof generated by all pairwise sums of the two
    generator sets, living on the Minkowski sum of the domains."""
    if f.base_dim != g.base_dim:
        raise ValueError("dimension mismatch")
    gens = [
        (tuple(a + b for a, b in zip(p.base, q.base)), p.lift + q.lift)
        for p in f.generators
        for q in g.generators
    ]
    return roof_from_generators(gens)


def restrict_to_face(f: Roof, face: Face, lattice: FaceLattice | None = None) -> Roof:
    """Restriction of the roof to a face of its domain: the roof of the
    generators whose base lies in that face."""
    lattice = lattice or FaceLattice(f.domain)
    if face not in lattice.faces:
        raise ValueError("not a face of the roof domain")
    fp = lattice.face_polytope(face)
    kept = [g for g in f.generators if fp.contains(g.base)]
    if not kept:
        raise ValueError("face carries no generators")
    return roof_from_generators(kept)


def lifted_polytope(f: Roof, mu) -> Polytope:
    """Convex hull of the roof graph and the flat floor at height mu,
    which must not exceed the roof minimum."""
    mu = _as_value(mu)
    if value_sign(f.min_value() - mu) < 0:
        raise ValueError("floor lies above the roof minimum")
    points = [(*v, val) for v, val in f.vertex_values().items()]
    points += [(*v, mu) for v in f.domain.vertices]
    return convex_hull(points)


def roof_pointwise_sum(f: Roof, g: Roof) -> Roof:
    """Pointwise sum of two roofs on the same domain, via the common
    refinement of their subdivisions (base dimension <= 3)."""
    if frozenset(f.domain.vertices) != frozenset(g.domain.vertices):
        raise ValueError("domain mismatch")
    r = f.base_dim
    if r > 3:
        raise ValueError("pointwise sums are supported only up to dimension 3")
    if r == 0 or f.domain.affine_dim < r:
        gens = [(v, fv + roof_eval(g, v)) for v, fv in f.vertex_values().items()]
        gens += [(v, roof_eval(f, v) + gv) for v, gv in g.vertex_values().items()]
        return roof_from_generators(gens)
    cells = []
    for cf in f.cells:
        for cg in g.cells:
            common = intersect_polytopes(cf.polytope, cg.polytope)
            if common is None or common.affine_dim < r:
                continue
            gradient = tuple(a + b for a, b in zip(cf.gradient, cg.gradient))
            cells.append(AffineCell(common, gradient, cf.offset + cg.offset))
    gens = {}
    for cell in cells:
        for v in cell.vertices:
            gens.setdefault(v, cell.value_at(v))
    return Roof(tuple(cells), tuple(LiftedPoint(v, val) for v, val in sorted(gens.items())))
