"""Concave piecewise-affine roof functions over rational polytopes.

A roof is the upper envelope of finitely many lifted generator points and
holds only them.  Its cells, the induced regular subdivision, are built on
first read; the function value anywhere is the minimum of the cell
functions, each of which supports the lifted hull from above.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, cmp_to_key
from fractions import Fraction

from .exactnum import _Record, value_sign
from .geomkernel import AffineCell, Face, FaceLattice, Polytope, convex_hull, intersect_polytopes
from .geomkernel import _as_value, _envelope_cells, _exact_pairs, _vadd

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


LiftedPoint = namedtuple("LiftedPoint", ["base", "lift"])
_by_value = cmp_to_key(lambda a, b: value_sign(a - b))  # orders exact values; min keeps the first least


class Roof(_Record):
    """Concave piecewise-affine function given by the generator points it
    envelopes; its cells and its domain, the hull of their bases, are built on first read."""

    _fields = ("generators",)

    def __init__(self, generators: tuple[LiftedPoint, ...]):
        object.__setattr__(self, "generators", generators)

    @cached_property
    def cells(self) -> tuple[AffineCell, ...]:
        return tuple(_envelope_cells(self.generators))

    @cached_property
    def domain(self) -> Polytope:
        return convex_hull([g.base for g in self.generators])

    @property
    def base_dim(self) -> int:
        return len(self.generators[0].base)

    def min_value(self):
        """Minimum over the domain; concavity puts it at a cell vertex."""
        return min((cell.value_at(v) for cell in self.cells for v in cell.vertices), key=_by_value)

    def vertex_values(self):
        """Subdivision vertices with their roof values, deduplicated."""
        out = {}
        for cell in self.cells:
            for v in cell.vertices:
                out.setdefault(v, cell.value_at(v))
        return out


def roof_from_generators(generators) -> Roof:
    return Roof(tuple(LiftedPoint(*g) for g in _exact_pairs(generators)))


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
    return min((cell.value_at(x) for cell in f.cells), key=_by_value)


def roof_integral(f: Roof):
    """Exact integral of the roof over its domain, the sum of its cells'
    integrals: the roof value over a zero-dimensional domain, and 0 over a
    domain that is degenerate in its ambient space."""
    return sum((cell.integral for cell in f.cells), Fraction(0))


def sup_convolution(f: Roof, g: Roof) -> Roof:
    """Sup-convolution, living on the Minkowski sum of the domains: the
    roof of the pairwise sums of the two roofs' upper vertices, which are
    its generators.  An upper envelope depends only on its upper vertices,
    so this equals the roof of all pairwise generator sums."""
    if f.base_dim != g.base_dim:
        raise ValueError("dimension mismatch")
    gv = g.vertex_values().items()
    return roof_from_generators(
        (_vadd(p, q), a + b) for p, a in f.vertex_values().items() for q, b in gv
    )


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
    """Pointwise sum of two roofs on the same domain (of dimension <= 3).
    The sum is concave and affine on each cell of the common refinement of
    their subdivisions, so it is the roof of its values at the vertices of
    that refinement, which is refined in the domain's chart coordinates
    when the domain is degenerate in its ambient space."""
    if frozenset(f.domain.vertices) != frozenset(g.domain.vertices):
        raise ValueError("domain mismatch")
    domain = f.domain
    if domain.affine_dim > 3:
        raise ValueError("pointwise sums are supported only up to dimension 3")
    if domain.affine_dim == 0:
        v = domain.vertices[0]
        return roof_from_generators([(v, roof_eval(f, v) + roof_eval(g, v))])
    chart = domain._chart  # None on a full-dimensional domain
    pieces = [[(c, convex_hull([*map(chart.to_chart, c.vertices)]) if chart else c.polytope) for c in r.cells] for r in (f, g)]
    gens = {}
    for cf, pf in pieces[0]:
        for cg, pg in pieces[1]:
            common = intersect_polytopes(pf, pg)
            if common is not None and common.affine_dim == domain.affine_dim:
                for v in map(chart.to_ambient, common.vertices) if chart else common.vertices:
                    gens.setdefault(v, cf.value_at(v) + cg.value_at(v))
    return roof_from_generators(sorted(gens.items()))
