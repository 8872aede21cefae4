"""Mixed volumes, mixed integrals, polarized Chow weights, and the
normalized multiheight of the torus under several monomial embeddings.

Mixed volumes of rational polytopes and mixed integrals are one facet
recursion, MV_n(K_1, ..., K_n) = sum over the primitive outer facet
normals w of K_2 + ... + K_n of h_{K_1}(w) MV_(n-1)(K_2^w, ..., K_n^w),
the faces read in the lattice w^perp, the normals for n >= 3 from the
simplicial facets of one hull core of the sum's points.  Its base case is
a line: MV_1(K) = max K - min K, and MI_1 of two roofs a boundary term
plus, per segment of one roof, the largest of the integer rows it gives
the other's points.  It runs on the integers of one ``_integer_points`` of
all a call's points, scale s, and MV(s.) = s^n MV, MI(s.) = s^(n+1) MI.
A mixed integral of n+1 roofs is the recursion on their lifted polytopes,
on maps {base: integer row over (1, log p_1, ...)}, each read from one
hull's or chain's upper simplices (``_envelope_map``: an input roof's from
its generators, with no cell).  The cells of the sup-convolution g_1 sup
... sup g_n (n >= 2; n - 1 envelopes of summed points) are its upper
simplices grouped by functionals fn, which rank points by the integer rows
f_t.(v, y) (``_top``, ``_sign``).  Both keep MV(Q, ..., Q) = n! Vol(Q)
and MI(f, ..., f) = (n+1)! Int(f).  Mixed volumes of lifted polytopes,
whose normals are not rational, are two mixed integrals: MV_(n+1)(P_0,
..., P_n) = MI(u_0, ..., u_n) + MI(-l_0, ..., -l_n), u_i the upper roof
of P_i and l_i its lower boundary, by induction from MV_1([l, u]) = u - l.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

from .errors import LatticeHypothesisError
from .exactnum import LogLinearNumber, _Record, as_loglinear, certified_sign
from .geomkernel import lattice_normalize, _decode, _dedup, _dot, _envelope_map, _functionals, _graph_simplices
from .geomkernel import _hull_core, _integer_basis, _integer_points, _sign, _span, _vadd, _vsub
from .roof import lifted_polytope, roof_from_weight
from .toric import HeightReport, MonomialPair, _over_places, _require_full_lattice

__all__ = [
    "EmbeddingFamily",
    "mixed_volume",
    "mixed_integral",
    "mixed_integral_via_mv",
    "multi_chow_weight",
    "multiheight",
]


def _primitive(v):
    """The primitive integer vector on the ray of a nonzero integer vector."""
    g = gcd(*v)
    return tuple(x // g for x in v)


def _complement(w):
    """Integer rows completing the primitive integer vector w to a
    unimodular matrix, so that they map the lattice w^perp of Z^n onto
    Z^(n-1): Euclid on w's entries, applying the inverse operations to the
    rows of the identity, so that w stays the sum of its entries times the
    rows and ends as one of them."""
    cur, rows = list(w), [[int(i == j) for j in range(len(w))] for i in range(len(w))]
    while len(nz := [j for j, x in enumerate(cur) if x]) > 1:
        i = min(nz, key=lambda j: abs(cur[j]))
        for j in nz:
            if j != i:
                q = cur[j] // cur[i]
                cur[j] -= q * cur[i]
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return [r for r, x in zip(rows, cur) if not x]


def _sum_normals(sets, n):
    """Primitive integer outer facet normals of the Minkowski sum of
    integer point sets in Z^n, n >= 2: in the plane, the summands' edge
    normals; else its hull core's when it is n-dimensional, plus or minus
    its hyperplane's when (n-1)-dimensional, none when lower."""
    if n == 2:
        normals = {}
        for s in sets:
            for p, q in itertools.combinations(s, 2):
                w = _primitive((q[1] - p[1], p[0] - q[0]))
                for w in (w, (-w[0], -w[1])):
                    if _dot(w, p) == max(_dot(w, v) for v in s):
                        normals[w] = None
        return list(normals)
    ints = _dedup(tuple(map(sum, zip(*c))) for c in itertools.product(*sets))
    basis, rank, _ = _integer_basis(ints, n - 1)
    if rank == n - 1:
        w = _primitive(_functionals([ints[i] for i in basis], n - 1)[0][:-1])
        return [w, tuple(-x for x in w)]
    return list(dict.fromkeys(_primitive(F.fn[0][:-1]) for F in _hull_core(ints, basis, ()))) if rank == n else []


def _face(points, w):
    """The points maximizing <w, .>."""
    top = max(dots := [_dot(w, v) for v in points])
    return [v for v, t in zip(points, dots) if t == top]


def _project(points, rows):
    return [tuple(_dot(r, v) for r in rows) for v in points]


def _split(items):
    """The first of the longest items, and the others."""
    i = max(range(len(items)), key=lambda j: (len(items[j]), -j))
    return items[i], items[:i] + items[i + 1 :]


def _mixed_volume(sets):
    """MV_n of n integer point sets in Z^n by the facet recursion
    MV_n(K_1, ..., K_n) = sum over the facet normals w of K_2 + ... + K_n
    of h_{K_1}(w) MV_(n-1)(K_2^w, ..., K_n^w), each face K^w (the points
    maximizing <w, .>) read in the lattice w^perp, down to MV_1(K) = max K
    - min K (MV_0 = 1, the empty family's).  K_1 is the longest set, and a
    term with a one-point face vanishes."""
    if len(sets) < 2:
        return max(sets[0])[0] - min(sets[0])[0] if sets else 1
    first, rest = _split(sets)
    total = 0
    for w in _sum_normals(rest, len(sets)):
        faces = [_face(s, w) for s in rest]
        if all(len(f) > 1 for f in faces):
            rows = _complement(w)
            total += max(_dot(w, v) for v in first) * _mixed_volume([_project(f, rows) for f in faces])
    return total


def _top(values, fn, primes):
    """The points of a vertex-value map maximizing the row of the
    functionals fn at (point, value), f_t.(v, y), and that row."""
    best, top = None, []
    for v, y in values.items():
        p = (*v, *y)
        row = [_dot(f, p) for f in fn]
        s = 1 if best is None else _sign(_vsub(row, best), primes)
        if s > 0:
            best, top = row, [v]
        elif s == 0:
            top.append(v)
    return best, top


def _mixed_integral(maps, primes):
    """MI_n, as a row, of n+1 roofs over Z^n given by vertex-value maps:
    with g_0 the roof with the most vertices and Delta_i the domains, the
    sum over the facet normals w of Delta_1 + ... + Delta_n of
    h_{Delta_0}(w) MI_(n-1)(g_1 on Delta_1^w, ..., g_n on Delta_n^w), read
    in w^perp, plus the sum over the cells of g_1 sup ... sup g_n, of
    functionals fn and a = fn[0][n] > 0, of max_v f_t.(v, g_0(v)) MV_n(C_1,
    ..., C_n) / a, C_i the maximizing vertices of g_i.  MI_1 is max(Delta_0)
    g_1(right end) - min(Delta_0) g_1(left end) plus, over the segments u ->
    v of g_1, the largest row (g_1(u) - g_1(v)) x + (v - u) g_0(x) over the
    points x of g_0 (integers at a finite place); MI_0(g) = g(point)."""
    n = len(maps) - 1
    if n == 0:
        return next(iter(maps[0].values()))
    first, rest = _split(maps)
    if n == 1:
        g, rank = sorted(rest[0].items()), cmp_to_key(lambda r, q: _sign(_vsub(r, q), primes))
        (lo,), (hi,) = min(first), max(first)
        total = [hi * b - lo * a for a, b in zip(g[0][1], g[-1][1])]
        for ((u,), gu), ((v,), gv) in zip(g, g[1:]):
            if primes:
                best = max(([(a - b) * x + (v - u) * c for a, b, c in zip(gu, gv, y)] for (x,), y in first.items()), key=rank)
            else:
                best = [max((gu[0] - gv[0]) * x + (v - u) * y for (x,), (y,) in first.items())]
            total = [t + r for t, r in zip(total, best)]
        return total
    normals = _sum_normals([list(m) for m in rest], n)
    total = [0] * (len(primes) + 1)
    for w in normals:
        rows = _complement(w)
        faces = [{v: m[v] for v in _face(list(m), w)} for m in rest]
        h = max(_dot(w, v) for v in first)
        total = [t + h * x for t, x in zip(total, _mixed_integral([dict(zip(_project(f, rows), f.values())) for f in faces], primes))]
    if len(normals) > 2:  # the sum is n-dimensional: the cells are the upper simplices of the summed points
        conv = rest[0]
        for i in range(1, n):
            sums = [(*_vadd(p, q), *_vadd(y, z)) for p, y in conv.items() for q, z in rest[i].items()]
            if i < n - 1:  # a partial sup-convolution, by its map
                conv = _envelope_map(sums, primes)
        for fn in dict.fromkeys(fn for fn, _, _ in _graph_simplices(_span(sums, primes, 1)[0])):
            faces = []
            for m in rest:
                if len(face := _top(m, fn, primes)[1]) == 1:
                    break
                faces.append(face)
            else:
                mv, a = _mixed_volume(faces), fn[0][n]
                total = [t + Fraction(x * mv, a) for t, x in zip(total, _top(first, fn, primes)[0])]
    return total


def _joint(point_sets):
    """Point sets as integers of one ``_integer_points``, its primes and scale."""
    ints, primes, scale = _integer_points([p for s in point_sets for p in s])
    it = iter(ints)
    return [list(itertools.islice(it, len(s))) for s in point_sets], primes, scale


def mixed_volume(polytopes):
    """Mixed volume of n polytopes in dimension n, MV(Q, ..., Q) =
    n! Vol(Q) (the empty family has mixed volume 1): by the facet recursion
    for rational polytopes; for lifted ones, a log-linear number, as
    MI(u_1, ..., u_n) + MI(-l_1, ..., -l_n) with u_i the upper roof of the
    i-th polytope and l_i its lower boundary."""
    polys = list(polytopes)
    n = len(polys)
    if any(p.ambient_dim != n for p in polys):
        raise ValueError(f"need {n} polytopes in ambient dimension {n}")
    if any(p._kind.startswith("lifted") for p in polys):
        return sum(_roofs_integral([[(*v[:-1], s * v[-1]) for v in p.vertices] for p in polys]) for s in (1, -1))
    sets, _, scale = _joint([p.vertices for p in polys])
    return Fraction(_mixed_volume(sets), scale**n)


def _count_message(count, dims):
    return f"need n+1 roofs over bases of dimension n; got {count} roofs over bases of dimension {', '.join(map(str, sorted(dims)))}"


def _roofs_integral(point_sets):
    """Mixed integral of the roofs of n+1 sets of lifted points (*base, lift)."""
    n = len(point_sets) - 1
    if n < 0:
        raise ValueError("need at least one roof")
    if any(len(p) != n + 1 for s in point_sets for p in s):
        raise ValueError(_count_message(n + 1, {len(p) - 1 for s in point_sets for p in s}))
    sets, primes, scale = _joint(point_sets)
    total = _mixed_integral([_envelope_map(s, primes, scale) for s in sets], primes)
    return as_loglinear(_decode(total, scale ** (n + 1), primes))


def mixed_integral(roofs):
    """Mixed integral of n+1 roofs over bases of dimension n, the
    polarization of the roof integral under sup-convolution (MI(f, ..., f)
    = (n+1)! Int(f)), computed by the facet recursion on the roofs'
    generators."""
    return _roofs_integral([[(*g.base, g.lift) for g in f.generators] for f in roofs])


def mixed_integral_via_mv(roofs, floors):
    """Mixed integral computed through mixed volumes of the lifted
    polytopes, with the floor correction; each floor must lie at or below
    min(f_i, 0)."""
    roofs, floors = list(roofs), list(floors)
    n = len(roofs) - 1
    if n < 0:
        raise ValueError("need at least one roof")
    if len(floors) != len(roofs):
        raise ValueError("one floor per roof")
    if any(f.base_dim != n for f in roofs):
        raise ValueError(_count_message(n + 1, {f.base_dim for f in roofs}))
    lifted = []
    for f, mu in zip(roofs, floors):
        if certified_sign(mu) > 0:
            raise ValueError("floors must be nonpositive")
        lifted.append(lifted_polytope(f, mu))  # also checks mu <= min(f)
    total = mixed_volume(lifted)
    for i, mu in enumerate(floors):
        others = [roofs[j].domain for j in range(len(roofs)) if j != i]
        total = total + as_loglinear(mu) * mixed_volume(others)
    return as_loglinear(total)


def multi_chow_weight(datasets) -> LogLinearNumber:
    """Polarized Chow weight of several (exponents, weights) datasets with
    full lattices, the mixed integral of their roofs."""
    return mixed_integral(roof_from_weight(_require_full_lattice(e)[0], w) for e, w in datasets)


class EmbeddingFamily(_Record):
    """n+1 monomial pairs with exponents in the same Z^n, one per slot of
    the multiheight."""

    __slots__ = _fields = ("members",)

    def __init__(self, members: tuple[MonomialPair, ...]):
        if not members:
            raise ValueError("need at least one member")
        n = members[0].n_ambient
        if any(m.n_ambient != n for m in members):
            raise ValueError("members must share one exponent dimension")
        if len(members) != n + 1:
            raise ValueError(f"need exactly {n + 1} members for exponent dimension {n}")
        object.__setattr__(self, "members", members)

    @property
    def torus_dim(self) -> int:
        return self.members[0].n_ambient


def _common_normalization(family: EmbeddingFamily):
    """Exponent coordinates member by member: identity when every lattice
    is already full, otherwise a shared basis when all lattices agree."""
    n = family.torus_dim
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    data = [lattice_normalize(m.exponents) for m in family.members]
    if all(r == n and basis == identity for _, r, basis in data):
        return [list(m.exponents) for m in family.members]
    bases = {basis for _, r, basis in data if r == n}
    if any(r != n for _, r, _ in data) or len(bases) != 1:
        raise LatticeHypothesisError("multiheight requires every member lattice to be Z^n, "
                                     "or one common lattice for a joint normalization")
    return [coords for coords, _, _ in data]


def multiheight(family: EmbeddingFamily) -> HeightReport:
    """Normalized multiheight of the torus for the family of embeddings:
    the sum over places of the mixed integrals of the local roofs, with
    the mixed degree MV_n(A_1, ..., A_n) of the exponent sets."""
    coords = _common_normalization(family)

    def local(*weights):  # rows, and the primes every member shares
        primes = weights[0][1]
        maps = [_envelope_map([(*b, *t) for b, t in zip(c, rows)], primes) for c, (rows, _) in zip(coords, weights)]
        return _decode(_mixed_integral(maps, primes), 1, primes)

    per, total = _over_places([m.coefficients for m in family.members], local)
    return HeightReport(total, per, _mixed_volume([_dedup(c) for c in coords[1:]]), family.torus_dim, 1)
