"""Exact convex geometry over Q^n, with one optional lifted coordinate.

Points are tuples of exact values.  All coordinates are rationals except
possibly the last one, which may be a :class:`LogLinearNumber`.  Hulls
(dimension <= 6, one more if lifted) are built beneath-beyond on integers
only: points scaled by one denominator, the last coordinate an integer row
over (1, log p_1, ..., log p_m), so a side test is an integer sign, or
``exactnum._row_sign`` when m > 0.  Determinants, linear solves and ranks
share one exact elimination, ``_Echelon``.  One fan of a rational
polytope's simplicial boundary serves volumes, ``triangulate`` and cell
integrals; a lifted polytope lies between the upper and lower cells of one
hull, and its volume integrates the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul

from .errors import DimensionLimitError
from .exactnum import LogLinearNumber, _row_sign, as_fraction, as_loglinear, value_sign

__all__ = [
    "Polytope",
    "Facet",
    "Face",
    "FaceLattice",
    "AffineCell",
    "convex_hull",
    "upper_envelope",
    "volume",
    "minkowski_sum",
    "face_lattice",
    "lattice_normalize",
    "triangulate",
    "intersect_polytopes",
]

MAX_DIMENSION = 6


# ---------------------------------------------------------------------------
# value/vector helpers


def _as_value(x):
    if isinstance(x, LogLinearNumber):
        return x.constant if x.is_rational else x
    return as_fraction(x)


def _normalize_point(p) -> tuple:
    return tuple(_as_value(x) for x in p)


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _is_lifted(x) -> bool:
    return isinstance(x, LogLinearNumber) and not x.is_rational


class _Echelon:
    """Incremental row echelon form of vectors over Q whose last coordinate
    may be log-linear: the one elimination behind determinants, kernel
    vectors and ranks.

    Each added vector is reduced by the stored pivots in insertion order and
    pivots on its first nonzero coordinate.  A pivot keeps its column, its
    value and the row's entries after the column, scaled by the inverse of
    the pivot.  Every coordinate but the last is rational, so those pivots
    are rational; a vector left nonzero only in its last entry pivots there,
    irrational or not, and keeps an empty row: it spans that coordinate, so
    at most one such pivot counts toward the rank.
    """

    def __init__(self):
        self.pivots = []  # (column, pivot, row after the column / pivot)

    def add(self, vec) -> bool:
        """Reduce ``vec``; True (and a new pivot) if it raises the rank."""
        v = list(vec)
        for col, _, tail in self.pivots:
            f = v[col]
            if f:
                v[col] = 0
                v[col + 1 :] = [a - f * b for a, b in zip(v[col + 1 :], tail)]
        for col, x in enumerate(v):
            if x:
                self.pivots.append((col, x, [y / x for y in v[col + 1 :]]))
                return True
        return False


def det(rows):
    """Exact determinant of a rational matrix."""
    echelon = _Echelon()
    if not all(echelon.add([as_fraction(x) for x in r]) for r in rows):
        return Fraction(0)
    cols = [c for c, _, _ in echelon.pivots]
    total = Fraction(-1 if sum(a > b for a, b in itertools.combinations(cols, 2)) % 2 else 1)
    for _, piv, _ in echelon.pivots:
        total = total * piv
    return total


def _kernel_vector(rows):
    """The kernel vector of k independent rows of length k+1 that has a 1
    in the one column without a pivot, returned with that column; None if
    the rows are dependent.  A pivot's row is zero at every earlier pivot's
    column, so back-substitution runs in reverse insertion order."""
    echelon = _Echelon()
    if not all(echelon.add(r) for r in rows):
        return None
    free = min(set(range(len(rows) + 1)) - {c for c, _, _ in echelon.pivots})
    x = {free: Fraction(1)}
    for col, _, tail in reversed(echelon.pivots):
        x[col] = -sum((t * x[j] for j, t in enumerate(tail, col + 1) if t), Fraction(0))
    return [x[j] for j in range(len(rows) + 1)], free


def _solve_linear(a_rows, b):
    """Solve the square rational system ``A x = b`` as the kernel of
    ``[A | -b]``; the right-hand side may hold log-linear values, so the
    solution lives in the same span."""
    kernel = _kernel_vector([[*map(as_fraction, r), -_as_value(y)] for r, y in zip(a_rows, b)])
    if kernel is None or kernel[1] != len(a_rows):
        raise ValueError("singular system")
    return kernel[0][:-1]


def _rank(vectors) -> int:
    echelon = _Echelon()
    return sum(echelon.add(v) for v in vectors)


def _affine_basis(points):
    """Indices of an affinely independent spanning subset, first point first."""
    echelon = _Echelon()
    basis = [0] + [i for i in range(1, len(points)) if echelon.add(_vsub(points[i], points[0]))]
    return basis, len(echelon.pivots)


# ---------------------------------------------------------------------------
# beneath-beyond hull core on integers (full-dimensional input)


def _integer_points(points):
    """The points times one common denominator, as integer tuples: the base
    coordinates, then the last coordinate as a row over (1, log p_1, ...,
    log p_m).  Returns the tuples, the primes p_1 < ... < p_m and the
    denominator."""
    lasts = [as_loglinear(p[-1]) for p in points]
    primes = tuple(sorted({q for x in lasts for q, _ in x.logterms}))
    flat = [(*p[:-1], x.constant, *map(dict(x.logterms).get, primes, itertools.repeat(0))) for p, x in zip(points, lasts)]
    scale = lcm(*(c.denominator for p in flat for c in p))
    return [tuple(c.numerator * (scale // c.denominator) for c in p) for p in flat], primes, scale


def _functionals(points, k):
    """Integer functionals ``(*normal, offset)`` of the hyperplane through
    k+1 integer points of k base coordinates and a row: functional t is the
    cross product of the differences with row entry t as the last column,
    placed at that entry.  Fraction-free Gauss-Jordan (Bareiss) pivots on
    base columns only; a vertical hyperplane gets one rational functional."""
    p0 = points[0]
    m = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    prev, pivots, free = 1, [], None
    for c in range(k):
        r = len(pivots)
        i = next((i for i in range(r, k) if m[i][c]), None)
        if i is None:
            free = c
            continue
        m[r], m[i] = m[i], m[r]
        piv = m[r][c]
        for i in range(k):
            if i != r:
                f = m[i][c]
                m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], m[r])]
        prev = piv
        pivots.append(c)
    width = len(p0) - k
    if free is None:  # the normal is (-m[r][k + t] at column r, prev)
        normals = [[-row[k + t] for row in m] + [prev * (s == t) for s in range(width)] for t in range(width)]
    elif len(pivots) == k - 1:
        u = [-m[pivots.index(c)][free] if c in pivots else prev for c in range(k)]
        normals = [u + [0] * width] + [[0] * len(p0)] * (width - 1)
    else:
        raise ValueError("degenerate facet")
    return [(*n, sum(map(mul, n, p0))) for n in normals]


@dataclass(frozen=True)
class _SimplicialFacet:
    ids: frozenset
    fn: tuple  # functionals of ``_functionals``, primitive and outward


def _hull_core(points, basis, primes):
    """Simplicial boundary facets of the hull of full-dimensional integer
    points (``_integer_points``), given the indices of d+1 affinely
    independent ones; facets are primitive and oriented against the sum of
    those, d+1 times an interior point."""
    k = len(points[0]) - len(primes) - 1
    inside = tuple(map(sum, zip(*(points[i] for i in basis))))

    def side(fn, q, times=1):
        row = [sum(map(mul, f, q)) - times * f[-1] for f in fn]
        if not primes:
            return (row[0] > 0) - (row[0] < 0)
        return _row_sign(row, primes) if any(row) else 0

    def facet(ids):
        fn = _functionals([points[i] for i in ids], k)
        s = side(fn, inside, k + 2)
        if s == 0:
            raise ValueError("degenerate facet")
        g = -s * gcd(*(x for f in fn for x in f))
        return _SimplicialFacet(frozenset(ids), tuple(tuple(x // g for x in f) for f in fn))

    facets = [facet([b for t, b in enumerate(basis) if t != s]) for s in range(k + 2)]
    for ip in sorted(set(range(len(points))) - set(basis)):
        visible_ids = {id(F) for F in facets if side(F.fn, points[ip]) > 0}
        if not visible_ids:
            continue
        ridge_map = {}
        for F in facets:
            for drop in F.ids:
                ridge_map.setdefault(F.ids - {drop}, []).append(F)
        new_facets = []
        for ridge, shared in ridge_map.items():
            flags = [id(F) in visible_ids for F in shared]
            if any(flags) and not all(flags):
                new_facets.append(facet(sorted(ridge) + [ip]))
        facets = [F for F in facets if id(F) not in visible_ids] + new_facets
    return facets


# ---------------------------------------------------------------------------
# polytopes


@dataclass(frozen=True)
class Facet:
    """Supporting halfspace ``normal . x <= offset`` with its vertex set."""

    normal: tuple
    offset: object
    vertex_ids: tuple


@dataclass(frozen=True)
class AffineCell:
    """A cell of a regular subdivision: the rational polytope it covers
    plus the affine function of the envelope over it."""

    polytope: Polytope = field(hash=False)
    gradient: tuple
    offset: object

    @property
    def vertices(self):
        return self.polytope.vertices

    def value_at(self, x):
        return _dot(self.gradient, x) + self.offset

    def integral(self):
        """Exact integral of the affine function over a full-dimensional
        cell, or the offset over a point in R^0."""
        r = self.polytope.ambient_dim
        if r == 0:
            return self.offset
        total = Fraction(0)
        for simplex, vol in _fan(self.polytope):
            total = total + vol * sum((self.value_at(v) for v in simplex), Fraction(0))
        return total / factorial(r + 1)


class _Chart:
    """Affine chart of a proper affine subspace of Q^d."""

    def __init__(self, origin, basis):
        self.origin = origin
        self.basis = basis  # r linearly independent ambient vectors
        # rows of M = (B^T B)^{-1} B^T, a left inverse of B
        r = len(basis)
        gram = [[_dot(a, b) for b in basis] for a in basis]
        self._left_inverse = []
        for j in range(r):
            y = _solve_linear(gram, [Fraction(int(i == j)) for i in range(r)])
            self._left_inverse.append(
                tuple(sum((y[i] * basis[i][c] for i in range(r)), Fraction(0)) for c in range(len(origin)))
            )

    def to_chart(self, point):
        rhs = _vsub(point, self.origin)
        coords = tuple(_dot(row, rhs) for row in self._left_inverse)
        return coords if self.to_ambient(coords) == tuple(point) else None

    def to_ambient(self, coords):
        out = list(self.origin)
        for j, c in enumerate(coords):
            out = [x + c * b for x, b in zip(out, self.basis[j])]
        return tuple(out)

    def pullback_affine(self, gradient, offset):
        """Ambient (gradient, offset) of an affine function given in chart
        coordinates: the gradient M^T g lies in span(B), and the function
        agrees with the original on the chart's subspace."""
        g_amb = tuple(
            sum((g * row[i] for g, row in zip(gradient, self._left_inverse)), Fraction(0))
            for i in range(len(self.origin))
        )
        return g_amb, offset - _dot(g_amb, self.origin)


class Polytope:
    """Exact convex polytope: vertex list (extreme points only) plus
    supporting halfspaces.  Lower-dimensional rational polytopes carry an
    affine chart and the polytope in chart coordinates; full-dimensional
    rational ones carry a simplicial boundary for volumes and
    triangulations."""

    def __init__(
        self, ambient_dim, affine_dim, vertices, facets, kind,
        chart=None, inner=None, boundary=None,
    ):
        self.ambient_dim = ambient_dim
        self.affine_dim = affine_dim
        self.vertices = vertices
        self.facets = facets
        self._kind = kind
        self._chart = chart
        self._inner = inner
        self._boundary = boundary  # simplicial boundary, point tuples
        self._volume = None

    # -- basic protocol -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and frozenset(self.vertices) == frozenset(other.vertices)
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"Polytope(ambient={self.ambient_dim}, dim={self.affine_dim}, "
            f"vertices={len(self.vertices)})"
        )

    @property
    def is_full_dimensional(self):
        return self.affine_dim == self.ambient_dim

    # -- membership ------------------------------------------------------

    def contains(self, point) -> bool:
        point = _normalize_point(point)
        if len(point) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        if self._kind == "point":
            return point == self.vertices[0]
        if self._kind == "degenerate":
            coords = self._chart.to_chart(point)
            if coords is None:
                return False
            return self._inner.contains(coords)
        return all(value_sign(_dot(F.normal, point) - F.offset) <= 0 for F in self.facets)

    # -- volume -----------------------------------------------------------

    def volume(self):
        """Exact ambient-dimensional volume; degenerate polytopes have
        volume 0 and a zero-dimensional ambient space yields 1."""
        if self._volume is None:
            if self.ambient_dim == 0:
                self._volume = Fraction(1)
            elif self.affine_dim < self.ambient_dim:
                self._volume = Fraction(0)
            else:
                self._volume = sum((vol for _, vol in _fan(self)), Fraction(0)) / factorial(self.ambient_dim)
        return self._volume


def _fan(p: Polytope):
    """Nonzero simplices of a rational full-dimensional polytope, fanned
    from its least vertex over its simplicial boundary, each with the
    absolute value of its determinant."""
    if p._boundary is None:
        raise ValueError("only a full-dimensional rational polytope can be fanned")
    anchor = min(p.vertices)
    for face in p._boundary:
        if anchor not in face:
            dv = det([_vsub(q, anchor) for q in face])
            if dv:
                yield (anchor,) + face, abs(dv)


# ---------------------------------------------------------------------------
# construction


def _merge_facets(points, simplicial, scale):
    """Group simplicial facets of rational integer points (``_integer_points``
    with denominator ``scale``) by their primitive functional, compute the
    true vertex set and per-facet vertex lists.  Merged normals and offsets
    are primitive integers in the unscaled coordinates."""
    d = len(points[0])
    merged = []
    for *normal, offset in dict.fromkeys(F.fn[0] for F in simplicial):
        members = frozenset(i for i, p in enumerate(points) if sum(map(mul, normal, p)) == offset)
        g = gcd(scale, offset)
        merged.append((tuple(Fraction(scale * z // g) for z in normal), Fraction(offset // g), members))
    # vertex test: active merged normals span the ambient space
    candidates = sorted(frozenset().union(*(members for _, _, members in merged)))
    actives = ([normal for normal, _, members in merged if i in members] for i in candidates)
    return merged, [i for i, active in zip(candidates, actives) if len(active) >= d and _rank(active) == d]


def _build_rational(points):
    """Polytope of deduplicated rational points (any affine dimension)."""
    d = len(points[0])
    basis, rank = _affine_basis(points)
    if rank == 0:
        return Polytope(d, 0, (points[0],), (), "point")
    if rank < d:
        chart = _Chart(points[basis[0]], [_vsub(points[b], points[basis[0]]) for b in basis[1:]])
        return _embed(chart, _build_rational([chart.to_chart(p) for p in points]))
    ints, _, scale = _integer_points(points)
    simplicial = _hull_core(ints, basis, ())
    merged, vertex_ids = _merge_facets(ints, simplicial, scale)
    if len(frozenset().union(*(F.ids for F in simplicial))) > len(vertex_ids):
        # a non-extreme point entered the boundary: rebuild from the vertices
        return _build_rational([points[i] for i in vertex_ids])
    order = {pid: k for k, pid in enumerate(vertex_ids)}
    vertices = tuple(points[i] for i in vertex_ids)
    facets = tuple(
        Facet(normal, offset, tuple(sorted(order[i] for i in members if i in order)))
        for normal, offset, members in merged
    )
    boundary = tuple(tuple(points[i] for i in sorted(F.ids)) for F in simplicial)
    return Polytope(d, d, vertices, facets, "full", boundary=boundary)


def _embed(chart, inner):
    """The polytope given in chart coordinates, in ambient coordinates."""
    verts = tuple(chart.to_ambient(v) for v in inner.vertices)
    return Polytope(len(chart.origin), inner.affine_dim, verts, inner.facets, "degenerate", chart=chart, inner=inner)


def _graph_cells(points, basis, lower=False):
    """Merged graph cells (projected) of the hull of full-dimensional lifted
    points: the upper ones, and the lower ones if asked (else empty).
    Facets group by functional, and each cell's gradient and offset are
    built once, log-linear when the lift is."""
    k = len(points[0]) - 1
    ints, primes, scale = _integer_points(points)
    groups = {}
    for F in _hull_core(ints, basis, primes):
        if F.fn[0][k] > 0 or (lower and F.fn[0][k] < 0):
            groups.setdefault(F.fn, set()).update(F.ids)

    def value(coeffs, denominator):
        q = [Fraction(c, denominator) for c in coeffs]
        return LogLinearNumber._make(q[0], dict(zip(primes, q[1:]))) if primes else q[0]

    upper, below = [], []
    for fn, ids in sorted(groups.items(), key=lambda kv: sorted(kv[1])):
        a = fn[0][k]
        gradient = tuple(value([-f[j] for f in fn], a) for j in range(k))
        cell = _build_rational(_dedup([points[i][:k] for i in sorted(ids)]))
        (upper if a > 0 else below).append(AffineCell(cell, gradient, value([f[-1] for f in fn], a * scale)))
    return upper, below


def _dedup(points):
    return list(dict.fromkeys(points))


def _flat_affine(points, basis):
    """Affine function through lifted points lying on one non-vertical
    hyperplane, solved through an affine basis of the lifted points; the
    bases span the base space, so the basis points' bases are affinely
    independent."""
    k = len(points[0]) - 1
    rows = [list(points[i][:k]) + [Fraction(1)] for i in basis]
    rhs = [points[i][k] for i in basis]
    sol = _solve_linear(rows, rhs)
    return tuple(sol[:k]), sol[k]


def _build_lifted(points):
    """Polytope of deduplicated points whose last coordinate is lifted:
    the region between the upper and the lower cells of one hull of the
    points, over bases that must span their space.  It is the graph of one
    affine function (flat) or full-dimensional, with the integral of the
    upper envelope minus the lower as its volume."""
    d = len(points[0])
    k = d - 1
    proj = _build_rational(_dedup([p[:k] for p in points]))
    if proj.affine_dim < k:
        raise ValueError("lifted hull over a degenerate projection is unsupported")
    basis, rank = _affine_basis(points)
    if rank == k:
        flat = [AffineCell(proj, *_flat_affine(points, basis))]
        verts = tuple((*b, flat[0].value_at(b)) for b in proj.vertices)
        return Polytope(d, k, verts, _lifted_facets(flat, flat, proj, verts), "lifted-flat")
    upper, lower = _graph_cells(points, basis, lower=True)
    verts = tuple(sorted({(*b, cell.value_at(b)) for cell in upper + lower for b in cell.vertices}))
    lifted = Polytope(d, d, verts, _lifted_facets(upper, lower, proj, verts), "lifted-full")
    lifted._volume = sum(c.integral() for c in upper) - sum(c.integral() for c in lower)
    return lifted


def _upper_cells(points):
    """Upper graph cells of deduplicated lifted points whose bases span
    their space: the regular subdivision a roof reads.  Builds no lower
    cells and no lifted facets; the bases are hulled only for a flat lift."""
    k = len(points[0]) - 1
    basis, rank = _affine_basis(points)
    if rank == k:
        bases = _build_rational(_dedup([p[:k] for p in points]))
        return [AffineCell(bases, *_flat_affine(points, basis))]
    return _graph_cells(points, basis)[0]


def _lifted_facets(upper, lower, proj, vertices):
    """Supporting halfspaces of a lifted polytope: one per graph cell plus
    the vertical extensions of the projection's facets."""
    facets = []

    def saturating(normal, offset):
        return tuple(
            i for i, v in enumerate(vertices) if not _dot(normal, v) - offset
        )

    for cell in upper:
        normal = tuple(-g for g in cell.gradient) + (Fraction(1),)
        facets.append(Facet(normal, cell.offset, saturating(normal, cell.offset)))
    for cell in lower:
        normal = tuple(cell.gradient) + (Fraction(-1),)
        facets.append(Facet(normal, -cell.offset, saturating(normal, -cell.offset)))
    for F in proj.facets:
        normal = tuple(F.normal) + (Fraction(0),)
        facets.append(Facet(normal, F.offset, saturating(normal, F.offset)))
    return tuple(facets)


def _check_dimension(d, lifted):
    bound = MAX_DIMENSION + (1 if lifted else 0)
    if d > bound:
        raise DimensionLimitError(
            f"ambient dimension {d} exceeds the supported bound {bound} "
            f"(MAX_DIMENSION = {MAX_DIMENSION}, one more for a lifted hull)"
        )


def convex_hull(points) -> Polytope:
    """Exact convex hull.  Handles lower-dimensional rational input via an
    affine chart; lifted input (log-linear last coordinate) must project
    onto a full-dimensional rational configuration."""
    pts = [_normalize_point(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("dimension mismatch")
    for p in pts:
        if any(_is_lifted(x) for x in p[: d - 1]):
            raise ValueError("only the last coordinate may be lifted")
    pts = _dedup(pts)
    if d == 0:
        return Polytope(0, 0, (tuple(),), (), "point")
    lifted = any(_is_lifted(p[-1]) for p in pts)
    _check_dimension(d, lifted)
    if lifted:
        return _build_lifted(pts)
    return _build_rational(sorted(pts))


def upper_envelope(points) -> list[AffineCell]:
    """Regular subdivision induced by the upper envelope of lifted points.

    ``points`` are ``(base, lift)`` pairs; the returned cells partition the
    hull of the bases and carry the affine function of the envelope piece,
    all in the bases' ambient coordinates.
    """
    gens = []
    for base, lift in points:
        gens.append((tuple(as_fraction(x) for x in base), _as_value(lift)))
    gens = _dedup(gens)
    if not gens:
        raise ValueError("need at least one point")
    k = len(gens[0][0])
    if any(len(b) != k for b, _ in gens):
        raise ValueError("dimension mismatch")
    _check_dimension(k, False)
    bases = _dedup([g[0] for g in gens])
    basis, rank = _affine_basis(bases) if k else ([0], 0)
    if rank == 0:
        best = gens[0][1]
        for _, lift in gens[1:]:
            if value_sign(lift - best) > 0:
                best = lift
        point = Polytope(k, 0, (bases[0],), (), "point")
        return [AffineCell(point, tuple(Fraction(0) for _ in range(k)), best)]
    chart = None
    if rank < k:
        origin = bases[basis[0]]
        chart = _Chart(origin, [_vsub(bases[b], origin) for b in basis[1:]])
        gens = [(chart.to_chart(b), lift) for b, lift in gens]
    cells = _upper_cells([(*b, lift) for b, lift in gens])
    if chart is not None:
        cells = [
            AffineCell(_embed(chart, cell.polytope), *chart.pullback_affine(cell.gradient, cell.offset))
            for cell in cells
        ]
    return cells


def volume(p: Polytope):
    """Exact ambient-dimensional volume of a polytope."""
    return p.volume()


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("dimension mismatch")
    return convex_hull([_vadd(a, b) for a in p.vertices for b in q.vertices])


def triangulate(p: Polytope):
    """Full-dimensional simplices (as vertex tuples) partitioning a
    full-dimensional rational polytope, fanned from its least vertex."""
    return [simplex for simplex, _ in _fan(p)]


# ---------------------------------------------------------------------------
# face lattice


@dataclass(frozen=True)
class Face:
    dim: int
    vertex_ids: frozenset


class FaceLattice:
    """All faces of a rational polytope, generated by intersecting facet
    vertex sets; the empty face is excluded and the polytope is the top."""

    def __init__(self, polytope: Polytope):
        if polytope._kind in ("lifted-full", "lifted-flat"):
            raise ValueError("face lattice is only supported for rational polytopes")
        self.polytope = polytope
        base = polytope._inner if polytope._kind == "degenerate" else polytope
        n = len(polytope.vertices)
        sets = {frozenset(F.vertex_ids) for F in base.facets}
        sets.add(frozenset(range(n)))
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(list(sets), 2):
                c = a & b
                if c and c not in sets:
                    sets.add(c)
                    changed = True
        faces = []
        for ids in sets:
            _, dim = _affine_basis([polytope.vertices[i] for i in sorted(ids)])
            faces.append(Face(dim, frozenset(ids)))
        self.faces = sorted(faces, key=lambda f: (f.dim, sorted(f.vertex_ids)))
        self._poly_cache = {}

    def faces_of_dim(self, d: int):
        return [f for f in self.faces if f.dim == d]

    @property
    def top(self) -> Face:
        return self.faces[-1]

    def face_polytope(self, face: Face) -> Polytope:
        if face not in self._poly_cache:
            self._poly_cache[face] = convex_hull(
                [self.polytope.vertices[i] for i in sorted(face.vertex_ids)]
            )
        return self._poly_cache[face]


def face_lattice(p: Polytope) -> FaceLattice:
    return FaceLattice(p)


# ---------------------------------------------------------------------------
# polytope intersection (used for common refinements, dimension <= 3)


def intersect_polytopes(p: Polytope, q: Polytope):
    """Intersection of two full-dimensional rational polytopes, or None if
    it is empty.  Vertices are enumerated from the joint halfspace system,
    which keeps this practical only in low dimension."""
    d = p.ambient_dim
    if d != q.ambient_dim:
        raise ValueError("dimension mismatch")
    if d > 3:
        raise ValueError("intersection supported only up to dimension 3")
    if not (p.is_full_dimensional and q.is_full_dimensional):
        raise ValueError("intersection needs full-dimensional operands")
    constraints = [(F.normal, F.offset) for F in p.facets] + [
        (F.normal, F.offset) for F in q.facets
    ]
    candidates = []
    for subset in itertools.combinations(range(len(constraints)), d):
        rows, rhs = zip(*(constraints[i] for i in subset))
        try:
            x = tuple(_solve_linear(rows, rhs))
        except ValueError:  # singular
            continue
        if all(_dot(n, x) <= o for n, o in constraints):
            candidates.append(x)
    candidates = _dedup(candidates)
    if not candidates:
        return None
    return convex_hull(candidates)


# ---------------------------------------------------------------------------
# integer lattice normalization


def _integer_row_hnf(rows):
    """Row-style Hermite normal form basis of the row lattice: echelon rows
    with positive pivots and reduced entries above each pivot."""
    m = [list(map(int, r)) for r in rows]
    n_cols = len(m[0])
    pr = 0
    pivots = []
    for col in range(n_cols):
        while True:
            nz = [i for i in range(pr, len(m)) if m[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(m[i][col]))
            m[pr], m[i0] = m[i0], m[pr]
            done = True
            for i in range(pr + 1, len(m)):
                if m[i][col] != 0:
                    f = m[i][col] // m[pr][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
                    if m[i][col] != 0:
                        done = False
            if done:
                break
        if pr < len(m) and m[pr][col] != 0:
            if m[pr][col] < 0:
                m[pr] = [-a for a in m[pr]]
            for i in range(pr):
                f = m[i][col] // m[pr][col]
                if f:
                    m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
            pivots.append(col)
            pr += 1
    return [m[i] for i in range(pr)], pivots


def lattice_normalize(vectors):
    """Coordinates of integer vectors in a basis of their difference lattice.

    Returns ``(B, r, basis)`` where ``basis`` is a Hermite-form basis of the
    lattice generated by the differences ``a_i - a_0``, ``r`` its rank, and
    ``B`` the coordinate vectors of the differences, which generate Z^r.
    """
    vecs = [tuple(int(x) for x in v) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    a0 = vecs[0]
    diffs = [tuple(x - y for x, y in zip(v, a0)) for v in vecs]
    basis, pivots = _integer_row_hnf(diffs)
    r = len(basis)
    coords = []
    for dvec in diffs:
        d = list(dvec)
        x = [0] * r
        for i, col in enumerate(pivots):
            q, rem = divmod(d[col], basis[i][col])
            if rem:
                raise ArithmeticError("difference not in the computed lattice")
            x[i] = q
            d = [a - q * b for a, b in zip(d, basis[i])]
        if any(d):
            raise ArithmeticError("difference not in the computed lattice")
        coords.append(tuple(x))
    return coords, r, tuple(tuple(row) for row in basis)
