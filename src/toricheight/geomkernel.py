"""Exact convex geometry over Q^n, with one optional lifted coordinate.

Points are tuples of exact values: rationals, the last one possibly a
:class:`LogLinearNumber`.  Every kernel runs on integers (``_integer_points``):
the points times one denominator, the last coordinate an integer row over
(1, log p_1, ..., log p_m), so a side test is an integer sign, or
``exactnum._row_sign`` when m > 0.  Hulls (dimension <= 6, one more if
lifted) are built beneath-beyond, farthest point first, each ridge keeping
the two facets that share it; on rational points a new facet's functional
is the pencil of the two facets at its horizon ridge, and the first
simplex's are the columns of one elimination's det M^-1, M = [1 | p].
Functionals, affine bases, ranks, solves and ``_simplex_det`` share one
fraction-free elimination, ``_Echelon``.  An upper envelope is one hull of
the lifted points (a flat lift gets one more point just below its graph),
or over a line (k = 1) Andrew's monotone chain, ``_chain``, with no hull
and no elimination; each projected upper simplex weighs its lifts by its
|det|.  ``_envelope_integral`` (the integral, decoded once) and
``_envelope_map`` (the vertex-value map of integer rows, with no cell) take
integer points as the place loop and ``mixed`` build them; ``_exact_pairs``
alone converts exact roof input.  A lifted polytope lies between
the upper and lower cells of one hull or chain pass, or is the graph of
one affine function over the bases' hull when flat.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import factorial, gcd, lcm
from operator import mul

from .errors import DimensionLimitError
from .exactnum import LogLinearNumber, _Record, _integer_row, _row_sign, as_fraction, as_loglinear, value_sign

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


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _dot(a, b):
    return sum(map(mul, a, b))


class _Echelon:
    """Incremental fraction-free Gauss-Jordan elimination (Bareiss, *Math.
    Comp.* 22, 1968) of integer rows, pivoting on the first k columns: the
    one elimination behind determinants, solves, ranks, affine bases and
    facet functionals.

    Every pivot row holds the common pivot ``det`` at its own column and 0
    at the other pivot columns; ``det`` is the minor of the pivot rows, as
    added, at the pivot columns, in pivot order, so every division is
    exact.  A row left nonzero only past column k (a lift over 1, log p_1,
    ..., which are linearly independent over Q) raises the rank once and is
    not kept.
    """

    def __init__(self, k):
        self.k, self.det, self.cols, self.rows, self.rank = k, 1, [], [], 0

    def add(self, vec) -> bool:
        """Reduce the integer row ``vec``; True if it raises the rank."""
        p = self.det
        v = [p * x for x in vec] if self.rows else list(vec)
        for c, row in zip(self.cols, self.rows):
            f = vec[c]
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        c = next((c for c in range(self.k) if v[c]), None)
        if c is None:  # dependent, or in the lift's span if a lift raised the rank
            if self.rank > len(self.cols) or not any(v):
                return False
        else:
            q = v[c]
            self.rows = [[(q * x - row[c] * y) // p for x, y in zip(row, v)] for row in self.rows]
            self.rows.append(v)
            self.cols.append(c)
            self.det = q
        self.rank += 1
        return True


def _simplex_det(points, k):
    """|det| of the first k coordinates of the edges of a simplex of integer
    points from its first one, 0 if they are dependent."""
    p0, *rest = points
    echelon = _Echelon(k)
    for q in rest:
        if not echelon.add([q[c] - p0[c] for c in range(k)]):
            return 0
    return abs(echelon.det)


def _solve_linear(a_rows, b_rows):
    """Solve the square rational system ``A X = B``; B and the solution X
    are given by rows."""
    n = len(a_rows)
    echelon = _Echelon(n)
    for r, y in zip(a_rows, b_rows):
        echelon.add(_integer_row([*r, *y]))
    if len(echelon.cols) < n:
        raise ValueError("singular system")
    return [[Fraction(y, echelon.det) for y in row[n:]] for _, row in sorted(zip(echelon.cols, echelon.rows))]


def _affine_basis(points):
    """Indices of an affinely independent spanning subset, first point
    first, and its rank."""
    if not points[0]:
        return [0], 0
    return _integer_basis(_integer_points(points)[0], len(points[0]) - 1)[:2]


def _integer_basis(ints, k):
    """``_affine_basis`` of integer points (``_integer_points``) of k base
    coordinates and a row, then the indices in it whose bases are affinely
    independent."""
    echelon, basis, base = _Echelon(k), [0], [0]
    for i in range(1, len(ints)):
        if echelon.add([x - y for x, y in zip(ints[i], ints[0])]):
            basis.append(i)
            if len(echelon.cols) == len(base):  # a new pivot among the base columns
                base.append(i)
    return basis, echelon.rank, base


# ---------------------------------------------------------------------------
# beneath-beyond hull core on integers (full-dimensional input)


def _integer_points(points):
    """The points times one common denominator, as integer tuples: the base
    coordinates, then the last coordinate as a row over (1, log p_1, ...,
    log p_m).  Returns the tuples, the primes p_1 < ... < p_m and the
    denominator.  Points without a log-linear coordinate are read as they
    are."""
    primes = ()
    if any(isinstance(p[-1], LogLinearNumber) for p in points):
        lasts = [as_loglinear(p[-1]) for p in points]
        primes = tuple(sorted({q for x in lasts for q, _ in x.logterms}))
        points = [(*p[:-1], x.constant, *map(dict(x.logterms).get, primes, itertools.repeat(0))) for p, x in zip(points, lasts)]
    scale = lcm(*(c.denominator for p in points for c in p))
    return [tuple(c.numerator * (scale // c.denominator) for c in p) for p in points], primes, scale


def _functionals(points, k):
    """Integer functionals ``(*normal, offset)`` of the hyperplane through
    k+1 integer points of k base coordinates and a row: functional t is the
    cross product of the differences with row entry t as the last column,
    placed at that entry.  It reads them from the rows of ``_Echelon``; a
    vertical hyperplane gets one rational functional, from the free base
    column."""
    p0 = points[0]
    echelon = _Echelon(k)
    if not all(echelon.add([x - y for x, y in zip(p, p0)]) for p in points[1:]):
        raise ValueError("degenerate facet")
    free = [c for c in range(k) if c not in echelon.cols]
    normals = []
    for j in free or range(k, len(p0)):  # the normal is (-row[j] at the row's column, det at j)
        n = [0] * len(p0)
        for c, row in zip(echelon.cols, echelon.rows):
            n[c] = -row[j]
        n[j] = echelon.det
        normals.append(n)
    normals += [[0] * len(p0)] * (len(p0) - k - len(normals))
    return [(*n, sum(map(mul, n, p0))) for n in normals]


class _SimplicialFacet(_Record):
    __slots__ = _fields = ("ids", "fn")
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity: the hull core keys facets by object

    def __init__(self, ids: frozenset, fn: tuple):  # functionals of ``_functionals``, primitive and outward
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "fn", fn)


def _hull_core(points, basis, primes):
    """Simplicial boundary facets of the hull of full-dimensional integer
    points (``_integer_points``), given the indices of d+1 affinely
    independent ones; facets are primitive and oriented against the sum of
    those, d+1 times an interior point.  Beneath-beyond, farthest point
    first; each ridge keeps the two facets sharing it.  A new facet spans a
    horizon ridge (of a visible F and an invisible G) and the new point p.
    On rational points its functional is the pencil f_F(p) f_G - f_G(p) f_F
    made primitive: it vanishes on the ridge and at p and is outward, so it
    is the one ``_functionals`` would give.  The first simplex's facets are
    the columns (-offset, *normal) of det M^-1, M = [1 | p] over its
    vertices, from one elimination; a lifted hull's (log-linear values) are
    eliminated one by one, as M is singular at an all-zero constant entry.
    The projected |det| a cell weighs a facet by is in ``_graph_cells``."""
    k = len(points[0]) - len(primes) - 1
    inside = tuple(map(sum, zip(*(points[i] for i in basis))))

    def side(fn, q, times=1):  # the value on rational points, else its sign
        row = [sum(map(mul, f, q)) - times * f[-1] for f in fn]
        if not primes:
            return row[0]
        return _row_sign(row, primes) if any(row) else 0

    def facet(ids):
        fn = _functionals([points[i] for i in ids], k)
        s = side(fn, inside, k + 2)
        if s == 0:
            raise ValueError("degenerate facet")
        g = gcd(*(x for f in fn for x in f)) * (-1 if s > 0 else 1)
        return _SimplicialFacet(frozenset(ids), tuple(tuple(x // g for x in f) for f in fn))

    def pencil(F, s, G, ridge, ip):
        t = side(G.fn, points[ip])
        fn = [s * y - t * x for x, y in zip(F.fn[0], G.fn[0])]
        g = gcd(*fn)
        if not g:  # antiparallel neighbours
            raise ValueError("degenerate facet")
        return _SimplicialFacet(ridge | {ip}, (tuple(x // g for x in fn),))

    facets, ridges = {}, {}  # the live facets, in order; ridge -> the facets sharing it

    def add(F):
        facets[F] = None
        for drop in F.ids:
            ridges.setdefault(F.ids - {drop}, []).append(F)

    def far(i):  # farthest from the interior point first, then by index
        return -sum(((k + 2) * x - c) ** 2 for x, c in zip(points[i][: k + 1], inside)), i

    if primes:
        for s in range(k + 2):
            add(facet([b for t, b in enumerate(basis) if t != s]))
    else:  # det M^-1 from one elimination of [M | I]: its column s is det at basis[s], 0 at the others
        echelon = _Echelon(k + 2)
        for t, b in enumerate(basis):
            echelon.add([1, *points[b], *(int(s == t) for s in range(k + 2))])
        if len(echelon.cols) < k + 2:
            raise ValueError("degenerate facet")
        inverse = [row[k + 2 :] for _, row in sorted(zip(echelon.cols, echelon.rows))]
        for s, (c, *normal) in enumerate(zip(*inverse)):
            g = gcd(c, *normal) * (-1 if echelon.det > 0 else 1)  # outward: negative at basis[s]
            add(_SimplicialFacet(frozenset(basis[:s] + basis[s + 1 :]), (tuple(x // g for x in (*normal, -c)),)))
    for ip in sorted(set(range(len(points))) - set(basis), key=far):
        visible = {F: s for F in facets if (s := side(F.fn, points[ip])) > 0}
        for F, s in visible.items():
            del facets[F]
            for drop in F.ids:
                ridge = F.ids - {drop}
                pair = ridges[ridge]
                pair.remove(F)
                if not pair:
                    del ridges[ridge]
                elif pair[0] not in visible:  # a horizon ridge
                    add(facet(sorted(ridge) + [ip]) if primes else pencil(F, s, pair[0], ridge, ip))
    return list(facets)


# ---------------------------------------------------------------------------
# polytopes


class Facet(_Record):
    """Supporting halfspace ``normal . x <= offset`` with its vertex set."""

    __slots__ = _fields = ("normal", "offset", "vertex_ids")

    def __init__(self, normal: tuple, offset, vertex_ids: tuple):
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "vertex_ids", vertex_ids)


class AffineCell(_Record):
    """A cell of a regular subdivision: its base points, and the affine
    function of the envelope over it with its integral there.  The hull of
    the points is built on first use; a simplex's vertices are its points.
    Equal cells share vertices and function."""

    _fields = ("points", "gradient", "offset", "integral")

    def __init__(self, points: tuple, gradient: tuple, offset, integral):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "gradient", gradient)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "integral", integral)

    def __eq__(self, other):
        if not isinstance(other, AffineCell):
            return NotImplemented
        return self.gradient == other.gradient and self.offset == other.offset and set(self.vertices) == set(other.vertices)

    def __hash__(self):
        return hash((self.gradient, self.offset))

    @cached_property
    def polytope(self) -> Polytope:
        return _build_rational(list(self.points))

    @cached_property
    def vertices(self):
        return self.polytope.vertices

    def value_at(self, x):
        return _dot(self.gradient, x) + self.offset


class _Chart:
    """Affine chart of a proper affine subspace of Q^d."""

    def __init__(self, origin, basis):
        self.origin = origin
        self.basis = basis  # r linearly independent ambient vectors
        # rows of M = (B^T B)^{-1} B^T, a left inverse of B
        self._left_inverse = [tuple(row) for row in _solve_linear([[_dot(a, b) for b in basis] for a in basis], basis)]

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
        g_amb = tuple(sum((g * row[i] for g, row in zip(gradient, self._left_inverse)), Fraction(0)) for i in range(len(self.origin)))
        return g_amb, offset - _dot(g_amb, self.origin)


class Polytope:
    """Exact convex polytope: vertex list (extreme points only) plus
    supporting halfspaces.  Lower-dimensional rational polytopes carry an
    affine chart and the polytope in chart coordinates; full-dimensional
    rational ones carry a simplicial boundary for volumes and
    triangulations."""

    def __init__(self, ambient_dim, affine_dim, vertices, facets, kind, chart=None, inner=None, boundary=None):
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
        return self.ambient_dim == other.ambient_dim and frozenset(self.vertices) == frozenset(other.vertices)

    __hash__ = None

    def __repr__(self):
        return f"Polytope(ambient={self.ambient_dim}, dim={self.affine_dim}, vertices={len(self.vertices)})"

    @property
    def is_full_dimensional(self):
        return self.affine_dim == self.ambient_dim

    # -- membership ------------------------------------------------------

    def contains(self, point) -> bool:
        point = tuple(map(_as_value, point))
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
            ints, _, scale = _integer_points([anchor, *face])
            if w := _simplex_det(ints, p.ambient_dim):
                yield (anchor,) + face, Fraction(w, scale**p.ambient_dim)


# ---------------------------------------------------------------------------
# construction


def _merge_facets(points, simplicial, scale):
    """Group simplicial facets of rational integer points (``_integer_points``
    with denominator ``scale``) by their primitive functional, compute the
    true vertex set and per-facet vertex lists.  Merged normals and offsets
    are primitive integers in the unscaled coordinates."""
    d = len(points[0])
    merged, actives = [], {}
    for *normal, offset in dict.fromkeys(F.fn[0] for F in simplicial):
        members = frozenset(i for i, p in enumerate(points) if sum(map(mul, normal, p)) == offset)
        for i in members:
            actives.setdefault(i, []).append(normal)
        g = gcd(scale, offset)
        merged.append((tuple(Fraction(scale * z // g) for z in normal), Fraction(offset // g), members))
    # a vertex: the active normals span the ambient space
    return merged, [i for i in sorted(actives) if len(actives[i]) >= d and sum(map(_Echelon(d).add, actives[i])) == d]


def _build_rational(points):
    """Polytope of deduplicated rational points (any affine dimension)."""
    d = len(points[0])
    if len(points) == 1:
        return Polytope(d, 0, (points[0],), (), "point")
    ints, _, scale = _integer_points(points)
    basis, rank, _ = _integer_basis(ints, d - 1)
    if rank < d:
        chart = _Chart(points[basis[0]], [_vsub(points[b], points[basis[0]]) for b in basis[1:]])
        inner = _build_rational([chart.to_chart(p) for p in points])
        verts = tuple(chart.to_ambient(v) for v in inner.vertices)
        return Polytope(d, inner.affine_dim, verts, inner.facets, "degenerate", chart=chart, inner=inner)
    simplicial = _hull_core(ints, basis, ())
    merged, vertex_ids = _merge_facets(ints, simplicial, scale)
    if len(frozenset().union(*(F.ids for F in simplicial))) > len(vertex_ids):
        # a non-extreme point entered the boundary: rebuild from the vertices
        return _build_rational([points[i] for i in vertex_ids])
    order = {pid: k for k, pid in enumerate(vertex_ids)}
    vertices = tuple(points[i] for i in vertex_ids)
    facets = tuple(Facet(normal, offset, tuple(sorted(order[i] for i in members if i in order))) for normal, offset, members in merged)
    boundary = tuple(tuple(points[i] for i in sorted(F.ids)) for F in simplicial)
    return Polytope(d, d, vertices, facets, "full", boundary=boundary)


def _decode(coeffs, denominator, primes):
    """The exact value of an integer row over (1, log p_1, ...) divided by
    ``denominator``: log-linear when there are primes, else a fraction."""
    q = [Fraction(c, denominator) for c in coeffs]
    return LogLinearNumber._make(q[0], dict(zip(primes, q[1:]))) if primes else q[0]


def _sign(row, primes):
    """Sign of the value of an integer row over (1, log p_1, ...)."""
    return 0 if not any(row) else _row_sign(row, primes) if primes else (row[0] > 0) - (row[0] < 0)


def _chain(ints, primes, lower):
    """Andrew's monotone chain (*Inf. Process. Lett.* 9, 1979) of integer
    points over a line: the upper (and, if asked, lower) chain of the
    largest (smallest) lift at each base, a middle point dropped while on or
    below (above) its neighbours' segment.  Segment i -> j is ``(fn, x_j -
    x_i, (i, j))``, fn primitive and outward as from ``_functionals``."""

    def height(a, b, c):  # of b over the segment a -> c, times x_c - x_a
        return _sign([(c[0] - a[0]) * (yb - ya) - (b[0] - a[0]) * (yc - ya) for ya, yb, yc in zip(a[1:], b[1:], c[1:])], primes)

    segments = []
    for s in (1, -1) if lower else (1,):
        best = {}  # base -> its point of the largest (smallest) lift
        for i, p in enumerate(ints):
            if (j := best.setdefault(p[0], i)) != i and s * _sign([a - b for a, b in zip(p[1:], ints[j][1:])], primes) > 0:
                best[p[0]] = i
        if len(best) < 2:
            raise ValueError("lifted hull over a degenerate projection is unsupported")
        chain = []
        for i in map(best.get, sorted(best)):
            while len(chain) > 1 and s * height(ints[chain[-2]], ints[chain[-1]], ints[i]) <= 0:
                chain.pop()
            chain.append(i)
        for i, j in zip(chain, chain[1:]):
            (x, *a), (y, *b) = ints[i], ints[j]
            w, d = y - x, [v - u for u, v in zip(a, b)]
            g = s * gcd(w, *d)
            fn = tuple((-e // g, *(w // g * (u == t) for u in range(len(d))), (w * a[t] - e * x) // g) for t, e in enumerate(d))
            segments.append((fn, w, (i, j)))
    return segments


def _graph_simplices(integers, lower=False):
    """Simplices of the graph of integer lifted points (as ``_span`` gives
    them) whose bases span their space, as ``(fn, w, ids)``: w is the
    projected |det| of an upper (and, if asked, lower) simplex, fn its
    functionals.  Over a line they are the segments of ``_chain``; else the
    simplicial facets of one hull, where a flat lift (rank k) gets its first
    point lowered by 1 in the constant entry: no facet through that point
    faces up, so the upper facets are the graph (not to be asked for its
    lower ones)."""
    k = len(integers[0][0]) - len(integers[1]) - 1
    if k == 1:
        return _chain(*integers[:2], lower)
    ints, primes, _, basis, rank, base = integers
    if len(base) <= k:
        raise ValueError("lifted hull over a degenerate projection is unsupported")
    if rank == k:
        ints = [*ints, (*ints[0][:k], ints[0][k] - 1, *ints[0][k + 1 :])]
        basis = [*basis, len(ints) - 1]
    simplices = []
    for F in _hull_core(ints, basis, primes):
        if F.fn[0][k] > 0 or (lower and F.fn[0][k] < 0):
            simplices.append((F.fn, _simplex_det([ints[i] for i in F.ids], k), F.ids))
    return simplices


def _graph_cell(points, integers, fn, ids, simplices):
    """The cell of graph functionals fn over the points ``ids``, its integral
    summing |det| times the lifts over its ``(w, ids)`` simplices, each
    field decoded once (log-linear when the lift is)."""
    k = len(points[0]) - 1
    ints, primes, scale = integers[:3]
    a = fn[0][k]
    total = [sum(w * sum(ints[i][t] for i in s) for w, s in simplices) for t in range(k, len(ints[0]))]
    return AffineCell(
        tuple(_dedup([points[i][:k] for i in ids])),
        tuple(_decode([-f[j] for f in fn], a, primes) for j in range(k)),
        _decode([f[-1] for f in fn], a * scale, primes),
        _decode(total, scale ** (k + 1) * factorial(k + 1), primes),
    )


def _graph_cells(points, integers, lower=False):
    """Merged graph cells (projected) of ``_graph_simplices``: the upper
    ones, and the lower ones if asked (else empty).  Simplices group by
    functional into one ``_graph_cell`` each."""
    k = len(points[0]) - 1
    groups = {}
    for fn, w, ids in _graph_simplices(integers, lower):
        groups.setdefault(fn, []).append((w, ids))
    upper, below = [], []
    for ids, fn, simplices in sorted((sorted(set().union(*(s for _, s in v))), fn, v) for fn, v in groups.items()):
        c = _graph_cell(points, integers, fn, ids, simplices)
        if len(simplices) == 1:  # one simplicial facet: its points are the vertices
            c.__dict__["vertices"] = c.points
        (upper if fn[0][k] > 0 else below).append(c)
    return upper, below


def _span(ints, primes, scale):
    """Deduplicated integer lifted points (``_integer_points``) as
    ``_graph_simplices`` reads them, with their ``_integer_basis`` off a
    line, and the dimension of their bases' affine span (over a line 0 or
    1, from the bases alone)."""
    k = len(ints[0]) - len(primes) - 1
    _check_dimension(k, False)
    ints = _dedup(ints)
    if k == 1:
        return (ints, primes, scale), int(len({p[0] for p in ints}) > 1)
    integers = (ints, primes, scale, *_integer_basis(ints, k))
    return integers, len(integers[-1]) - 1


def _envelope_integral(ints, primes=(), scale=1):
    """Integral of the upper envelope of integer lifted points (as
    ``_integer_points`` gives them: bases, then a lift row over (1, log p_1,
    ...), times ``scale``) over the hull of their bases, which must span
    their space, and k! times the volume of that hull: the sums over
    ``_graph_simplices`` of |det| times the lift rows, decoded once, and of
    |det|."""
    integers, k = _span(ints, primes, scale)[0], len(ints[0]) - len(primes) - 1
    ints, total, dets = integers[0], [0] * (len(primes) + 1), 0
    for _, w, ids in _graph_simplices(integers):
        dets += w
        total = [t + w * sum(col) for t, col in zip(total, zip(*(ints[i][k:] for i in ids)))]
    return _decode(total, scale ** (k + 1) * factorial(k + 1), primes), Fraction(dets, scale**k)


def _envelope_map(ints, primes=(), scale=1):
    """The vertex-value map of the upper envelope of integer lifted points
    (as ``_envelope_integral`` takes them), with no cell and in the given
    integers: each upper simplex's points, base to lift row.  Bases of one
    point give the first largest lift; bases spanning less than Q^k are
    read in ``upper_envelope``'s chart of the unscaled bases."""
    integers, span = _span(ints, primes, scale)
    ints, k = integers[0], len(ints[0]) - len(primes) - 1
    if 0 < span < k:
        origin, *rest = (ints[i][:k] for i in integers[-1])
        chart = _Chart(origin, [_vsub(b, origin) for b in rest])
        integers = _span(_integer_points([(*(scale * x for x in chart.to_chart(p[:k])), *p[k:]) for p in ints])[0], primes, 1)[0]
    ids = dict.fromkeys(i for _, _, s in _graph_simplices(integers) for i in s) if span else [
        max(range(len(ints)), key=cmp_to_key(lambda i, j: _sign(_vsub(ints[i][k:], ints[j][k:]), primes)))]
    return {ints[i][:k]: ints[i][k:] for i in ids}


def _dedup(points):
    return list(dict.fromkeys(points))


def _build_lifted(points):
    """Polytope of deduplicated points whose last coordinate is lifted, over
    bases that must span their space.  A flat one (rank k; over a line, one
    whose upper chain is its lower one) is the graph, over the bases' hull,
    of one affine function; a full one is the region between the upper and
    the lower cells of one hull (one chain pass over a line, walled at the
    least and the greatest base), with the upper envelope's integral minus
    the lower's as its volume."""
    k = len(points[0]) - 1
    integers, span = _span(*_integer_points(points))
    bases = _dedup([p[:k] for p in points])
    if k != 1 and integers[4] == k == span:  # the function of its affine basis's functionals
        basis = integers[3]
        upper = lower = [_graph_cell(points, integers, tuple(_functionals([integers[0][i] for i in basis], k)), basis, ())]
    else:
        upper, lower = _graph_cells(points, integers, lower=True)
    if upper == lower:  # flat
        proj = _build_rational(bases)
        verts = tuple((*b, upper[0].value_at(b)) for b in proj.vertices)
        return Polytope(k + 1, k, verts, _lifted_facets(upper, upper, proj.facets, verts), "lifted-flat")
    walls = _build_rational(bases).facets if k != 1 else [  # over a line, b x <= a at each end
        Facet((Fraction(s * x.denominator),), Fraction(s * x.numerator), ()) for s, (x,) in ((-1, min(bases)), (1, max(bases)))]
    verts = tuple(sorted({(*b, cell.value_at(b)) for cell in upper + lower for b in cell.vertices}))
    lifted = Polytope(k + 1, k + 1, verts, _lifted_facets(upper, lower, walls, verts), "lifted-full")
    lifted._volume = sum(c.integral for c in upper) - sum(c.integral for c in lower)
    return lifted


def _lifted_facets(upper, lower, walls, vertices):
    """Supporting halfspaces of a lifted polytope: one per graph cell plus
    the vertical extensions of the projection's facets, ``walls``."""
    halfspaces = [((*(-g for g in cell.gradient), Fraction(1)), cell.offset) for cell in upper]
    halfspaces += [((*cell.gradient, Fraction(-1)), -cell.offset) for cell in lower]
    halfspaces += [((*F.normal, Fraction(0)), F.offset) for F in walls]
    return tuple(Facet(n, offset, tuple(i for i, v in enumerate(vertices) if not _dot(n, v) - offset)) for n, offset in halfspaces)


def _check_dimension(d, lifted):
    bound = MAX_DIMENSION + (1 if lifted else 0)
    if d > bound:
        raise DimensionLimitError(
            f"ambient dimension {d} exceeds the supported bound {bound} "
            f"(MAX_DIMENSION = {MAX_DIMENSION}, one more for a lifted hull)"
        )


def _exact_pairs(points):
    """Deduplicated exact ``(base, lift)`` pairs: at least one, over bases of one dimension <= MAX_DIMENSION."""
    gens = _dedup([(tuple(as_fraction(x) for x in base), _as_value(lift)) for base, lift in points])
    if not gens:
        raise ValueError("need at least one point")
    k = len(gens[0][0])
    if any(len(b) != k for b, _ in gens):
        raise ValueError("dimension mismatch")
    _check_dimension(k, False)
    return gens


def convex_hull(points) -> Polytope:
    """Exact convex hull.  Handles lower-dimensional rational input via an
    affine chart; lifted input (log-linear last coordinate) must project
    onto a full-dimensional rational configuration."""
    pts = [tuple(map(_as_value, p)) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("dimension mismatch")
    if any(isinstance(x, LogLinearNumber) for p in pts for x in p[: d - 1]):  # irrational, as _as_value leaves it
        raise ValueError("only the last coordinate may be lifted")
    pts = _dedup(pts)
    if d == 0:
        return Polytope(0, 0, (tuple(),), (), "point")
    lifted = any(isinstance(p[-1], LogLinearNumber) for p in pts)
    _check_dimension(d, lifted)
    if lifted:
        return _build_lifted(pts)
    return _build_rational(sorted(pts))


def upper_envelope(points) -> list[AffineCell]:
    """Regular subdivision induced by the upper envelope of ``(base, lift)``
    points: cells partitioning the hull of the bases, each with the affine
    function of its envelope piece, in the bases' coordinates (read in a
    chart of their span when it is not Q^k); bases of one point give one
    cell, of the first largest lift."""
    gens = _exact_pairs(points)
    k = len(gens[0][0])
    lifted = [(*b, lift) for b, lift in gens]
    integers, span = _span(*_integer_points(lifted))
    if not span:
        origin, best = max(gens, key=cmp_to_key(lambda a, b: value_sign(a[1] - b[1])))
        return [AffineCell((origin,), (Fraction(0),) * k, best, Fraction(0) if origin else best)]
    if span == k:
        return _graph_cells(lifted, integers)[0]
    chart = _Chart(origin := gens[0][0], [_vsub(gens[b][0], origin) for b in integers[-1][1:]])
    lifted = [(*chart.to_chart(b), lift) for b, lift in gens]
    return [  # measure zero in Q^k
        AffineCell(tuple(map(chart.to_ambient, c.points)), *chart.pullback_affine(c.gradient, c.offset), Fraction(0))
        for c in _graph_cells(lifted, _span(*_integer_points(lifted))[0])[0]
    ]


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


class Face(_Record):
    __slots__ = _fields = ("dim", "vertex_ids")

    def __init__(self, dim: int, vertex_ids: frozenset):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vertex_ids", vertex_ids)


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
        new = sets
        while new:  # close under intersection
            new = {a & b for a in sets for b in new} - sets - {frozenset()}
            sets |= new
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
            self._poly_cache[face] = convex_hull([self.polytope.vertices[i] for i in sorted(face.vertex_ids)])
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
    constraints = [(F.normal, F.offset) for F in p.facets + q.facets]
    candidates = []
    for subset in itertools.combinations(range(len(constraints)), d):
        rows, rhs = zip(*(constraints[i] for i in subset))
        try:
            x = tuple(row[0] for row in _solve_linear(rows, [[o] for o in rhs]))
        except ValueError:  # singular
            continue
        if all(_dot(n, x) <= o for n, o in constraints):
            candidates.append(x)
    return convex_hull(candidates) if candidates else None


# ---------------------------------------------------------------------------
# integer lattice normalization


def _integer_row_hnf(rows):
    """Row-style Hermite normal form basis of the row lattice: echelon rows
    with positive pivots and reduced entries above each pivot."""
    rest, basis, pivots = [list(map(int, r)) for r in rows], [], []
    for col in range(len(rest[0])):
        while len(nz := [r for r in rest if r[col]]) > 1:  # Euclid on the column
            p = min(nz, key=lambda r: abs(r[col]))
            rest = [r if r is p else [a - r[col] // p[col] * b for a, b in zip(r, p)] for r in rest]
        if nz:
            rest.remove(nz[0])
            p = nz[0] if nz[0][col] > 0 else [-a for a in nz[0]]
            basis = [[a - r[col] // p[col] * b for a, b in zip(r, p)] for r in basis] + [p]
            pivots.append(col)
    return basis, pivots


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
