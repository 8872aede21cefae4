"""Independent oracles used by the test suite.

These recompute quantities from raw data along routes that share no code
with the library paths they check: floating-point Riemann sums with sound
error bounds, exhaustive float enumeration for Hilbert weights, a
grid/separating-axis volume sandwich, determinants and ranks by
cofactor expansion over the basis {1, log p}, the mixed area of two
polygons from monotone-chain hulls and the shoelace formula, and
factorization by trial division.  ``hilbert_weight_enumerated`` is the exact exhaustive
enumeration that ``toric.hilbert_weight``'s dynamic program replaced; it
shares only the exact log-linear arithmetic with the package.
``hilbert_weight_rows`` is that dynamic program on unpacked rows compared
one by one through the exact row sign, the reference for its packed table.
``envelope_values_reference`` and ``sum_normals_reference`` are the
routes ``mixed`` read an upper envelope's vertex-value map (the values of
its cells' affine functions) and a Minkowski sum's facet normals (the
merged facets of its polytope) by, before both were read from the one
hull's facets.  ``mixed_integral_reference`` is the facet recursion as it
ran on those maps in log-linear arithmetic, with ``upper_envelope`` cells
for its sup-convolutions and ``mixed_volume_reference`` for rational
faces, before it ran on integer rows.
``graph_simplices_by_hull`` is the route ``geomkernel._graph_simplices``
read the upper and lower segments of lifted points over a line by, before
its monotone chain: the facets of one beneath-beyond hull.
``over_places_reference`` is ``toric._over_places`` as it read before it
factored each coefficient once: ``relevant_places``, ``padic_order`` and
``log_abs`` weights, and a per-place ``LogLinearNumber`` sum.
``interval_mpmath``, ``approximate_mpmath``, ``float_mpmath`` and
``float_logs_mpmath`` are ``exactnum``'s ``_interval``, ``_approximate``,
``LogLinearNumber.__float__`` and ``_float_logs`` as they read on ``mpmath``,
the references for their plain-integer replacements.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction

import mpmath
import numpy as np


def _affine_subsets(bases, values, r):
    """Interpolation data over every affinely independent (r+1)-subset of
    the generators: per subset a function grid -> (feasible, value)."""
    n = len(bases)
    out = []
    for idx in itertools.combinations(range(n), r + 1):
        v0 = np.array(bases[idx[0]], dtype=float)
        mat = np.array([np.array(bases[i], dtype=float) - v0 for i in idx[1:]]).T
        # exact integer test for affine independence
        imat = [[bases[i][k] - bases[idx[0]][k] for i in idx[1:]] for k in range(r)]
        det = _int_det(imat)
        if det == 0:
            continue
        inv = np.linalg.inv(mat)
        w0 = values[idx[0]]
        dw = np.array([values[i] - w0 for i in idx[1:]])
        grad = inv.T @ dw  # gradient of the interpolant, for slope bounds
        out.append((v0, inv, w0, dw, grad))
    return out


def _int_det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _int_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _log_basis_coefficients(x):
    """Coefficients of an exact value over {1, log p}: ``{None: c, p: c_p}``."""
    if hasattr(x, "logterms"):
        return {None: x.constant, **dict(x.logterms)}
    return {None: Fraction(x)}


def rational_det(m):
    """Determinant of a rational matrix: scale each row to integers by the
    lcm of its denominators, expand by cofactors, divide the scale out."""
    scale = 1
    ints = []
    for row in m:
        row = [Fraction(x) for x in row]
        lcm = math.lcm(*(x.denominator for x in row))
        ints.append([int(x * lcm) for x in row])
        scale *= lcm
    return Fraction(_int_det(ints), scale)


def log_basis_det(rows):
    """Determinant of a square matrix of rationals and log-linear numbers,
    at most one column of which holds log terms, as its coefficients over
    {1, log p} (``{None: c, p: c_p}``, zeros dropped).  The determinant is
    linear in that column, so each coefficient is the rational determinant
    with the column replaced by the entries' coefficients of that basis
    element."""
    coeffs = [[_log_basis_coefficients(x) for x in r] for r in rows]
    lifted = {j for r in coeffs for j, c in enumerate(r) if len(c) > 1}
    if len(lifted) > 1:
        raise ValueError("more than one lifted column")
    j = next(iter(lifted), None)
    keys = {None} | {k for r in coeffs for k in (r[j] if j is not None else ())}
    out = {}
    for key in keys:
        m = [[c.get(key, 0) if t == j else c[None] for t, c in enumerate(r)] for r in coeffs]
        value = rational_det(m)
        if value:
            out[key] = value
    return out


def minor_rank(vectors):
    """Rank of a list of vectors (at most one coordinate holding log terms)
    as the size of its largest nonzero minor."""
    m, d = len(vectors), len(vectors[0])
    for k in range(min(m, d), 0, -1):
        for rows in itertools.combinations(vectors, k):
            for cols in itertools.combinations(range(d), k):
                if log_basis_det([[r[c] for c in cols] for r in rows]):
                    return k
    return 0


def envelope_values(bases, values, points):
    """Upper-envelope values at the given points straight from the
    defining maximum over convex combinations of the generators: the max
    over base simplices of the affine interpolation.  Points outside the
    hull of the bases get -inf."""
    r = len(bases[0])
    pts = np.asarray(points, dtype=float)
    best = np.full(len(pts), -np.inf)
    tol = 1e-9
    for v0, inv, w0, dw, _ in _affine_subsets(bases, values, r):
        t = (pts - v0) @ inv.T
        feas = np.all(t >= -tol, axis=1) & (t.sum(axis=1) <= 1 + tol)
        val = w0 + t @ dw
        best = np.where(feas & (val > best), val, best)
    return best


def riemann_roof_oracle(bases, values, step=Fraction(1, 256)):
    """Left-corner Riemann sum of the envelope over the hull of the bases,
    with a sound upper bound for |sum - integral|.

    Bases must be integer points (grid-aligned domain) in dimension 1 or 2.
    """
    r = len(bases[0])
    h = float(step)
    subsets = _affine_subsets(bases, values, r)
    slope = max((float(np.max(np.abs(g))) for *_, g in subsets), default=0.0)
    grad_norm = max((float(np.linalg.norm(g)) for *_, g in subsets), default=0.0)
    max_abs = max(abs(v) for v in values)
    if r == 1:
        lo = min(b[0] for b in bases)
        hi = max(b[0] for b in bases)
        steps = int(round((hi - lo) / h))
        xs = lo + h * np.arange(steps)
        vals = envelope_values(bases, values, xs[:, None])
        total = float(h * np.sum(vals))
        bound = slope * h * (hi - lo) / 2 + 1e-9 * (steps + 1) + 1e-12
        return total, bound
    if r == 2:
        lo = [min(b[k] for b in bases) for k in range(2)]
        hi = [max(b[k] for b in bases) for k in range(2)]
        nx = int(round((hi[0] - lo[0]) / h))
        ny = int(round((hi[1] - lo[1]) / h))
        xs = lo[0] + h * np.arange(nx)
        ys = lo[1] + h * np.arange(ny)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        vals = envelope_values(bases, values, pts)
        inside = vals > -np.inf
        total = float(h * h * np.sum(vals[inside]))
        width = hi[0] - lo[0]
        height = hi[1] - lo[1]
        area_up = width * height
        perim_up = 2 * (width + height)
        band = 2 * perim_up * (2**0.5) * h + 7 * h * h
        bound = (
            (2**0.5) * grad_norm * h * area_up
            + 2 * max_abs * band
            + 1e-9 * pts.shape[0]
            + 1e-12
        )
        return total, bound
    raise ValueError("oracle supports dimensions 1 and 2")


def hilbert_weight_oracle(exponents, weights_float, degree_d):
    """Float Hilbert weight by exhaustive enumeration and dict grouping."""
    n_terms = len(exponents)
    fibers = {}
    for lam in itertools.product(range(degree_d + 1), repeat=n_terms):
        if sum(lam) != degree_d:
            continue
        key = tuple(
            sum(l * a[k] for l, a in zip(lam, exponents)) for k in range(len(exponents[0]))
        )
        val = sum(l * w for l, w in zip(lam, weights_float))
        if key not in fibers or val > fibers[key]:
            fibers[key] = val
    return sum(fibers.values())


def hilbert_weight_enumerated(exponents, weights, degree_d):
    """Exact Hilbert weight by enumerating every degree-d monomial: per
    fiber key the largest weight, compared by ``value_sign``, summed."""
    from toricheight.exactnum import as_loglinear, value_sign
    from toricheight.geomkernel import _as_value

    weights = [_as_value(w) for w in weights]
    fibers = {}
    for chosen in itertools.combinations_with_replacement(range(len(exponents)), degree_d):
        key = tuple(sum(exponents[i][k] for i in chosen) for k in range(len(exponents[0])))
        val = sum((weights[i] for i in chosen), Fraction(0))
        cur = fibers.get(key)
        if cur is None or value_sign(val - cur) > 0:
            fibers[key] = val
    return as_loglinear(sum(fibers.values(), Fraction(0)))


def hilbert_weight_rows(exponents, weights, degree_d):
    """Exact Hilbert weight by the dynamic program on unpacked rows, as
    ``toric.hilbert_weight`` ran it before its rows were packed: a key is
    the exponent-sum tuple, a weight the tuple of its integer row over
    (1, log p_1, ...), a step a tuple sum, and every comparison of unequal
    rows goes through ``exactnum._row_sign``."""
    from operator import add, sub

    from toricheight.exactnum import _row_sign, as_loglinear
    from toricheight.geomkernel import _as_value, _decode, _integer_points

    rows, primes, scale = _integer_points([(_as_value(w),) for w in weights])
    table = {(0,) * len(exponents[0]): (0,) * (len(primes) + 1)}
    for _ in range(degree_d):
        table, last = {}, table
        for m, v in last.items():
            for a, w in zip(exponents, rows):
                key, new = tuple(map(add, m, a)), tuple(map(add, v, w))
                old = table.get(key)
                if old is None or (new != old and _row_sign(tuple(map(sub, new, old)), primes) > 0):
                    table[key] = new
    return as_loglinear(_decode(list(map(sum, zip(*table.values()))), scale, primes))


def cell_values(cells):
    """The vertex-value map of envelope cells: their points (every vertex
    among them), integral coordinates as ints, with their values."""
    return {tuple(x.numerator if x.denominator == 1 else x for x in v): c.value_at(v) for c in cells for v in c.points}


def decoded_map(raw, primes, scale):
    """A vertex-value map of integer rows (``geomkernel._envelope_map``) as
    exact numbers: each base over ``scale``, each row decoded."""
    from toricheight.geomkernel import _decode

    return {tuple(Fraction(x, scale) for x in v): _decode(y, scale, primes) for v, y in raw.items()}


def envelope_values_reference(points):
    """Vertex-value map of the upper envelope of ``(base, lift)`` points:
    every point of its cells, its integral coordinates as ints, with the
    value of its cell's affine function there (``cell_values`` of
    ``upper_envelope``)."""
    from toricheight.geomkernel import upper_envelope

    return cell_values(upper_envelope(points))


def _rational_normals(sets, n):
    """``mixed._sum_normals`` on rational point sets: primitive integer
    outer facet normals of their Minkowski sum."""
    from toricheight.geomkernel import _dot, _functionals, _hull_core, _integer_basis, _integer_points

    def primitive(v):
        s = math.lcm(*(Fraction(x).denominator for x in v))
        v = [int(x * s) for x in v]
        g = math.gcd(*v)
        return tuple(x // g for x in v)

    if n == 1:
        return [(1,), (-1,)]
    if n == 2:
        normals = {}
        for s in sets:
            for p, q in itertools.combinations(s, 2):
                w = primitive((q[1] - p[1], p[0] - q[0]))
                for w in (w, (-w[0], -w[1])):
                    if _dot(w, p) == max(_dot(w, v) for v in s):
                        normals[w] = None
        return list(normals)
    ints = _integer_points(list(dict.fromkeys(tuple(map(sum, zip(*c))) for c in itertools.product(*sets))))[0]
    basis, rank, _ = _integer_basis(ints, n - 1)
    if rank == n - 1:
        w = primitive(_functionals([ints[i] for i in basis], n - 1)[0][:-1])
        return [w, tuple(-x for x in w)]
    return list(dict.fromkeys(primitive(F.fn[0][:-1]) for F in _hull_core(ints, basis, ()))) if rank == n else []


def mixed_volume_reference(sets):
    """``mixed._mixed_volume`` on rational point sets: the facet recursion
    with the normals of ``_rational_normals``."""
    from toricheight.geomkernel import _dot
    from toricheight.mixed import _complement, _face, _project, _split

    if not sets:
        return 1
    first, rest = _split(sets)
    total = 0
    for w in _rational_normals(rest, len(sets)):
        faces = [_face(s, w) for s in rest]
        if all(len(f) > 1 for f in faces):
            rows = _complement(w)
            total += max(_dot(w, v) for v in first) * mixed_volume_reference([_project(f, rows) for f in faces])
    return total


def _top_reference(values, x, scale=1):
    """The points of a vertex-value map maximizing scale * value - <x,
    point>, and that maximum, in log-linear arithmetic."""
    from toricheight.exactnum import value_sign

    best, top, neg = None, [], [-c for c in x]
    for v, y in values.items():
        t = sum(map(operator.mul, neg, v), y if scale == 1 else scale * y)
        s = 1 if best is None else value_sign(t - best)
        if s > 0:
            best, top = t, [v]
        elif s == 0:
            top.append(v)
    return best, top


def mixed_integral_reference(maps):
    """The facet recursion for MI_n of n+1 roofs given by exact
    vertex-value maps (``cell_values``), as ``mixed._mixed_integral`` ran it
    on log-linear values: every sup-convolution a ``cell_values`` of
    ``upper_envelope``, every cell ranked by value - <gradient, point> with
    ``value_sign``."""
    from toricheight.geomkernel import _dot, _vadd, upper_envelope
    from toricheight.mixed import _complement, _face, _project, _split

    n = len(maps) - 1
    if n == 0:
        return next(iter(maps[0].values()))
    first, rest = _split(maps)
    normals = _rational_normals([list(m) for m in rest], n)
    total = 0
    for w in normals:
        rows = _complement(w)
        faces = [{v: m[v] for v in _face(list(m), w)} for m in rest]
        total += max(_dot(w, v) for v in first) * mixed_integral_reference([dict(zip(_project(f, rows), f.values())) for f in faces])
    if n == 1:
        xs = sorted(m := rest[0])
        for a, b in zip(xs, xs[1:]):
            total += _top_reference(first, (m[b] - m[a],), b[0] - a[0])[0]
    elif len(normals) > 2:  # the sum is n-dimensional
        conv = rest[0]
        for m in rest[1:]:
            conv = cell_values(cells := upper_envelope((_vadd(p, q), a + b) for p, a in conv.items() for q, b in m.items()))
        for c in cells:
            faces = []
            for m in rest:
                if len(face := _top_reference(m, c.gradient)[1]) == 1:
                    break
                faces.append(face)
            else:
                total += _top_reference(first, c.gradient)[0] * mixed_volume_reference(faces)
    return total


def graph_simplices_by_hull(integers, lower=False):
    """``geomkernel._graph_simplices`` by one hull at every dimension: the
    ``(fn, w, ids)`` of the upper (and, if asked, lower) simplicial facets of
    ``_hull_core`` on the ``_integer_points`` of lifted points and their
    ``_integer_basis`` (found here if not given, as over a line), a flat
    lift with its first point lowered by 1 in the constant entry."""
    from toricheight import geomkernel

    k = len(integers[0][0]) - len(integers[1]) - 1
    ints, primes, _, basis, rank, base = (*integers[:3], *geomkernel._integer_basis(integers[0], k))
    if len(base) <= k:
        raise ValueError("lifted hull over a degenerate projection is unsupported")
    if rank == k:
        ints = [*ints, (*ints[0][:k], ints[0][k] - 1, *ints[0][k + 1 :])]
        basis = [*basis, len(ints) - 1]
    return [
        (F.fn, geomkernel._simplex_det([ints[i] for i in F.ids], k), F.ids)
        for F in geomkernel._hull_core(ints, basis, primes)
        if F.fn[0][k] > 0 or (lower and F.fn[0][k] < 0)
    ]


def over_places_reference(coefficient_lists, local):
    """Per-place values of ``local`` on one exact weight list per
    coefficient list, and their sum: the places of ``relevant_places``, at
    a finite place p the orders -ord_p(c) (``padic_order``) with the value
    scaled by log p, at the archimedean place the log-linear weights
    ``log_abs``, each value a ``LogLinearNumber`` summed with ``+``."""
    from toricheight.exactnum import LogLinearNumber, as_fraction, as_loglinear, log_abs, padic_order, relevant_places

    per = []
    for v in sorted({v for cs in coefficient_lists for v in relevant_places(cs)}):
        p = v.prime
        weights = ([-padic_order(c, p) if p else log_abs(c, v) for c in cs] for cs in coefficient_lists)
        value = local(*weights)
        per.append((v, LogLinearNumber.log_prime(p, as_fraction(value)) if p else as_loglinear(value)))
    return tuple(per), sum((x for _, x in per), LogLinearNumber())


def sum_normals_reference(sets):
    """Primitive integer outer facet normals of the full-dimensional
    Minkowski sum of rational point sets: the normals of the merged facets
    of ``convex_hull`` of every sum, each made primitive."""
    from toricheight.geomkernel import convex_hull

    hull = convex_hull({tuple(map(sum, zip(*c))) for c in itertools.product(*sets)})
    assert hull.is_full_dimensional
    normals = []
    for facet in hull.facets:
        scale = math.lcm(*(x.denominator for x in facet.normal))
        w = [int(x * scale) for x in facet.normal]
        g = math.gcd(*w)
        normals.append(tuple(x // g for x in w))
    return normals


def grid_volume_bounds(poly, cells_per_side=10):
    """Exact sandwich vol_lower <= volume(P) <= vol_upper from a grid:
    cells with every corner in P are inside (convexity); cells certified
    disjoint by a separating axis are outside; the rest count as boundary.
    """
    d = poly.ambient_dim
    verts = poly.vertices
    lo = [min(v[k] for v in verts) for k in range(d)]
    hi = [max(v[k] for v in verts) for k in range(d)]
    h = max(b - a for a, b in zip(lo, hi)) / cells_per_side
    if h == 0:
        return Fraction(0), Fraction(0)
    counts = [int((b - a) / h) + 1 for a, b in zip(lo, hi)]

    axes = [tuple(Fraction(1 if i == k else 0) for i in range(d)) for k in range(d)]
    axes += [tuple(F.normal) for F in poly.facets]
    if d == 3:
        edges = _edges_of(poly)
        for (a, b) in edges:
            direction = tuple(x - y for x, y in zip(b, a))
            for k in range(3):
                unit = [0, 0, 0]
                unit[k] = 1
                cross = (
                    direction[1] * unit[2] - direction[2] * unit[1],
                    direction[2] * unit[0] - direction[0] * unit[2],
                    direction[0] * unit[1] - direction[1] * unit[0],
                )
                if any(cross):
                    axes.append(tuple(Fraction(c) for c in cross))

    proj = []
    for axis in axes:
        dots = [sum(a * x for a, x in zip(axis, v)) for v in verts]
        proj.append((min(dots), max(dots)))

    grid_pts = {}
    for idx in itertools.product(*(range(c + 1) for c in counts)):
        pt = tuple(lo[k] + idx[k] * h for k in range(d))
        grid_pts[idx] = (pt, poly.contains(pt))

    full = 0
    boundary = 0
    corner_offsets = list(itertools.product((0, 1), repeat=d))
    for idx in itertools.product(*(range(c) for c in counts)):
        corners = [tuple(idx[k] + off[k] for k in range(d)) for off in corner_offsets]
        if all(grid_pts[c][1] for c in corners):
            full += 1
            continue
        pts = [grid_pts[c][0] for c in corners]
        separated = False
        for axis, (pmin, pmax) in zip(axes, proj):
            dots = [sum(a * x for a, x in zip(axis, p)) for p in pts]
            if max(dots) < pmin or min(dots) > pmax:
                separated = True
                break
        if not separated:
            boundary += 1
    cell_vol = h**d
    return full * cell_vol, (full + boundary) * cell_vol


def _chain_hull(points):
    """Vertices of the convex hull of plane points in counterclockwise
    order, by Andrew's monotone chain; collinear points are dropped."""
    pts = sorted(set((Fraction(x), Fraction(y)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def shoelace_area(points):
    """Area of the convex hull of plane points (0 for a segment or point)."""
    hull = _chain_hull(points)
    twice = sum(
        (a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1])),
        Fraction(0),
    )
    return abs(twice) / 2


def mixed_area(p_points, q_points):
    """Mixed area MV(P, Q) = A(P + Q) - A(P) - A(Q) of the hulls of two
    plane point sets, so that MV(P, P) = 2 A(P)."""
    sums = [(a[0] + b[0], a[1] + b[1]) for a in p_points for b in q_points]
    return shoelace_area(sums) - shoelace_area(p_points) - shoelace_area(q_points)


def _edges_of(poly):
    """Vertex pairs forming edges: pairs whose shared active facets have
    affinely independent rank d-1."""
    from toricheight.geomkernel import face_lattice

    lattice = face_lattice(poly)
    out = []
    for face in lattice.faces_of_dim(1):
        ids = sorted(face.vertex_ids)
        out.append((poly.vertices[ids[0]], poly.vertices[ids[1]]))
    return out


def prime_factors_oracle(n):
    """Sorted (prime, exponent) pairs of |n| for a nonzero n, by trial
    division by every d with d * d <= n."""
    n, out, d = abs(n), [], 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime_oracle(n):
    return n > 1 and prime_factors_oracle(n) == ((n, 1),)


def _iv_ends(x, prec):
    """The ends of the ``mpmath.iv`` enclosure of a log-linear number at
    prec bits, as mpmath numbers (exact at prec bits)."""
    iv, old = mpmath.iv, mpmath.iv.prec
    try:
        iv.prec = prec
        total = iv.mpf(x.constant.numerator) / x.constant.denominator
        for p, c in x.logterms:
            total += (iv.mpf(c.numerator) / c.denominator) * iv.log(p)
        with mpmath.workprec(prec):
            return mpmath.mpf(total.a), mpmath.mpf(total.b)
    finally:
        iv.prec = old


def mpf_fraction(v):
    """An mpmath number, or a raw ``libmp`` tuple, as the exact Fraction of its value."""
    sign, man, exp, _ = getattr(v, "_mpf_", v)
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def interval_mpmath(x, prec):
    """``exactnum._interval`` on ``mpmath.iv``, its ends as Fractions."""
    return tuple(map(mpf_fraction, _iv_ends(x, prec)))


def approximate_mpmath(x, bits):
    """The decimal string and error bound of ``exactnum._approximate`` on
    mpmath: a bound outside the normal double range as a 15-digit string
    (before that rule a bound below it was rounded to nearest, often 0.0)."""
    if x.is_zero:
        return "0", 0.0
    lo, hi = _iv_ends(x, bits + 16)
    with mpmath.workprec(bits + 32):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        mid, radius = (lo + hi) / 2, (hi - lo) / 2
        text = mpmath.nstr(mid, max(3, int(bits * 0.30103) + 2))
        err = (radius + abs(mid - mpmath.mpf(text)) + mpmath.mpf(2) ** (-bits - 8)) * (1 + 2**-40)
        normal = sys.float_info.min <= float(err) < math.inf
        return text, float(err) if normal else mpmath.nstr(err * (1 + 2**-40), 15)


def float_mpmath(x):
    """``float`` of a log-linear number: the midpoint of its 64-bit mpmath
    interval in mpmath's default 53-bit context."""
    if x.is_zero:
        return 0.0
    lo, hi = _iv_ends(x, 64)
    with mpmath.workprec(53):
        return float((mpmath.mpf(lo) + mpmath.mpf(hi)) / 2)


def float_logs_mpmath(primes):
    """log p for each prime at 80 bits, then as a double."""
    with mpmath.workprec(80):
        return tuple(float(mpmath.log(p)) for p in primes)
