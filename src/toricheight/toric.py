"""Arithmetic of projective monomial (toric) data: degrees, normalized
heights, Chow and Hilbert weights, orbit decomposition, and the standard
constructions (inverse, power, translate, join, Segre, Veronese, monomial
image)."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, inf, prod

from .errors import EnumerationCapError, LatticeHypothesisError
from .exactnum import LogLinearNumber, Place, _Record, approximate, as_fraction, as_loglinear, log_abs
from .exactnum import _float_row, _prime_factors, _row_sign
from .geomkernel import convex_hull, face_lattice, lattice_normalize
from .geomkernel import _as_value, _decode, _envelope_integral, _integer_points

__all__ = [
    "MonomialPair",
    "HeightReport",
    "DEFAULT_ENUMERATION_CAP",
    "weight_vector",
    "degree",
    "normalized_height",
    "chow_weight",
    "hilbert_weight",
    "arithmetic_hilbert_norm",
    "hilbert_asymptotic_gap",
    "hilbert_asymptotic_gap_exact",
    "symmetric_height_sum",
    "invert",
    "power",
    "translate",
    "orbit_decomposition",
    "join",
    "segre",
    "veronese",
    "monomial_image",
    "function_field_height",
]

DEFAULT_ENUMERATION_CAP = 10**7


class MonomialPair(_Record):
    """Exponent vectors in Z^n with nonzero rational coefficients; the data
    of the monomial map s -> (c_0 s^{a_0} : ... : c_N s^{a_N})."""

    __slots__ = _fields = ("exponents", "coefficients")

    def __init__(self, exponents: tuple[tuple[int, ...], ...], coefficients: tuple[Fraction, ...]):
        if len(exponents) != len(coefficients):
            raise ValueError("exponents and coefficients must have equal length")
        if not exponents:
            raise ValueError("need at least one monomial")
        n = len(exponents[0])
        if any(len(a) != n for a in exponents):
            raise ValueError("exponent vectors must share one dimension")
        if any(c == 0 for c in coefficients):
            raise ValueError("zero coefficients are not allowed; drop them first")
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "coefficients", coefficients)

    @classmethod
    def make(cls, exponents, coefficients) -> "MonomialPair":
        return cls(
            tuple(tuple(int(x) for x in a) for a in exponents),
            tuple(as_fraction(c) for c in coefficients),
        )

    @classmethod
    def dropping_zeros(cls, exponents, coefficients):
        """Build a pair after removing zero coordinates; returns the pair
        together with the kept index map."""
        kept = tuple(i for i, c in enumerate(coefficients) if as_fraction(c) != 0)
        if not kept:
            raise ValueError("all coefficients vanish")
        pair = cls.make([exponents[i] for i in kept], [coefficients[i] for i in kept])
        return pair, kept

    @property
    def n_ambient(self) -> int:
        return len(self.exponents[0])

    @property
    def size(self) -> int:
        return len(self.exponents)


class HeightReport(_Record):
    """A height value with its per-place breakdown.

    ``value == scale * sum(contribution over places)``: for normalized
    heights the contributions are local roof integrals and the scale is
    (dim+1)!; for multiheights the contributions are local mixed integrals
    and the scale is 1.  A finite place p is computed on the integer
    orders -ord_p(c_i) and scaled by log p.
    """

    __slots__ = _fields = ("value", "per_place", "degree", "dim", "scale")

    def __init__(self, value: LogLinearNumber, per_place: tuple[tuple[Place, LogLinearNumber], ...], degree: int,
                 dim: int, scale: int):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "per_place", per_place)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "scale", scale)

    def place_map(self) -> dict[Place, LogLinearNumber]:
        return dict(self.per_place)

    def decimal(self, bits: int = 128) -> str:
        return approximate(self.value, bits)[0]


def weight_vector(pair: MonomialPair, v: Place) -> list[LogLinearNumber]:
    """Componentwise log of the v-adic absolute values of the coefficients."""
    return [log_abs(c, v) for c in pair.coefficients]


def degree(pair: MonomialPair) -> int:
    """Lattice-normalized volume degree: r! times the volume of the hull of
    the exponents measured in their difference lattice, the sum of |det|
    that ``_envelope_integral`` reads from a zero lift."""
    coords, _, _ = lattice_normalize(pair.exponents)
    return int(_envelope_integral([(*b, 0) for b in coords])[1])


def _over_places(coefficient_lists, local):
    """Per-place values of ``local`` and their sum.  Each coefficient c is
    factored once, numerator first; ``local`` gets per coefficient list its
    integer rows over (1, log p_1, ..., log p_m), the primes of all lists:
    log |c| = (0, ord_p1(c), ...) at the archimedean place, (-ord_p(c),) at
    a finite place p, whose rational value (``local`` is positively
    homogeneous) is scaled by log p.  Finite values sum in one log map."""
    orders = [[dict(_prime_factors(c.numerator)) | {p: -e for p, e in _prime_factors(c.denominator)} for c in cs]
              for cs in coefficient_lists]
    primes = tuple(sorted({p for os in orders for o in os for p in o}))
    value = as_loglinear(local(*(([(0, *(o.get(p, 0) for p in primes)) for o in os], primes) for os in orders)))
    per, terms = [(Place.infinite(), value)], dict(value.logterms)
    for p in primes:
        value = as_fraction(local(*(([(-o.get(p, 0),) for o in os], ()) for os in orders)))
        per.append((Place.finite(p), LogLinearNumber._trusted(Fraction(0), ((p, value),) if value else ())))
        terms[p] = terms.get(p, 0) + value
    return tuple(per), LogLinearNumber._make(per[0][1].constant, terms)


def normalized_height(pair: MonomialPair) -> HeightReport:
    """Canonical height of the projective monomial variety: (r+1)! times
    the sum over places of the local roof integrals.  Each is read from one
    hull of its place's lifted points, and the first place's also gives the
    degree: r! times the volume of the domain, an integer sum of |det| over
    the integer coordinates."""
    coords, r, _ = lattice_normalize(pair.exponents)
    volumes = []

    def local(weights):  # rows and primes
        integral, volume = _envelope_integral([(*b, *t) for b, t in zip(coords, weights[0])], weights[1])
        volumes.append(volume)
        return integral

    per, total = _over_places([pair.coefficients], local)
    scale = factorial(r + 1)
    return HeightReport(total * scale, per, int(volumes[0]), r, scale)


def _require_full_lattice(exponents):
    exponents = [tuple(int(x) for x in a) for a in exponents]
    if not exponents:
        raise ValueError("the exponent list is empty")
    n = len(exponents[0])
    coords, r, basis = lattice_normalize(exponents)
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    if r != n or basis != identity:
        raise LatticeHypothesisError("exponent differences must generate the full integer lattice; normalize first")
    return exponents, n


def chow_weight(exponents, weights) -> LogLinearNumber:
    """Weighted degree of the associated one-parameter degeneration:
    (n+1)! times the integral of the roof of the weights."""
    exponents, n = _require_full_lattice(exponents)
    weights = list(weights)
    if len(weights) != len(exponents):
        raise ValueError("exponents and weights must have equal length")
    return as_loglinear(_envelope_integral(*_integer_points([(*a, _as_value(w)) for a, w in zip(exponents, weights)]))[0] * factorial(n + 1))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _check_cap(count: int, what: str, cap: int) -> None:
    """Refuse work of ``count`` units past ``cap``, before it starts."""
    if count > cap:
        raise EnumerationCapError(f"{count} {what} exceed the cap {cap} (--cap or TORIC_HEIGHT_CAP)")


def hilbert_weight(exponents, weights, degree_d: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """Sum over the degree-d monomial fibers of the maximal weight of a
    representative, by a dynamic program over the degree: the best weight
    of exponent sum m in degree k is F_k(m) = max_i F_{k-1}(m - a_i) + w_i.

    A key m is one integer, mixed radix over the exponents' box at degree
    d; a weight is an integer row over (1, log p_1, ..., log p_k) times one
    common denominator.  Rational weights (every finite place's) keep a
    table of plain integers.  The others pack each row into one integer of
    signed slots, so a step is one addition, and keep its double
    (``exactnum._float_row``) beside it, with an error bound that grows with
    the degree: only a comparison the doubles cannot settle unpacks the
    difference for ``exactnum._row_sign``.  Degree k has at most min(C(k+N-1, k),
    prod_j (k * width_j + 1)) keys: their sum over k <= d must fit ``cap``."""
    exponents, _ = _require_full_lattice(exponents)
    rows = _integer_points([(_as_value(w),) for w in weights])
    if len(rows[0]) != len(exponents):
        raise ValueError("exponents and weights must have equal length")
    return as_loglinear(_hilbert_weight(exponents, *rows, degree_d, cap))


def _hilbert_weight(exponents, rows, primes, scale, degree_d, cap):
    """``hilbert_weight`` of exponents whose differences generate Z^n and
    weight rows over (1, log p_1, ...) times ``scale``; rational: a Fraction."""
    if degree_d < 0:
        raise ValueError("degree must be nonnegative")
    n = len(exponents[0])
    low, widths = [min(col) for col in zip(*exponents)], [max(col) - min(col) for col in zip(*exponents)]
    entries, last_count = 0, 1
    for k in range(1, degree_d + 1):
        entries += (last_count := min(comb(k + len(exponents) - 1, k), prod(k * w + 1 for w in widths)))
        if entries > cap:
            _check_cap(entries, f"Hilbert table entries up to degree {k}", cap)
    strides = [prod(degree_d * w + 1 for w in widths[:j]) for j in range(n)]
    steps = [(sum((x - lo) * t for x, lo, t in zip(a, low, strides)), row if primes else row[0])
             for a, row in zip(exponents, rows)]
    if not primes:  # rational weights: a table of plain integers
        table = {0: 0}
        for _ in range(degree_d):
            table, last = {}, table
            get = table.get
            for m, v in last.items():
                for c, w in steps:
                    key, new = m + c, v + w
                    old = get(key)
                    if old is None or new > old:
                        table[key] = new
        return _decode([sum(table.values())], scale, primes)
    # one signed slot per row entry, wide enough for a difference of two
    # entries and for the sum of the last table (each entry at most
    # degree_d * big in every slot)
    big, n_slots = max(abs(x) for _, w in steps for x in w), len(primes) + 1
    bits = (max(last_count, 2) * degree_d * big).bit_length() + 1
    half = sum(1 << (bits - 1) << bits * j for j in range(n_slots))
    unpack = lambda x: tuple(((x + half) >> bits * j & (1 << bits) - 1) - (1 << bits - 1) for j in range(n_slots))
    floats = [_float_row(w, primes) for _, w in steps]
    steps = [(c, sum(x << bits * j for j, x in enumerate(w)), g) for (c, w), (g, _) in zip(steps, floats)]
    # past degree_d * top = 2^1020 a partial sum might overflow: every comparison is exact
    top = max(abs(g) + e for g, e in floats)
    err = max(e for _, e in floats) if degree_d * top < 2.0**1020 else inf
    table = {0: (0, 0.0)}
    for k in range(1, degree_d + 1):
        # an entry's double is within k * err of its row's value (the steps'
        # errors) plus k * k * top units of 2^-53 (each addition rounds a
        # partial sum of at most k * top): twice that for two entries,
        # doubled again for the subtraction and the partials' own errors
        eps = 4 * k * (err + k * top * 2.0**-53)
        table, last = {}, table
        get = table.get
        for m, (v, f) in last.items():
            for c, w, g in steps:
                key, new = m + c, f + g
                old = get(key)
                if old is None or (d := new - old[1]) > eps or (
                        not d < -eps and v + w != old[0] and _row_sign(unpack(v + w - old[0]), primes) > 0):
                    table[key] = (v + w, new)
    return _decode(unpack(sum(v for v, _ in table.values())), scale, primes)


def arithmetic_hilbert_norm(
    pair: MonomialPair, degree_d: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> LogLinearNumber:
    """Sum over places of the local Hilbert weights of the normalized
    exponents with the coefficient weight vectors."""
    coords, _, _ = lattice_normalize(pair.exponents)
    return _over_places([pair.coefficients], lambda w: _hilbert_weight(coords, *w, 1, degree_d, cap))[1]


def hilbert_asymptotic_gap_exact(
    pair: MonomialPair, degree_d: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> LogLinearNumber:
    """|(r+1)! H(D)/D^{r+1} - height|, exactly, for D >= 1."""
    if degree_d < 1:
        raise ValueError("degree must be positive")
    _, r, _ = lattice_normalize(pair.exponents)
    h_norm = arithmetic_hilbert_norm(pair, degree_d, cap)
    height = normalized_height(pair).value
    gap = h_norm * factorial(r + 1) / (degree_d ** (r + 1)) - height
    return abs(gap)


def hilbert_asymptotic_gap(
    pair: MonomialPair, degree_d: int, cap: int = DEFAULT_ENUMERATION_CAP, bits: int = 64
) -> float:
    """Certified decimal value of the finite-degree gap; a convergence
    diagnostic rather than an exact identity."""
    text, _ = approximate(hilbert_asymptotic_gap_exact(pair, degree_d, cap), bits)
    return float(text)


def symmetric_height_sum(pair: MonomialPair) -> LogLinearNumber:
    """(r+1)! times the sum over places of the full lifted-polytope
    volumes; equals the height of the pair plus the height of its
    coefficient-wise inverse."""
    coords, r, _ = lattice_normalize(pair.exponents)
    envelope = lambda rows, primes, s: _envelope_integral([(*b, *(s * x for x in t)) for b, t in zip(coords, rows)], primes)[0]
    lifted_volume = lambda w: envelope(*w, 1) + envelope(*w, -1)  # upper minus lower integral
    return _over_places([pair.coefficients], lifted_volume)[1] * factorial(r + 1)


def invert(pair: MonomialPair) -> MonomialPair:
    return MonomialPair(pair.exponents, tuple(1 / c for c in pair.coefficients))


def power(pair: MonomialPair, k: int) -> MonomialPair:
    if k < 1:
        raise ValueError("power must be positive")
    return MonomialPair(pair.exponents, tuple(c**k for c in pair.coefficients))


def translate(pair: MonomialPair, shift, gamma) -> MonomialPair:
    gamma = as_fraction(gamma)
    if gamma == 0:
        raise ValueError("scale factor must be nonzero")
    shift = tuple(int(x) for x in shift)
    return MonomialPair(tuple(tuple(a + s for a, s in zip(e, shift)) for e in pair.exponents),
                        tuple(gamma * c for c in pair.coefficients))


def orbit_decomposition(pair: MonomialPair):
    """One torus orbit per face of the exponent polytope: each face keeps
    exactly the monomials whose exponent lies on it."""
    hull = convex_hull([tuple(map(Fraction, a)) for a in pair.exponents])
    lattice = face_lattice(hull)
    out = []
    for face in lattice.faces:
        fp = lattice.face_polytope(face)
        kept = [i for i, a in enumerate(pair.exponents) if fp.contains(tuple(map(Fraction, a)))]
        out.append((face, MonomialPair(tuple(pair.exponents[i] for i in kept), tuple(pair.coefficients[i] for i in kept))))
    return out


def join(p1: MonomialPair, p2: MonomialPair) -> MonomialPair:
    """Join construction: exponents embedded in Z^{1+n+p} with a marker
    coordinate, coefficients concatenated."""
    n, p = p1.n_ambient, p2.n_ambient
    exps = [(1, *a, *([0] * p)) for a in p1.exponents]
    exps += [(0, *([0] * n), *b) for b in p2.exponents]
    return MonomialPair(tuple(exps), p1.coefficients + p2.coefficients)


def segre(p1: MonomialPair, p2: MonomialPair) -> MonomialPair:
    """Segre product: concatenated exponent pairs with coefficient
    products."""
    exps = tuple((*a, *b) for a in p1.exponents for b in p2.exponents)
    coeffs = tuple(c1 * c2 for c1 in p1.coefficients for c2 in p2.coefficients)
    return MonomialPair(exps, coeffs)


def veronese(pair: MonomialPair, degree_d: int, cap: int = DEFAULT_ENUMERATION_CAP) -> MonomialPair:
    """Degree-d Veronese re-embedding: one monomial per exponent tuple of
    total degree d in the original coordinates, at most ``cap`` of them."""
    if degree_d < 1:
        raise ValueError("degree must be positive")
    _check_cap(comb(degree_d + pair.size - 1, degree_d), f"monomials of degree {degree_d}", cap)
    rows = list(_compositions(degree_d, pair.size))
    return monomial_image(pair, rows, [1] * len(rows))


def monomial_image(pair: MonomialPair, image_exponents, image_coefficients) -> MonomialPair:
    """Image of the variety under a monomial map of the ambient projective
    space, given by equal-degree exponent rows and nonzero coefficients."""
    rows = [tuple(int(x) for x in b) for b in image_exponents]
    betas = [as_fraction(c) for c in image_coefficients]
    if len(rows) != len(betas) or not rows:
        raise ValueError("image data must pair exponent rows with coefficients")
    if any(len(b) != pair.size for b in rows):
        raise ValueError("image exponent rows must match the pair size")
    if any(min(b) < 0 for b in rows):
        raise ValueError("image exponents must be nonnegative")
    if len({sum(b) for b in rows}) != 1:
        raise ValueError("image exponent rows must share one total degree")
    if any(b == 0 for b in betas):
        raise ValueError("zero image coefficients are not allowed")
    exps = [tuple(sum(bi * a[j] for bi, a in zip(b, pair.exponents)) for j in range(pair.n_ambient)) for b in rows]
    coeffs = [beta * prod(c**bi for bi, c in zip(b, pair.coefficients)) for b, beta in zip(rows, betas)]
    return MonomialPair(tuple(exps), tuple(coeffs))


def function_field_height(exponents, weights) -> Fraction:
    """Height over the rational function field: (n+1)! times the full
    volume of the hull of the integrally lifted exponents."""
    exponents, n = _require_full_lattice(exponents)
    lifts = [int(w) for w in weights]
    if len(lifts) != len(exponents):
        raise ValueError("exponents and weights must have equal length")
    pts = [(*map(Fraction, a), Fraction(t)) for a, t in zip(exponents, lifts)]
    return convex_hull(pts).volume() * factorial(n + 1)
