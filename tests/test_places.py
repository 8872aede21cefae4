"""The place loop shared by heights, Hilbert norms and multiheights.

Finite places run on the integer orders -ord_p(c) and are scaled by log p.
The reference below is the log-linear place loop it replaced, which lifts
every place's weights to log-linear numbers, with the degree from a
triangulation of the exponents' hull; both must agree exactly.
"""

import json
import random
from fractions import Fraction
from math import factorial

import pytest

import toricheight.geomkernel
import toricheight.mixed
import toricheight.roof
import toricheight.toric
from toricheight import exactnum
from toricheight.cli import main
from toricheight.errors import FactorizationLimitError
from toricheight.exactnum import LogLinearNumber, Place, _is_prime, as_loglinear, relevant_places
from toricheight.geomkernel import _envelope_integral, _integer_points, convex_hull, lattice_normalize
from toricheight.mixed import EmbeddingFamily, _common_normalization, mixed_integral, mixed_volume, multiheight
from toricheight.roof import roof_from_weight, roof_integral
from toricheight.toric import (
    MonomialPair,
    arithmetic_hilbert_norm,
    chow_weight,
    degree,
    hilbert_weight,
    normalized_height,
    symmetric_height_sum,
    weight_vector,
)

from oracles import envelope_values_reference, mixed_integral_reference, over_places_reference
from test_toric import triangulated_degree

LL = LogLinearNumber
F = Fraction


# ---------------------------------------------------------------------------
# the log-linear place loop: every place lifted to log-linear weights


def loglinear_height(pair):
    coords, r, _ = lattice_normalize(pair.exponents)
    per = []
    total = LL()
    for v in relevant_places(pair.coefficients):
        local = as_loglinear(roof_integral(roof_from_weight(coords, weight_vector(pair, v))))
        per.append((v, local))
        total = total + local
    return total * factorial(r + 1), tuple(per), triangulated_degree(coords)


def loglinear_hnorm(pair, degree_d):
    coords, _, _ = lattice_normalize(pair.exponents)
    total = LL()
    for v in relevant_places(pair.coefficients):
        total = total + hilbert_weight(coords, weight_vector(pair, v), degree_d)
    return total


def loglinear_multiheight(family):
    n = family.torus_dim
    coords = _common_normalization(family)
    places = set()
    for m in family.members:
        places.update(relevant_places(m.coefficients))
    per = []
    total = LL()
    for v in sorted(places):
        roofs = [roof_from_weight(coords[i], weight_vector(m, v)) for i, m in enumerate(family.members)]
        local = mixed_integral(roofs)
        per.append((v, local))
        total = total + local
    mdeg = mixed_volume([convex_hull([tuple(map(F, a)) for a in coords[i]]) for i in range(1, n + 1)])
    return total, tuple(per), int(mdeg)


# ---------------------------------------------------------------------------
# inputs


def prime_power_coeff(rng):
    """A signed rational with prime powers of 2, 3 and 5 in its numerator
    and denominator."""
    c = F(1)
    for p in (2, 3, 5):
        c *= F(p) ** rng.randint(-3, 3)
    return -c if rng.random() < 0.4 else c


def coefficients(rng, count, style):
    if style == "units":
        return [rng.choice((1, -1)) for _ in range(count)]
    coeffs = [prime_power_coeff(rng) for _ in range(count)]
    if style == "flat":  # 7 divides every coefficient equally
        k = rng.choice((-2, -1, 1, 2))
        coeffs = [c * F(7) ** k for c in coeffs]
    return coeffs


def simplex_exponents(rng, n, extra):
    """The standard simplex in Z^n plus a few random points: a full lattice."""
    exps = [tuple(0 for _ in range(n))] + [tuple(int(i == j) for j in range(n)) for i in range(n)]
    exps += [tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(extra)]
    rng.shuffle(exps)
    return exps


def rand_pair(rng, n, style):
    if style == "single":
        return MonomialPair.make([tuple(rng.randint(-2, 2) for _ in range(n))], [prime_power_coeff(rng)])
    count = rng.randint(2, 5) if n < 3 else rng.randint(2, 4)
    exps = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(count)]
    return MonomialPair.make(exps, coefficients(rng, count, style))


def sublattice_pair(rng, n, style):
    """Exponents in a proper sublattice of Z^(n+1): the simplex of Z^n (with
    extra points) mapped by a random integer matrix that keeps them
    distinct, then shifted."""
    exps = simplex_exponents(rng, n, rng.randint(0, 2))
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n + 1)] for _ in range(n)]
        if len({tuple(sum(a * row[j] for a, row in zip(e, m)) for j in range(n + 1)) for e in exps}) == len(set(exps)):
            break
    image = [tuple(sum(a * row[j] for a, row in zip(e, m)) + 1 for j in range(n + 1)) for e in exps]
    return MonomialPair.make(image, coefficients(rng, len(image), style))


def rand_family(rng, n, style):
    members = []
    for _ in range(n + 1):
        exps = simplex_exponents(rng, n, rng.randint(0, 2 if n < 3 else 0))
        members.append(MonomialPair.make(exps, coefficients(rng, len(exps), style)))
    return EmbeddingFamily(tuple(members))


STYLES = ("prime powers", "flat", "units", "single")


class TestAgainstLogLinearLoop:
    """Per-place values, totals and degrees equal the log-linear loop's."""

    @pytest.mark.parametrize("n, draws", [(1, 12), (2, 6), (3, 2), (4, 1)])
    @pytest.mark.parametrize("style", STYLES)
    def test_normalized_height(self, n, draws, style):
        rng = random.Random(f"height {n} {style}")
        pairs = [rand_pair(rng, n, style) for _ in range(draws)]
        for pair in pairs + [sublattice_pair(rng, n, style) for _ in range(draws // 2 + 1)]:
            rep = normalized_height(pair)
            assert (rep.value, rep.per_place, rep.degree) == loglinear_height(pair)

    @pytest.mark.parametrize("n, draws", [(1, 8), (2, 3), (3, 1)])
    @pytest.mark.parametrize("style", STYLES)
    def test_arithmetic_hilbert_norm(self, n, draws, style):
        rng = random.Random(f"hnorm {n} {style}")
        for _ in range(draws):
            pair = rand_pair(rng, n, style)
            for d in (1, 2, 3) if n < 3 else (2,):
                assert arithmetic_hilbert_norm(pair, d) == loglinear_hnorm(pair, d)

    @pytest.mark.parametrize("n, draws", [(1, 8), (2, 2)])
    @pytest.mark.parametrize("style", ("prime powers", "flat", "units"))
    def test_multiheight(self, n, draws, style):
        rng = random.Random(f"multiheight {n} {style}")
        for _ in range(draws):
            family = rand_family(rng, n, style)
            rep = multiheight(family)
            assert (rep.value, rep.per_place, rep.degree) == loglinear_multiheight(family)

    def test_flat_finite_roof(self):
        # 7^2 divides every coefficient: its roof is flat and its integral
        # is -2 log 7 times the domain's volume
        pair = MonomialPair.make([(0,), (1,), (3,)], [49, F(98, 3), F(49, 5)])
        rep = normalized_height(pair)
        assert rep.place_map()[Place.finite(7)] == -6 * LL.log_prime(7)
        assert (rep.value, rep.per_place, rep.degree) == loglinear_height(pair)


# ---------------------------------------------------------------------------
# structure: only the archimedean place sees log-linear weights


def _irrational_rows(rows, primes):
    """Whether integer rows ending in coefficients of log p_1, ..., log p_m
    (``geomkernel._integer_points``) hold a nonzero one."""
    return any(any(r[len(r) - len(primes):]) for r in rows)


def _record(monkeypatch, module, name, irrational, calls=None):
    """Wrap ``module.name``; each call appends whether it received an
    irrational value (``irrational`` of its arguments), to ``calls`` if
    given."""
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        args = (list(args[0]), *args[1:])
        calls.append(irrational(args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _only_first_place(calls, places, per_place):
    """The calls run place by place, archimedean first: any irrational
    input must come in the archimedean block."""
    assert len(calls) == per_place * len(places)
    assert not any(calls[per_place:])


class TestFinitePlacesAreRational:
    """At most one log-linear envelope (or Hilbert weight) per height;
    every finite place runs on rational weights."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_height_envelopes(self, monkeypatch, n):
        rng = random.Random(127 + n)
        pair = MonomialPair.make(simplex_exponents(rng, n, 1), coefficients(rng, n + 2, "prime powers"))
        calls = _record(monkeypatch, toricheight.toric, "_envelope_integral", lambda a: _irrational_rows(*a[:2]))
        normalized_height(pair)
        places = relevant_places(pair.coefficients)
        assert len(places) > 2 and calls[0]
        _only_first_place(calls, places, 1)

    def test_hilbert_weights(self, monkeypatch):
        pair = MonomialPair.make([(0,), (1,), (2,), (3,)], [1, 4, F(1, 3), F(1, 2)])
        calls = _record(monkeypatch, toricheight.toric, "_hilbert_weight", lambda a: _irrational_rows(*a[1:3]))
        arithmetic_hilbert_norm(pair, 4)
        assert calls[0]
        _only_first_place(calls, relevant_places(pair.coefficients), 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_multiheight_envelopes(self, monkeypatch, n):
        rng = random.Random(131 + n)
        family = rand_family(rng, n, "prime powers")
        calls = []
        _record(monkeypatch, toricheight.mixed, "_envelope_map", lambda a: _irrational_rows(*a[:2]), calls)  # member roofs
        _record(monkeypatch, toricheight.mixed, "_graph_simplices", lambda a: _irrational_rows(*a[0][:2]), calls)  # sup-convolutions
        multiheight(family)
        places = sorted({v for m in family.members for v in relevant_places(m.coefficients)})
        # n+1 member roofs and the facet recursion's n-1 sup-convolutions per place
        assert calls[0]
        _only_first_place(calls, places, 2 * n)


class TestMultiheightWork:
    """A multiheight reads each member's roof at a place from one hull, as
    the lifts of its upper facets' points, and its mixed degree from the
    exponent sets: no ``Roof``, upper envelope or cell of a member, no
    domain hull, no rational hull."""

    @pytest.mark.parametrize("n, draws", [(1, 8), (2, 3)])
    def test_one_hull_per_member_and_place(self, monkeypatch, n, draws):
        rng = random.Random(167 + n)
        families = []
        for _ in range(draws):
            members = []
            for i in range(n + 1):
                exps = simplex_exponents(rng, n, rng.randint(0, 2))
                exps.append(rng.choice(exps))  # a repeated exponent
                style = "prime powers" if i == 0 else rng.choice(("units", "flat"))
                members.append(MonomialPair.make(exps, coefficients(rng, len(exps), style)))
            families.append(EmbeddingFamily(tuple(members)))
        expected = [loglinear_multiheight(f) for f in families]
        gk = toricheight.geomkernel
        for module, name in ((toricheight.roof.Roof, "__init__"), (toricheight.roof, "convex_hull"),
                             (gk, "convex_hull"), (gk, "_build_rational")):
            monkeypatch.setattr(module, name, lambda *args, _name=name: pytest.fail(f"{_name} called"))
        hulls, chains, maps, convolutions, depth = [], [], [], [], [0]
        real_core, real_chain, real_map = gk._hull_core, gk._chain, toricheight.mixed._envelope_map
        real_envelope, real_recursion = toricheight.mixed._graph_simplices, toricheight.mixed._mixed_integral
        real_cell = gk.AffineCell.__init__
        monkeypatch.setattr(gk, "_hull_core", lambda *args: hulls.append(1) or real_core(*args))
        monkeypatch.setattr(gk, "_chain", lambda *args: chains.append(1) or real_chain(*args))

        def recursion(maps, primes):  # member maps are read before it runs, sup-convolutions inside it
            depth[0] += 1
            try:
                return real_recursion(maps, primes)
            finally:
                depth[0] -= 1

        def counted(real, out):
            def call(*args):
                before = len(hulls), len(chains)
                result = real(*args)
                out.append((len(hulls) - before[0], len(chains) - before[1]))
                return result
            return call

        counted_envelope = counted(real_envelope, convolutions)

        def envelope(integers):
            assert depth[0], "an upper envelope was built for a member"
            return counted_envelope(integers)

        def cell(self, *args):
            assert depth[0], "a cell was built for a member"
            real_cell(self, *args)

        monkeypatch.setattr(toricheight.mixed, "_mixed_integral", recursion)
        monkeypatch.setattr(toricheight.mixed, "_envelope_map", counted(real_map, maps))
        monkeypatch.setattr(toricheight.mixed, "_graph_simplices", envelope)
        monkeypatch.setattr(gk.AffineCell, "__init__", cell)
        for family, reference in zip(families, expected):
            places = sorted({v for m in family.members for v in relevant_places(m.coefficients)})
            maps.clear()
            convolutions.clear()
            rep = multiheight(family)
            assert (rep.value, rep.per_place, rep.degree) == reference
            assert maps == [(0, 1) if n == 1 else (1, 0)] * ((n + 1) * len(places))  # over a line, a chain
            assert len(convolutions) <= (n - 1) * len(places)


# ---------------------------------------------------------------------------
# each place's term from one hull of its lifted points


def rand_lift(rng, kind, base):
    if kind == "integer":
        return rng.randint(-4, 4)
    if kind == "rational":
        return F(rng.randint(-9, 9), rng.randint(1, 6))
    logs = sum((rng.randint(-2, 2) * LL.log_prime(p) for p in rng.sample([2, 3, 5], 2)), LL())
    if kind == "loglinear":
        return logs + F(rng.randint(-7, 7), rng.randint(1, 4))
    # flat: one affine function of the base, with a log-linear constant
    return sum((F(g) * x for g, x in zip(kind, base)), logs)


def lifted_points(rng, n, kind, extra):
    bases = simplex_exponents(rng, n, extra)
    if rng.random() < 0.3:  # a repeated base with its own lift
        bases.append(rng.choice(bases))
    if kind == "flat":
        kind = tuple(rng.randint(-3, 3) for _ in range(n))
    return bases, [rand_lift(rng, kind, b) for b in bases]


class TestPlaceIntegralsFromOneHull:
    """``geomkernel._envelope_integral``, the per-place term of heights,
    Chow weights and symmetric sums, against the public roofs and hulls it
    replaced there.  ``TestAgainstLogLinearLoop`` checks heights and their
    degrees against those roofs and ``degree``."""

    @pytest.mark.parametrize("kind", ["integer", "rational", "loglinear", "flat"])
    @pytest.mark.parametrize("n, draws", [(1, 12), (2, 8), (3, 4), (4, 2)])
    def test_against_roof_integral(self, n, draws, kind):
        rng = random.Random(f"envelope {n} {kind}")
        for _ in range(draws):
            bases, lifts = lifted_points(rng, n, kind, rng.randint(0, 3))
            points = [(*b, t) for b, t in zip(bases, lifts)]
            integral, volume = _envelope_integral(*_integer_points(points))
            assert as_loglinear(integral) == as_loglinear(roof_integral(roof_from_weight(bases, lifts)))
            assert volume == factorial(n) * convex_hull([tuple(map(F, b)) for b in bases]).volume()
            lower = _envelope_integral(*_integer_points([(*b, -t) for b, t in zip(bases, lifts)]))[0]
            lifted = convex_hull([(*map(F, b), t) for b, t in zip(bases, lifts)])
            assert as_loglinear(integral + lower) == as_loglinear(lifted.volume())

    def test_zero_dimensional_bases(self):
        log2 = LL.log_prime(2)
        for lifts in ([3, F(7, 2), -1], [log2, F(1, 2), log2], [F(5)], [log2, log2]):
            points = [(t,) for t in lifts]
            top = max(lifts, key=float)
            assert _envelope_integral(*_integer_points(points)) == (top if isinstance(top, LL) else F(top), 1)
            assert as_loglinear(_envelope_integral(*_integer_points([(-t,) for t in lifts]))[0]) == -min(lifts, key=float)

    def test_zero_dimensional_heights(self):
        # every monomial at one exponent: r = 0, the domain a point
        rng = random.Random(137)
        for style in ("prime powers", "flat", "units"):
            for count in (1, 2, 4):
                pair = MonomialPair.make([(2, -1)] * count, coefficients(rng, count, style))
                rep = normalized_height(pair)
                assert (rep.value, rep.per_place, rep.degree, rep.dim) == (*loglinear_height(pair), 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chow_weight_and_symmetric_sum(self, n):
        rng = random.Random(139 + n)
        for style in ("prime powers", "flat", "units", "single"):
            pair = rand_pair(rng, n, style)
            coords, r, _ = lattice_normalize(pair.exponents)
            expected = sum(
                (as_loglinear(convex_hull([(*map(F, b), t) for b, t in zip(coords, weight_vector(pair, v))]).volume())
                 for v in relevant_places(pair.coefficients)),
                LL(),
            )
            assert symmetric_height_sum(pair) == expected * factorial(r + 1)
            bases, lifts = lifted_points(rng, n, rng.choice(["integer", "rational", "loglinear"]), 2)
            roof = roof_from_weight(bases, lifts)
            assert chow_weight(bases, lifts) == as_loglinear(roof_integral(roof) * factorial(n + 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_hull_per_place(self, monkeypatch, n):
        # 1, 30, 1 on the line 0, e_1, 2 e_1: no place is flat, and each
        # place's lifted points are hulled once, with the degree read off;
        # over a line they are one monotone chain, with no elimination
        rng = random.Random(149 + n)
        gk = toricheight.geomkernel
        hulls, chains, rows = [], [], []
        real, chain, add = gk._hull_core, gk._chain, gk._Echelon.add
        monkeypatch.setattr(gk, "_hull_core", lambda pts, basis, primes: hulls.append(len(pts[0]) - len(primes)) or real(pts, basis, primes))
        monkeypatch.setattr(gk, "_chain", lambda ints, primes, lower: chains.append(lower) or chain(ints, primes, lower))
        monkeypatch.setattr(gk._Echelon, "add", lambda echelon, vec: rows.append(vec) or add(echelon, vec))
        e1 = tuple(int(j == 0) for j in range(n))
        for _ in range(3):
            exps = simplex_exponents(rng, n, 1)
            exps = [e for e in exps if e not in {(0,) * n, e1}] + [(0,) * n, e1, tuple(2 * x for x in e1)]
            coeffs = [prime_power_coeff(rng) for _ in exps[:-3]] + [1, 30, 1]
            pair = MonomialPair.make(exps, coeffs)
            del hulls[:], chains[:], rows[:]
            rep = normalized_height(pair)
            assert len(rep.per_place) == 4
            assert (hulls, chains, len(rows) > 0) == (([], [False] * 4, False) if n == 1 else ([n + 1] * 4, [], True))


# ---------------------------------------------------------------------------
# the integer place loop against the loop it replaced


LARGE_PRIMES = (999_983, 1_000_003, 998_244_353, 2**31 - 1)  # semiprimes of up to 19 digits
PLACE_STYLES = ("units", "prime powers", "large primes", "semiprimes", "mixed")


def place_coeff(rng, style):
    """A signed rational: a unit, prime powers of 2, 3 and 5, those times a
    large prime or its inverse, or a semiprime of two large primes over
    them, or any of these."""
    if style == "mixed":
        style = rng.choice(PLACE_STYLES[:-1])
    if style == "units":
        return rng.choice((1, -1))
    c = prime_power_coeff(rng)
    if style == "large primes":
        return c * F(rng.choice(LARGE_PRIMES)) ** rng.choice((-1, 1, 2))
    if style == "semiprimes":
        p, q = rng.sample(LARGE_PRIMES, 2)
        return c * p * q if rng.random() < 0.5 else c / (p * q)
    return c


def place_pair(rng, n, style):
    exps = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(2, 5 if n < 3 else 4))]
    return MonomialPair.make(exps, [place_coeff(rng, style) for _ in exps])


def place_family(rng, n, style):
    members = []
    for _ in range(n + 1):
        exps = simplex_exponents(rng, n, rng.randint(0, 2) if n < 3 else 0)
        members.append(MonomialPair.make(exps, [place_coeff(rng, style) for _ in exps]))
    return EmbeddingFamily(tuple(members))


def exact_places(per_place):
    """Every per-place value a ``LogLinearNumber`` of ``Fraction`` fields."""
    return all(type(x) is LL and type(x.constant) is F and all(type(c) is F for _, c in x.logterms) for _, x in per_place)


def next_prime(n):
    while not _is_prime(n):
        n += 1
    return n


class TestPlaceLoopAgainstReference:
    """``toric._over_places`` factors each coefficient once and hands every
    place integer rows; ``over_places_reference``, the loop it replaced,
    runs the same local terms on ``padic_order`` and ``log_abs`` weights.
    Per-place values, their types and the totals agree exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("style", PLACE_STYLES)
    def test_heights_and_symmetric_sums(self, n, style):
        rng = random.Random(f"place loop {n} {style}")
        for _ in range(6 if n < 3 else 2):
            pair = place_pair(rng, n, style)
            coords, r, _ = lattice_normalize(pair.exponents)
            envelope = lambda w: _envelope_integral(*_integer_points([(*b, t) for b, t in zip(coords, w)]))[0]
            per, total = over_places_reference([pair.coefficients], envelope)
            rep = normalized_height(pair)
            assert (rep.per_place, rep.value, rep.degree) == (per, total * factorial(r + 1), degree(pair))
            assert exact_places(rep.per_place) and exact_places(per)
            lifted = over_places_reference([pair.coefficients], lambda w: envelope(w) + envelope([-t for t in w]))[1]
            assert symmetric_height_sum(pair) == lifted * factorial(r + 1)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("style", PLACE_STYLES)
    def test_hilbert_norms(self, n, style):
        rng = random.Random(f"place loop hnorm {n} {style}")
        for _ in range(4 if n == 1 else 2):
            pair = place_pair(rng, n, style)
            coords, _, _ = lattice_normalize(pair.exponents)
            for d in (1, 3):
                assert arithmetic_hilbert_norm(pair, d) == over_places_reference([pair.coefficients], lambda w: hilbert_weight(coords, w, d))[1]

    @pytest.mark.parametrize("n, draws", [(1, 4), (2, 2), (3, 1)])
    @pytest.mark.parametrize("style", PLACE_STYLES)
    def test_multiheights(self, n, draws, style):
        rng = random.Random(f"place loop multiheight {n} {style}")
        for _ in range(draws):
            family = place_family(rng, n, style)
            coords = _common_normalization(family)
            local = lambda *ws: mixed_integral_reference([envelope_values_reference(list(zip(c, w))) for c, w in zip(coords, ws)])
            per, total = over_places_reference([m.coefficients for m in family.members], local)
            rep = multiheight(family)
            assert (rep.per_place, rep.value) == (per, total) and exact_places(rep.per_place)

    def test_unfactorable_coefficient(self, monkeypatch, capsys, tmp_path):
        # products of two 15-digit primes, which rho cannot split within
        # 1,000 steps, over each other: the loop names the numerator, the
        # first it factors, as the one it replaced did, and the command line
        # exits 6 with that message
        rng = random.Random(239)
        m, n = (next_prime(rng.randrange(10**14, 10**15)) * next_prime(rng.randrange(10**14, 10**15)) for _ in range(2))
        monkeypatch.setattr(exactnum, "MAX_RHO_STEPS", 1000)
        doc = {"exponents": [[0], [1], [2]], "coefficients": ["6", f"-{m}/{n}", "1"]}
        pair = MonomialPair.make(doc["exponents"], map(F, doc["coefficients"]))
        other = {"exponents": [[0], [1]], "coefficients": ["2", "3"]}
        family = EmbeddingFamily((MonomialPair.make(other["exponents"], [2, 3]), pair))
        cases = [(lambda: normalized_height(pair), [pair.coefficients]), (lambda: arithmetic_hilbert_norm(pair, 2), [pair.coefficients]),
                 (lambda: multiheight(family), [m.coefficients for m in family.members])]
        messages = set()
        for call, lists in cases:
            for run in (call, lambda: over_places_reference(lists, lambda *ws: 0)):
                with pytest.raises(FactorizationLimitError) as error:
                    run()
                messages.add(str(error.value))
        (message,) = messages
        assert message.startswith(f"{m} was not factored") and "MAX_RHO_STEPS" in message
        (tmp_path / "pair.json").write_text(json.dumps(doc))
        (tmp_path / "family.json").write_text(json.dumps({"pairs": [other, doc]}))
        for argv in (["height", "pair.json"], ["hnorm", "pair.json", "--degree", "2"], ["multiheight", "family.json"]):
            code = main([argv[0], str(tmp_path / argv[1]), *argv[2:]])
            out = capsys.readouterr()
            assert (code, out.out, out.err) == (6, "", f"error: {message}\n")


class TestPlaceLoopWork:
    """The place loop builds no log-linear weight: no ``relevant_places``,
    ``padic_order`` or ``log_abs`` runs; a Hilbert norm normalizes its
    exponents once; a 1-D roof needs no elimination; and a multiheight
    member's map at a finite place is made of ints, with no ``Fraction``."""

    def test_no_place_functions(self, monkeypatch):
        rng = random.Random(241)
        pairs = [place_pair(rng, n, "mixed") for n in (1, 1, 2, 3)]
        families = [place_family(rng, n, "mixed") for n in (1, 2)]
        run = lambda: ([(normalized_height(p), arithmetic_hilbert_norm(p, 2), symmetric_height_sum(p)) for p in pairs],
                       [multiheight(f) for f in families])
        expected = run()
        for module, name in ((exactnum, "relevant_places"), (exactnum, "padic_order"), (exactnum, "log_abs"),
                             (toricheight.toric, "log_abs")):
            monkeypatch.setattr(module, name, lambda *args, _name=name: pytest.fail(f"{_name} called"))
        assert run() == expected
        assert sum(len(rep.per_place) for rep, _, _ in expected[0]) > 3 * len(pairs)

    def test_one_normalization_per_hilbert_norm(self, monkeypatch):
        rng = random.Random(251)
        pairs = [place_pair(rng, n, "prime powers") for n in (1, 1, 2, 3)]
        expected = [loglinear_hnorm(pair, 3) for pair in pairs]
        calls, real = [], toricheight.toric.lattice_normalize
        monkeypatch.setattr(toricheight.toric, "lattice_normalize", lambda vectors: calls.append(1) or real(vectors))
        for pair, value in zip(pairs, expected):
            del calls[:]
            assert arithmetic_hilbert_norm(pair, 3) == value
            assert len(calls) == 1 and len(relevant_places(pair.coefficients)) > 2

    def test_one_dimensional_roofs_need_no_elimination(self, monkeypatch):
        rng = random.Random(257)
        cases = [lifted_points(rng, 1, kind, rng.randint(0, 3)) for kind in ("integer", "rational", "loglinear", "flat") for _ in range(8)]
        cases += [([(2,), (2,), (2,)], [1, LL.log_prime(3), F(5, 2)])]  # one base: its largest lift
        expected = [(roof_integral(roof := roof_from_weight(*case)), roof.cells) for case in cases]
        rows, add = [], toricheight.geomkernel._Echelon.add
        monkeypatch.setattr(toricheight.geomkernel._Echelon, "add", lambda echelon, vec: rows.append(vec) or add(echelon, vec))
        for case, (integral, cells) in zip(cases, expected):
            roof = roof_from_weight(*case)
            assert (roof_integral(roof), roof.cells) == (integral, cells)
        assert rows == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_finite_member_maps_are_ints(self, monkeypatch, n):
        rng = random.Random(263 + n)
        families = [rand_family(rng, n, style) for style in ("prime powers", "flat", "prime powers")]
        expected = [multiheight(family) for family in families]
        made, chains, seen = [0], [], []
        real_new, real_map, real_chain = F.__new__, toricheight.mixed._envelope_map, toricheight.geomkernel._chain

        def new(cls, *args, **kwargs):
            made[0] += 1
            return real_new(cls, *args, **kwargs)

        def member(ints, primes=(), scale=1):
            if primes:  # the archimedean place
                return real_map(ints, primes, scale)
            made[0], before = 0, len(chains)
            result = real_map(ints, primes, scale)
            seen.append((made[0], chains[before:], {type(x) for p in ints for x in p}, {type(x) for v, y in result.items() for x in (*v, *y)}))
            return result

        monkeypatch.setattr(F, "__new__", new)
        monkeypatch.setattr(toricheight.mixed, "_envelope_map", member)
        monkeypatch.setattr(toricheight.geomkernel, "_chain", lambda *args: chains.append(made[0]) or real_chain(*args))
        assert [multiheight(family) for family in families] == expected
        # no Fraction up to the chain (none in the whole map), which comes once over a line
        assert len(seen) > 3 * (n + 1) and all(record == (0, [0] if n == 1 else [], {int}, {int}) for record in seen)
