import random
import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from toricheight.errors import EnumerationCapError, LatticeHypothesisError
from toricheight import exactnum, geomkernel, toric
from toricheight.geomkernel import convex_hull, lattice_normalize, triangulate
from toricheight.exactnum import LogLinearNumber, Place, certified_sign, log_abs, relevant_places
from toricheight.roof import roof_eval, roof_from_weight
from toricheight.toric import (
    MonomialPair,
    arithmetic_hilbert_norm,
    chow_weight,
    degree,
    function_field_height,
    hilbert_asymptotic_gap,
    hilbert_asymptotic_gap_exact,
    hilbert_weight,
    invert,
    join,
    monomial_image,
    normalized_height,
    orbit_decomposition,
    power,
    segre,
    symmetric_height_sum,
    translate,
    veronese,
    weight_vector,
)

from oracles import hilbert_weight_enumerated, hilbert_weight_oracle, hilbert_weight_rows, rational_det

LL = LogLinearNumber
log2 = LL.log_prime(2)
log3 = LL.log_prime(3)
F = Fraction

CUBIC = MonomialPair.make([(0,), (1,), (2,), (3,)], [1, 4, F(1, 3), F(1, 2)])


def rand_coeff(rng, pool=(1, 2, 3, 4, 5, 6, 8, 9)):
    c = F(rng.choice(pool), rng.choice(pool))
    return -c if rng.random() < 0.4 else c


def rand_pair(rng, n=1, max_terms=4, span=4):
    count = rng.randint(2, max_terms)
    exps = [tuple(rng.randint(-span, span) for _ in range(n)) for _ in range(count)]
    coeffs = [rand_coeff(rng) for _ in range(count)]
    return MonomialPair.make(exps, coeffs)


def rand_full_lattice_exponents(rng, count, span=5):
    while True:
        exps = sorted({rng.randint(-span, span) for _ in range(count)})
        if len(exps) >= 2:
            from math import gcd

            g = 0
            for x in exps[1:]:
                g = gcd(g, x - exps[0])
            if g == 1:
                return [(x,) for x in exps]


class TestMonomialPair:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            MonomialPair.make([(0,), (1,)], [1, 0])

    def test_dropping_zeros(self):
        pair, kept = MonomialPair.dropping_zeros([(0,), (1,), (2,)], [1, 0, 5])
        assert kept == (0, 2)
        assert pair.exponents == ((0,), (2,))

    def test_repeated_exponents_allowed(self):
        pair = MonomialPair.make([(0,), (0,), (1,)], [1, 2, 3])
        assert degree(pair) == 1


class TestWeightVector:
    def test_cubic_archimedean(self):
        assert weight_vector(CUBIC, Place.infinite()) == [LL(), 2 * log2, -log3, -log2]

    def test_cubic_inert_prime(self):
        assert weight_vector(CUBIC, Place.finite(5)) == [LL()] * 4

    def test_cubic_dyadic(self):
        assert weight_vector(CUBIC, Place.finite(2)) == [LL(), -2 * log2, LL(), log2]


def triangulated_degree(coords):
    """r! times the volume of the hull of integer coordinates that span
    Q^r: the sum over the simplices of ``triangulate`` of the |det| of their
    edges, each by cofactor expansion; 1 when r = 0."""
    if not coords[0]:
        return 1
    simplices = triangulate(convex_hull(coords))
    return sum(abs(rational_det([[a - b for a, b in zip(q, s[0])] for q in s[1:]])) for s in simplices)


def rand_sublattice_pair(rng, r):
    """A pair whose exponents are integer combinations c of r independent
    rows of Z^n (n = r or r + 1, diagonal entries up to 3, so often a
    proper sublattice) with every c = 0, e_1, ..., e_r among them; the
    combinations c are returned too."""
    n = r + rng.randint(0 if r else 1, 1)
    rows = [[0] * j + [rng.choice((1, 1, 2, 3))] + [rng.randint(-1, 1) for _ in range(n - j - 1)] for j in range(r)]
    cs = [tuple(int(i == j) for j in range(r)) for i in range(-1, r)]
    cs += [tuple(rng.randint(0, 2) for _ in range(r)) for _ in range(rng.randint(0, 3))]
    shift = [rng.randint(-3, 3) for _ in range(n)]
    exps = [tuple(x + sum(k * row[t] for k, row in zip(c, rows)) for t, x in enumerate(shift)) for c in cs]
    return MonomialPair.make(exps, [rand_coeff(rng) for _ in exps]), cs


class TestDegree:
    def test_cubic(self):
        assert degree(CUBIC) == 3

    def test_one_zero_lift_hull(self, monkeypatch):
        """``degree`` is the Σ|det| of one hull of the zero-lifted lattice
        coordinates (over a line, of one monotone chain, with no
        elimination): one ``_hull_core``, no ``convex_hull``, and r! times
        the volume of a triangulation of the exponents' hull in their
        lattice."""
        rng = random.Random(191)
        cases = [rand_sublattice_pair(rng, r) for r in range(6) for _ in range(4)]
        bases = [lattice_normalize(pair.exponents)[2] for pair, _ in cases]
        assert sum(bool(b) and len(b) == len(b[0]) and abs(rational_det(b)) > 1 for b in bases) >= 5  # proper sublattices of Z^r
        expected = [triangulated_degree(cs) for _, cs in cases]
        hulls, chains, rows = [], [], []
        real_core, real_chain, add = geomkernel._hull_core, geomkernel._chain, geomkernel._Echelon.add
        monkeypatch.setattr(geomkernel, "_hull_core", lambda *args: hulls.append(1) or real_core(*args))
        monkeypatch.setattr(geomkernel, "_chain", lambda *args: chains.append(1) or real_chain(*args))
        monkeypatch.setattr(geomkernel._Echelon, "add", lambda echelon, vec: rows.append(1) or add(echelon, vec))
        for module in (geomkernel, toric):
            monkeypatch.setattr(module, "convex_hull", lambda *args: pytest.fail("convex_hull called"))
        for (pair, cs), d in zip(cases, expected):
            del hulls[:], chains[:], rows[:]
            assert degree(pair) == d
            if len(cs[0]) == 1:
                assert (hulls, chains, rows) == ([], [1], [])
            else:
                assert (len(hulls), chains) == (1, [])

    def test_lattice_index(self):
        assert degree(MonomialPair.make([(0,), (2,), (4,)], [1, 1, 1])) == 2

    def test_point(self):
        assert degree(MonomialPair.make([(7,)], [5])) == 1


class TestNormalizedHeight:
    def test_cubic(self):
        rep = normalized_height(CUBIC)
        assert rep.value == 7 * log2 + 3 * log3
        assert rep.degree == 3 and rep.dim == 1 and rep.scale == 2
        pm = {str(v): val for v, val in rep.per_place}
        assert pm == {"inf": 2 * log2, "2": F(3, 2) * log2, "3": F(3, 2) * log3}

    def test_plane_curve(self):
        pair = MonomialPair.make([(0,), (2,), (3,)], [1, 3, 1])
        assert normalized_height(pair).value == 3 * log3

    def test_unit_coefficients(self):
        pair = MonomialPair.make([(0,), (1,), (5,)], [1, 1, 1])
        assert normalized_height(pair).value == LL()

    def test_sign_coefficients(self):
        pair = MonomialPair.make([(0,), (1,), (2,)], [1, -1, 1])
        assert normalized_height(pair).value == LL()

    def test_nonnegative_and_power_linear(self):
        rng = random.Random(5)
        for _ in range(200):
            pair = rand_pair(rng)
            rep = normalized_height(pair)
            assert certified_sign(rep.value) >= 0
            k = rng.randint(2, 4)
            assert normalized_height(power(pair, k)).value == k * rep.value

    def test_translate_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            pair = rand_pair(rng)
            c = (rng.randint(-5, 5),)
            gamma = rand_coeff(rng)
            assert normalized_height(translate(pair, c, gamma)).value == normalized_height(pair).value

    def test_weil_height_degeneration(self):
        rng = random.Random(11)
        for _ in range(50):
            a = (rng.randint(-4, 4), rng.randint(-4, 4))
            coeffs = [rand_coeff(rng) for _ in range(rng.randint(1, 4))]
            pair = MonomialPair.make([a] * len(coeffs), coeffs)
            expected = LL()
            for v in relevant_places(coeffs):
                best = log_abs(coeffs[0], v)
                for c in coeffs[1:]:
                    cand = log_abs(c, v)
                    if certified_sign(cand - best) > 0:
                        best = cand
                expected = expected + best
            rep = normalized_height(pair)
            assert rep.dim == 0 and rep.value == expected

    def test_binomial_hypersurface(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(2, 3)
            basis = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
            b = basis[rng.randrange(n)]
            lam = rand_coeff(rng)
            pair = MonomialPair.make(basis + [b], [1] * n + [lam])
            expected = LL()
            for v in relevant_places([lam]):
                val = log_abs(lam, v)
                if certified_sign(val) > 0:
                    expected = expected + val
            assert normalized_height(pair).value == expected


    def test_no_domain_hull_per_height(self, monkeypatch):
        # each place's integral and the degree are read from the lifted
        # hulls: neither the roofs' domains nor the pair's hull is built
        import toricheight.roof
        import toricheight.toric

        calls = []
        real = toricheight.toric.convex_hull

        def counting(points):
            calls.append(len(points))
            return real(points)

        monkeypatch.setattr(toricheight.roof, "convex_hull", counting)
        monkeypatch.setattr(toricheight.toric, "convex_hull", counting)
        plane = MonomialPair.make([(0, 0), (2, 0), (0, 1), (1, 1)], [6, F(5, 7), 1, 10])
        for pair in (CUBIC, plane):
            calls.clear()
            rep = normalized_height(pair)
            assert len(rep.per_place) >= 3
            assert len(calls) == 0


class TestChowWeight:
    def test_quintic_example(self):
        assert chow_weight([(i,) for i in range(6)], [-3, 0, 1, -1, 0, -2]) == -2

    def test_zero(self):
        assert chow_weight([(0,), (1,)], [0, 0]) == LL()

    def test_rational_weights(self):
        assert chow_weight([(0,), (1,), (2,), (3,)], [0, -2, 0, 1]) == 3

    def test_non_full_lattice_rejected(self):
        with pytest.raises(LatticeHypothesisError):
            chow_weight([(0,), (2,)], [0, 1])

    def test_volume_identity(self):
        from toricheight.geomkernel import convex_hull

        rng = random.Random(17)
        for _ in range(100):
            exps = rand_full_lattice_exponents(rng, rng.randint(2, 5))
            tau = [rng.randint(-4, 4) for _ in exps]
            e_plus = chow_weight(exps, tau)
            e_minus = chow_weight(exps, [-t for t in tau])
            pts = [(F(a[0]), F(t)) for a, t in zip(exps, tau)]
            assert e_plus + e_minus == 2 * convex_hull(pts).volume()


class TestHilbertWeight:
    def test_degree_one(self):
        tau = [2 * log2, -log3, log2 + log3]
        assert hilbert_weight([(0,), (1,), (2,)], tau, 1) == 3 * log2

    def test_log_example(self):
        tau = [LL(), -2 * log2, LL(), log2]
        assert hilbert_weight([(0,), (1,), (2,), (3,)], tau, 2) == 2 * log2

    def test_zero_weights(self):
        for d in range(4):
            assert hilbert_weight([(0,), (1,)], [0, 0], d) == LL()

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            hilbert_weight([(0,), (1,), (2,)], [0, 0, 0], 100, cap=10)

    def test_against_float_oracle(self):
        rng = random.Random(19)
        for _ in range(50):
            exps = rand_full_lattice_exponents(rng, rng.randint(2, 4))
            tau = [F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in exps]
            d = rng.randint(1, 6)
            exact = hilbert_weight(exps, tau, d)
            approx = hilbert_weight_oracle(exps, [float(t) for t in tau], d)
            assert abs(float(exact + LL()) - approx) < 1e-6 * max(1, abs(approx))


def full_lattice_points(rng, n, extra, span=3):
    """The origin, the unit vectors and ``extra`` random points of the box
    [0, span]^n, shuffled: their differences generate Z^n."""
    points = [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n)]
    points += [tuple(rng.randint(0, span) for _ in range(n)) for _ in range(extra)]
    rng.shuffle(points)
    return points


def rand_weight(rng, kind):
    if kind == "integer":
        return rng.randint(-6, 6)
    if kind == "rational":
        return F(rng.randint(-9, 9), rng.randint(1, 6))
    logs = sum((rng.randint(-2, 2) * LL.log_prime(p) for p in rng.sample([2, 3, 5], 2)), LL())
    return logs + (F(rng.randint(-7, 7), rng.randint(1, 4)) if kind == "constant" else 0)


class TestHilbertDynamicProgram:
    """The dynamic program against the exhaustive enumeration it replaced,
    exactly, on full-lattice exponent sets in dimensions 1 to 3."""

    @pytest.mark.parametrize("kind", ["integer", "rational", "loglinear", "constant"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_enumeration(self, n, kind):
        rng = random.Random(100 * n + len(kind))
        for d in range(11):
            exps = full_lattice_points(rng, n, rng.randint(0, 3 - n // 2))
            if rng.random() < 0.4:  # a repeated exponent with its own weight
                exps.append(rng.choice(exps))
            tau = [rand_weight(rng, kind) for _ in exps]
            assert hilbert_weight(exps, tau, d) == hilbert_weight_enumerated(exps, tau, d), (exps, tau, d)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_integer_table_against_enumeration(self, monkeypatch, n):
        # rational weights (negative, fractional) never reach the row sign;
        # n = 0 is a point with no columns, and D runs from 0
        from toricheight import toric

        def no_rows(*args):
            raise AssertionError("a rational table compared rows")

        monkeypatch.setattr(toric, "_row_sign", no_rows)
        rng = random.Random(150 + n)
        for d in range(8 - n):
            exps = full_lattice_points(rng, n, rng.randint(0, 2)) if n else [()] * rng.randint(1, 3)
            if rng.random() < 0.4:
                exps.append(rng.choice(exps))
            tau = [rand_weight(rng, rng.choice(["integer", "rational"])) for _ in exps]
            assert hilbert_weight(exps, tau, d) == hilbert_weight_enumerated(exps, tau, d), (exps, tau, d)

    def test_zero_width_ambient_columns(self):
        # exponents constant in some ambient coordinate (or in all of
        # them): the norm runs on the normalized coordinates
        from toricheight.geomkernel import lattice_normalize

        rng = random.Random(157)
        for exps in ([(1, 0), (1, 1), (1, 3)], [(0, 2, 5), (1, 2, 5), (0, 3, 5), (2, 3, 5)], [(4, 4)] * 3):
            pair = MonomialPair.make(exps, [rand_coeff(rng) for _ in exps])
            coords = lattice_normalize(pair.exponents)[0]
            for d in (0, 1, 3):
                expected = sum(
                    (hilbert_weight_enumerated(coords, weight_vector(pair, v), d) for v in relevant_places(pair.coefficients)),
                    LL(),
                )
                assert arithmetic_hilbert_norm(pair, d) == expected

    def test_near_tie_takes_the_exact_path(self, monkeypatch):
        # a rational within 10^-20 of log 2: no double sum separates them
        q = F(693147180559945309417232121458, 10**30)
        assert abs(float(exactnum.approximate(q - log2, 128)[0])) < 1e-20
        calls, intervals = [], []
        interval_sign, interval = exactnum._interval_sign, exactnum._interval
        monkeypatch.setattr(exactnum, "_interval_sign", lambda *args: calls.append(args) or interval_sign(*args))
        monkeypatch.setattr(exactnum, "_interval", lambda *args: intervals.append(1) or interval(*args))
        for exps, tau, d in [
            ([(0,), (1,), (1,)], [0, log2, q], 3),
            ([(0,), (1,), (2,)], [0, q, 2 * log2], 4),
            ([(0, 0), (1, 0), (0, 1), (0, 1)], [1, 0, q, log2], 3),
        ]:
            calls.clear()
            intervals.clear()
            interval_sign.cache_clear()
            value = hilbert_weight(exps, tau, d)
            assert calls and intervals, (exps, tau)  # past the double filter, on to intervals
            assert value == hilbert_weight_enumerated(exps, tau, d)

    def test_table_cap(self):
        # the cubic's table at degree 64 has sum_k (3k + 1) = 6,304 entries,
        # against C(67, 3) = 47,905 compositions; with weight i at exponent i
        # every monomial of a fiber weighs its key m, so H = 0 + 1 + ... + 192
        exps, tau = [(0,), (1,), (2,), (3,)], [0, 1, 2, 3]
        assert hilbert_weight(exps, tau, 64, cap=6304) == 192 * 193 // 2
        with pytest.raises(EnumerationCapError, match="6304 Hilbert table entries up to degree 64 .*--cap"):
            hilbert_weight(exps, tau, 64, cap=6303)
        # the segment adds k + 1 entries at degree k: the count stops early
        started = time.monotonic()
        with pytest.raises(EnumerationCapError, match="up to degree 4471 .*TORIC_HEIGHT_CAP"):
            hilbert_weight([(0,), (1,)], [3, 5], 10**9)
        assert time.monotonic() - started < 1


def count_row_signs(monkeypatch):
    """A list that grows by one on every ``_row_sign`` call of the table."""
    calls, row_sign = [], toric._row_sign
    monkeypatch.setattr(toric, "_row_sign", lambda *args: calls.append(args) or row_sign(*args))
    return calls


class TestPackedArchimedeanTable:
    """The log-linear table packs each row into one integer and keeps a
    double beside it; the unpacked table (``oracles.hilbert_weight_rows``)
    and the enumeration are its references."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_unpacked_rows(self, n):
        # weights over one to three of five primes, fractional coefficients;
        # D up to 40 (3-D up to 16, where the unpacked table takes longest)
        rng = random.Random(210 + n)
        for case in range(12):
            exps = full_lattice_points(rng, n, rng.randint(0, 2))
            if rng.random() < 0.4:
                exps.append(rng.choice(exps))
            primes = rng.sample([2, 3, 5, 7, 11], rng.randint(1, 3))
            tau = [sum((F(rng.randint(-5, 5), rng.randint(1, 3)) * LL.log_prime(p) for p in primes), LL())
                   + F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in exps]
            d = case if case < 4 else rng.randint(4, 40 if n < 3 else 16)
            value = hilbert_weight(exps, tau, d)
            assert value == hilbert_weight_rows(exps, tau, d), (exps, tau, d)
            if comb(d + len(exps) - 1, d) <= 3000:
                assert value == hilbert_weight_enumerated(exps, tau, d), (exps, tau, d)

    def test_degree_zero(self):
        for exps in ([(0,), (1,)], [(0, 0), (1, 0), (0, 1)]):
            tau = [log2 + 1, -log3] + [F(1, 2) * log2] * (len(exps) - 2)
            assert hilbert_weight(exps, tau, 0) == hilbert_weight_rows(exps, tau, 0) == LL()

    def test_near_tie_with_log2(self, monkeypatch):
        # a rational within 10^-20 of log 2 beside log 2 itself: only the
        # exact row sign orders them
        q = F(693147180559945309417232121458, 10**30)
        calls = count_row_signs(monkeypatch)
        for exps, tau, d in [([(0,), (1,), (1,)], [log3, log2, q], 12),
                             ([(0, 0), (1, 0), (0, 1), (1, 0)], [0, q + log3, 1, log2 + log3], 8)]:
            calls.clear()
            value = hilbert_weight(exps, tau, d)
            assert calls, (exps, tau)
            assert value == hilbert_weight_rows(exps, tau, d) == hilbert_weight_enumerated(exps, tau, d)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_slots_at_the_edge_of_their_width(self, sign):
        # every step's constant is sign * big, so the last table's constant
        # slot sums to sign * entries * D * big; at D = 1 two entries of one
        # key differ by 2 * big in both slots.  Both sit just inside the width.
        big = 2**61 + 1
        for d in range(1, 9):
            exps = [(0,), (1,), (1,)]
            tau = [sign * big + big * log2, sign * big - 3 * log2, sign * big + (big - 1) * log3]
            value = hilbert_weight(exps, tau, d)
            assert value.constant == sign * (d + 1) * d * big
            assert value == hilbert_weight_rows(exps, tau, d)
        exps, tau = [(0,), (0,), (1,)], [big + big * log2, -big - big * log2, 0]
        assert hilbert_weight(exps, tau, 1) == hilbert_weight_rows(exps, tau, 1) == big + big * log2
        # points of Z^0 (one entry per degree) weighted by +-(q log 2 - p) for
        # a best approximation p/q of log 2: the rows differ by twice the
        # largest entry, and by under 10^-18 in value, so the exact sign
        # reads the unpacked difference
        r = F(exactnum.approximate(log2, 256)[0]).limit_denominator(2**60)
        tau = [r.denominator * log2 - r.numerator, r.numerator - r.denominator * log2]
        for d in range(1, 4):
            value = hilbert_weight([()] * 2, tau, d)
            assert value == hilbert_weight_rows([()] * 2, tau, d) == d * abs(tau[0])

    def test_constant_past_the_double_range(self, monkeypatch):
        # 10^400 has no double, and a sum of four 5 * 10^307 overflows one:
        # every comparison takes the exact row sign
        calls = count_row_signs(monkeypatch)
        huge, large = 10**400 + log2, 5 * 10**307 + log2
        for exps, tau in [([(0,), (1,), (2,)], [huge, log3, 0]), ([(0,), (1,), (1,)], [huge, huge - log3, huge + log3]),
                          ([(0,), (1,), (1,)], [large, large - log3, large + log3])]:
            for d in range(6):
                calls.clear()
                value = hilbert_weight(exps, tau, d)
                assert value == hilbert_weight_rows(exps, tau, d) == hilbert_weight_enumerated(exps, tau, d)
                assert calls or d < 2, (exps, d)

    def test_row_signs_on_the_cubic(self, monkeypatch):
        # work guard: the README cubic's archimedean tables are settled by
        # their doubles alone (the unpacked rows took 2,480 row signs at
        # D = 32 and 10,080 at D = 64)
        calls = count_row_signs(monkeypatch)
        for d in (32, 64):
            arithmetic_hilbert_norm(CUBIC, d)
            assert len(calls) == 0, d


class TestArithmeticHilbert:
    def test_distinct_exponents_degree_one(self):
        assert arithmetic_hilbert_norm(CUBIC, 1) == LL()

    def test_unit_coefficients(self):
        pair = MonomialPair.make([(0,), (1,), (3,)], [1, 1, 1])
        for d in range(1, 4):
            assert arithmetic_hilbert_norm(pair, d) == LL()

    def test_place_decomposition(self):
        rng = random.Random(23)
        for _ in range(200):
            pair = rand_pair(rng, max_terms=3, span=3)
            d = rng.randint(1, 3)
            from toricheight.geomkernel import lattice_normalize

            coords, _, _ = lattice_normalize(pair.exponents)
            total = LL()
            for v in relevant_places(pair.coefficients):
                total = total + hilbert_weight(coords, weight_vector(pair, v), d)
            assert arithmetic_hilbert_norm(pair, d) == total

    def test_gap_refuses_degree_below_one(self, monkeypatch):
        # refused before the Hilbert norm or the height is computed
        for name in ("arithmetic_hilbert_norm", "normalized_height", "lattice_normalize"):
            monkeypatch.setattr(toric, name, lambda *args, _name=name: pytest.fail(f"{_name} called"))
        for d in (0, -1):
            for gap in (hilbert_asymptotic_gap_exact, hilbert_asymptotic_gap):
                with pytest.raises(ValueError, match="degree must be positive"):
                    gap(CUBIC, d)

    def test_gap_trend_on_cubic(self):
        g2 = hilbert_asymptotic_gap_exact(CUBIC, 2)
        g4 = hilbert_asymptotic_gap_exact(CUBIC, 4)
        g8 = hilbert_asymptotic_gap_exact(CUBIC, 8)
        assert certified_sign(g8 - g2) < 0
        assert certified_sign(g8 - g4) < 0

    def test_gap_shrinks_at_high_degree(self):
        gaps = []
        for d in (8, 32, 128):
            started = time.monotonic()
            gaps.append(hilbert_asymptotic_gap_exact(CUBIC, d))
            assert time.monotonic() - started < 10, d
        assert certified_sign(gaps[1] - gaps[0]) < 0 and certified_sign(gaps[2] - gaps[1]) < 0

    def test_gap_zero_for_units(self):
        pair = MonomialPair.make([(0,), (1,), (2,)], [1, 1, 1])
        for d in (1, 2, 4):
            assert hilbert_asymptotic_gap_exact(pair, d) == LL()

    def test_whole_line_is_torsion(self):
        # the closure of s -> (1 : 2s) is all of P^1, so the finite place
        # cancels the archimedean one at every degree
        pair = MonomialPair.make([(0,), (1,)], [1, 2])
        assert normalized_height(pair).value == LL()
        for d in (1, 3, 5):
            assert hilbert_asymptotic_gap_exact(pair, d) == LL()

    def test_chow_hilbert_consistency(self):
        exps = [(i,) for i in range(6)]
        tau = [-3, 0, 1, -1, 0, -2]
        e = chow_weight(exps, tau)

        def gap(d):
            return abs(2 * hilbert_weight(exps, tau, d) / d**2 - e)

        assert certified_sign(gap(8) - gap(2)) < 0


class TestSymmetricSum:
    def test_unit_coefficients(self):
        pair = MonomialPair.make([(0,), (1,), (2,)], [1, 1, 1])
        assert symmetric_height_sum(pair) == LL()

    def test_sign_units(self):
        pair = MonomialPair.make([(0,), (1,), (2,)], [1, -1, -1])
        assert symmetric_height_sum(pair) == LL()

    def test_matches_two_heights(self):
        rng = random.Random(29)
        for _ in range(100):
            pair = rand_pair(rng)
            lhs = symmetric_height_sum(pair)
            rhs = normalized_height(pair).value + normalized_height(invert(pair)).value
            assert lhs == rhs


class TestConstructions:
    def test_invert_coefficients(self):
        assert invert(CUBIC).coefficients == (F(1), F(1, 4), F(3), F(2))

    def test_power_height(self):
        assert normalized_height(power(CUBIC, 2)).value == 14 * log2 + 6 * log3

    def test_translate_height(self):
        assert normalized_height(translate(CUBIC, (1,), 5)).value == 7 * log2 + 3 * log3

    def test_join_identities(self):
        rng = random.Random(31)
        for _ in range(200):
            p = rand_pair(rng, max_terms=3, span=3)
            q = rand_pair(rng, max_terms=3, span=3)
            j = join(p, q)
            assert degree(j) == degree(p) * degree(q)
            expected = (
                normalized_height(p).value * degree(q)
                + degree(p) * normalized_height(q).value
            )
            assert normalized_height(j).value == expected

    def test_segre_identities(self):
        rng = random.Random(37)
        for _ in range(200):
            p = rand_pair(rng, max_terms=3, span=3)
            q = rand_pair(rng, max_terms=3, span=3)
            s = segre(p, q)
            n = normalized_height(p).dim
            m = normalized_height(q).dim
            assert degree(s) == comb(n + m, n) * degree(p) * degree(q)
            expected = comb(n + m + 1, m) * normalized_height(p).value * degree(q) + comb(
                n + m + 1, n
            ) * degree(p) * normalized_height(q).value
            assert normalized_height(s).value == expected

    def test_veronese_identities(self):
        rng = random.Random(41)
        for _ in range(200):
            p = rand_pair(rng, max_terms=3, span=3)
            d = rng.randint(1, 3)
            v = veronese(p, d)
            r = normalized_height(p).dim
            assert degree(v) == d**r * degree(p)
            assert normalized_height(v).value == d ** (r + 1) * normalized_height(p).value

    def test_veronese_cap(self):
        # C(3 + 3, 3) = 20 monomials of degree 3 in the cubic's 4 coordinates
        with pytest.raises(EnumerationCapError, match="20 monomials"):
            veronese(CUBIC, 3, cap=19)
        assert veronese(CUBIC, 3, cap=20).size == 20

    def test_veronese_on_cubic(self):
        assert normalized_height(veronese(CUBIC, 2)).value == 4 * (7 * log2 + 3 * log3)

    def test_monomial_image_validation(self):
        with pytest.raises(ValueError):
            monomial_image(CUBIC, [(1, 0, 0, 0), (0, 2, 0, 0)], [1, 1])
        with pytest.raises(ValueError):
            monomial_image(CUBIC, [(1, 0, 0, 0)], [0])

    def test_segre_curve_through_p7(self):
        base = MonomialPair.make([(0,), (1,), (1,), (1,)], [1, 2, F(1, 3), F(3, 2)])
        rows = []
        for picks in product((0, 1), repeat=3):
            rows.append((3 - sum(picks),) + picks)
        curve = monomial_image(base, rows, [1] * len(rows))
        assert normalized_height(curve).value == 6 * log2 + 6 * log3
        assert symmetric_height_sum(curve) / 2 == 6 * log2 + 6 * log3


class TestOrbits:
    def test_cubic_orbits(self):
        orbits = orbit_decomposition(CUBIC)
        assert len(orbits) == 3
        dims = sorted(face.dim for face, _ in orbits)
        assert dims == [0, 0, 1]
        for face, sub in orbits:
            rep = normalized_height(sub)
            if face.dim == 0:
                assert rep.value == LL()
            else:
                assert rep.value == 7 * log2 + 3 * log3

    def test_square_orbit_count(self):
        pair = MonomialPair.make([(0, 0), (1, 0), (0, 1), (1, 1)], [1, 2, 3, 5])
        assert len(orbit_decomposition(pair)) == 9

    def test_theta_restriction(self):
        rng = random.Random(43)
        from toricheight.geomkernel import face_lattice
        from toricheight.roof import restrict_to_face

        checked = 0
        while checked < 200:
            pair = rand_pair(rng, n=rng.choice((1, 2)), max_terms=4, span=2)
            orbits = orbit_decomposition(pair)
            for v in relevant_places(pair.coefficients):
                parent = roof_from_weight(pair.exponents, weight_vector(pair, v))
                plat = face_lattice(parent.domain)
                for face, sub in orbits:
                    sub_roof = roof_from_weight(sub.exponents, weight_vector(sub, v))
                    restricted = restrict_to_face(parent, face, plat)
                    for g in sub_roof.generators:
                        assert roof_eval(sub_roof, g.base) == roof_eval(restricted, g.base)
                        checked += 1


class TestFunctionFieldHeight:
    def test_zero_weights(self):
        assert function_field_height([(0,), (1,)], [0, 0]) == 0

    def test_quintic(self):
        exps = [(i,) for i in range(6)]
        tau = [-3, 0, 1, -1, 0, -2]
        h = function_field_height(exps, tau)
        assert h == chow_weight(exps, tau) + chow_weight(exps, [-t for t in tau])

    def test_degenerate_lift(self):
        # collinear lifted points: zero-volume hull, height zero on both routes
        exps = [(0,), (1,)]
        tau = [0, 1]
        h = function_field_height(exps, tau)
        assert h == 0
        assert h == chow_weight(exps, tau) + chow_weight(exps, [-t for t in tau])

    def test_random_matches_chow_sum(self):
        rng = random.Random(47)
        for _ in range(100):
            exps = rand_full_lattice_exponents(rng, rng.randint(2, 5))
            tau = [rng.randint(-5, 5) for _ in exps]
            h = function_field_height(exps, tau)
            assert h == chow_weight(exps, tau) + chow_weight(exps, [-t for t in tau])

    def test_non_full_lattice_rejected(self):
        with pytest.raises(LatticeHypothesisError):
            function_field_height([(0,), (3,), (6,)], [0, 1, 0])
