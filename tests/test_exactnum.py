import random
from collections import Counter
from fractions import Fraction
from math import inf, isqrt, prod
from operator import mul

import mpmath
import pytest

from oracles import is_prime_oracle, prime_factors_oracle
from toricheight import exactnum
from toricheight.errors import FactorizationLimitError, ToricHeightError
from toricheight.exactnum import (
    MAX_BITS,
    LogLinearNumber,
    Place,
    _is_prime,
    _prime_factors,
    _strong_lucas,
    approximate,
    as_loglinear,
    certified_sign,
    log_abs,
    padic_order,
    relevant_places,
)

LL = LogLinearNumber
log2 = LL.log_prime(2)
log3 = LL.log_prime(3)


def rand_rational(rng, max_abs=30, max_den=12):
    num = rng.randint(-max_abs, max_abs)
    while num == 0:
        num = rng.randint(-max_abs, max_abs)
    return Fraction(num, rng.randint(1, max_den))


class TestPadicOrder:
    def test_examples(self):
        assert padic_order(4, 2) == 2
        assert padic_order(Fraction(1, 2), 2) == -1
        assert padic_order(Fraction(1, 3), 2) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            padic_order(0, 2)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            padic_order(3, 4)


class TestLogAbs:
    def test_examples(self):
        assert log_abs(4, Place.infinite()) == 2 * log2
        assert log_abs(Fraction(1, 2), Place.finite(2)) == log2
        assert log_abs(Fraction(1, 3), Place.finite(2)) == LL()

    def test_sign_discarded(self):
        assert log_abs(-4, Place.infinite()) == 2 * log2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            log_abs(0, Place.infinite())

    def test_multiplicative(self):
        rng = random.Random(7)
        for _ in range(50):
            q, r = rand_rational(rng), rand_rational(rng)
            for v in relevant_places([q, r]):
                assert log_abs(q * r, v) == log_abs(q, v) + log_abs(r, v)


class TestRelevantPlaces:
    def test_cubic_coefficients(self):
        places = relevant_places([1, 4, Fraction(1, 3), Fraction(1, 2)])
        assert [str(v) for v in places] == ["inf", "2", "3"]

    def test_units(self):
        assert [str(v) for v in relevant_places([1, 1])] == ["inf"]

    def test_factorization(self):
        assert [str(v) for v in relevant_places([6, Fraction(1, 5)])] == ["inf", "2", "3", "5"]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            relevant_places([1, 0])

    def test_product_formula(self):
        rng = random.Random(11)
        for _ in range(200):
            q = rand_rational(rng)
            total = LL()
            for v in relevant_places([q]):
                total = total + log_abs(q, v)
            assert total == LL()


class TestCertifiedSign:
    def test_examples(self):
        assert certified_sign(LL()) == 0
        assert certified_sign(3 * log2 - log3) == 1
        assert certified_sign(1 - log3) == -1

    def test_rationals_in_a_fresh_cache(self):
        # the answer must not depend on an equal log-linear number signed earlier
        certified_sign.cache_clear()
        assert [certified_sign(Fraction(3, 2)), certified_sign(Fraction(-3, 2)), certified_sign(Fraction(0))] == [1, -1, 0]
        assert certified_sign(2) == 1

    def test_close_call(self):
        # log(9) - 2 log(3) is exactly zero only coefficient-wise; a nearby
        # nonzero combination must still resolve
        x = 16 * log2 - 11 - LL.from_rational(Fraction(9035, 100000))
        # 16 log 2 = 11.0903548...
        assert certified_sign(x) == 1

    def test_matches_float(self):
        rng = random.Random(3)
        for _ in range(200):
            x = LL.from_rational(rand_rational(rng)) + rand_rational(rng) * log2
            x = x + rand_rational(rng) * log3
            text, err = approximate(x, 64)
            val = float(text)
            if abs(val) > err:
                assert certified_sign(x) == (1 if val > 0 else -1)


def interval_only_sign(x):
    """The sign of a log-linear number by mpmath intervals alone, at
    doubling precision from the interval context's own."""
    if x.is_zero:
        return 0
    iv, old = mpmath.iv, mpmath.iv.prec
    try:
        while True:
            total = iv.mpf(x.constant.numerator) / x.constant.denominator
            for p, c in x.logterms:
                total += iv.mpf(c.numerator) / c.denominator * iv.log(p)
            if total.a > 0 or total.b < 0:
                return 1 if total.a > 0 else -1
            iv.prec *= 2
    finally:
        iv.prec = old


def rand_sign_case(rng):
    """Log-linear numbers of every kind the sign must face: small mixed
    combinations, one-signed ones, near ties (a rational close to a log
    combination), and coefficients or constants too large for a double."""
    kind = rng.randrange(5)
    primes = rng.sample((2, 3, 5, 7, 11), rng.randint(1, 3))
    logs = sum((rand_rational(rng, 9, 5) * LL.log_prime(p) for p in primes), LL())
    if kind == 0:
        return logs + rand_rational(rng)
    if kind == 1:  # every coefficient of one sign
        x = sum((Fraction(rng.randint(1, 9), rng.randint(1, 4)) * LL.log_prime(p) for p in primes), LL(Fraction(rng.randint(0, 5))))
        return x if rng.random() < 0.5 else -x
    if kind == 2:  # a near tie: the rational within 10^-k of the logs
        k = rng.randint(5, 40)
        with mpmath.workprec(200):
            q = Fraction(int(mpmath.nint(float_of(logs) * 10**k)), 10**k)
        return logs - q + Fraction(rng.randint(-1, 1), 10 ** (k + rng.randint(1, 8)))
    big = rng.randint(10**310, 10**400) * rng.choice((1, -1))
    if kind == 3:  # a constant too large for a double against large log terms
        return LL(Fraction(big, rng.randint(1, 7))) + sum(
            (Fraction(rng.randint(10**300, 10**400) * rng.choice((1, -1))) * LL.log_prime(p) for p in primes), LL())
    with mpmath.workprec(1600):  # a near tie of coefficients too large for a double
        x = Fraction(big) * LL.log_prime(primes[0]) + Fraction(rng.randint(1, 10**320)) * LL.log_prime(11 if primes[0] != 11 else 13)
        return x - int(mpmath.floor(float_of(x))) - rng.randint(0, 1)


def float_of(x):
    """The value of a log-linear number in mpmath at the working precision."""
    return mpmath.mpf(x.constant.numerator) / x.constant.denominator + sum(
        mpmath.mpf(c.numerator) / c.denominator * mpmath.log(p) for p, c in x.logterms)


class TestFilteredSign:
    """``certified_sign`` runs its value's integer row through the double
    filter first; only what the filter cannot tell goes to intervals."""

    def test_filter_decides_without_intervals(self, monkeypatch):
        calls = []
        interval = exactnum._interval
        monkeypatch.setattr(exactnum, "_interval", lambda *args: calls.append(1) or interval(*args))
        certified_sign.cache_clear()
        values = [3 * log2 - log3, 1 - log3, log3 - log2 - Fraction(2, 5), Fraction(-7, 3), 2 * log2 + log3]
        assert [certified_sign(x) for x in values] == [1, -1, 1, -1, 1]
        assert not calls
        rng = random.Random(197)
        decided = 0
        for _ in range(400):
            x = rand_sign_case(rng)
            if exactnum._filter_sign(exactnum._integer_row([x.constant, *(c for _, c in x.logterms)]), tuple(p for p, _ in x.logterms)):
                calls.clear()
                certified_sign(x)
                assert not calls, x
                decided += 1
        assert decided > 150

    def test_agrees_with_intervals_alone(self):
        certified_sign.cache_clear()
        rng = random.Random(199)
        kinds = Counter()
        for _ in range(2400):
            x = rand_sign_case(rng)
            huge = any(abs(c.numerator) > 10**308 for c in (x.constant, *(c for _, c in x.logterms)))
            kinds[huge] += 1
            assert certified_sign(x) == interval_only_sign(x), x
        assert kinds[True] > 800 and kinds[False] > 1200


def previous_filter_sign(row, primes):
    """``_filter_sign`` as it read before its double sum and bound moved to
    ``_float_row``, the reference for the shared helper."""
    try:
        terms = [float(row[0]), *map(mul, row[1:], exactnum._float_logs(primes))]
        if abs(total := sum(terms)) > sum(map(abs, terms)) * len(row) * 2.0**-50:
            return 1 if total > 0 else -1
    except OverflowError:
        pass
    return 0


class TestFloatRow:
    """``_float_row`` is the one double evaluation of an integer row, for
    the sign filter and the Hilbert table alike."""

    def test_bound_encloses_the_interval(self):
        rng = random.Random(211)
        kinds, signs = Counter(), Counter()
        for _ in range(2400):
            x = rand_sign_case(rng) if rng.random() < 0.9 else LL(rand_rational(rng))
            primes = tuple(p for p, _ in x.logterms)
            row = exactnum._integer_row([x.constant, *(c for _, c in x.logterms)])
            value, bound = exactnum._float_row(row, primes)
            kinds[bound == inf] += 1
            lo, hi = exactnum._interval(LL._make(Fraction(row[0]), dict(zip(primes, map(Fraction, row[1:])))), 128)
            # exact: the ends are Fractions, and so is each double; an infinite bound encloses anything
            assert bound == inf or Fraction(value) - Fraction(bound) <= lo and hi <= Fraction(value) + Fraction(bound), row
            signs[sign := exactnum._filter_sign(row, primes)] += 1
            assert sign == previous_filter_sign(row, primes), row
        assert kinds[True] > 500 and kinds[False] > 1200
        assert signs[0] > 500 and signs[1] > 300 and signs[-1] > 300


class TestApproximate:
    def test_height_value(self):
        text, err = approximate(7 * log2 + 3 * log3, 64)
        assert text.startswith("8.14786")
        assert err <= 2.0**-60

    def test_zero(self):
        assert approximate(LL(), 64) == ("0", 0.0)

    def test_log2(self):
        text, _ = approximate(log2, 64)
        assert text.startswith("0.693147")

    def test_bits_floor(self):
        with pytest.raises(ValueError):
            approximate(log2, 8)

    def test_bits_ceiling(self):
        text, _ = approximate(log2, MAX_BITS)
        assert text.startswith("0.693147")
        with pytest.raises(ValueError, match=str(MAX_BITS)):
            approximate(log2, MAX_BITS + 1)

    def test_additivity_within_bounds(self):
        rng = random.Random(5)
        for _ in range(50):
            a = rand_rational(rng) * log2 + rand_rational(rng)
            b = rand_rational(rng) * log3 + rand_rational(rng)
            ta, ea = approximate(a, 64)
            tb, eb = approximate(b, 64)
            ts, es = approximate(a + b, 64)
            # the bounds certify the strings; reading them as float64 costs
            # up to one ulp each
            slop = 1e-13 * max(1.0, abs(float(ts)))
            assert abs(float(ts) - float(ta) - float(tb)) <= ea + eb + es + slop


class TestLogLinearNumber:
    def test_canonical_printing(self):
        assert str(LL()) == "0"
        assert str(7 * log2 + 3 * log3) == "7*log(2) + 3*log(3)"
        assert str(LL.from_rational(Fraction(1, 2)) - 3 * log2) == "1/2 - 3*log(2)"
        assert str(-2 * log3) == "-2*log(3)"

    def test_equality_is_coefficientwise(self):
        assert 2 * log2 + log3 == log3 + 2 * log2
        assert 2 * log2 != 2 * log3
        assert LL.from_rational(3) == 3
        assert hash(LL.from_rational(3)) == hash(Fraction(3))

    def test_scalar_arithmetic(self):
        x = 3 * log2 - Fraction(1, 2)
        assert x / 3 == log2 - Fraction(1, 6)
        assert -x == Fraction(1, 2) - 3 * log2
        assert x * 0 == LL()

    def test_irrational_product_rejected(self):
        with pytest.raises(TypeError):
            log2 * log3
        with pytest.raises(TypeError):
            log2 / log3

    def test_rational_product_allowed(self):
        assert log2 * LL.from_rational(2) == 2 * log2

    def test_ordering(self):
        assert log3 > log2
        assert log2 < 1
        assert 3 * log2 > 2

    def test_coefficient_map(self):
        m = (7 * log2 + 3 * log3 + Fraction(1, 4)).coefficient_map()
        assert m == {"constant": Fraction(1, 4), "2": Fraction(7), "3": Fraction(3)}

    def test_abs(self):
        assert abs(log2 - log3) == log3 - log2

    def test_constructor_checks_its_terms(self):
        for terms in (((3, Fraction(1)), (2, Fraction(1))), ((2, Fraction(1)), (2, Fraction(2)))):
            with pytest.raises(ValueError, match="strictly ascending primes"):
                LL(Fraction(0), terms)
        with pytest.raises(ValueError, match="zero coefficients must not be stored"):
            LL(Fraction(1), ((2, Fraction(1)), (3, Fraction(0))))

    def test_unchecked_terms_pass_the_check(self):
        # sums, negations and products build their terms unchecked: each
        # result is what the checking constructor makes of the same terms
        rng = random.Random(191)

        def rand_ll():
            primes = sorted(rng.sample([2, 3, 5, 7], rng.randint(0, 3)))
            return LL(rand_rational(rng), tuple((p, rand_rational(rng)) for p in primes))

        for _ in range(300):
            x, y, q = rand_ll(), rand_ll(), rand_rational(rng)
            for z in (x + y, x - y, x + (y - x), -x, x * q, q * x, x / q, x * 0, LL._make(y.constant, dict(x.logterms))):
                checked = LL(z.constant, z.logterms)
                assert type(z) is LL and z == checked and hash(z) == hash(checked) and repr(z) == repr(checked)


class TestPlace:
    def test_validation(self):
        with pytest.raises(ValueError):
            Place.finite(6)

    def test_ordering(self):
        places = [Place.finite(5), Place.infinite(), Place.finite(2)]
        assert [str(v) for v in sorted(places, key=Place.sort_key)] == ["inf", "2", "5"]

    def test_as_loglinear(self):
        assert as_loglinear(Fraction(2, 3)) == LL.from_rational(Fraction(2, 3))
        assert as_loglinear(log2) is log2


def _next_prime(n):
    while not _is_prime(n):
        n += 1
    return n


class TestFactorizer:
    # the smallest strong pseudoprimes to the first 4, 11, 12 and 13 prime bases, with their factors
    STRONG_PSEUDOPRIMES = {
        3215031751: (151, 751, 28351),
        3825123056546413051: (149491, 747451, 34233211),
        318665857834031151167461: (399165290221, 798330580441),
        3317044064679887385961981: (1287836182261, 2575672364521),
    }
    CARMICHAEL = (
        561, 1105, 1729, 41041, 825265, 321197185, 5394826801, 232250619601, 9746347772161,
        1436697831295441, 7156857700403137441, 1791562810662585767521, 87674969936234821377601,
        6553130926752006031481761, 1590231231043178376951698401,
    )
    # the strong Lucas pseudoprimes below 10^5 for Selfridge's parameters (OEIS A217255)
    STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439)

    def test_small_against_oracle(self):
        for n in range(1, 20_000):
            assert _prime_factors(n) == prime_factors_oracle(n), n
            assert _prime_factors(-n) == _prime_factors(n)
            assert _is_prime(n) == is_prime_oracle(n), n

    def test_zero_raises_before_trial_division(self, monkeypatch):
        # every prime divides 0, so trial division by 2 would never end: it
        # must not start (it begins with the square root of the cofactor)
        monkeypatch.setattr(exactnum, "isqrt", lambda n: pytest.fail("trial division started on 0"))
        with pytest.raises(ValueError, match="0 has no prime factorization"):
            _prime_factors(0)

    def test_random_below_10_12_against_oracle(self):
        rng = random.Random(12)
        for n in [rng.randrange(1, 10**12) for _ in range(40)]:
            assert _prime_factors(n) == prime_factors_oracle(n), n

    def test_products_of_large_primes(self):
        # the cofactor left by the smaller primes is prime, so rho only has to
        # find the 10-digit ones
        rng = random.Random(13)
        for _ in range(8):
            primes = [_next_prime(rng.randrange(10**9, 10**10)) for _ in range(rng.randint(1, 3))]
            primes.append(_next_prime(rng.randrange(10**9, 10**25)))
            n = prod(primes)
            factors = _prime_factors(n)
            assert prod(p**k for p, k in factors) == n
            assert all(_is_prime(p) for p, _ in factors)
            assert factors == tuple(sorted(Counter(primes).items()))

    def test_rejects_pseudoprimes(self):
        for n, factors in self.STRONG_PSEUDOPRIMES.items():
            assert prod(factors) == n and not _is_prime(n)
            assert _prime_factors(n) == tuple((p, 1) for p in factors)
        for n in self.CARMICHAEL:
            factors = prime_factors_oracle(n)
            assert len(factors) > 1 and all(k == 1 and (n - 1) % (p - 1) == 0 for p, k in factors)
            assert not _is_prime(n) and _prime_factors(n) == factors

    def test_primes_across_the_deterministic_bound(self):
        # the primes next to the bound on either side
        below, above = 3317044064679887385961813, 3317044064679887385962123
        assert below < exactnum._MR_BOUND < above
        assert _is_prime(below) and _is_prime(above)
        assert not _is_prime(below * above) and not _is_prime(above * above)
        for e in (89, 107, 127, 521):  # Mersenne primes
            assert _is_prime(2**e - 1) and not _is_prime((2**e - 1) * below)
        assert not any(_is_prime(2**e - 1) for e in (101, 103, 109, 137, 139, 149))

    def test_strong_lucas_against_oracle(self):
        for n in range(5, 10**5, 2):
            if isqrt(n) ** 2 != n:
                assert _strong_lucas(n) == (is_prime_oracle(n) or n in self.STRONG_LUCAS_PSEUDOPRIMES), n
        assert all(_strong_lucas(n) for n in self.STRONG_LUCAS_PSEUDOPRIMES)

    def test_step_limit(self, monkeypatch):
        rng = random.Random(14)
        n = _next_prime(rng.randrange(10**14, 10**15)) * _next_prime(rng.randrange(10**14, 10**15))
        monkeypatch.setattr(exactnum, "MAX_RHO_STEPS", 1000)
        for call in (lambda: _prime_factors(n), lambda: relevant_places([Fraction(3, n)])):
            with pytest.raises(FactorizationLimitError, match=f"{n} .*MAX_RHO_STEPS"):
                call()
        assert issubclass(FactorizationLimitError, ToricHeightError)
        assert issubclass(FactorizationLimitError, ValueError)
        # trial division needs no steps; the 13 passes on the 54-bit cofactor spend 702
        assert _prime_factors(2**40 * 3**5 * 1009) == ((2, 40), (3, 5), (1009, 1))
        assert _prime_factors(7 * (10**16 + 61)) == ((7, 1), (10**16 + 61, 1))
        # a pass on the 607-bit prime 2^607 - 1 is charged 607 * (1 + 2^2) steps before it runs
        with pytest.raises(FactorizationLimitError, match=f"{2**607 - 1} .*MAX_RHO_STEPS"):
            _prime_factors(2**607 - 1)

    def test_primality_steps(self):
        # BPSW on 3,217 bits spends (1 + 3) * 3217 * (1 + 12^2) = 1,865,860 steps, under the limit;
        # on 11,213 bits the base-2 pass alone would spend 20,744,050
        assert _prime_factors(2**3217 - 1) == ((2**3217 - 1, 1),)
        with pytest.raises(FactorizationLimitError, match="MAX_RHO_STEPS"):
            _prime_factors(2**11213 - 1)
