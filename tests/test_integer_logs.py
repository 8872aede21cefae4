"""``exactnum``'s plain-integer logs, intervals and decimals against the
``mpmath`` code they replaced (the references in ``oracles.py``): the same
interval ends, the same ``(text, error)`` and the same floats, bit for bit,
on seeded values at 16 to ``MAX_BITS`` bits.  A case that differs is
reported with its input."""

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_int, mpf_ln2, mpf_ln10, mpf_log, mpf_pow_int, round_ceiling, round_down, round_floor
from mpmath.libmp import round_nearest, round_up

from oracles import approximate_mpmath, float_logs_mpmath, float_mpmath, interval_mpmath, mpf_fraction
from toricheight import exactnum
from toricheight.exactnum import MAX_BITS, LogLinearNumber, approximate

LL = LogLinearNumber
PRIMES = (2, 3, 5, 7, 11, 13, 65537, 10**18 + 9, 2**127 - 1, 2**521 - 1, 2**11213 - 1)
MODES = {-1: round_floor, 1: round_ceiling, 0: round_nearest}


def rand_value(rng):
    """A nonzero log-linear number of either sign: small coefficients, ones
    near 10^400, a zero constant, or a constant past 2^3500 or below 2^-3500
    (an odd one, too, whose binary mantissa has no trailing zero)."""
    kind = rng.randrange(6)
    primes = sorted(rng.sample(PRIMES, rng.randint(0, 3)))

    def coefficient():
        if kind == 1:
            return Fraction(rng.randint(10**399, 10**400) * rng.choice((1, -1)), rng.randint(1, 10 ** rng.randint(0, 30)))
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 10**6), rng.randint(1, 1000))

    constant = {
        2: Fraction(0),
        3: rng.choice((1, -1)) * Fraction(rng.randint(1, 10**9)) * Fraction(10) ** rng.randint(-1400, 1400),
        4: Fraction(rng.choice((1, -1)) * rng.randint(10**4200, 10**4299)),
        5: Fraction(rng.randrange(2**3600, 2**4000) | 1),
    }.get(kind) if kind > 1 else coefficient()
    x = LL._make(constant, {p: coefficient() for p in primes})
    return x if x else LL(Fraction(rng.randint(1, 9)))


def rand_bits(rng):
    return rng.choice((16, 17, 53, 64, 128, 500, 1000, 1100, 2000, 3600, 5000, MAX_BITS, rng.randint(16, MAX_BITS)))


class TestAgainstMpmath:
    def test_low_precision(self):
        rng = random.Random(401)
        for _ in range(600):
            x, bits = rand_value(rng), rng.choice((16, 20, 53, 64, 80, 100, 128, 200))
            assert exactnum._interval(x, bits) == interval_mpmath(x, bits), (str(x), bits)
            assert exactnum._approximate(x, bits) == approximate_mpmath(x, bits), (str(x), bits)
            assert float(x) == float_mpmath(x), str(x)

    def test_up_to_max_bits(self):
        rng = random.Random(403)
        texts = set()
        for _ in range(120):
            x, bits = rand_value(rng), rand_bits(rng)
            assert exactnum._interval(x, bits + 16) == interval_mpmath(x, bits + 16), (str(x), bits)
            text, err = exactnum._approximate(x, bits)
            assert (text, err) == approximate_mpmath(x, bits), (str(x), bits)
            texts.add("e" in text)
            assert float(x) == float_mpmath(x), str(x)
        assert texts == {True, False}  # both of the printed forms

    def test_float_logs(self):
        rng = random.Random(405)
        for _ in range(40):
            primes = tuple(sorted(rng.sample(PRIMES, rng.randint(1, 4))))
            assert exactnum._float_logs(primes) == float_logs_mpmath(primes), primes

    def test_directed_logs(self):
        # every precision from 16 to 200 bits and a few past it, for each
        # rounding; p past 2^prec is rounded out to prec bits first
        for prec in [*range(16, 201), 256, 1000, 1024, 4096, MAX_BITS + 16]:
            for p in (2, 3, 5, 10**18 + 9, 2**11213 - 1):
                for rnd, mode in MODES.items():
                    n = int(exactnum._round(Fraction(p), prec, rnd)) if rnd else p
                    assert exactnum._log(n, prec, rnd) == mpf_fraction(mpf_log(from_int(n), prec, mode)), (p, prec, rnd)

    def test_digit_constants(self):
        # log 2 and log 10 rounded down at the few bits the decimal exponent
        # of a number past 2^3500 needs
        for prec in range(5, 64):
            assert exactnum._log(2, prec, -1) == mpf_fraction(mpf_ln2(prec, round_down)), prec
            assert exactnum._log(10, prec, -1) == mpf_fraction(mpf_ln10(prec, round_down)), prec

    def test_powers_of_ten(self):
        # 10^-n is rounded twice, through 10^n at 5 more bits: about one case
        # in a hundred differs from the exact power's rounding
        rng, twice = random.Random(407), 0
        for _ in range(1500):
            n, prec = rng.choice((1, -1)) * rng.randint(0, 5000), rng.choice((16, 53, 100, 1000, 3400, MAX_BITS + 42))
            for rnd, mode in ((-1, round_down), (1, round_up)):
                power = exactnum._pow10(n, prec, rnd)
                assert power == mpf_fraction(mpf_pow_int(from_int(10), n, prec, mode)), (n, prec, rnd)
                twice += power != exactnum._round(Fraction(10) ** n, prec, rnd)
        assert twice > 0

    def test_log_bound(self):
        # the fixed-point log and its error bound, against mpmath at more than twice the bits
        for n in (2, 3, 10, 10**18 + 9, 2**521 - 1, 2**11213 - 1):
            for w in (40, 150, 1100, 4200):
                v, e = exactnum._log_fixed(n, w)
                with mpmath.workprec(2 * w + 64):
                    assert abs(v - mpmath.log(n) * mpmath.mpf(2) ** w) <= e, (n, w)


class TestBoundBelowTheNormalRange:
    """A certified bound below the double range is never 0: ``approximate``
    gives the least double at or above it, the CLI a decimal string."""

    VALUES = (LL.log_prime(2), 7 * LL.log_prime(2) + 3 * LL.log_prime(3), Fraction(1, 3) - LL.log_prime(5), LL(Fraction(-5, 7)))

    @pytest.mark.parametrize("bits", [1000, 1020, 1060, 1100, 2000, 3600, MAX_BITS])
    def test_positive_and_bounding(self, bits):
        for x in self.VALUES:
            text, err = exactnum._approximate(x, bits)
            assert isinstance(err, float) == (bits <= 1000), (str(x), bits, err)
            decimal, bound = approximate(x, bits)
            assert decimal == text and bound > 0
            if isinstance(err, str):
                assert bound >= Fraction(err) > 0
            with mpmath.workprec(2 * bits + 64):
                value = mpmath.mpf(x.constant.numerator) / x.constant.denominator + sum(
                    c.numerator * mpmath.log(p) / c.denominator for p, c in x.logterms)
                assert abs(value - mpmath.mpf(text)) <= mpmath.mpf(err), (str(x), bits)

    def test_log2_at_2000_bits(self):
        text, err = approximate(LL.log_prime(2), 2000)
        assert text.startswith("0.693147") and 0 < err < 1e-300
