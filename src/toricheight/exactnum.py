"""Exact rational arithmetic, places of Q, and log-linear numbers.

A log-linear number is an element of the Q-vector space spanned by
``{1} | {log p : p prime}``.  Because 1 and the logarithms of the primes
are linearly independent over Q, equality of log-linear numbers is exact
coefficient-wise equality and the sign of a nonzero element can be
certified by interval arithmetic at high enough precision.  Places come
from a bounded factorizer (trial division, Pollard-Brent rho, BPSW).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, inf, isqrt, lcm
from operator import mul

import mpmath

from .errors import FactorizationLimitError

__all__ = [
    "Place",
    "LogLinearNumber",
    "as_fraction",
    "as_loglinear",
    "value_sign",
    "certified_sign",
    "approximate",
    "padic_order",
    "log_abs",
    "relevant_places",
    "MAX_BITS",
    "MAX_RHO_STEPS",
]

# past about 14,000 bits a decimal exceeds Python's 4,300-digit str(int) limit
MAX_BITS = 10_000
# 8x the most that any coefficient of the benchmark corpora needs (524,286)
MAX_RHO_STEPS = 1 << 22


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, LogLinearNumber) and x.is_rational:
        return x.constant
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# Miller-Rabin to these bases is deterministic below _MR_BOUND (Sorenson & Webster, Math. Comp. 86, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _jacobi(a: int, n: int) -> int:
    a, t = a % n, 1
    while a:
        z = (a & -a).bit_length() - 1
        a >>= z
        # (2/n) = -1 for n = 3, 5 mod 8; reciprocity flips when a = n = 3 mod 4
        t = -t if (z % 2 == 1 and n % 8 in (3, 5)) != (a % 4 == n % 4 == 3) else t
        a, n = n % a, a
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas test of an odd non-square n with Selfridge's P = 1 and
    Q = (1 - D)/4: D is the first of 5, -7, 9, ... with (D/n) = -1."""
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = 2 - D if D < 0 else -D - 2
    if j == 0:
        return n == abs(D)
    Q, s = (1 - D) // 4, ((n + 1) & -(n + 1)).bit_length() - 1
    U, V, Qk = 1, 1, Q % n  # U_k, V_k and Q^k from k = 1 up to k = (n + 1) >> s
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U, V, Qk = (U + n * (U & 1)) // 2 % n, (V + n * (V & 1)) // 2 % n, Qk * Q % n
    for _ in range(s):
        if U == 0 or V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def _spend(steps: int, count: int, m: int, n: int) -> int:
    """``steps`` plus ``count`` steps modulo m, each counting 1 + (b // 256) ** 2
    for m of b bits, about its cost; past ``MAX_RHO_STEPS`` raise, naming n."""
    if (steps := steps + count * (1 + (m.bit_length() // 256) ** 2)) > MAX_RHO_STEPS:
        raise FactorizationLimitError(f"{abs(n)} was not factored within {MAX_RHO_STEPS:,} steps of Pollard rho "
                                      "and primality tests (exactnum.MAX_RHO_STEPS)")
    return steps


def _probable_prime(m: int, steps: int, n: int) -> tuple[bool, int]:
    """Miller-Rabin below ``_MR_BOUND``; above it BPSW (base 2, then strong
    Lucas), with ``steps`` counted for factoring n: a pass on b bits
    spends b steps (3b for Lucas) before it starts."""
    if m < 2 or any(m % p == 0 for p in _BASES):
        return m in _BASES, steps
    s = ((m - 1) & (1 - m)).bit_length() - 1
    for a in _BASES if m < _MR_BOUND else (2,):
        steps = _spend(steps, m.bit_length(), m, n)
        x = pow(a, (m - 1) >> s, m)  # a strong probable prime: x is 1 or x^(2^i) is -1, i < s
        if x != 1 and m - 1 not in accumulate(range(s - 1), lambda y, _: y * y % m, initial=x):
            return False, steps
    if m < _MR_BOUND or isqrt(m) ** 2 == m:
        return m < _MR_BOUND, steps
    steps = _spend(steps, 3 * m.bit_length(), m, n)
    return _strong_lucas(m), steps


@functools.lru_cache(maxsize=1 << 12)
def _is_prime(n: int) -> bool:
    """Whether n is prime, within a ``MAX_RHO_STEPS`` count of its own."""
    return _probable_prime(n, 0, n)[0]


@functools.lru_cache(maxsize=1 << 12)
def _prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """Sorted ``(prime, exponent)`` pairs of |n| for a nonzero n: trial
    division, then Pollard-Brent rho (Brent, BIT 20, 1980) on composite
    cofactors.  Rho and the primality tests share one ``_spend`` count."""
    found, rest, steps = {}, abs(n), 0
    for p in (2, *range(3, min(isqrt(rest), 1023) + 1, 2)):
        while rest % p == 0:
            rest //= p
            found[p] = found.get(p, 0) + 1
    todo = [rest] if rest > 1 else []
    while todo:
        m = todo.pop()
        prime, steps = _probable_prime(m, steps, n)
        if prime:
            found[m] = found.get(m, 0) + 1
            continue
        c, g = 0, m
        while g == m:  # iterate x -> x^2 + c; a new c if the cycle gives no proper divisor
            c, y, r, g = c + 1, 2, 1, 1
            while g == 1:
                steps = _spend(steps, 2 * r, m, n)
                x, q = y, 1
                for _ in range(r):
                    y = (y * y + c) % m
                for k in range(0, r, 128):  # compare y with x, one gcd per batch
                    ys = y
                    for _ in range(min(128, r - k)):
                        y = (y * y + c) % m
                        q = q * abs(x - y) % m
                    if (g := gcd(q, m)) != 1:
                        break
                r *= 2
            if g == m:  # the batch overshot: retrace it one step at a time
                g = 1
                while g == 1:
                    ys = (ys * ys + c) % m
                    g = gcd(x - ys, m)
        todo += [g, m // g]
    return tuple(sorted(found.items()))


@dataclass(frozen=True)
class Place:
    """A place of Q: the archimedean absolute value or a p-adic one."""

    prime: int | None = None  # None marks the archimedean place

    def __post_init__(self):
        if self.prime is not None and not _is_prime(self.prime):
            raise ValueError(f"{self.prime} is not a prime")

    @classmethod
    def infinite(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def sort_key(self):
        return (0, 0) if self.prime is None else (1, self.prime)

    def __lt__(self, other: "Place"):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        return "inf" if self.prime is None else str(self.prime)


@dataclass(frozen=True)
class LogLinearNumber:
    """Exact element ``constant + sum coeff * log(p)`` of the log-linear span.

    ``logterms`` holds ``(prime, coefficient)`` pairs with primes strictly
    ascending and no zero coefficients, so representation is canonical.
    """

    constant: Fraction = Fraction(0)
    logterms: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        primes = [p for p, _ in self.logterms]
        if primes != sorted(set(primes)):
            raise ValueError("log terms must have strictly ascending primes")
        if any(c == 0 for _, c in self.logterms):
            raise ValueError("zero coefficients must not be stored")

    # -- construction -------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "LogLinearNumber":
        return cls(as_fraction(q), ())

    @classmethod
    def log_prime(cls, p: int, coeff=1) -> "LogLinearNumber":
        c = as_fraction(coeff)
        if c == 0:
            return cls()
        return cls(Fraction(0), ((p, c),))

    @staticmethod
    def _make(constant: Fraction, terms: dict[int, Fraction]) -> "LogLinearNumber":
        items = tuple(sorted((p, c) for p, c in terms.items() if c != 0))
        return LogLinearNumber(constant, items)

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.constant == 0 and not self.logterms

    @property
    def is_rational(self) -> bool:
        return not self.logterms

    def __bool__(self):
        return not self.is_zero

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.logterms)
        for p, c in other.logterms:
            terms[p] = terms.get(p, Fraction(0)) + c
        return self._make(self.constant + other.constant, terms)

    __radd__ = __add__

    def __neg__(self):
        return LogLinearNumber(-self.constant, tuple((p, -c) for p, c in self.logterms))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, LogLinearNumber):
            if other.is_rational:
                other = other.constant
            elif self.is_rational:
                return other * self.constant
            else:
                raise TypeError("product of two irrational log-linear numbers leaves the span")
        if isinstance(other, (int, Fraction)):
            q = as_fraction(other)
            if q == 0:
                return LogLinearNumber()
            return LogLinearNumber(self.constant * q, tuple((p, c * q) for p, c in self.logterms))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, LogLinearNumber):
            if not other.is_rational:
                raise TypeError("division by an irrational log-linear number leaves the span")
            other = other.constant
        q = as_fraction(other)
        return self * (Fraction(1) / q)

    def __rtruediv__(self, other):
        if not self.is_rational:
            raise TypeError("division by an irrational log-linear number leaves the span")
        return as_fraction(other) / self.constant

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, LogLinearNumber):
            return self.constant == other.constant and self.logterms == other.logterms
        if isinstance(other, (int, Fraction)):
            return not self.logterms and self.constant == other
        return NotImplemented

    def __hash__(self):
        if not self.logterms:
            return hash(self.constant)
        return hash((self.constant, self.logterms))

    def sign(self) -> int:
        return certified_sign(self)

    def _cmp(self, other) -> int:
        other = _coerce(other)
        if other is NotImplemented:
            raise TypeError("cannot compare with a non-exact value")
        return certified_sign(self - other)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- output --------------------------------------------------------

    def __float__(self):
        if self.is_zero:
            return 0.0
        lo, hi = _interval(self, 64)
        return float((mpmath.mpf(lo) + mpmath.mpf(hi)) / 2)

    def __str__(self):
        parts = [(c, f"log({p})" if abs(c) == 1 else f"{abs(c)}*log({p})") for p, c in self.logterms]
        if self.constant:
            parts.insert(0, (self.constant, str(abs(self.constant))))
        text = " ".join(("- " if c < 0 else "+ ") + body for c, body in parts)
        return "0" if not parts else text[2:] if parts[0][0] > 0 else "-" + text[2:]

    def __repr__(self):
        return f"LogLinearNumber({self})"

    def coefficient_map(self) -> dict[str, Fraction]:
        """Coefficients keyed by "constant" and the decimal prime strings."""
        out = {"constant": self.constant}
        for p, c in self.logterms:
            out[str(p)] = c
        return out


def _coerce(x):
    if isinstance(x, LogLinearNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return LogLinearNumber.from_rational(x)
    return NotImplemented


def as_loglinear(x) -> LogLinearNumber:
    v = _coerce(x)
    if v is NotImplemented:
        raise TypeError(f"cannot interpret {type(x).__name__} as a log-linear number")
    return v


def _integer_row(values):
    """A rational row times the least common multiple of its denominators."""
    values = [as_fraction(x) for x in values]
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


def _interval(x: LogLinearNumber, prec: int):
    """Certified enclosure of the real value of x at the given binary precision."""
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = prec
        total = iv.mpf(x.constant.numerator) / x.constant.denominator
        for p, c in x.logterms:
            total += (iv.mpf(c.numerator) / c.denominator) * iv.log(p)
        return total.a, total.b
    finally:
        iv.prec = old


@functools.lru_cache(maxsize=1 << 16)
def certified_sign(x) -> int:
    """Sign (-1, 0 or +1) of the real number x, log-linear or rational.

    Zero is decided exactly (all coefficients zero).  Otherwise the
    coefficients times their common denominator go through the double
    filter ``_filter_sign``; past it, intervals at doubling precision
    eventually exclude zero, as a nonzero coefficient vector is a nonzero real.
    """
    x = as_loglinear(x)
    if x.is_zero:
        return 0
    if s := _filter_sign(_integer_row([x.constant, *(c for _, c in x.logterms)]), tuple(p for p, _ in x.logterms)):
        return s
    prec = 64
    while True:
        lo, hi = _interval(x, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2


@functools.lru_cache(maxsize=1 << 8)
def _float_logs(primes: tuple[int, ...]) -> tuple[float, ...]:
    with mpmath.workprec(80):
        return tuple(float(mpmath.log(p)) for p in primes)


def _float_row(row, primes: tuple[int, ...]) -> tuple[float, float]:
    """``row[0] + sum(row[i + 1] * log(primes[i]))`` for integers in doubles,
    and a bound on its error: each term is within 3 rounding units (the
    integer, the log, the product) and summing adds len(row) - 1 units of
    the absolute sum, so 8 * len(row) units of it bound the error.  An
    integer too large for a double gives ``(0.0, inf)``."""
    try:
        terms = [float(row[0]), *map(mul, row[1:], _float_logs(primes))]
        if (bound := sum(map(abs, terms)) * len(row) * 2.0**-50) < inf:
            return sum(terms), bound
    except OverflowError:
        pass
    return 0.0, inf


def _filter_sign(row, primes: tuple[int, ...]) -> int:
    """Sign of an integer row's value when its ``_float_row`` is farther
    from 0 than the bound, else 0 (doubles cannot tell)."""
    value, bound = _float_row(row, primes)
    return (value > bound) - (value < -bound)


def _row_sign(row: tuple[int, ...], primes: tuple[int, ...]) -> int:
    """``_filter_sign`` of an integer row, else ``certified_sign``'s (cached)."""
    return _filter_sign(row, primes) or certified_sign(
        LogLinearNumber._make(Fraction(row[0]), dict(zip(primes, map(Fraction, row[1:])))))


def value_sign(x) -> int:
    """Sign of an exact value, rational or log-linear."""
    if isinstance(x, LogLinearNumber):
        return certified_sign(x)
    x = as_fraction(x)
    return (x > 0) - (x < 0)


def approximate(x: LogLinearNumber, bits: int) -> tuple[str, float]:
    """Decimal approximation of x with a certified error bound.

    Returns ``(decimal_string, error)`` with ``|x - float(decimal_string)|
    <= error``.  Exact zero gives ``("0", 0.0)``.  A bound past the double
    range reads ``inf``; ``_approximate`` gives it as a decimal string.
    """
    text, err = _approximate(x, bits)
    return text, float(err)


def _approximate(x, bits: int) -> tuple[str, float | str]:
    """``approximate``, with an error bound past the double range printed
    to 15 digits after a 2^-40 margin, so that it stays an upper bound."""
    if not 16 <= bits <= MAX_BITS:
        raise ValueError(f"need between 16 and {MAX_BITS} bits, got {bits}")
    x = as_loglinear(x)
    if x.is_zero:
        return "0", 0.0
    lo, hi = _interval(x, bits + 16)
    with mpmath.workprec(bits + 32):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        mid, radius = (lo + hi) / 2, (hi - lo) / 2
        text = mpmath.nstr(mid, max(3, int(bits * 0.30103) + 2))
        # printing error plus a binary/decimal conversion allowance
        err = (radius + abs(mid - mpmath.mpf(text)) + mpmath.mpf(2) ** (-bits - 8)) * (1 + 2**-40)
        return text, float(err) if float(err) < inf else mpmath.nstr(err * (1 + 2**-40), 15)


def padic_order(q, p: int) -> int:
    """Exponent of the prime p in the nonzero rational q."""
    q = as_fraction(q)
    if q == 0:
        raise ValueError("the zero rational has no p-adic order")
    if not _is_prime(p):
        raise ValueError(f"{p} is not a prime")

    def ordp(m: int) -> int:
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        return k

    return ordp(abs(q.numerator)) - ordp(q.denominator)


def log_abs(q, v: Place) -> LogLinearNumber:
    """log of the v-adic absolute value of a nonzero rational q.

    At a finite place p this is ``-ord_p(q) * log p``; at the archimedean
    place it is ``log |q| = sum_p ord_p(q) * log p``.  The constant term is
    always zero.
    """
    q = as_fraction(q)
    if q == 0:
        raise ValueError("log_abs of zero")
    if v.is_finite:
        return LogLinearNumber.log_prime(v.prime, -padic_order(q, v.prime))
    # numerator and denominator are coprime: their primes are distinct
    terms = {p: Fraction(k) for p, k in _prime_factors(q.numerator)}
    terms.update((p, Fraction(-k)) for p, k in _prime_factors(q.denominator))
    return LogLinearNumber._make(Fraction(0), terms)


def relevant_places(coeffs) -> list[Place]:
    """The archimedean place plus every prime dividing a numerator or
    denominator of the given nonzero rationals, primes ascending."""
    primes: set[int] = set()
    for c in coeffs:
        c = as_fraction(c)
        if c == 0:
            raise ValueError("zero coefficient has no relevant places")
        primes.update(p for p, _ in _prime_factors(c.numerator) + _prime_factors(c.denominator))
    return [Place.infinite()] + [Place.finite(p) for p in sorted(primes)]
