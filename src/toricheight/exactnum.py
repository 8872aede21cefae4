"""Exact rational arithmetic, places of Q, and log-linear numbers.

A log-linear number is an element of the Q-vector space spanned by
``{1} | {log p : p prime}``.  Because 1 and the logarithms of the primes
are linearly independent over Q, equality of log-linear numbers is exact
coefficient-wise equality and the sign of a nonzero element can be
certified by interval arithmetic at high enough precision.  Places come
from a bounded factorizer (trial division, Pollard-Brent rho, BPSW).  Logs,
intervals and decimals are exact results rounded once (``_round``).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate
from math import gcd, inf, isqrt, lcm, log, nextafter
from operator import mul
from sys import float_info

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
    """Sorted ``(prime, exponent)`` pairs of |n|, n != 0 (0 raises): trial
    division, then Pollard-Brent rho (Brent, BIT 20, 1980) on composite
    cofactors.  Rho and the primality tests share one ``_spend`` count."""
    if not n:  # every prime divides 0: trial division would never end
        raise ValueError("0 has no prime factorization")
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


class _Record:
    """Base of the package's immutable values: ``__init__`` sets the
    ``_fields`` once with ``object.__setattr__``; ``==``, hash, ``repr``,
    pickling and copying follow them unless a class defines its own."""

    __slots__ = ()

    def _astuple(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._astuple() == other._astuple() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):  # an instance dictionary carries its cached properties along
        return type(self), self._astuple(), getattr(self, "__dict__", None)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class Place(_Record):
    """A place of Q: the archimedean absolute value or a p-adic one."""

    __slots__ = _fields = ("prime",)

    def __init__(self, prime: int | None = None):  # None marks the archimedean place
        if prime is not None and not _is_prime(prime):
            raise ValueError(f"{prime} is not a prime")
        object.__setattr__(self, "prime", prime)

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


class LogLinearNumber(_Record):
    """Exact element ``constant + sum coeff * log(p)`` of the log-linear span.

    ``logterms`` holds ``(prime, coefficient)`` pairs with primes strictly
    ascending and no zero coefficients, so representation is canonical.
    """

    __slots__ = _fields = ("constant", "logterms")

    def __init__(self, constant: Fraction = Fraction(0), logterms: tuple[tuple[int, Fraction], ...] = ()):
        if logterms:
            primes = [p for p, _ in logterms]
            if primes != sorted(set(primes)):
                raise ValueError("log terms must have strictly ascending primes")
            if any(c == 0 for _, c in logterms):
                raise ValueError("zero coefficients must not be stored")
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "logterms", logterms)

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

    @classmethod
    def _trusted(cls, constant: Fraction, logterms: tuple) -> "LogLinearNumber":
        """A number of log terms known to be strictly ascending and nonzero, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "logterms", logterms)
        return self

    @staticmethod
    def _make(constant: Fraction, terms: dict[int, Fraction]) -> "LogLinearNumber":
        return LogLinearNumber._trusted(constant, tuple(sorted((p, c) for p, c in terms.items() if c != 0)))

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
        return LogLinearNumber._trusted(-self.constant, tuple((p, -c) for p, c in self.logterms))

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
            return LogLinearNumber._trusted(self.constant * q, tuple((p, c * q) for p, c in self.logterms))
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
        lo, hi = _interval(self, 64)  # each end to 53 bits before the sum, as mpmath's default context
        mid = _round(_round(lo, 53) + _round(hi, 53), 53) / 2
        return float(mid) if abs(mid) < 1 << 1024 else inf if mid > 0 else -inf

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


def _round(x: Fraction, prec: int, rnd: int = 0) -> Fraction:
    """x rounded to prec significant bits: toward -inf (rnd < 0), toward
    +inf (rnd > 0) or to nearest with ties to even (rnd 0)."""
    n, d, a = x.numerator, x.denominator, abs(x.numerator)
    if a.bit_length() <= prec and d & (d - 1) == 0:  # a dyadic that fits
        return x
    k = a.bit_length() - d.bit_length() - prec - 2  # q gets prec + 2 or prec + 3 bits
    q, r = divmod(a << -k, d) if k < 0 else divmod(a, d << k)
    s = q.bit_length() - prec
    low, q, k = q & ((1 << s) - 1), q >> s, k + s
    if rnd == 0:
        q += low > 1 << (s - 1) or low == 1 << (s - 1) and bool(r or q & 1)
    elif (rnd > 0) == (n > 0):  # away from zero
        q += bool(low or r)
    q = q if n > 0 else -q
    return Fraction(q << k) if k >= 0 else Fraction(q, 1 << -k)


@functools.lru_cache(maxsize=64)  # the floor and the ceiling of one log share it
def _log_fixed(n: int, w: int) -> tuple[int, int]:
    """``(v, e)``, |v - 2^w log n| <= e for an integer n >= 2: r square roots
    take n to z near 1, and log n = 2^(r+1) atanh((z - 1)/(z + 1)) is summed
    in fixed point (Brent and Zimmermann, Modern Computer Arithmetic, 4.4);
    16 units a term bound the errors of the roots, quotient, terms and tail."""
    r, one, y = isqrt(w >> 3) + n.bit_length().bit_length(), 1 << w, n << w
    for _ in range(r):
        y = isqrt(y << w)
    s = u = ((y - one) << w) // (y + one)
    t2, k = u * u >> w, 0
    while u:
        k += 1
        u = u * t2 >> w
        s += u // (2 * k + 1)
    return s << (r + 1), (16 * k + 40) << (r + 1)


@functools.lru_cache(maxsize=1 << 12)
def _log(n: int, prec: int, rnd: int) -> Fraction:
    """log n (an integer n >= 2) rounded to prec bits as ``_round`` does, by Ziv's strategy
    (ACM TOMS 17, 1991): the working precision widens until both ends of the enclosure round alike."""
    w = prec + 20
    while True:
        g = w + isqrt(w) + w.bit_length() + n.bit_length().bit_length() + 8  # guard bits for the 2^(r+1)
        v, e = _log_fixed(n, g)
        lo = _round(Fraction(v - e, 1 << g), prec, rnd)
        if lo == _round(Fraction(v + e, 1 << g), prec, rnd):
            return lo
        w *= 2


def _interval(x: LogLinearNumber, prec: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of x at prec bits in ``mpmath.iv``'s order: each integer rounded
    out to prec bits (p before its log), and each end of a quotient, product or sum
    the least or greatest exact one (its sign says which), rounded outward."""

    def rational(c: Fraction):  # iv.mpf(numerator) / denominator
        (n0, n1), (d0, d1) = ([_round(Fraction(m), prec, r) for r in (-1, 1)] for m in (c.numerator, c.denominator))
        return _round(n0 / (d1 if c > 0 else d0), prec, -1), _round(n1 / (d0 if c > 0 else d1), prec, 1)

    lo, hi = rational(x.constant)
    for p, c in x.logterms:
        (c0, c1), (l0, l1) = rational(c), (_log(int(_round(Fraction(p), prec, r)), prec, r) for r in (-1, 1))
        a, b = (c0 * l0, c1 * l1) if c > 0 else (c0 * l1, c1 * l0)
        lo, hi = _round(lo + _round(a, prec, -1), prec, -1), _round(hi + _round(b, prec, 1), prec, 1)
    return lo, hi


@functools.lru_cache(maxsize=1 << 16)
def certified_sign(x) -> int:
    """Sign (-1, 0 or +1) of the real number x, log-linear or rational:
    zero exactly (all coefficients zero), else ``_row_sign`` of the
    coefficients times their common denominator."""
    x = as_loglinear(x)
    if x.is_zero:
        return 0
    return _row_sign(_integer_row([x.constant, *(c for _, c in x.logterms)]), tuple(p for p, _ in x.logterms))


@functools.lru_cache(maxsize=1 << 8)
def _float_logs(primes: tuple[int, ...]) -> tuple[float, ...]:
    """log p rounded to 80 bits, then to a double."""
    return tuple(float(_log(p, 80, 0)) for p in primes)


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


def _row_sign(row, primes: tuple[int, ...]) -> int:
    """Sign of a nonzero integer row's value: ``_filter_sign``, else ``_interval_sign``."""
    return _filter_sign(row, primes) or _interval_sign(tuple(row), primes)


@functools.lru_cache(maxsize=1 << 16)
def _interval_sign(row: tuple[int, ...], primes: tuple[int, ...]) -> int:
    """Sign of a nonzero integer row's value by intervals at doubling precision: one
    excludes zero, as a nonzero coefficient vector is a nonzero real."""
    x, prec = LogLinearNumber._make(Fraction(row[0]), dict(zip(primes, map(Fraction, row[1:])))), 64
    while True:
        lo, hi = _interval(x, prec)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        prec *= 2


def value_sign(x) -> int:
    """Sign of an exact value, rational or log-linear."""
    if isinstance(x, LogLinearNumber):
        return certified_sign(x)
    x = x if isinstance(x, int) else as_fraction(x)
    return (x > 0) - (x < 0)


def approximate(x: LogLinearNumber, bits: int) -> tuple[str, float]:
    """``(decimal_string, error)``, ``("0", 0.0)`` for exact zero: error bounds the distance from x to
    the exact decimal of the string (a float read from it may be farther).  A nonzero bound is never 0:
    outside the normal double range it is the least double at or above ``_approximate``'s decimal."""
    text, err = _approximate(x, bits)
    if isinstance(err, str):
        err = f if (f := float(err)) >= Fraction(err) else nextafter(f, inf)
    return text, err


def _approximate(x, bits: int) -> tuple[str, float | str]:
    """``approximate`` in mpmath's arithmetic at bits + 32, to nearest; a bound outside the
    normal double range is printed to 15 digits after a 2^-40 margin, so it stays above."""
    if not 16 <= bits <= MAX_BITS:
        raise ValueError(f"need between 16 and {MAX_BITS} bits, got {bits}")
    x = as_loglinear(x)
    if x.is_zero:
        return "0", 0.0
    lo, hi = _interval(x, bits + 16)
    wp, margin = bits + 32, 1 + Fraction(1, 1 << 40)
    mid, radius = _round(lo + hi, wp) / 2, _round(hi - lo, wp) / 2
    text = _to_str(mid, max(3, int(bits * 0.30103) + 2))
    # printing error plus a binary/decimal conversion allowance
    err = _round(radius + abs(_round(mid - _from_str(text, wp), wp)), wp)
    err = _round(_round(err + Fraction(1, 1 << bits + 8), wp) * margin, wp)
    f = float(e) if (e := _round(err, 53)) < 1 << 1024 else inf
    return text, f if float_info.min <= f < inf else _to_str(_round(err * margin, wp), 15)


def _pow10(n: int, prec: int, rnd: int) -> Fraction:
    """10^n cut down (rnd -1) or up (1) to prec bits as mpmath's ``mpf_pow_int`` cuts it: 10^-n is
    1 / 10^n at prec + 5 bits cut the other way.  (Past 10^333 its binary powering cuts each product
    4 log2(n) + 4 bits below prec, which moves the last bit about once in 2^30 cases.)"""
    if n < 0:
        return _round(1 / _pow10(-n, prec + 5, -rnd), prec, rnd)
    return _round(Fraction(10**n), prec, rnd)


def _to_str(x: Fraction, dps: int) -> str:
    """mpmath's ``nstr(x, dps)``: dps + 3 digits cut from a fixed point of
    (dps + 3) log2(10) + 10 bits (past 2^3500, of x over a power of ten),
    rounded half up to dps, trailing zeros stripped; fixed point for decimal
    exponents strictly between min(-(dps // 3), -5) and dps."""
    if not x:
        return "0.0"
    sign, x = "-" * (x < 0), abs(x)
    bitprec, exponent = int((dps + 3) * log(10, 2)) + 10, 0
    n, d = x.numerator, x.denominator
    if abs(mag := n.bit_length() - d.bit_length() + 1) > 3500:
        exp = (n & -n).bit_length() - 1 if d == 1 else 1 - d.bit_length()  # of the odd mantissa
        b = exp * _log(2, ep := abs(exp).bit_length() + 5, -1) / _log(10, ep, -1)
        exponent = int(_round(b, ep, -1 if b > 0 else 1))
        x = _round(x / _pow10(exponent, bitprec, -1), bitprec, -1)
        mag = x.numerator.bit_length() - x.denominator.bit_length() + 1
    fixdps = int((fixprec := max(bitprec - mag, 0)) / log(10, 2) + 0.5)
    digits = str((x.numerator << fixprec) // x.denominator * 10**fixdps >> fixprec)
    exponent += len(digits) - fixdps - 1
    if len(digits) > dps and digits[dps] in "56789":
        digits = str(int(digits[:dps]) + 1)
        exponent += len(digits) > dps
    digits, split = digits[:dps], 1
    if min(-(dps // 3), -5) < exponent < dps:
        digits, split = ("0" * -exponent + digits, 1) if exponent < 0 else (digits + "0" * (exponent + 1 - dps), exponent + 1)
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    return sign + digits + "0" * digits.endswith(".") + (f"e{exponent:+d}" if exponent else "")


def _from_str(text: str, prec: int) -> Fraction:
    """mpmath's ``mpf(text)`` at prec bits, to nearest: past a decimal exponent of 400,
    the integer cut toward 0 to prec + 10 bits times ``_pow10`` at prec + 10 bits."""
    mantissa, _, e = text.partition("e")
    whole, _, frac = mantissa.partition(".")
    man, exp = int(whole + frac.rstrip("0")), int(e or 0) - len(frac.rstrip("0"))
    if abs(exp) <= 400:
        return _round(man * Fraction(10) ** exp, prec)
    return _round(_round(Fraction(man), prec + 10, -1 if man > 0 else 1) * _pow10(exp, prec + 10, -1), prec)


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
