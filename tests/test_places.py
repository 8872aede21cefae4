"""The place loop shared by heights, Hilbert norms and multiheights.

Finite places run on the integer orders -ord_p(c) and are scaled by log p.
The reference below is the log-linear place loop it replaced, which lifts
every place's weights to log-linear numbers; both must agree exactly.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

import toricheight.roof
import toricheight.toric
from toricheight.exactnum import LogLinearNumber, Place, as_loglinear, relevant_places
from toricheight.geomkernel import convex_hull, lattice_normalize
from toricheight.mixed import EmbeddingFamily, _common_normalization, mixed_integral, mixed_volume, multiheight
from toricheight.roof import roof_from_weight, roof_integral
from toricheight.toric import (
    MonomialPair,
    arithmetic_hilbert_norm,
    degree,
    hilbert_weight,
    normalized_height,
    weight_vector,
)

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
    return total * factorial(r + 1), tuple(per), degree(pair)


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


def rand_family(rng, n, style):
    members = []
    for _ in range(n + 1):
        exps = simplex_exponents(rng, n, rng.randint(0, 2 if n < 3 else 0))
        members.append(MonomialPair.make(exps, coefficients(rng, len(exps), style)))
    return EmbeddingFamily(tuple(members))


STYLES = ("prime powers", "flat", "units", "single")


class TestAgainstLogLinearLoop:
    """Per-place values, totals and degrees equal the log-linear loop's."""

    @pytest.mark.parametrize("n, draws", [(1, 12), (2, 6), (3, 2)])
    @pytest.mark.parametrize("style", STYLES)
    def test_normalized_height(self, n, draws, style):
        rng = random.Random(f"height {n} {style}")
        for _ in range(draws):
            pair = rand_pair(rng, n, style)
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


def _irrational(values):
    return any(isinstance(x, LL) and not x.is_rational for x in values)


def _record(monkeypatch, module, name, lifts_of):
    """Wrap ``module.name``; each call appends whether it received an
    irrational log-linear value."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        args = (list(args[0]), *args[1:])
        calls.append(_irrational(lifts_of(args)))
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
        calls = _record(monkeypatch, toricheight.roof, "upper_envelope", lambda a: [g[1] for g in a[0]])
        normalized_height(pair)
        places = relevant_places(pair.coefficients)
        assert len(places) > 2 and calls[0]
        _only_first_place(calls, places, 1)

    def test_hilbert_weights(self, monkeypatch):
        pair = MonomialPair.make([(0,), (1,), (2,), (3,)], [1, 4, F(1, 3), F(1, 2)])
        calls = _record(monkeypatch, toricheight.toric, "hilbert_weight", lambda a: a[1])
        arithmetic_hilbert_norm(pair, 4)
        assert calls[0]
        _only_first_place(calls, relevant_places(pair.coefficients), 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_multiheight_envelopes(self, monkeypatch, n):
        rng = random.Random(131 + n)
        family = rand_family(rng, n, "prime powers")
        calls = _record(monkeypatch, toricheight.roof, "upper_envelope", lambda a: [g[1] for g in a[0]])
        multiheight(family)
        places = sorted({v for m in family.members for v in relevant_places(m.coefficients)})
        # n+1 member roofs and the facet recursion's n-1 sup-convolutions per place
        assert calls[0]
        _only_first_place(calls, places, 2 * n)
