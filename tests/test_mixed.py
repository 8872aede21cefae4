import itertools
import json
import random
from fractions import Fraction
from math import factorial

import pytest

from toricheight.errors import LatticeHypothesisError
from toricheight.exactnum import LogLinearNumber, as_loglinear, certified_sign
import toricheight.geomkernel as geomkernel
from toricheight.geomkernel import AffineCell, Polytope, _envelope_map, _integer_points, convex_hull, volume
from toricheight.mixed import (
    EmbeddingFamily,
    _common_normalization,
    _sum_normals,
    mixed_integral,
    mixed_integral_via_mv,
    mixed_volume,
    multi_chow_weight,
    multiheight,
)
from toricheight.roof import (
    Roof,
    lifted_polytope,
    roof_from_generators,
    roof_from_weight,
    roof_integral,
    sup_convolution,
)
from toricheight.toric import MonomialPair, chow_weight, normalized_height

from oracles import (
    _int_det,
    cell_values,
    decoded_map,
    envelope_values_reference,
    mixed_area,
    mixed_integral_reference,
    mixed_volume_reference,
    over_places_reference,
    sum_normals_reference,
)

LL = LogLinearNumber
log2 = LL.log_prime(2)
log3 = LL.log_prime(3)
F = Fraction


def rand_roof(rng, n=1, nonneg=False, span=3):
    count = rng.randint(2, 4)
    if n == 1:
        exps = [(x,) for x in rng.sample(range(-span, span + 1), count)]
    else:
        exps = list({tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(count + 2)})
        while len({e[0] for e in exps}) < 2 or len({e[1] for e in exps}) < 2:
            exps = list({tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(count + 2)})
    lo = 0 if nonneg else -3
    weights = [
        F(rng.randint(lo, 3)) * log2 + F(rng.randint(lo, 3), rng.randint(1, 2))
        for _ in exps
    ]
    return roof_from_weight(exps, weights)


def rand_polytope(rng, n=2):
    pts = [tuple(F(rng.randint(0, 4)) for _ in range(n)) for _ in range(n + 3)]
    return convex_hull(pts)


def full_sum_polarization(count, measure_of_subset):
    """Reference polarization: every subset measured from scratch."""
    total = None
    for size in range(1, count + 1):
        sign = -1 if (count - size) % 2 else 1
        for subset in itertools.combinations(range(count), size):
            term = measure_of_subset(subset) * sign
            total = term if total is None else total + term
    return total


def all_sums(point_sets):
    points = point_sets[0]
    for ps in point_sets[1:]:
        points = [tuple(a + b for a, b in zip(p, q)) for p in points for q in ps]
    return points


def full_sum_mixed_volume(polys):
    """Hull of every vertex sum of each subset."""
    return full_sum_polarization(
        len(polys), lambda s: convex_hull(all_sums([polys[i].vertices for i in s])).volume()
    )


def full_sum_mixed_integral(roofs):
    """Roof of every generator sum of each subset."""
    n = len(roofs) - 1

    def measure(subset):
        gens = all_sums([[(*g.base, g.lift) for g in roofs[i].generators] for i in subset])
        return roof_integral(roof_from_generators([(p[:n], p[n]) for p in gens]))

    return as_loglinear(full_sum_polarization(n + 1, measure))


def rand_any_roof(rng, n):
    """Roof over 1 to 4 exponents in a small box: repeated, collinear and
    single-point bases come up often."""
    exps = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:  # force collinear bases
        step = tuple(rng.randint(0, 1) for _ in range(n))
        exps = [tuple(k * x for x in step) for k in range(rng.randint(1, 3))]
    weights = [rng.randint(-2, 2) * log2 + rng.randint(-1, 1) * log3 + F(rng.randint(-2, 2), 2) for _ in exps]
    return roof_from_weight(exps, weights)


def floor_below(roof, rng):
    m = roof.min_value()
    return (m if certified_sign(m) <= 0 else LL()) - rng.randint(0, 1)


def rand_lifted(rng, n):
    """A lifted polytope in Q^(n+1): under a roof over a full-dimensional
    domain, or the hull of lifted points whose bases span Q^n."""
    while True:
        if rng.random() < 0.5:
            f = rand_any_roof(rng, n)
            if f.domain.is_full_dimensional:
                return lifted_polytope(f, floor_below(f, rng))
        else:
            points = [
                (*(rng.randint(0, 2) for _ in range(n)), rng.randint(-2, 2) * log2 + rng.randint(-1, 1) * log3 + rng.randint(-1, 1))
                for _ in range(rng.randint(2, n + 4))
            ]
            if convex_hull([p[:n] for p in points]).is_full_dimensional:
                return convex_hull(points)


def rand_rational_member(rng, n, kind):
    """A rational polytope in Q^(n+1): full (kind 0), a vertical segment
    (kind 1) or a single point (kind 2)."""
    if kind == 0:
        return convex_hull(list(itertools.product((0, 1), repeat=n + 1)) + [tuple(rng.randint(0, 2) for _ in range(n + 1))])
    base = tuple(rng.randint(0, 2) for _ in range(n))
    return convex_hull([(*base, rng.randint(-2, 0)), (*base, rng.randint(1, 2))][: 3 - kind])


class TestAgainstFullSums:
    # n and the number of random families per dimension
    SIZES = [(1, 40), (2, 10), (3, 2)]

    def test_mixed_integral(self):
        rng = random.Random(101)
        for n, count in self.SIZES:
            for _ in range(count):
                roofs = [rand_any_roof(rng, n) for _ in range(n + 1)]
                value = mixed_integral(roofs)
                assert value == full_sum_mixed_integral(roofs)
                if all(f.domain.is_full_dimensional for f in roofs):
                    floors = [floor_below(f, rng) for f in roofs]
                    assert mixed_integral_via_mv(roofs, floors) == value

    def test_mixed_volume(self):
        rng = random.Random(103)
        for n, count in self.SIZES:
            for _ in range(count):
                polys = [
                    convex_hull([tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, n + 2))])
                    for _ in range(n)
                ]
                assert mixed_volume(polys) == full_sum_mixed_volume(polys)

    def test_lifted_mixed_volume(self):
        """Lifted polytopes from roofs and from raw lifted points, alone and
        mixed with a rational full polytope, vertical segment or point;
        then a lifted segment and a pair of lifted segments by hand."""
        rng = random.Random(107)
        for n, count in ((1, 20), (2, 10)):
            for i in range(count):
                polys = [rand_lifted(rng, n) for _ in range(n + 1)]
                if i % 2:
                    polys[rng.randrange(n + 1)] = rand_rational_member(rng, n, i // 2 % 3)
                assert mixed_volume(polys) == full_sum_mixed_volume(polys)
        assert mixed_volume([convex_hull([(log2,), (log3,)])]) == log3 - log2
        segments = [convex_hull([(0, log2), (1, log3)]), convex_hull([(0, 0), (2, log2)])]
        assert mixed_volume(segments) == 2 * log3 - 3 * log2

    def test_rational_vertices(self):
        """Vertices and bases off the integer lattice, in halves and thirds."""
        rng = random.Random(127)
        for n, count in ((2, 12), (3, 3)):
            for _ in range(count):
                polys = [
                    convex_hull([tuple(F(rng.randint(0, 4), rng.choice((1, 2, 3))) for _ in range(n)) for _ in range(rng.randint(1, n + 2))])
                    for _ in range(n)
                ]
                assert mixed_volume(polys) == full_sum_mixed_volume(polys)
        for n, count in ((1, 15), (2, 6)):
            for _ in range(count):
                roofs = [
                    roof_from_generators(
                        [(tuple(F(rng.randint(0, 3), 2) for _ in range(n)), rng.randint(-2, 2) * log2 + F(rng.randint(-3, 3), 3)) for _ in range(rng.randint(1, 4))]
                    )
                    for _ in range(n + 1)
                ]
                assert mixed_integral(roofs) == full_sum_mixed_integral(roofs)

    def test_common_hyperplane(self):
        """Summands in translates of one hyperplane: every polytope, or all
        but the first, so that the sum of the others is flat."""
        rng = random.Random(131)
        for n, count in ((2, 10), (3, 4)):
            for _ in range(count):
                normal = tuple(rng.randint(-1, 2) for _ in range(n - 1)) + (1,)
                flat = [self.in_hyperplane(rng, normal, n) for _ in range(n)]
                assert mixed_volume(flat) == full_sum_mixed_volume(flat) == 0
                full = [convex_hull([tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(n + 2)])] + flat[1:]
                assert mixed_volume(full) == full_sum_mixed_volume(full)
        for n, count in ((1, 5), (2, 8)):
            for _ in range(count):
                normal = tuple(rng.randint(-1, 2) for _ in range(n - 1)) + (1,)
                roofs = [
                    roof_from_generators([(v, rng.randint(-2, 2) * log3 + rng.randint(-2, 2)) for v in self.in_hyperplane(rng, normal, n).vertices])
                    for _ in range(n + 1)
                ]
                roofs[0] = rand_any_roof(rng, n) if rng.random() < 0.5 else roofs[0]
                assert mixed_integral(roofs) == full_sum_mixed_integral(roofs)

    @staticmethod
    def in_hyperplane(rng, normal, n):
        """A polytope of up to four points on <normal, x> = c, for a random c."""
        c = rng.randint(-2, 2)
        points = []
        for _ in range(rng.randint(1, 4)):
            head = tuple(rng.randint(-2, 2) for _ in range(n - 1))
            points.append(head + (c - sum(a * b for a, b in zip(normal, head)),))
        return convex_hull(points)

    def test_point_domains(self):
        """Roofs over one point and point polytopes, mixed with others."""
        rng = random.Random(137)
        for n, count in ((1, 10), (2, 8), (3, 2)):
            for _ in range(count):
                roofs = [rand_any_roof(rng, n) for _ in range(n + 1)]
                for i in rng.sample(range(n + 1), rng.randint(1, n + 1)):
                    roofs[i] = roof_from_weight([tuple(rng.randint(0, 2) for _ in range(n))], [rng.randint(-2, 2) * log2 + 1])
                assert mixed_integral(roofs) == full_sum_mixed_integral(roofs)
                polys = [rand_polytope(rng, n) for _ in range(n)]
                polys[rng.randrange(n)] = convex_hull([tuple(rng.randint(0, 2) for _ in range(n))])
                assert mixed_volume(polys) == full_sum_mixed_volume(polys) == 0

    def test_four_dimensional_mixed_volume(self):
        rng = random.Random(139)
        for _ in range(2):
            polys = [convex_hull([tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(rng.randint(2, 4))]) for _ in range(4)]
            assert mixed_volume(polys) == full_sum_mixed_volume(polys)
        cube = convex_hull(list(itertools.product((0, 1), repeat=4)))
        assert mixed_volume([cube] * 4) == full_sum_mixed_volume([cube] * 4) == factorial(4)

    def test_cli_point_domain(self, capsys, tmp_path):
        """The CLI's mixed-integral of a segment roof and a point roof."""
        from toricheight.cli import main

        roofs = [roof_from_weight([(0,), (1,)], [1, 2]), roof_from_weight([(0,)], [3])]
        assert mixed_integral(roofs) == full_sum_mixed_integral(roofs) == 3
        path = tmp_path / "mi.json"
        path.write_text(json.dumps([{"exponents": [[0], [1]], "weights": ["1", "2"]}, {"exponents": [[0]], "weights": ["3"]}]))
        assert main(["--format", "symbolic", "mixed-integral", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_against_mixed_area_oracle(self):
        """Plane mixed volumes of rational polygons, segments and points
        against A(P + Q) - A(P) - A(Q) by the shoelace formula."""
        rng = random.Random(149)
        for _ in range(60):
            sets = [
                [tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(2)) for _ in range(rng.choice((1, 2, 2, 3, 5, 7)))]
                for _ in range(2)
            ]
            assert mixed_volume([convex_hull(s) for s in sets]) == mixed_area(*sets)


def count_calls(monkeypatch, name, modules):
    """Count the calls of a geomkernel function made through the named
    modules' bindings."""
    import importlib

    real = getattr(importlib.import_module("toricheight.geomkernel"), name)
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(importlib.import_module(f"toricheight.{module}"), name, counting)
    return calls


class TestFacetRecursionWork:
    """The recursion makes n - 1 sup-convolutions per level, the last one
    read for its cells (none in 1-D), no ``Roof`` and no cell; no
    hull for a plane mixed volume, no polytope for a Minkowski sum's
    normals, and neither a Minkowski sum nor a lifted hull for a mixed
    volume of lifted polytopes."""

    @pytest.mark.parametrize("n, envelopes", [(1, 0), (2, 1)])
    def test_envelopes_per_mixed_integral(self, monkeypatch, n, envelopes):
        rng = random.Random(151 + n)
        calls = count_calls(monkeypatch, "_graph_simplices", ("mixed",))  # the sup-convolution's cells
        for _ in range(10):
            roofs = [rand_roof(rng, n) for _ in range(n + 1)]
            calls.clear()
            mixed_integral(roofs)
            assert len(calls) == envelopes

    def test_no_roof_or_cell_polytope(self, monkeypatch):
        """Mixed integrals, lifted mixed volumes and multiheights read their
        vertex-value maps from one hull's upper facets: no ``Roof`` is built
        and no cell's polytope is read."""
        rng = random.Random(173)
        roofs = [[rand_roof(rng, n) for _ in range(n + 1)] for n in (1, 2, 2, 2)]
        lifted = [[rand_lifted(rng, n) for _ in range(n + 1)] for n in (1, 2, 2)]
        families = []
        for _ in range(3):
            exps = [[(0, 0), (1, 0), (0, 1), *((rng.randint(0, 2), rng.randint(0, 2)) for _ in range(2))] for _ in range(3)]
            families.append(EmbeddingFamily(tuple(
                MonomialPair.make(e, [F(rng.randint(1, 12), rng.randint(1, 12)) for _ in e]) for e in exps)))
        expected = [full_sum_mixed_integral(r) for r in roofs] + [full_sum_mixed_volume(p) for p in lifted]
        heights = [multiheight(f).value for f in families]
        monkeypatch.setattr(Roof, "__init__", lambda *args: pytest.fail("a Roof was built"))
        monkeypatch.setattr(AffineCell, "polytope", property(lambda cell: pytest.fail("a cell polytope was read")))
        assert [mixed_integral(r) for r in roofs] + [mixed_volume(p) for p in lifted] == expected
        assert [multiheight(f).value for f in families] == heights

    def test_no_hull_for_plane_mixed_volume(self, monkeypatch):
        rng = random.Random(157)
        calls = count_calls(monkeypatch, "convex_hull", ("geomkernel",))
        calls += count_calls(monkeypatch, "_hull_core", ("geomkernel", "mixed"))
        for _ in range(20):
            polys = [rand_polytope(rng, 2) for _ in range(2)]
            polys[rng.randrange(2)] = convex_hull([(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 2))])
            calls.clear()
            mixed_volume(polys)
            assert not calls

    def test_no_polytope_for_sum_normals(self, monkeypatch):
        # one hull core per full-dimensional sum, read for its normals
        rng = random.Random(167)
        families = [[rand_polytope(rng, n) for _ in range(n)] for n in (3, 3, 4)]
        expected = [mixed_volume(polys) for polys in families]
        hulls = count_calls(monkeypatch, "_hull_core", ("mixed",))
        monkeypatch.setattr(Polytope, "__init__", lambda *args: pytest.fail("a Polytope was built"))
        assert [mixed_volume(polys) for polys in families] == expected
        assert hulls

    def test_no_sum_or_lifted_hull_for_lifted_mixed_volume(self, monkeypatch):
        rng = random.Random(163)
        families = [[rand_lifted(rng, n) for _ in range(n + 1)] for n in (1, 1, 2)]
        sums = count_calls(monkeypatch, "minkowski_sum", ("geomkernel",))
        hulls = count_calls(monkeypatch, "_build_lifted", ("geomkernel",))
        for polys in families:
            mixed_volume(polys)
        assert not sums and not hulls


class TestReadFromTheHull:
    """Vertex-value maps read from the lifts of the upper facets' points,
    and Minkowski-sum normals read from the simplicial facets of one hull
    core, against the routes they replaced (``tests/oracles.py``)."""

    def test_envelope_map_against_cell_values(self):
        rng = random.Random(179)
        logs = lambda: rng.randint(-2, 2) * log2 + rng.randint(-1, 1) * log3
        kinds = ("repeated", "flat", "single", "chart", "archimedean")
        charts = 0
        for draw in range(150):
            k = rng.randint(1, 3)
            kind = kinds[draw % len(kinds)]
            bases = [tuple(rng.randint(0, 2) for _ in range(k)) for _ in range(rng.randint(1, k + 4))]
            if kind == "single":
                bases = bases[:1] * rng.randint(1, 4)
            elif kind == "chart" and k > 1:  # bases on a line or a plane through the first
                steps = [tuple(rng.randint(-1, 1) for _ in range(k)) for _ in range(k - 1)]
                bases = [tuple(b + sum(rng.randint(-1, 2) * s[j] for s in steps) for j, b in enumerate(bases[0])) for _ in range(5)]
            elif kind == "repeated":  # the same base with another lift, and an exact repeat
                bases += [rng.choice(bases), rng.choice(bases)]
            if kind == "flat":
                grad = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
                lift = logs() + rng.randint(-2, 2)
                lifts = [lift + sum(g * x for g, x in zip(grad, b)) for b in bases]
            elif kind == "archimedean":  # log|c| of rational coefficients: no constant part
                lifts = [logs() for _ in bases]
            else:
                lifts = [rng.choice((logs() + F(rng.randint(-3, 3), 2), F(rng.randint(-4, 4), rng.randint(1, 3)))) for _ in bases]
            points = list(zip(bases, lifts))
            if kind == "repeated":
                points.append(points[-1])
            if kind == "single":
                points.append((tuple(map(F, bases[0])), lifts[0]))
            ints, primes, scale = _integer_points([(*b, t) for b, t in points])
            raw = _envelope_map(ints, primes, scale)
            assert all(type(x) is int for v, y in raw.items() for x in (*v, *y))
            new = decoded_map(raw, primes, scale)
            assert new == envelope_values_reference(points)
            charts += 0 < geomkernel._affine_basis(list(new))[1] < k
        assert charts >= 10

    def test_sum_normals_against_hull_facets(self):
        rng = random.Random(181)
        compared = {3: 0, 4: 0, 5: 0}
        for n, draws in ((3, 40), (4, 16), (5, 6)):
            for _ in range(draws):
                sets = [[tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(2, 7 - n))] for _ in range(n - 1)]
                if rng.random() < 0.5:  # coplanar: a unit square in two coordinates, and one more point
                    i, j = rng.sample(range(n), 2)
                    sets[0] = [tuple(int(c in ij) for c in range(n)) for ij in ((i,), (j,), (i, j), ())] + sets[0][:1]
                sets = [points + [rng.choice(points)] for points in sets]  # a repeated point
                sums = {tuple(map(sum, zip(*c))) for c in itertools.product(*sets)}
                if not convex_hull(sums).is_full_dimensional:
                    continue
                normals = _sum_normals(sets, n)
                assert len(set(normals)) == len(normals)
                assert set(normals) == set(sum_normals_reference(sets))
                compared[n] += 1
        assert min(compared.values()) >= 4


def same(new, ref):
    """Equal values of one type, down to a log-linear number's fields."""
    fields = lambda x: (type(x), type(x.constant), tuple(type(c) for _, c in x.logterms)) if isinstance(x, LL) else (type(x),)
    return new == ref and fields(new) == fields(ref)


def lifted_reference(polys):
    """A lifted mixed volume as two mixed integrals of ``cell_values`` maps
    through the log-linear recursion."""
    maps = [[envelope_values_reference([(v[:-1], s * v[-1]) for v in p.vertices]) for p in polys] for s in (1, -1)]
    return sum(as_loglinear(mixed_integral_reference(m)) for m in maps)


def full_lattice_dataset(rng, n):
    """Exponents holding the standard simplex, so that their lattice is
    Z^n, some repeated, with log-linear weights."""
    exps = [tuple(int(i == j) for j in range(n)) for i in range(-1, n)]
    exps += [tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))] + [rng.choice(exps)]
    return exps, [rng.randint(-2, 2) * log2 + rng.randint(-1, 1) * log3 + F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in exps]


class TestAgainstLogLinearRecursion:
    """The facet recursion on integer rows against the log-linear one it
    replaced (``mixed_integral_reference`` on ``cell_values`` maps, and
    ``mixed_volume_reference`` on rational points): equal in value and
    type, and with no log-linear work inside it."""

    @pytest.mark.parametrize("n, draws", [(1, 60), (2, 24), (3, 6)])
    def test_mixed_integrals(self, n, draws):
        rng = random.Random(f"integer recursion {n}")
        for i in range(draws):
            if i % 3 == 0:
                roofs = [rand_roof(rng, n) for _ in range(n + 1)]
            elif i % 3 == 1:  # repeated, collinear and single-point bases
                roofs = [rand_any_roof(rng, n) for _ in range(n + 1)]
            else:  # bases in halves: scale 2
                roofs = [
                    roof_from_generators([(tuple(F(rng.randint(0, 4), 2) for _ in range(n)), rng.randint(-2, 2) * log2 + F(rng.randint(-3, 3), 3))
                                          for _ in range(rng.randint(1, n + 3))])
                    for _ in range(n + 1)
                ]
            assert same(mixed_integral(roofs), as_loglinear(mixed_integral_reference([cell_values(f.cells) for f in roofs])))
            if n < 3 and all(f.domain.is_full_dimensional for f in roofs):
                floors = [floor_below(f, rng) for f in roofs]
                lifted = [lifted_polytope(f, mu) for f, mu in zip(roofs, floors)]
                ref = lifted_reference(lifted)
                for j, mu in enumerate(floors):
                    others = [[v for v in roofs[t].domain.vertices] for t in range(n + 1) if t != j]
                    ref = ref + as_loglinear(mu) * Fraction(mixed_volume_reference(others))
                assert same(mixed_integral_via_mv(roofs, floors), as_loglinear(ref))

    @pytest.mark.parametrize("n, draws", [(1, 20), (2, 10), (3, 2)])
    def test_mixed_volumes(self, n, draws):
        rng = random.Random(f"integer recursion volumes {n}")
        for i in range(draws):
            polys = [rand_lifted(rng, n) for _ in range(n + 1)] if n < 3 else []
            if polys and i % 2:
                polys[rng.randrange(n + 1)] = rand_rational_member(rng, n, i // 2 % 3)
            if polys:
                assert same(mixed_volume(polys), lifted_reference(polys))
            rational = [
                convex_hull([tuple(F(rng.randint(0, 4), rng.choice((1, 2, 3))) for _ in range(n)) for _ in range(rng.randint(1, n + 2))])
                for _ in range(n)
            ]
            assert same(mixed_volume(rational), Fraction(mixed_volume_reference([list(p.vertices) for p in rational])))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_multi_chow_weights(self, n):
        rng = random.Random(f"integer recursion chow {n}")
        for _ in range(12 if n < 3 else 3):
            datasets = [full_lattice_dataset(rng, n) for _ in range(n + 1)]
            ref = mixed_integral_reference([cell_values(roof_from_weight(e, w).cells) for e, w in datasets])
            assert same(multi_chow_weight(datasets), as_loglinear(ref))

    @pytest.mark.parametrize("n, draws", [(1, 6), (2, 3), (3, 1)])
    @pytest.mark.parametrize("style", ["units", "prime powers", "semiprimes"])
    def test_multiheights(self, n, draws, style):
        from test_places import place_family

        rng = random.Random(f"integer recursion multiheight {n} {style}")
        for _ in range(draws):
            family = place_family(rng, n, style)
            coords = _common_normalization(family)
            local = lambda *ws: mixed_integral_reference([envelope_values_reference(list(zip(c, w))) for c, w in zip(coords, ws)])
            per, total = over_places_reference([m.coefficients for m in family.members], local)
            rep = multiheight(family)
            assert same(rep.value, total) and all(v == u and same(x, y) for (v, x), (u, y) in zip(rep.per_place, per))
            assert len(rep.per_place) == len(per)
            assert same(rep.degree, mixed_volume_reference([list(dict.fromkeys(c)) for c in coords[1:]]))

    def test_no_log_linear_work_inside(self, monkeypatch):
        """On integer maps the recursion makes no ``LogLinearNumber``, calls
        no ``value_sign`` or ``certified_sign``, and builds no
        ``upper_envelope`` or ``AffineCell``."""
        import toricheight.mixed as mixed
        import toricheight.roof as roof
        import toricheight.toric as toric
        from toricheight import exactnum

        rng = random.Random(191)
        cases = []
        for n in (1, 1, 2, 2, 2, 3, 3):
            roofs = [(rand_roof if n % 2 else rand_any_roof)(rng, n) for _ in range(n + 1)]
            sets, primes, scale = mixed._joint([[(*g.base, g.lift) for g in f.generators] for f in roofs])
            maps = [_envelope_map(s, primes, scale) for s in sets]
            cases.append((maps, primes, mixed._mixed_integral(maps, primes)))
        convolutions = count_calls(monkeypatch, "_graph_simplices", ("mixed",))
        fail = lambda *args, **kwargs: pytest.fail("log-linear work inside the recursion")
        monkeypatch.setattr(LL, "__init__", fail)
        monkeypatch.setattr(LL, "_trusted", classmethod(fail))
        monkeypatch.setattr(AffineCell, "__init__", fail)
        for module in (exactnum, geomkernel, roof, toric, mixed):
            for name in ("value_sign", "certified_sign", "upper_envelope"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fail)
        for maps, primes, expected in cases:
            assert mixed._mixed_integral(maps, primes) == expected
        assert len(convolutions) >= 3 and all(primes for _, primes, _ in cases)


class TestLineBaseCase:
    """Both facet recursions stop at a line: MV_1(K) = max K - min K, and
    MI_1 of two vertex-value maps by its boundary term and one largest row
    per segment, against the recursions down to n = 0 that they cut short
    (``mixed_volume_reference``, ``mixed_integral_reference``), and with no
    normal, completion, functional or ``_top`` on the way."""

    SHAPES = ("one point", "two points", "shared bases", "any")

    def line_bases(self, rng, shape):
        if shape == "one point":
            return [[(rng.randint(-3, 3),)], [(x,) for x in rng.sample(range(-3, 4), rng.randint(1, 4))]][:: rng.choice((1, -1))]
        if shape == "two points":
            return [[(x,) for x in rng.sample(range(-3, 4), 2)] for _ in range(2)]
        if shape == "shared bases":  # one base list, a base repeated with its own coefficient
            bases = [(x,) for x in rng.sample(range(-3, 4), rng.randint(2, 4))]
            return [bases + [rng.choice(bases)], list(bases)]
        return [[(rng.randint(-3, 3),) for _ in range(rng.randint(1, 5))] for _ in range(2)]

    @pytest.mark.parametrize("style", ["units", "prime powers", "semiprimes"])
    def test_line_integrals_at_every_place(self, style):
        from test_places import place_coeff

        from toricheight.geomkernel import _decode
        from toricheight.mixed import _mixed_integral
        from toricheight.toric import _over_places

        rng = random.Random(f"line base case {style}")
        places = 0
        for draw in range(40):
            bases = self.line_bases(rng, self.SHAPES[draw % len(self.SHAPES)])
            coefficients = [[place_coeff(rng, style) for _ in b] for b in bases]

            def local(*weights):  # as ``multiheight`` reads each place, on any exponents
                primes = weights[0][1]
                maps = [_envelope_map([(*x, *t) for x, t in zip(b, rows)], primes) for b, (rows, _) in zip(bases, weights)]
                return _decode(_mixed_integral(maps, primes), 1, primes)

            per, total = _over_places(coefficients, local)
            reference = lambda *ws: mixed_integral_reference([envelope_values_reference(list(zip(b, w))) for b, w in zip(bases, ws)])
            ref_per, ref_total = over_places_reference(coefficients, reference)
            assert same(total, ref_total) and len(per) == len(ref_per)
            assert all(v == u and same(x, y) for (v, x), (u, y) in zip(per, ref_per))
            places += len(per)
        assert places >= (40 if style == "units" else 120)  # units: the archimedean place alone

    def test_line_volumes(self):
        rng = random.Random("line base case volumes")
        for _ in range(40):
            points = [(F(rng.randint(-6, 6), rng.choice((1, 2, 3))),) for _ in range(rng.randint(1, 4))]
            P = convex_hull(points)
            assert same(mixed_volume([P]), Fraction(mixed_volume_reference([list(P.vertices)])))
        assert mixed_volume([convex_hull([(F(-1, 2),), (F(7, 3),)])]) == F(17, 6)

    def test_no_normal_completion_or_top_over_a_line(self, monkeypatch):
        import toricheight.mixed as mixed

        rng = random.Random("line base case work")
        cases = []
        for draw in range(40):
            bases = self.line_bases(rng, self.SHAPES[draw % len(self.SHAPES)])
            lifts = [[rng.randint(-5, 5) if draw % 2 else rng.randint(-2, 2) * log2 + rng.randint(-1, 1) * log3 for _ in b] for b in bases]
            sets, primes, scale = mixed._joint([[(*x, t) for x, t in zip(b, w)] for b, w in zip(bases, lifts)])
            maps = [_envelope_map(s, primes, scale) for s in sets]
            cases.append((maps, primes, mixed._mixed_integral(maps, primes)))
        fail = lambda *args: pytest.fail("a facet-recursion step over a line")
        for name in ("_sum_normals", "_complement", "_top", "_face", "_project", "_graph_simplices"):
            monkeypatch.setattr(mixed, name, fail)
        calls, recursion = [], mixed._mixed_integral
        monkeypatch.setattr(mixed, "_mixed_integral", lambda *args: calls.append(1) or recursion(*args))
        sign = mixed._sign
        for maps, primes, expected in cases:
            monkeypatch.setattr(mixed, "_sign", sign if primes else fail)  # integers compare as integers
            calls.clear()
            assert mixed._mixed_integral(maps, primes) == expected and calls == [1]
        assert {bool(primes) for _, primes, _ in cases} == {False, True}


class TestMixedVolume:
    def test_diagonal_identity(self):
        rng = random.Random(3)
        for _ in range(60):
            P = rand_polytope(rng)
            assert mixed_volume([P, P]) == 2 * volume(P)

    def test_unit_segments(self):
        s1 = convex_hull([(0, 0), (1, 0)])
        s2 = convex_hull([(0, 0), (0, 1)])
        assert mixed_volume([s1, s2]) == 1

    def test_segment_determinant(self):
        rng = random.Random(5)
        for _ in range(60):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            b = (rng.randint(-3, 3), rng.randint(-3, 3))
            s1 = convex_hull([(0, 0), a])
            s2 = convex_hull([(0, 0), b])
            assert mixed_volume([s1, s2]) == abs(a[0] * b[1] - a[1] * b[0])

    def test_permutation_and_linearity(self):
        from toricheight.geomkernel import minkowski_sum

        rng = random.Random(7)
        for _ in range(60):
            P, Q, R = (rand_polytope(rng) for _ in range(3))
            assert mixed_volume([P, Q]) == mixed_volume([Q, P])
            assert mixed_volume([minkowski_sum(P, R), Q]) == mixed_volume([P, Q]) + mixed_volume([R, Q])

    def test_lattice_completion(self):
        """The rows of ``_complement(w)`` and w form a unimodular matrix."""
        from math import gcd

        from toricheight.mixed import _complement

        rng = random.Random(163)
        for n in range(1, 6):
            for _ in range(40):
                w = [rng.randint(-9, 9) for _ in range(n)]
                if gcd(*w) != 1:
                    continue
                rows = _complement(w)
                assert len(rows) == n - 1
                assert abs(_int_det([list(r) for r in rows] + [w])) == 1

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            mixed_volume([convex_hull([(0, 0), (1, 0)])])


class TestMixedIntegral:
    def test_diagonal_identity(self):
        rng = random.Random(11)
        for _ in range(200):
            f = rand_roof(rng)
            assert mixed_integral([f, f]) == 2 * roof_integral(f)

    def test_diagonal_identity_2d(self):
        rng = random.Random(13)
        for _ in range(10):
            f = rand_roof(rng, n=2)
            assert mixed_integral([f, f, f]) == 6 * roof_integral(f)

    def test_worked_example_all_places(self):
        f_inf = roof_from_weight([(0,), (1,)], [-log2, 2 * log2])
        g_inf = roof_from_weight([(0,), (1,)], [-log3, -log2])
        assert mixed_integral([f_inf, g_inf]) == 2 * log2 - log3
        f2 = roof_from_weight([(0,), (1,)], [log2, -2 * log2])
        g2 = roof_from_weight([(0,), (1,)], [LL(), log2])
        assert mixed_integral([f2, g2]) == 2 * log2
        f3 = roof_from_weight([(0,), (1,)], [LL(), LL()])
        g3 = roof_from_weight([(0,), (1,)], [log3, LL()])
        assert mixed_integral([f3, g3]) == log3

    def test_symmetry(self):
        rng = random.Random(17)
        for _ in range(200):
            f, g = rand_roof(rng), rand_roof(rng)
            assert mixed_integral([f, g]) == mixed_integral([g, f])

    def test_multilinearity(self):
        rng = random.Random(19)
        for _ in range(200):
            f, g, h = (rand_roof(rng) for _ in range(3))
            lhs = mixed_integral([sup_convolution(f, g), h])
            assert lhs == mixed_integral([f, h]) + mixed_integral([g, h])

    def test_nonnegativity(self):
        rng = random.Random(23)
        for _ in range(200):
            f, g = rand_roof(rng, nonneg=True), rand_roof(rng, nonneg=True)
            assert certified_sign(mixed_integral([f, g])) >= 0

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            mixed_integral([rand_roof(random.Random(1)), rand_roof(random.Random(2), n=2)])

    def test_empty_family(self):
        # both routes refuse an empty family alike
        for call in (lambda: mixed_integral([]), lambda: mixed_integral_via_mv([], [])):
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError and str(info.value) == "need at least one roof"

    def test_count_error_names_what_was_given(self):
        # three roofs over a line are not told that they need a 2-D base
        line = roof_from_weight([(0,), (1,)], [0, 1])
        plane = roof_from_weight([(0, 0), (1, 0), (0, 1)], [0, 1, 2])
        need = "need n+1 roofs over bases of dimension n; got "
        for roofs, given in [([line] * 3, "3 roofs over bases of dimension 1"),
                             ([line, plane], "2 roofs over bases of dimension 1, 2"),
                             ([plane] * 2, "2 roofs over bases of dimension 2")]:
            with pytest.raises(ValueError) as info:
                mixed_integral(roofs)
            assert str(info.value) == need + given
            with pytest.raises(ValueError) as info:
                mixed_integral_via_mv(roofs, [-1] * len(roofs))
            assert str(info.value) == need + given


class TestRouteEquivalence:
    def test_flat_cube(self):
        z = roof_from_weight([(0, 0), (1, 0), (0, 1), (1, 1)], [0, 0, 0, 0])
        assert mixed_integral([z, z, z]) == LL()
        assert mixed_integral_via_mv([z, z, z], [-1, -1, -1]) == LL()

    def test_worked_example_dyadic(self):
        f2 = roof_from_weight([(0,), (1,)], [log2, -2 * log2])
        g2 = roof_from_weight([(0,), (1,)], [LL(), log2])
        assert mixed_integral_via_mv([f2, g2], [-2 * log2, LL()]) == 2 * log2

    def test_random_equivalence(self):
        rng = random.Random(29)
        for _ in range(200):
            f, g = rand_roof(rng), rand_roof(rng)
            floors = []
            for r in (f, g):
                m = r.min_value()
                floor = m if certified_sign(m) <= 0 else LL()
                floor = floor - rng.randint(0, 2)
                floors.append(floor)
            assert mixed_integral_via_mv([f, g], floors) == mixed_integral([f, g])

    def test_inadmissible_floor(self):
        f = roof_from_weight([(0,), (1,)], [0, 0])
        with pytest.raises(ValueError):
            mixed_integral_via_mv([f, f], [1, -1])


class TestMultiChow:
    def test_diagonal_is_chow(self):
        A = [(i,) for i in range(6)]
        tau = [-3, 0, 1, -1, 0, -2]
        assert multi_chow_weight([(A, tau), (A, tau)]) == chow_weight(A, tau) == -2

    def test_multidegree_slot(self):
        rng = random.Random(31)
        for _ in range(50):
            a_exps = [(x,) for x in sorted(rng.sample(range(-3, 4), rng.randint(2, 4)))]
            while True:
                from math import gcd

                g = 0
                for x in a_exps[1:]:
                    g = gcd(g, x[0] - a_exps[0][0])
                if g == 1:
                    break
                a_exps = [(x,) for x in sorted(rng.sample(range(-3, 4), 3))]
            b_exps = [(0,), (1,)]
            ones = [1 for _ in a_exps]
            zeros = [0, 0]
            val = multi_chow_weight([(a_exps, ones), (b_exps, zeros)])
            # with an all-ones slot and a zero slot the weight reduces to the
            # length of the second polytope
            assert val == volume(convex_hull([tuple(map(F, e)) for e in b_exps]))

    def test_empty_exponent_list(self):
        for call in (lambda: multi_chow_weight([([], [])]), lambda: multi_chow_weight([([(0,), (1,)], [0, 1]), ([], [])]),
                     lambda: chow_weight([], [])):
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError and str(info.value) == "the exponent list is empty"

    def test_lattice_check(self):
        with pytest.raises(LatticeHypothesisError):
            multi_chow_weight([([(0,), (2,)], [0, 1]), ([(0,), (1,)], [0, 0])])


class TestMultiheight:
    def test_worked_example(self):
        phi = MonomialPair.make([(0,), (1,)], [F(1, 2), 4])
        psi = MonomialPair.make([(0,), (1,)], [F(1, 3), F(1, 2)])
        rep = multiheight(EmbeddingFamily((phi, psi)))
        assert rep.value == 4 * log2
        pm = {str(v): val for v, val in rep.per_place}
        assert pm == {"inf": 2 * log2 - log3, "2": 2 * log2, "3": log3}
        assert rep.scale == 1 and rep.dim == 1 and rep.degree == 1

    def test_diagonal_family_is_height(self):
        rng = random.Random(37)
        for _ in range(60):
            count = rng.randint(2, 4)
            exps = rand_exps_full(rng, count)
            coeffs = [F(rng.choice((1, 2, 3, 4)), rng.choice((1, 2, 3))) for _ in range(count)]
            pair = MonomialPair.make(exps, coeffs)
            rep = multiheight(EmbeddingFamily((pair, pair)))
            assert rep.value == normalized_height(pair).value

    def test_identity_embeddings(self):
        pair = MonomialPair.make([(0,), (1,)], [1, 1])
        rep = multiheight(EmbeddingFamily((pair, pair)))
        assert rep.value == LL()

    def test_member_count_enforced(self):
        pair = MonomialPair.make([(0,), (1,)], [1, 2])
        with pytest.raises(ValueError):
            EmbeddingFamily((pair,))

    def test_common_normalization(self):
        # both lattices are 2Z: a joint normalization applies
        p1 = MonomialPair.make([(0,), (2,)], [1, 2])
        p2 = MonomialPair.make([(0,), (2,), (4,)], [1, 3, 9])
        rep = multiheight(EmbeddingFamily((p1, p2)))
        n1 = MonomialPair.make([(0,), (1,)], [1, 2])
        n2 = MonomialPair.make([(0,), (1,), (2,)], [1, 3, 9])
        assert rep.value == multiheight(EmbeddingFamily((n1, n2))).value

    def test_mismatched_lattices_rejected(self):
        p1 = MonomialPair.make([(0,), (2,)], [1, 2])
        p2 = MonomialPair.make([(0,), (3,)], [1, 3])
        with pytest.raises(LatticeHypothesisError):
            multiheight(EmbeddingFamily((p1, p2)))


def rand_exps_full(rng, count):
    from math import gcd

    while True:
        xs = sorted(rng.sample(range(-3, 4), count))
        g = 0
        for x in xs[1:]:
            g = gcd(g, x - xs[0])
        if g == 1:
            return [(x,) for x in xs]
