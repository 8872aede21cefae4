import copy
import itertools
import json
import pickle
import random
from fractions import Fraction
from math import factorial
from operator import mul

import pytest

import toricheight.geomkernel as geomkernel
import toricheight.roof as roof
import toricheight.toric as toric
from toricheight.cli import main
from toricheight.errors import DimensionLimitError, LatticeHypothesisError
from toricheight.exactnum import LogLinearNumber, as_loglinear, certified_sign
from toricheight.geomkernel import AffineCell, convex_hull, face_lattice, lattice_normalize, triangulate, upper_envelope, volume
from toricheight.mixed import mixed_integral, multi_chow_weight
from toricheight.roof import (
    lifted_polytope,
    restrict_to_face,
    roof_eval,
    roof_from_generators,
    roof_from_weight,
    roof_integral,
    roof_pointwise_sum,
    sup_convolution,
)

from oracles import minor_rank, rational_det, riemann_roof_oracle

LL = LogLinearNumber
log2 = LL.log_prime(2)
log3 = LL.log_prime(3)
F = Fraction

CUBIC_A = [(0,), (1,), (2,), (3,)]
CUBIC_INF = [LL(), 2 * log2, -log3, -log2]
CUBIC_2 = [LL(), -2 * log2, LL(), log2]
CUBIC_3 = [LL(), LL(), log3, LL()]


def rand_roof_1d(rng, lifted=True, nonneg=False):
    n = rng.randint(2, 5)
    xs = rng.sample(range(-4, 5), n)
    weights = []
    for _ in range(n):
        c = F(rng.randint(0 if nonneg else -4, 4), rng.randint(1, 3))
        if lifted:
            w = c * log2 + F(rng.randint(0 if nonneg else -2, 2))
            if nonneg:
                w = abs(c) * log2 + F(rng.randint(0, 2))
        else:
            w = c
        weights.append(w)
    return roof_from_weight([(x,) for x in xs], weights)


def rand_roof_nd(rng, n):
    """Roof over 1 to 5 exponents in {0, 1, 2}^n: single points, repeated
    exponents and degenerate bases come up often."""
    exps = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.3:
        exps = [tuple(k * x for x in exps[0]) for k in range(rng.randint(1, 3))]
    weights = [rng.randint(-3, 3) * log2 + F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in exps]
    return roof_from_weight(exps, weights)


class TestRoofFromWeight:
    def test_cubic_breakpoints(self):
        r = roof_from_weight(CUBIC_A, CUBIC_INF)
        assert sorted(r.vertex_values()) == [(F(0),), (F(1),), (F(3),)]
        assert roof_eval(r, (1,)) == 2 * log2

    def test_quintic_example(self):
        r = roof_from_weight([(i,) for i in range(6)], [-3, 0, 1, -1, 0, -2])
        vv = r.vertex_values()
        assert sorted(vv) == [(F(0),), (F(1),), (F(2),), (F(4),), (F(5),)]
        assert vv[(F(2),)] == 1 and vv[(F(4),)] == 0

    def test_zero_weights(self):
        r = roof_from_weight(CUBIC_A, [0, 0, 0, 0])
        assert roof_eval(r, (F(3, 2),)) == 0
        assert len(r.cells) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            roof_from_weight(CUBIC_A, [0, 0])

    def test_generator_dominance(self):
        rng = random.Random(61)
        for _ in range(40):
            r = rand_roof_1d(rng)
            for g in r.generators:
                assert certified_sign(roof_eval(r, g.base) - g.lift) >= 0

    def test_translation_and_scaling_of_weights(self):
        rng = random.Random(67)
        for _ in range(20):
            r = rand_roof_1d(rng)
            c = F(rng.randint(-3, 3), rng.randint(1, 2))
            shifted = roof_from_generators([(g.base, g.lift + c) for g in r.generators])
            assert set(shifted.vertex_values()) == set(r.vertex_values())
            for v, val in r.vertex_values().items():
                assert roof_eval(shifted, v) == val + c
            k = F(rng.randint(1, 5), rng.randint(1, 2))
            scaled = roof_from_generators([(g.base, g.lift * k) for g in r.generators])
            assert set(scaled.vertex_values()) == set(r.vertex_values())


class TestDomain:
    def test_domain_is_hull_of_bases(self):
        # the derived domain is convex_hull of the generator bases, vertex
        # order included, for full and degenerate roofs alike
        rng = random.Random(89)
        roofs = [roof_from_weight([(2,)], [log3]), roof_from_weight([(0, 1, 2)], [log2])]
        roofs += [rand_roof_1d(rng) for _ in range(4)]
        for dim in (2, 3):
            for _ in range(4):
                pts = {tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(dim + 4)}
                roofs.append(roof_from_weight(sorted(pts), [F(rng.randint(-3, 3)) * log2 for _ in pts]))
        # collinear bases in Q^2 and Q^3, coplanar bases in Q^3
        roofs.append(roof_from_weight([(0, 0), (1, 2), (3, 6), (2, 4)], [log2, -log3, F(1), LL()]))
        roofs.append(roof_from_weight([(1, 0, 1), (2, 1, 1), (4, 3, 1)], [F(1), log3, log2]))
        roofs.append(roof_from_weight([(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)], [log2, F(0), log3, -log2]))
        sums = [roof_pointwise_sum(f, f) for f in roofs[2:5] + roofs[6:8] + roofs[-3:]]
        for f in roofs + sums:
            hull = convex_hull([g.base for g in f.generators])
            assert f.domain.vertices == hull.vertices
            assert (f.domain.affine_dim, f.domain.ambient_dim) == (hull.affine_dim, hull.ambient_dim)
            assert f.domain is f.domain
        assert any(f.domain.affine_dim < f.base_dim for f in roofs[-3:])
        for f, s in zip(roofs[2:5] + roofs[6:8] + roofs[-3:], sums):
            assert s.domain == f.domain


class TestRoofEval:
    def test_chord_value(self):
        r = roof_from_weight(CUBIC_A, CUBIC_INF)
        assert roof_eval(r, (2,)) == log2 / 2

    def test_zero_roof(self):
        r = roof_from_weight(CUBIC_A, [0, 0, 0, 0])
        assert roof_eval(r, (F(7, 3),)) == 0

    def test_triadic(self):
        r = roof_from_weight(CUBIC_A, CUBIC_3)
        assert roof_eval(r, (1,)) == log3 / 2

    def test_outside_domain(self):
        r = roof_from_weight(CUBIC_A, CUBIC_INF)
        with pytest.raises(ValueError):
            roof_eval(r, (4,))


def rebuilt_cell_integral(f):
    """The roof integral cell by cell over hulls rebuilt from each cell's
    vertices, the way it was computed before cells kept their polytopes."""
    r = f.base_dim
    total = F(0)
    for cell in f.cells:
        for simplex in triangulate(convex_hull(cell.vertices)):
            vol = abs(rational_det([tuple(a - b for a, b in zip(q, simplex[0])) for q in simplex[1:]]))
            mean = sum((cell.value_at(v) for v in simplex), F(0)) / (r + 1)
            total = total + vol / factorial(r) * mean
    return total


def assert_cells_keep_their_hulls(f):
    for cell in f.cells:
        rebuilt = convex_hull(cell.vertices)
        assert cell.polytope == rebuilt
        assert cell.polytope.affine_dim == rebuilt.affine_dim
        assert volume(cell.polytope) == volume(rebuilt)


class TestRoofIntegral:
    def test_cells_against_rebuilt_hulls(self):
        rng = random.Random(83)
        roofs = [rand_roof_1d(rng) for _ in range(6)]
        for dim in (2, 3):
            for _ in range(6):
                pts = {tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(dim + 4)}
                pts |= {(0,) * dim} | {tuple(int(i == j) for i in range(dim)) for j in range(dim)}
                lifts = [F(rng.randint(-3, 3), 2) * log2 + rng.randint(-2, 2) for _ in pts]
                roofs.append(roof_from_weight(sorted(pts), lifts))
        # a minimum of two affine functions cuts a grid into large cells
        # that triangulate into several simplices
        coarse = []
        for dim, side in ((2, 3), (3, 2)):
            grid = list(itertools.product(range(side), repeat=dim))
            for _ in range(3):
                g1, g2 = ([rng.randint(-2, 2) for _ in range(dim)] for _ in range(2))
                c = rng.randint(-2, 2)
                lifts = [min(sum(map(mul, g1, a)), sum(map(mul, g2, a)) + c) * log2 + log3 for a in grid]
                coarse.append(roof_from_weight(grid, lifts))
        sums = [roof_pointwise_sum(f, f) for f in (roofs[0], roofs[6], roofs[7])]
        roofs += coarse + sums + [roof_pointwise_sum(coarse[0], coarse[1])]
        assert sum(len(f.cells) > 1 for f in roofs) >= 10
        assert any(len(triangulate(c.polytope)) > 2 for f in roofs for c in f.cells)
        for f in roofs:
            assert_cells_keep_their_hulls(f)
            assert roof_integral(f) == rebuilt_cell_integral(f)

    def test_cubic_local_integrals(self):
        assert roof_integral(roof_from_weight(CUBIC_A, CUBIC_INF)) == 2 * log2
        assert roof_integral(roof_from_weight(CUBIC_A, CUBIC_2)) == F(3, 2) * log2
        assert roof_integral(roof_from_weight(CUBIC_A, CUBIC_3)) == F(3, 2) * log3

    def test_zero(self):
        assert roof_integral(roof_from_weight(CUBIC_A, [0] * 4)) == 0

    def test_riemann_oracle_1d(self):
        rng = random.Random(71)
        for _ in range(20):
            r = rand_roof_1d(rng)
            bases = [tuple(int(x) for x in g.base) for g in r.generators]
            values = [float(g.lift + LL()) for g in r.generators]
            approx, bound = riemann_roof_oracle(bases, values)
            assert abs(float(roof_integral(r) + LL()) - approx) <= bound

    def test_riemann_oracle_2d(self):
        rng = random.Random(73)
        for _ in range(4):
            pts = [(0, 0), (3, 0), (0, 3), (2, 2)]
            weights = [F(rng.randint(-3, 3), rng.randint(1, 2)) * log2 + rng.randint(-1, 1) for _ in pts]
            r = roof_from_weight(pts, weights)
            bases = [tuple(int(x) for x in g.base) for g in r.generators]
            values = [float(g.lift) for g in r.generators]
            approx, bound = riemann_roof_oracle(bases, values)
            exact = float(roof_integral(r) + LL())
            assert abs(exact - approx) <= bound


class TestOneHullPerRoof:
    """A roof's integral is read from its lifted hull: no cell polytope and
    no fan is built for it."""

    def test_integrals_build_no_cell_hull(self, monkeypatch):
        rng = random.Random(109)
        calls, roofs = [], []
        for name in ("_build_rational", "_fan"):
            real = getattr(geomkernel, name)
            monkeypatch.setattr(
                geomkernel, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
            )
        for n in (1, 2, 3, 4):
            grid = list(itertools.product(range(3 if n < 4 else 2), repeat=n))
            for _ in range(3):
                lifts = [rng.randint(-3, 3) * log2 + F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in grid]
                f = roof_from_weight(grid, lifts)
                roofs.append((f, roof_integral(f)))
        assert calls == []
        assert all(len(f.cells) >= 2 for f, _ in roofs)
        for f, value in roofs:
            assert value == rebuilt_cell_integral(f)

    def test_heights_hull_only_the_domain(self, monkeypatch):
        # outside degree()'s domain hull, a height builds one hull per flat
        # roof, whose one cell is the whole domain
        rng = random.Random(113)
        calls, inside = [], []

        def nested(real, record=None):
            def wrapper(*args):
                if record and not inside:
                    record(*args)
                inside.append(real)
                try:
                    return real(*args)
                finally:
                    inside.pop()

            return wrapper

        build = nested(geomkernel._build_rational, lambda points: calls.append(set(points)))
        monkeypatch.setattr(geomkernel, "_build_rational", build)
        monkeypatch.setattr(toric, "degree", nested(toric.degree))
        for n in (2, 3):
            for _ in range(3):
                exps = {(0,) * n} | {tuple(int(i == j) for i in range(n)) for j in range(n)}
                exps = sorted(exps | {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(n + 2)})
                coeffs = [F(rng.randint(1, 12), rng.randint(1, 12)) for _ in exps]
                domain = {tuple(map(F, b)) for b in lattice_normalize(exps)[0]}
                calls.clear()
                toric.normalized_height(toric.MonomialPair.make(exps, coeffs))
                assert all(points == domain for points in calls)


def seeded_generators(rng, n):
    """Generators over bases in {0, 1, 2}^n, rational or log-linear lifts:
    one point, repeats, collinear bases and spans below Q^n come up often."""
    kind = rng.choice(("point", "collinear", "flat", "any"))
    if kind == "point":
        bases = [(1,) * n] * rng.randint(1, 3)
    elif kind == "collinear":
        bases = [tuple(k * (j == 0) + 1 for j in range(n)) for k in range(rng.randint(2, 4))]
    elif kind == "flat" and n > 1:
        bases = [(*(rng.randint(0, 2) for _ in range(n - 1)), 1) for _ in range(rng.randint(2, 6))]
    else:
        bases = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 7))]
    lifts = [rng.randint(-3, 3) * log2 + F(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.7 else F(rng.randint(-3, 3))
             for _ in bases]
    return list(zip(bases, lifts))


@pytest.fixture
def made(monkeypatch):
    """Counts of the upper envelopes and affine cells made from here on."""
    counts = {"envelopes": 0, "cells": 0}
    envelope, init = geomkernel._envelope_cells, AffineCell.__init__

    def counted_envelope(gens):
        counts["envelopes"] += 1
        return envelope(gens)

    def counted_init(cell, *args):
        counts["cells"] += 1
        init(cell, *args)

    for module in (geomkernel, roof):  # public envelopes and lazy cells alike
        monkeypatch.setattr(module, "_envelope_cells", counted_envelope)
    monkeypatch.setattr(AffineCell, "__init__", counted_init)
    return counts


class TestCellsOnFirstRead:
    """A roof holds its generators; its cells are one envelope, made when
    they are first read and not before, so a mixed integral, which reads
    only generators, makes none."""

    def test_construction_makes_no_cell(self, made):
        rng = random.Random(211)
        for n in (1, 2, 3):
            for _ in range(10):
                roof_from_generators(seeded_generators(rng, n))
                rand_roof_nd(rng, n)
        assert made == {"envelopes": 0, "cells": 0}

    def test_mixed_integrals_make_no_cell(self, made):
        rng = random.Random(223)
        for n in (1, 2):
            for _ in range(5):
                exps = [(0,) * n, *(tuple(int(i == j) for i in range(n)) for j in range(n)), (1,) * n]
                datasets = [(exps, [rng.randint(-3, 3) * log2 + rng.randint(-2, 2) for _ in exps]) for _ in range(n + 1)]
                mixed_integral([roof_from_weight(e, w) for e, w in datasets])
                multi_chow_weight(datasets)
        assert made == {"envelopes": 0, "cells": 0}

    def test_cli_mixed_integral_makes_no_cell(self, made, capsys, tmp_path):
        path = tmp_path / "mi.json"
        path.write_text(json.dumps([
            {"exponents": [[0, 0], [1, 0], [0, 1], [1, 1]], "weights": ["0", "1", "1/2", "-3"]},
            {"exponents": [[0, 0], [2, 0], [0, 1]], "weights": ["1", "0", "-2/3"]},
            {"exponents": [[0, 0], [1, 0], [0, 1]], "weights": ["0", "0", "0"]},
        ]))
        assert main(["mixed-integral", str(path)]) == 0
        assert capsys.readouterr().out and made == {"envelopes": 0, "cells": 0}

    def test_cells_made_once(self, made):
        rng = random.Random(227)
        for n in (1, 2, 3):
            for _ in range(10):
                f = roof_from_generators(seeded_generators(rng, n))
                made["envelopes"] = 0
                roof_integral(f)
                f.vertex_values()
                assert made["envelopes"] == 1 and f.cells is f.cells

    def test_cells_are_the_envelope_of_the_input(self):
        # in value, type and order, as when they were made with the roof
        rng = random.Random(229)
        for n in (1, 2, 3):
            for _ in range(20):
                gens = seeded_generators(rng, n)
                cells, expected = roof_from_generators(gens).cells, upper_envelope(gens)
                assert cells == tuple(expected)
                for c, e in zip(cells, expected):
                    assert [(x, type(x)) for x in (*c.points, c.gradient, c.offset, c.integral)] == [
                        (x, type(x)) for x in (*e.points, e.gradient, e.offset, e.integral)]

    def test_one_normalization_per_roof(self, monkeypatch):
        # the lazy cells are built from the exact generators, not normalized again
        rng = random.Random(231)
        exact, runs = geomkernel._exact_pairs, []
        for module in (roof, geomkernel):
            monkeypatch.setattr(module, "_exact_pairs", lambda points: runs.append(1) or exact(points))
        for n in (1, 2, 3):
            for _ in range(10):
                runs.clear()
                f = roof_from_generators(seeded_generators(rng, n))
                roof_integral(f)
                f.vertex_values()
                assert len(runs) == 1
                cells, expected = f.cells, upper_envelope(f.generators)
                assert cells == tuple(expected)
                for c, e in zip(cells, expected):
                    assert [(x, type(x)) for x in (*c.points, c.gradient, c.offset, c.integral)] == [
                        (x, type(x)) for x in (*e.points, e.gradient, e.offset, e.integral)]

    @pytest.mark.parametrize("clone", [lambda f: pickle.loads(pickle.dumps(f)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_round_trips(self, clone):
        rng = random.Random(233)
        for n in (1, 2, 3):
            for _ in range(5):
                gens = seeded_generators(rng, n)
                f = roof_from_generators(gens)
                before = clone(f)
                assert "cells" not in f.__dict__ and "cells" not in before.__dict__ and f.cells
                after = clone(f)
                assert "cells" in after.__dict__
                fresh = roof_from_generators(gens).cells
                for g in (before, after):
                    assert g == f and hash(g) == hash(f) and g.cells == fresh


# exception type and message at construction, as they were when a roof made
# its cells with it
CONSTRUCTION_ERRORS = [
    ("no generator", lambda: roof_from_generators([]), ValueError, "need at least one point"),
    ("mixed base lengths", lambda: roof_from_generators([((0,), 1), ((0, 1), 2)]), ValueError, "dimension mismatch"),
    ("7-D base", lambda: roof_from_generators([((0,) * 7, 1), ((1,) + (0,) * 6, 2)]), DimensionLimitError,
     "ambient dimension 7 exceeds the supported bound 6 (MAX_DIMENSION = 6, one more for a lifted hull)"),
    ("7-D weight", lambda: roof_from_weight([(0,) * 7, (1,) + (0,) * 6], [1, 2]), DimensionLimitError,
     "ambient dimension 7 exceeds the supported bound 6 (MAX_DIMENSION = 6, one more for a lifted hull)"),
    ("unequal lengths", lambda: roof_from_weight([(0,), (1,)], [1]), ValueError, "exponents and weights must have equal length"),
    ("no exponent", lambda: roof_from_weight([], []), ValueError, "need at least one generator"),
    ("inexact base", lambda: roof_from_generators([((0.5,), 1)]), TypeError, "expected an exact rational, got float"),
    ("multi, lattice first", lambda: multi_chow_weight([([(0,), (2,)], [1]), ([(0,), (1,)], [1, 2])]),
     LatticeHypothesisError, "exponent differences must generate the full integer lattice; normalize first"),
    ("multi, unequal lengths", lambda: multi_chow_weight([([(0,), (1,)], [1]), ([(0,), (1,)], [1, 2])]),
     ValueError, "exponents and weights must have equal length"),
]


@pytest.mark.parametrize("make, kind, message", [c[1:] for c in CONSTRUCTION_ERRORS], ids=[c[0] for c in CONSTRUCTION_ERRORS])
def test_construction_errors(make, kind, message):
    with pytest.raises(Exception) as info:
        make()
    assert type(info.value) is kind and str(info.value) == message


class TestSupConvolution:
    def test_worked_example(self):
        f = roof_from_weight([(0,), (1,)], [-log2, 2 * log2])
        g = roof_from_weight([(0,), (1,)], [-log3, -log2])
        h = sup_convolution(f, g)
        vv = h.vertex_values()
        assert vv[(F(0),)] == -log2 - log3
        assert vv[(F(1),)] == 2 * log2 - log3
        assert vv[(F(2),)] == log2

    def test_identity_element(self):
        rng = random.Random(79)
        for _ in range(20):
            f = rand_roof_1d(rng)
            e = roof_from_generators([((0,), 0)])
            h = sup_convolution(f, e)
            assert h.vertex_values() == f.vertex_values()

    def test_doubling(self):
        rng = random.Random(83)
        for _ in range(20):
            f = rand_roof_1d(rng)
            h = sup_convolution(f, f)
            for v, val in f.vertex_values().items():
                assert roof_eval(h, tuple(2 * x for x in v)) == 2 * val

    def test_associative_commutative(self):
        rng = random.Random(89)
        for _ in range(10):
            f, g, k = (rand_roof_1d(rng) for _ in range(3))
            a = sup_convolution(sup_convolution(f, g), k)
            b = sup_convolution(f, sup_convolution(g, k))
            c = sup_convolution(sup_convolution(k, g), f)
            assert a.vertex_values() == b.vertex_values() == c.vertex_values()

    def test_sums_upper_vertices_only(self):
        # degenerate and single-point bases included; the all-generator sum
        # is the reference
        rng = random.Random(97)
        for n in (1, 2, 3):
            for _ in range((30, 12, 4)[n - 1]):
                f, g = (rand_roof_nd(rng, n) for _ in range(2))
                h = sup_convolution(f, g)
                sums = {
                    (tuple(a + b for a, b in zip(p, q)), as_loglinear(x + y))
                    for p, x in f.vertex_values().items()
                    for q, y in g.vertex_values().items()
                }
                assert {(p.base, as_loglinear(p.lift)) for p in h.generators} == sums
                assert len(h.generators) == len(sums)
                full = roof_from_generators(
                    [
                        (tuple(a + b for a, b in zip(p.base, q.base)), p.lift + q.lift)
                        for p in f.generators
                        for q in g.generators
                    ]
                )
                assert set(h.cells) == set(full.cells)
                assert h.vertex_values() == full.vertex_values()
                assert roof_integral(h) == roof_integral(full)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sup_convolution(
                roof_from_weight([(0,), (1,)], [0, 0]),
                roof_from_weight([(0, 0), (1, 0)], [0, 0]),
            )


class TestRestrictToFace:
    def test_cubic_vertices(self):
        r = roof_from_weight(CUBIC_A, CUBIC_INF)
        fl = face_lattice(r.domain)
        by_vertex = {}
        for face in fl.faces_of_dim(0):
            (vid,) = face.vertex_ids
            by_vertex[r.domain.vertices[vid]] = restrict_to_face(r, face, fl)
        assert roof_eval(by_vertex[(F(0),)], (0,)) == 0
        assert roof_eval(by_vertex[(F(3),)], (3,)) == -log2

    def test_whole_domain(self):
        r = roof_from_weight(CUBIC_A, CUBIC_INF)
        fl = face_lattice(r.domain)
        rr = restrict_to_face(r, fl.top, fl)
        assert rr.vertex_values() == r.vertex_values()

    def test_not_a_face(self):
        r = roof_from_weight(CUBIC_A, CUBIC_INF)
        fl2 = face_lattice(roof_from_weight([(0, 0), (1, 0), (0, 1)], [0, 0, 0]).domain)
        with pytest.raises(ValueError):
            restrict_to_face(r, fl2.top)

    def test_evaluation_commutes(self):
        rng = random.Random(97)
        for _ in range(15):
            pts = [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2)]
            weights = [F(rng.randint(-3, 3)) * log2 for _ in pts]
            r = roof_from_weight(pts, weights)
            fl = face_lattice(r.domain)
            for face in fl.faces:
                rr = restrict_to_face(r, face, fl)
                for g in rr.generators:
                    assert roof_eval(rr, g.base) == roof_eval(r, g.base)


class TestLiftedPolytope:
    def test_flat(self):
        z = roof_from_weight([(0,), (1,)], [0, 0])
        assert volume(lifted_polytope(z, 0)) == 0

    def test_unit_square(self):
        z = roof_from_weight([(0,), (1,)], [0, 0])
        assert volume(lifted_polytope(z, -1)) == 1

    def test_cubic_with_floor(self):
        r = roof_from_weight(CUBIC_A, CUBIC_INF)
        Q = lifted_polytope(r, -log3)
        assert volume(Q) == 2 * log2 + 3 * log3

    def test_floor_above_minimum(self):
        r = roof_from_weight(CUBIC_A, CUBIC_INF)
        with pytest.raises(ValueError):
            lifted_polytope(r, log3)

    def test_integral_identity(self):
        rng = random.Random(101)
        for _ in range(25):
            r = rand_roof_1d(rng)
            mu = r.min_value() - rng.randint(0, 3)
            Q = lifted_polytope(r, mu)
            dom_len = volume(r.domain)
            assert roof_integral(r) == volume(Q) + mu * dom_len


class TestPointwiseSum:
    def test_identity(self):
        f = roof_from_weight(CUBIC_A, CUBIC_INF)
        z = roof_from_weight(CUBIC_A, [0] * 4)
        s = roof_pointwise_sum(f, z)
        for v, val in f.vertex_values().items():
            assert roof_eval(s, v) == val

    def test_cubic_place_sum_nonnegative(self):
        f = roof_from_weight(CUBIC_A, CUBIC_INF)
        g = roof_from_weight(CUBIC_A, CUBIC_2)
        h = roof_from_weight(CUBIC_A, CUBIC_3)
        s = roof_pointwise_sum(roof_pointwise_sum(f, g), h)
        for a in CUBIC_A:
            assert certified_sign(roof_eval(s, a)) >= 0

    def test_integral_additivity(self):
        rng = random.Random(103)
        for _ in range(15):
            f = rand_roof_1d(rng)
            g = roof_from_generators(
                [(v.base, F(rng.randint(-3, 3)) * log3) for v in f.generators]
            )
            s = roof_pointwise_sum(f, g)
            assert roof_integral(s) == roof_integral(f) + roof_integral(g)

    def test_pointwise_values(self):
        rng = random.Random(107)
        for _ in range(10):
            pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
            wf = [F(rng.randint(-2, 2)) * log2 for _ in pts]
            wg = [F(rng.randint(-2, 2)) * log3 for _ in pts]
            f = roof_from_weight(pts, wf)
            g = roof_from_weight(pts, wg)
            s = roof_pointwise_sum(f, g)
            assert set(s.cells) == set(roof_from_generators(s.generators).cells)
            for _ in range(5):
                x = (F(rng.randint(0, 4), 2), F(rng.randint(0, 4), 2))
                if not f.domain.contains(x):
                    continue
                assert roof_eval(s, x) == roof_eval(f, x) + roof_eval(g, x)

    def test_degenerate_domain(self):
        # the unit square at height 1 in Q^3: f and g are each 1/2 at the
        # centre, so their sum is 1 there, as over Q^2
        square = [(0, 0), (1, 0), (0, 1), (1, 1)]
        f = roof_from_weight([(*b, 1) for b in square], [0, 0, 0, 1])
        g = roof_from_weight([(*b, 1) for b in square], [0, 1, 0, 0])
        assert roof_eval(roof_pointwise_sum(f, g), (F(1, 2), F(1, 2), 1)) == 1

    def test_embedded_roofs_against_their_chart(self):
        # roofs over r = 1, 2 dimensional bases, embedded in Q^3 and Q^4 by
        # an injective integer affine map, sum as they do in Q^r
        rng = random.Random(113)
        checked = set()
        for r, n in [(1, 3), (1, 4), (2, 3), (2, 4)] * 4:
            while True:
                A = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
                if minor_rank(A) == r:
                    break
            origin = [rng.randint(-2, 2) for _ in range(n)]

            def embed(x):
                return tuple(o + sum(map(mul, row, x)) for o, row in zip(origin, A))

            bases = list({tuple(rng.randint(0, 2) for _ in range(r)) for _ in range(rng.randint(r + 2, 6))})
            if len(bases) < r + 1 or convex_hull(bases).affine_dim < r:
                continue
            lifts = [[rng.randint(-2, 2) * log2 + F(rng.randint(-2, 2), 2) for _ in bases] for _ in "fg"]
            flat_f, flat_g = (roof_from_weight(bases, w) for w in lifts)
            f, g = (roof_from_weight([embed(b) for b in bases], w) for w in lifts)
            flat_s, s = roof_pointwise_sum(flat_f, flat_g), roof_pointwise_sum(f, g)
            samples = list(flat_s.vertex_values())
            for _ in range(6):
                w = [F(rng.randint(0, 3)) for _ in bases]
                w[0] += 1
                samples.append(tuple(sum(c * b[j] for c, b in zip(w, bases)) / sum(w) for j in range(r)))
            for x in samples:
                expected = roof_eval(flat_f, x) + roof_eval(flat_g, x)
                assert roof_eval(flat_s, x) == expected
                assert roof_eval(f, embed(x)) + roof_eval(g, embed(x)) == expected
                assert roof_eval(s, embed(x)) == expected
            checked.add((r, n))
        assert len(checked) == 4

    def test_domain_mismatch(self):
        f = roof_from_weight(CUBIC_A, CUBIC_INF)
        g = roof_from_weight([(0,), (2,)], [0, 0])
        with pytest.raises(ValueError):
            roof_pointwise_sum(f, g)
