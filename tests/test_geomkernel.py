import itertools
import random
from fractions import Fraction
from math import factorial, gcd
from operator import mul

import pytest

from toricheight import exactnum
from toricheight.errors import DimensionLimitError
from toricheight.exactnum import LogLinearNumber, _row_sign, as_loglinear, certified_sign
import toricheight.geomkernel as geomkernel
from toricheight.geomkernel import (
    Facet,
    _affine_basis,
    _Chart,
    _Echelon,
    _functionals,
    _hull_core,
    _integer_basis,
    _integer_points,
    _merge_facets,
    _solve_linear,
    convex_hull,
    face_lattice,
    intersect_polytopes,
    lattice_normalize,
    minkowski_sum,
    triangulate,
    upper_envelope,
    volume,
)

from toricheight.mixed import EmbeddingFamily, mixed_integral, mixed_volume, multiheight
from toricheight.roof import roof_from_generators, roof_from_weight, roof_integral
from toricheight.toric import MonomialPair, normalized_height

from oracles import decoded_map, graph_simplices_by_hull, grid_volume_bounds, log_basis_det, minor_rank, rational_det, riemann_roof_oracle
from test_roof import rebuilt_cell_integral

LL = LogLinearNumber
log2 = LL.log_prime(2)
log3 = LL.log_prime(3)

F = Fraction


def rand_points(rng, dim, count, span=5):
    return [tuple(F(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(dim)) for _ in range(count)]


class TestConvexHull:
    def test_segment(self):
        P = convex_hull([(0,), (1,), (2,), (3,)])
        assert set(P.vertices) == {(F(0),), (F(3),)}
        assert P.affine_dim == 1

    def test_square_drops_interior(self):
        P = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))])
        assert len(P.vertices) == 4
        assert (F(1, 2), F(1, 2)) not in set(P.vertices)

    def test_lifted_lower_vertex(self):
        P = convex_hull([(0, LL()), (1, 2 * log2), (2, -log3), (3, -log2)])
        assert len(P.vertices) == 4
        assert (F(2), -log3) in set(P.vertices)

    def test_degenerate_input(self):
        P = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert P.affine_dim == 1
        assert set(P.vertices) == {(F(0), F(0)), (F(3), F(3))}
        assert P.contains((F(3, 2), F(3, 2)))
        assert not P.contains((1, 2))

    def test_single_point(self):
        P = convex_hull([(2, 5)])
        assert P.affine_dim == 0
        assert P.volume() == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            convex_hull([(0, 0), (1,)])

    def test_dimension_limit(self):
        with pytest.raises(DimensionLimitError, match="supported bound 6"):
            convex_hull([(0,) * 7, (1,) + (0,) * 6])

    def test_boundary_holds_only_vertices(self):
        # collinear and coplanar grid points must not survive in the
        # simplicial boundary, whether they entered with the starting
        # simplex or were extreme when inserted
        rng = random.Random(37)
        cases = [(list(itertools.product(range(m + 1), repeat=d)), F(m) ** d) for d in (2, 3) for m in (1, 2, 3)]
        cases += [(rand_points(rng, d, rng.randint(d + 2, d + 8), span=2), None) for d in (2, 3) for _ in range(15)]
        for pts, expected in cases:
            P = convex_hull(pts)
            if not P.is_full_dimensional:
                continue
            verts = set(P.vertices)
            assert {q for simplex in P._boundary for q in simplex} <= verts
            simplices = triangulate(P)
            d = P.ambient_dim
            fan = sum(abs(rational_det([tuple(a - b for a, b in zip(q, s[0])) for q in s[1:]])) for s in simplices) / factorial(d)
            assert volume(P) == fan == volume(convex_hull(P.vertices))
            if expected is not None:
                assert volume(P) == expected
        assert len(triangulate(convex_hull(list(itertools.product(range(3), repeat=2))))) == 2

    @pytest.mark.parametrize(
        "points, n_vertices, vol",
        [
            ([(a, b, (a + b) * log2 - (log2 if (a, b) == (1, 1) else 0)) for a in range(3) for b in range(3)], 5, F(4, 3) * log2),
            ([(a, (a % 2) * log2) for a in range(5)], 4, 3 * log2),
        ],
        ids=["grid-with-dip", "zigzag"],
    )
    def test_lifted_keeps_no_boundary(self, points, n_vertices, vol):
        # non-extreme points must not count: the volume integrates the two
        # envelopes, and no simplicial boundary is kept
        P = convex_hull(points)
        assert P._kind == "lifted-full"
        assert P._boundary is None
        assert len(P.vertices) == n_vertices
        assert volume(P) == vol

    @pytest.mark.parametrize(
        "lifts, vertices, facets, affine_dim, kind, vol",
        [
            ([log2, log2], [log2], [(1, log2, 0), (-1, -log2, 0)], 0, "lifted-flat", 0),
            ([log3], [log3], [(1, log3, 0), (-1, -log3, 0)], 0, "lifted-flat", 0),
            ([F(0), log2, -log3], [-log3, log2], [(1, log2, 1), (-1, log3, 0)], 1, "lifted-full", log2 + log3),
            ([F(1, 2), log2 - 1], [log2 - 1, F(1, 2)], [(1, F(1, 2), 1), (-1, 1 - log2, 0)], 1, "lifted-full", F(3, 2) - log2),
            ([log2, 2 * log2, 3 * log2, F(2)], [log2, 3 * log2], [(1, 3 * log2, 1), (-1, -log2, 0)], 1, "lifted-full", 2 * log2),
        ],
        ids=["flat", "point", "mixed", "rational-low", "interior"],
    )
    def test_one_dimensional_lifted(self, lifts, vertices, facets, affine_dim, kind, vol):
        P = convex_hull([(w,) for w in lifts])
        assert P.vertices == tuple((v,) for v in vertices)
        assert P.facets == tuple(Facet((F(n),), off, (vid,)) for n, off, vid in facets)
        assert (P.affine_dim, P._kind, volume(P)) == (affine_dim, kind, vol)

    def test_idempotent_and_contains(self):
        rng = random.Random(23)
        for dim in (1, 2, 3):
            for _ in range(30):
                pts = rand_points(rng, dim, rng.randint(dim + 1, dim + 6))
                P = convex_hull(pts)
                assert all(P.contains(p) for p in pts)
                Q = convex_hull(P.vertices)
                assert Q == P
                assert Q.volume() == P.volume()

    def test_vertices_saturate_facets(self):
        rng = random.Random(29)
        for _ in range(20):
            pts = rand_points(rng, 2, 7)
            P = convex_hull(pts)
            if not P.is_full_dimensional:
                continue
            for k, v in enumerate(P.vertices):
                active = [Fc for Fc in P.facets if k in Fc.vertex_ids]
                assert len(active) >= P.affine_dim

    def test_vertices_against_caratheodory_oracle(self):
        # collinear-heavy grid configurations stress the degenerate paths;
        # extremality is rechecked via Caratheodory: v is inside the hull of
        # the others iff some simplex of at most d+1 of them contains it
        import itertools

        def barycentric(v, subset, d):
            # unique affine coefficients of v over an affinely independent
            # subset, or None when v is off its affine hull; plain Gaussian
            # elimination on the (d+1) x m affine system
            m = len(subset)
            rows = [[subset[j][k] for j in range(m)] + [v[k]] for k in range(d)]
            rows.append([F(1)] * m + [F(1)])
            pivots = []
            rank = 0
            for col in range(m):
                piv = next((i for i in range(rank, d + 1) if rows[i][col] != 0), None)
                if piv is None:
                    return None  # dependent subset
                rows[rank], rows[piv] = rows[piv], rows[rank]
                inv = F(1) / rows[rank][col]
                rows[rank] = [x * inv for x in rows[rank]]
                for i in range(d + 1):
                    if i != rank and rows[i][col]:
                        f = rows[i][col]
                        rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
                pivots.append(col)
                rank += 1
            if any(rows[i][m] != 0 for i in range(rank, d + 1)):
                return None  # inconsistent: v off the affine hull
            return [rows[i][m] for i in range(rank)]

        def in_hull_oracle(v, others, d):
            for size in range(1, d + 2):
                for subset in itertools.combinations(others, size):
                    coeffs = barycentric(v, subset, d)
                    if coeffs is not None and all(c >= 0 for c in coeffs):
                        return True
            return False

        rng = random.Random(2027)
        for dim, grid, count in ((2, 3, 8), (3, 2, 9)):
            for _ in range(12):
                pts = [
                    tuple(F(rng.randint(0, grid)) for _ in range(dim)) for _ in range(count)
                ]
                P = convex_hull(pts)
                distinct = sorted(set(pts))
                verts = set(P.vertices)
                for v in distinct:
                    others = [p for p in distinct if p != v]
                    if len(others) < dim + 1:
                        continue
                    inside = in_hull_oracle(v, others, dim)
                    assert (v in verts) == (not inside), (v, sorted(verts), pts)


class TestUpperEnvelope:
    def test_cubic_archimedean(self):
        cells = upper_envelope([((0,), LL()), ((1,), 2 * log2), ((2,), -log3), ((3,), -log2)])
        verts = sorted(tuple(sorted(c.vertices)) for c in cells)
        assert verts == [((F(0),), (F(1),)), ((F(1),), (F(3),))]
        for c in cells:
            if (F(1),) in c.vertices:
                assert c.value_at((F(1),)) == 2 * log2

    def test_bases_of_different_lengths(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            upper_envelope([((0,), 0), ((1, 2), 0)])

    def test_dimension_limit_before_any_hull(self, monkeypatch):
        def no_hull(*args):
            raise AssertionError("hull work before the dimension check")

        monkeypatch.setattr(geomkernel, "_hull_core", no_hull)
        simplex = [(0,) * 7] + [tuple(int(i == j) for i in range(7)) for j in range(7)]
        with pytest.raises(DimensionLimitError, match="supported bound 6"):
            upper_envelope([(b, k * log2) for k, b in enumerate(simplex)])

    def test_one_integer_pass_per_envelope(self, monkeypatch):
        # the lifted points' elimination also gives the bases' rank: one
        # pass for a full or rank-0 envelope, one more in a chart
        calls = []
        integer_points = geomkernel._integer_points

        def spy(points):
            calls.append(len(points[0]))
            return integer_points(points)

        monkeypatch.setattr(geomkernel, "_integer_points", spy)
        cases = [
            ([((0, 0), log2), ((2, 0), F(1)), ((0, 2), log3), ((1, 1), F(3))], 1),  # full, log-linear
            ([((0, 0), F(0)), ((2, 0), F(1)), ((0, 2), F(1, 2)), ((1, 1), F(3))], 1),  # full, rational
            ([((1, 1), log2), ((1, 1), F(2))], 1),  # rank 0
            ([((0, 0), log2), ((1, 2), F(1)), ((3, 6), F(0))], 2),  # collinear: chart
        ]
        for points, passes in cases:
            del calls[:]
            upper_envelope(points)
            assert len(calls) == passes

    def test_two_points_flat(self):
        cells = upper_envelope([((0,), 0), ((1,), 0)])
        assert len(cells) == 1
        assert cells[0].value_at((F(1, 2),)) == 0

    def test_cubic_dyadic_single_cell(self):
        cells = upper_envelope([((0,), LL()), ((1,), -2 * log2), ((2,), LL()), ((3,), log2)])
        assert len(cells) == 1
        assert sorted(cells[0].vertices) == [(F(0),), (F(3),)]
        assert cells[0].gradient[0] == log2 / 3

    def test_concavity(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 5)
            gens = [((rng.randint(-3, 3),), F(rng.randint(-4, 4), rng.randint(1, 3)) * log2 + rng.randint(-2, 2)) for _ in range(n)]
            cells = upper_envelope(gens)

            def value(x):
                best = None
                for c in cells:
                    val = c.value_at((x,))
                    if best is None or certified_sign(val - best) < 0:
                        best = val
                return best

            xs = sorted({g[0][0] for g in gens})
            lo, hi = F(xs[0]), F(xs[-1])
            for _ in range(5):
                x = lo + (hi - lo) * F(rng.randint(0, 8), 8)
                y = lo + (hi - lo) * F(rng.randint(0, 8), 8)
                t = F(rng.randint(0, 4), 4)
                mid = t * x + (1 - t) * y
                gap = value(mid) - (t * value(x) + (1 - t) * value(y))
                assert certified_sign(gap) >= 0

    # 2-D envelopes, checked against the full lifted hull of convex_hull

    @staticmethod
    def random_lift(rng):
        return rng.randint(-3, 3) * log2 + rng.randint(-2, 2) * log3 + F(rng.randint(-3, 3), rng.randint(1, 2))

    def test_flat_lift_2d(self):
        rng = random.Random(67)
        for _ in range(15):
            bases = list({(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 7))})
            domain = convex_hull(bases)
            if not domain.is_full_dimensional:
                continue
            g = (rng.randint(-2, 2) * log2 + 1, F(rng.randint(-2, 2), 3))
            h = self.random_lift(rng)
            cells = upper_envelope([(b, g[0] * b[0] + g[1] * b[1] + h) for b in bases])
            assert len(cells) == 1
            assert sorted(cells[0].vertices) == sorted(domain.vertices)
            assert cells[0].gradient == g and cells[0].offset == h

    def test_collinear_bases_2d(self):
        rng = random.Random(71)
        for _ in range(15):
            origin = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
            step = (F(rng.randint(1, 3)), F(rng.randint(-3, 3)))
            ts = sorted({rng.randint(-3, 3) for _ in range(rng.randint(2, 6))})
            if len(ts) < 2:
                continue
            lifts = [self.random_lift(rng) for _ in ts]
            cells = upper_envelope(
                [((origin[0] + t * step[0], origin[1] + t * step[1]), y) for t, y in zip(ts, lifts)]
            )
            line = upper_envelope([((t,), y) for t, y in zip(ts, lifts)])
            assert len(cells) == len(line)
            for cell, piece in zip(cells, line):
                assert cell.vertices == tuple(
                    (origin[0] + t * step[0], origin[1] + t * step[1]) for (t,) in piece.vertices
                )
                for v, (t,) in zip(cell.vertices, piece.vertices):
                    assert cell.value_at(v) == piece.value_at((t,))

    def test_cells_against_lifted_hull_2d(self):
        rng = random.Random(73)
        checked = 0
        for _ in range(30):
            gens = [
                ((rng.randint(-2, 2), rng.randint(-2, 2)), self.random_lift(rng))
                for _ in range(rng.randint(3, 7))
            ]
            domain = convex_hull([b for b, _ in gens])
            if not domain.is_full_dimensional:
                continue
            cells = upper_envelope(gens)
            hull = convex_hull([(*b, y) for b, y in gens])
            hull_vertices = set(hull.vertices)
            area = F(0)
            for cell in cells:
                for v in cell.vertices:
                    assert (*v, cell.value_at(v)) in hull_vertices
                for b, y in gens:
                    assert certified_sign(cell.value_at(tuple(map(F, b))) - y) >= 0
                area += volume(convex_hull(cell.vertices))
            assert area == volume(domain)
            checked += 1
        assert checked >= 20

    # every cell keeps the polytope it was cut from; the reference is the
    # hull rebuilt from the cell's vertices

    @staticmethod
    def assert_cells_keep_their_hulls(cells):
        for cell in cells:
            rebuilt = convex_hull(cell.vertices)
            assert cell.polytope == rebuilt
            assert cell.polytope.affine_dim == rebuilt.affine_dim
            assert volume(cell.polytope) == volume(rebuilt)

    @staticmethod
    def branches():
        flat_2d = [(b, b[0] * log2 + b[1] * log3) for b in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]]
        return [
            ([((), log2), ((), -log3)], 0),  # rank 0, no base coordinates
            ([((1, 2), log2), ((1, 2), -log3)], 0),  # rank 0
            ([((0,), 1 + log3), ((2,), 1 + log3 + 2 * log2), ((5,), 1 + log3 + 5 * log2)], 1),  # flat 1-D
            (flat_2d, 2),
            ([((0, 0), LL()), ((1, 1), log3), ((2, 2), log2), ((4, 4), -log3)], 1),  # collinear 2-D (chart)
        ]

    def test_cell_polytopes_each_branch(self):
        branches = self.branches()
        for gens, cell_dim in branches:
            cells = upper_envelope(gens)
            assert all(c.polytope.affine_dim == cell_dim for c in cells)
            self.assert_cells_keep_their_hulls(cells)
        assert len(upper_envelope(branches[2][0])) == len(upper_envelope(branches[3][0])) == 1
        assert len(upper_envelope(branches[4][0])) == 3

    def test_cell_integrals_each_branch(self):
        # a point in R^0 integrates to its value, a measure-zero cell in Q^2
        # to 0, and a flat lift as over its rebuilt hull
        gens = [g for g, _ in self.branches()]
        point, point_2d, flat_1d, flat_2d, chart = (upper_envelope(g) for g in gens)
        assert [c.integral for c in point + point_2d + chart] == [log2, 0, 0, 0, 0]
        for g, cells in zip(gens[2:4], (flat_1d, flat_2d)):
            assert [c.integral for c in cells] == [rebuilt_cell_integral(roof_from_generators(g))]
        assert flat_1d[0].integral == 5 + 5 * log3 + F(25, 2) * log2

    def test_cell_polytopes_random_full_lifts(self):
        rng = random.Random(79)
        multi = {2: 0, 3: 0}
        for dim in (2, 3):
            for _ in range(12):
                gens = [
                    (tuple(rng.randint(-2, 2) for _ in range(dim)), self.random_lift(rng))
                    for _ in range(rng.randint(dim + 1, dim + 5))
                ]
                if not convex_hull([b for b, _ in gens]).is_full_dimensional:
                    continue
                cells = upper_envelope(gens)
                assert all(c.polytope.affine_dim == dim for c in cells)
                self.assert_cells_keep_their_hulls(cells)
                multi[dim] += len(cells) > 1
        assert multi[2] >= 5 and multi[3] >= 3


class TestChart:
    """The chart of a proper subspace: ambient and chart coordinates
    round-trip on the span, points off it have no chart coordinates, and a
    pulled-back gradient lies in the span and agrees on the subspace, which
    fixes it uniquely."""

    def test_random_subspaces(self):
        rng = random.Random(53)
        for d in (2, 3, 4):
            for r in range(1, min(2, d - 1) + 1):
                for _ in range(8):
                    while True:
                        basis = rand_points(rng, d, r, span=3)
                        if minor_rank(basis) == r:
                            break
                    origin = rand_points(rng, d, 1)[0]
                    chart = _Chart(origin, basis)
                    for _ in range(4):
                        coords = rand_points(rng, r, 1)[0]
                        p = chart.to_ambient(coords)
                        assert chart.to_chart(p) == coords
                        assert chart.to_ambient(chart.to_chart(p)) == p
                        off = rand_points(rng, d, 1)[0]
                        if minor_rank(basis + [off]) > r:
                            assert chart.to_chart(tuple(a + b for a, b in zip(p, off))) is None
                    gradient = tuple(F(rng.randint(-3, 3)) * log2 + F(rng.randint(-3, 3), 2) for _ in range(r))
                    offset = log3 - 1
                    g_amb, off_amb = chart.pullback_affine(gradient, offset)
                    # both the rational and the log(2) part lie in span(B)
                    g_ll = [as_loglinear(x) for x in g_amb]
                    assert minor_rank(basis + [tuple(x.constant for x in g_ll)]) == r
                    assert minor_rank(basis + [tuple(dict(x.logterms).get(2, F(0)) for x in g_ll)]) == r
                    for _ in range(4):
                        coords = rand_points(rng, r, 1)[0]
                        x = chart.to_ambient(coords)
                        lhs = sum((g * c for g, c in zip(g_amb, x)), F(0)) + off_amb
                        rhs = sum((g * c for g, c in zip(gradient, coords)), F(0)) + offset
                        assert lhs == rhs


class TestVolume:
    def test_segment(self):
        assert volume(convex_hull([(0,), (3,)])) == 3

    def test_unit_square(self):
        assert volume(convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])) == 1

    def test_lifted_area_between_envelopes(self):
        P = convex_hull([(0, LL()), (1, 2 * log2), (2, -log3), (3, -log2)])
        # area = integral of (top - bottom); bottom chain passes through
        # (0,0), (2,-log3), (3,-log2)
        top = 2 * log2
        bottom = (-log3) + (-log3 - log2) / 2 * 1  # trapezoid sums below
        # computed by hand: top integral 2log2; bottom integral:
        # [0,2]: (0 + -log3)/2*2 = -log3 ; [2,3]: (-log3 - log2)/2
        expected = top - (-log3 + (-log3 - log2) / 2)
        assert volume(P) == expected

    def test_minkowski_doubling(self):
        rng = random.Random(41)
        for dim in (1, 2, 3):
            for _ in range(10):
                pts = rand_points(rng, dim, dim + 4)
                P = convex_hull(pts)
                S = minkowski_sum(P, P)
                assert volume(S) == 2**dim * volume(P)

    def test_volume_grid_sandwich_2d(self):
        rng = random.Random(43)
        for _ in range(12):
            P = convex_hull(rand_points(rng, 2, rng.randint(3, 8)))
            lo, hi = grid_volume_bounds(P, cells_per_side=10)
            assert lo <= volume(P) <= hi

    def test_volume_grid_sandwich_3d(self):
        rng = random.Random(47)
        for _ in range(4):
            P = convex_hull(rand_points(rng, 3, rng.randint(4, 8)))
            if not P.is_full_dimensional:
                continue
            lo, hi = grid_volume_bounds(P, cells_per_side=6)
            assert lo <= volume(P) <= hi


class TestLiftedRationalModel:
    """Lifted hulls must match their rational models: the affine map
    (b, y) -> (b, y*log2 + g.b + h) preserves the face structure and
    multiplies volumes by log2, so vertices and volumes are predictable
    from a purely rational hull."""

    def test_vertices_volume_and_cells(self):
        rng = random.Random(59)
        for dim in (1, 2, 3):
            for _ in range(25):
                count = rng.randint(dim + 2, dim + 5)
                bases = list({tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(count)})
                if convex_hull(bases).affine_dim < dim:
                    continue
                cs = [rng.randint(-3, 3) for _ in bases]
                g = [F(rng.randint(-2, 2)) for _ in range(dim)]
                h = F(rng.randint(-2, 2))

                def shift(b):
                    return sum(gi * bi for gi, bi in zip(g, b)) + h

                model = convex_hull([(*map(F, b), F(c)) for b, c in zip(bases, cs)])
                lifted = convex_hull(
                    [(*map(F, b), c * log2 + shift(b)) for b, c in zip(bases, cs)]
                )
                predicted = {
                    (*v[:dim], v[dim] * log2 + shift(v[:dim])) for v in model.vertices
                }
                assert set(lifted.vertices) == predicted
                assert all(lifted.contains(v) for v in predicted)
                assert lifted.volume() == model.volume() * log2
                assert lifted.affine_dim == model.affine_dim
                if lifted.is_full_dimensional:
                    assert lifted.vertices == tuple(sorted(predicted))
                    with pytest.raises(ValueError):
                        triangulate(lifted)

    def test_flat_configurations(self):
        rng = random.Random(61)
        for _ in range(20):
            bases = list({(rng.randint(-3, 3),) for _ in range(4)})
            if len(bases) < 2:
                continue
            u, w = rng.randint(-3, 3), rng.randint(-2, 2)
            # lifts affine in the base: the hull is the flat graph
            lifted = convex_hull([(F(b[0]), (u * b[0] + w) * log2) for b in bases])
            lo = min(bases)[0]
            hi = max(bases)[0]
            assert lifted.affine_dim == 1
            assert lifted.volume() == 0
            assert set(lifted.vertices) == {
                (F(lo), (u * lo + w) * log2),
                (F(hi), (u * hi + w) * log2),
            }


    @pytest.mark.parametrize(
        "bases, lift",
        [
            (list(itertools.product(range(3), repeat=2)), lambda b: (b[0] + b[1]) * log2),
            ([(a,) for a in range(5)], lambda b: b[0] * log2),
        ],
        ids=["grid", "segment"],
    )
    def test_flat_lift_hulls_bases_once(self, monkeypatch, bases, lift):
        # the projection's hull serves both graph cells
        calls = []
        for name in ("_hull_core", "_build_rational"):
            real = getattr(geomkernel, name)
            monkeypatch.setattr(
                geomkernel, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
            )
        base = convex_hull(bases)
        alone = sorted(calls)
        calls.clear()
        P = convex_hull([(*b, lift(b)) for b in bases])
        assert sorted(calls) == alone
        assert (P._kind, P.affine_dim, volume(P)) == ("lifted-flat", len(bases[0]), 0)
        assert P.vertices == tuple((*v, lift(v)) for v in base.vertices)
        everything = tuple(range(len(P.vertices)))
        assert [Fc.vertex_ids for Fc in P.facets[:2]] == [everything, everything]
        assert [Fc.normal[:-1] for Fc in P.facets[2:]] == [Fc.normal for Fc in base.facets]

    @pytest.mark.parametrize(
        "bases, lift, hulls, chains, projections",
        [
            (list(itertools.product(range(3), repeat=2)), lambda b: b[0] * b[1] * log2, 1, [], 1),
            ([(a,) for a in range(5)], lambda b: (b[0] % 2) * log2 - b[0] * log3, 0, [True], 0),
        ],
        ids=["grid", "segment"],
    )
    def test_full_lift_hulls_lifted_points_once(self, monkeypatch, bases, lift, hulls, chains, projections):
        # the upper and the lower cells are read from the facets of one hull,
        # over a line from one pass of the monotone chain, asked for both;
        # the vertical facets come from the bases' hull, over a line from
        # the least and the greatest base, with no rational hull at all
        lifted, passes, rational = [], [], []
        real, chain, build = geomkernel._hull_core, geomkernel._chain, geomkernel._build_rational
        monkeypatch.setattr(geomkernel, "_build_rational", lambda points: rational.append(set(points)) or build(points))

        def counted(points, basis, primes):
            if primes:
                lifted.append(primes)
            return real(points, basis, primes)

        monkeypatch.setattr(geomkernel, "_hull_core", counted)
        monkeypatch.setattr(geomkernel, "_chain", lambda ints, primes, lower: passes.append(lower) or chain(ints, primes, lower))
        P = convex_hull([(*b, lift(b)) for b in bases])
        assert (P._kind, len(lifted), passes) == ("lifted-full", hulls, chains)
        assert rational.count({tuple(map(F, b)) for b in bases}) == projections
        assert projections or not rational
        upper = upper_envelope([(b, lift(b)) for b in bases])
        lower = upper_envelope([(b, -lift(b)) for b in bases])
        assert volume(P) == sum(c.integral for c in upper) + sum(c.integral for c in lower)


def flat_lift_cases(seed):
    """Seeded flat lifts in 0-D to 4-D, each ``(bases, f, r)``: f is one
    affine function (integer, rational or log-linear gradient and constant)
    and the bases are integer grid points of an r-dimensional affine
    subspace (the whole space, or a proper one from 2-D up): a simplex, the
    corner (2, ..., 2) with the point (1, ..., 1) inside, random grid
    points and repeats."""
    rng = random.Random(seed)

    def value(kind):
        if kind == "integer":
            return F(rng.randint(-4, 4))
        q = F(rng.randint(-9, 9), rng.randint(1, 6))
        return q if kind == "rational" else q + rng.randint(-2, 2) * log2 + rng.randint(-2, 2) * log3

    cases = []
    for k in range(5):
        for r in range(k + 1) if k >= 2 else (k,):
            for kind in ("integer", "rational", "loglinear"):
                chart = [tuple(int(i == j) for j in range(k)) for i in range(r)]
                if r < k:  # a proper subspace: r independent integer directions
                    while _affine_basis([(0,) * k, *chart])[1] < r:
                        chart = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(r)]
                shift = [rng.randint(-2, 2) for _ in range(k)]
                local = [(0,) * r, (2,) * r, (1,) * r] + [tuple(int(i == j) for j in range(r)) for i in range(r)]
                local += [tuple(rng.randint(0, 2) for _ in range(r)) for _ in range(rng.randint(0, 3))]
                local += rng.sample(local, 2)
                bases = [tuple(s + sum(c * d[j] for c, d in zip(x, chart)) for j, s in enumerate(shift)) for x in local]
                gradient, constant = [value(kind) for _ in range(k)], value(kind)
                cases.append((bases, lambda b, g=gradient, c=constant: sum((x * y for x, y in zip(g, b)), c), r))
    return cases


class TestFlatLifts:
    """A flat lift is hulled with one point below its graph: its envelope,
    integral and roof are one cell over the whole domain, against the
    domain's triangulation (each simplex's volume times the lift's mean
    over its vertices; in 0-D the lift itself)."""

    def test_against_the_domain_triangulation(self, monkeypatch):
        calls, watching = [], []
        for name in ("_build_rational", "_fan"):
            real = getattr(geomkernel, name)
            monkeypatch.setattr(
                geomkernel, name, lambda *args, _real=real, _name=name: (watching and calls.append(_name)) or _real(*args)
            )
        for bases, f, r in flat_lift_cases(173):
            k = len(bases[0])
            lifts = [f(b) for b in bases]
            domain = convex_hull(bases)
            dets = factorial(k) * domain.volume()
            if r == k == 0:
                expected = as_loglinear(lifts[0])
            elif r == k:
                expected = LL()
                for simplex in triangulate(domain):
                    vol = abs(rational_det([tuple(a - b for a, b in zip(q, simplex[0])) for q in simplex[1:]])) / factorial(k)
                    expected += vol * sum((f(v) for v in simplex), LL()) / (k + 1)
            else:
                expected = LL()
            watching.append(True)
            cells = upper_envelope(list(zip(bases, lifts)))
            if r == k:
                integral, found = geomkernel._envelope_integral(*_integer_points([(*b, t) for b, t in zip(bases, lifts)]))
                assert (as_loglinear(integral), found) == (expected, dets)
            else:
                with pytest.raises(ValueError, match="degenerate projection"):
                    geomkernel._envelope_integral(*_integer_points([(*b, t) for b, t in zip(bases, lifts)]))
            watching.clear()
            assert calls == []
            assert len(cells) == 1 and as_loglinear(cells[0].integral) == expected
            assert set(cells[0].vertices) == set(domain.vertices)
            assert all(as_loglinear(cells[0].value_at(b)) == as_loglinear(t) for b, t in zip(bases, lifts))
            assert as_loglinear(roof_integral(roof_from_weight(bases, lifts))) == expected


class TestMinkowski:
    def test_segments(self):
        S = minkowski_sum(convex_hull([(0,), (1,)]), convex_hull([(0,), (2,)]))
        assert set(S.vertices) == {(F(0),), (F(3),)}

    def test_squares(self):
        sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert volume(minkowski_sum(sq, sq)) == 4

    def test_segments_to_square(self):
        s1 = convex_hull([(0, 0), (1, 0)])
        s2 = convex_hull([(0, 0), (0, 1)])
        S = minkowski_sum(s1, s2)
        assert volume(S) == 1
        assert len(S.vertices) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_sum(convex_hull([(0,)]), convex_hull([(0, 0)]))


class TestFaceLattice:
    def test_segment(self):
        fl = face_lattice(convex_hull([(0,), (3,)]))
        assert [f.dim for f in fl.faces] == [0, 0, 1]

    def test_triangle(self):
        fl = face_lattice(convex_hull([(0, 0), (1, 0), (0, 1)]))
        dims = [f.dim for f in fl.faces]
        assert dims.count(0) == 3 and dims.count(1) == 3 and dims.count(2) == 1

    def test_square(self):
        fl = face_lattice(convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)]))
        dims = [f.dim for f in fl.faces]
        assert dims.count(0) == 4 and dims.count(1) == 4 and dims.count(2) == 1

    def test_cube_count(self):
        pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        fl = face_lattice(convex_hull(pts))
        dims = [f.dim for f in fl.faces]
        assert dims.count(0) == 8 and dims.count(1) == 12 and dims.count(2) == 6

    def test_closed_under_intersection(self):
        fl = face_lattice(convex_hull([(0, 0), (3, 0), (0, 3), (3, 3)]))
        sets = {f.vertex_ids for f in fl.faces}
        for a in sets:
            for b in sets:
                if a & b:
                    assert (a & b) in sets


class TestLatticeNormalize:
    def test_gcd_reduction(self):
        B, r, basis = lattice_normalize([(0,), (2,), (4,)])
        assert r == 1 and B == [(0,), (1,), (2,)] and basis == ((2,),)

    def test_already_primitive(self):
        B, r, basis = lattice_normalize([(0,), (1,), (2,), (3,)])
        assert r == 1 and B == [(0,), (1,), (2,), (3,)]

    def test_diagonal(self):
        B, r, basis = lattice_normalize([(0, 0), (1, 1), (2, 2)])
        assert r == 1 and B == [(0,), (1,), (2,)]

    def test_rank_zero(self):
        B, r, basis = lattice_normalize([(5, 5), (5, 5)])
        assert r == 0 and B == [(), ()]

    def test_coordinates_generate(self):
        rng = random.Random(53)
        for _ in range(40):
            vecs = [tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(rng.randint(2, 5))]
            B, r, basis = lattice_normalize(vecs)
            # rebuild each difference from its coordinates
            for v, b in zip(vecs, B):
                rebuilt = tuple(
                    sum(c * basis[i][k] for i, c in enumerate(b)) for k in range(2)
                )
                assert rebuilt == tuple(x - y for x, y in zip(v, vecs[0]))
            # the coordinates generate Z^r
            if r:
                _, rr, bb = lattice_normalize(B)
                identity = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
                assert rr == r and bb == identity


class TestIntersect:
    def test_overlapping_squares(self):
        a = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        b = convex_hull([(1, 1), (3, 1), (1, 3), (3, 3)])
        c = intersect_polytopes(a, b)
        assert volume(c) == 1

    def test_disjoint(self):
        a = convex_hull([(0, 0), (1, 0), (0, 1)])
        b = convex_hull([(5, 5), (6, 5), (5, 6)])
        assert intersect_polytopes(a, b) is None


def rand_lifted(rng):
    """A random value of the log-linear span, sometimes rational."""
    value = F(rng.randint(-4, 4), rng.randint(1, 3)) + rng.randint(-2, 2) * log2 + rng.randint(-1, 1) * log3
    return value if rng.random() < 0.8 else value.constant


def log_basis(x):
    """Coefficients of an exact value as ``log_basis_det`` returns them."""
    x = as_loglinear(x)
    return {k: c for k, c in [(None, x.constant), *x.logterms] if c}


def rand_rows(rng, count, dim, lifted_col=None, singular=False):
    """Random rows of small rationals, one column optionally log-linear; a
    singular draw makes one row a combination of others (or zero)."""
    rows = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)] for _ in range(count)]
    if lifted_col is not None:
        for r in rows:
            r[lifted_col] = rand_lifted(rng)
    if singular and count > 0:
        k = rng.randrange(count)
        others = [r for i, r in enumerate(rows) if i != k]
        q = F(rng.randint(-2, 2), rng.randint(1, 2))
        rows[k] = [F(0)] * dim
        for r in rng.sample(others, min(2, len(others))):
            rows[k] = [a + q * b for a, b in zip(rows[k], r)]
    return [tuple(r) for r in rows]


def cofactor_hyperplane(points):
    """Normal of the hyperplane through d points in R^d as the cofactor
    vector of their differences, over {1, log p} by ``log_basis_det``."""
    d = len(points[0])
    rows = [tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]]
    normal = []
    for j in range(d):
        cof = log_basis_det([[r[k] for k in range(d) if k != j] for r in rows])
        value = sum((c * LL.log_prime(p) if p else LL(c) for p, c in cof.items()), LL())
        normal.append(value if j % 2 == 0 else -value)
    return normal


def assert_proportional(normal, other):
    """``other`` is a nonzero multiple of ``normal``, whose last or else first
    nonzero coordinate is rational."""
    j = len(normal) - 1 if normal[-1] else next(j for j, x in enumerate(normal) if x)
    c = as_loglinear(other[j]) / as_loglinear(normal[j]).constant
    assert c and all(as_loglinear(y) == c * x for x, y in zip(normal, other))


class TestEchelonKernel:
    """Simplex determinants, ``_solve_linear``, ranks, ``_affine_basis`` and
    the hull core's facet functionals share one integer elimination, ``_Echelon``,
    checked against cofactor expansion over {1, log p}."""

    def test_facet_functionals_against_kernel_vector(self):
        # the kernel vector of the differences is their cofactor vector
        rng = random.Random(79)
        counts = {"rational": 0, "lifted": 0, "vertical": 0}
        dims = set()
        while min(counts.values()) < 60:
            d = rng.randint(2, 7)
            lifted = rng.random() < 0.6
            points = rand_rows(rng, d, d, d - 1 if lifted else None)
            if rng.random() < 0.3:  # one shared coordinate: a vertical hyperplane
                points = [(F(2), *p[1:]) for p in points]
            cofactors = cofactor_hyperplane(points)
            if not any(cofactors):  # affinely dependent draw
                with pytest.raises(ValueError, match="degenerate facet"):
                    _functionals(_integer_points(points)[0], d - 1)
                continue
            ints, primes, scale = _integer_points(points)
            fn = _functionals(ints, d - 1)
            # functional t carries the shared last coordinate at row entry t
            a = fn[0][d - 1]
            assert all(f[d - 1 + s] == a * (s == t) for t, f in enumerate(fn) for s in range(len(fn)))
            weights = [1] + [LL.log_prime(p) for p in primes]
            normal = [sum((w * f[j] for w, f in zip(weights, fn)), LL()) for j in range(d - 1)] + [F(a)]
            offset = sum((w * f[-1] for w, f in zip(weights, fn)), LL()) / scale
            for p in points:
                assert sum((x * y for x, y in zip(normal, p)), LL()) == offset
            assert_proportional(normal, cofactors)
            counts["vertical" if not a else "lifted" if primes else "rational"] += 1
            dims.add(d)
        assert dims == set(range(2, 8))

    def test_simplex_det_against_cofactors(self):
        rng = random.Random(83)
        assert geomkernel._simplex_det([(4, 1)], 0) == 1
        assert geomkernel._simplex_det([(0, 0, 7), (2, 0, 1), (0, 3, 5)], 2) == 6  # past column k: a lift
        for _ in range(400):
            n = rng.randint(1, 6)
            edges = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.3:  # one edge a combination of the others, or zero
                k = rng.randrange(n)
                edges[k] = [sum(rng.randint(-2, 2) * r[j] for i, r in enumerate(edges) if i != k) for j in range(n)]
            apex = tuple(rng.randint(-4, 4) for _ in range(n))
            simplex = [apex] + [tuple(a + e for a, e in zip(apex, edge)) for edge in edges]
            assert geomkernel._simplex_det(simplex, n) == abs(rational_det(edges))

    def test_solve_linear(self):
        rng = random.Random(89)
        for _ in range(300):
            n = rng.randint(1, 6)
            a = rand_rows(rng, n, n, singular=rng.random() < 0.3)
            m = rng.randint(1, 3)
            b = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)]
            if not log_basis_det(a):
                with pytest.raises(ValueError, match="singular system"):
                    _solve_linear(a, b)
                continue
            x = _solve_linear(a, b)
            assert all(type(v) is F for xi in x for v in xi)
            for row, rhs in zip(a, b):
                assert [sum((c * xi[t] for c, xi in zip(row, x)), F(0)) for t in range(m)] == rhs

    def test_rank(self):
        # the last column is a lift: integer rows over (1, log 2, log 3)
        rng = random.Random(97)
        for _ in range(250):
            dim = rng.randint(1, 6)
            count = rng.randint(1, 7)
            vectors = rand_rows(rng, count, dim, dim - 1 if rng.random() < 0.5 else None, singular=rng.random() < 0.5)
            echelon = _Echelon(dim - 1)
            assert sum(map(echelon.add, _integer_points(vectors)[0])) == echelon.rank == minor_rank(vectors)

    def test_dependent_row_leaves_the_lift_unspanned(self):
        # over (x, 1, log 2): a dependent row, then one that is nonzero only
        # in the lift, then one that the lift spans
        echelon = _Echelon(1)
        assert echelon.add([2, 1, 0])
        assert not echelon.add([4, 2, 0])
        assert echelon.add([2, 1, 3]) and echelon.rank == 2
        assert not echelon.add([0, 5, -1]) and echelon.rank == 2
        assert echelon.cols == [0] and echelon.rows == [[2, 1, 0]]

    def test_only_integer_rows_reach_the_elimination(self, monkeypatch):
        # heights in 1-D to 4-D, a multiheight, a mixed integral and a mixed
        # volume: each but the 1-D height, whose roofs are monotone chains,
        # reaches ``_Echelon`` (at least the n+1 rows of one simplex), and no
        # Fraction or log-linear entry does
        rows, counts = [], []
        add = _Echelon.add

        def spy(echelon, vec):
            rows.append(tuple(vec))
            return add(echelon, vec)

        def counted(n, call, *args):
            before = len(rows)
            call(*args)
            counts.append((len(rows) - before, n))

        monkeypatch.setattr(_Echelon, "add", spy)
        rng = random.Random(131)

        def exponents(n, extra):
            simplex = [tuple(int(i == j) for i in range(n)) for j in range(-1, n)]
            return simplex + [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(extra)]

        def coefficients(count):
            return [F(rng.choice((1, 2, 3, 5, 6)), rng.choice((1, 2, 7))) * rng.choice((1, -1)) for _ in range(count)]

        for n in (1, 2, 3, 4):
            exps = exponents(n, 2)
            counted(n, normalized_height, MonomialPair.make(exps, coefficients(len(exps))))
        exps = exponents(2, 1)
        counted(2, multiheight, EmbeddingFamily(tuple(MonomialPair.make(exps, coefficients(len(exps))) for _ in range(3))))
        roofs = []
        for _ in range(3):
            exps = exponents(2, 2)
            roofs.append(roof_from_weight(exps, [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in exps]))
        counted(2, mixed_integral, roofs)
        counted(3, mixed_volume, [convex_hull(rand_points(rng, 3, 6, span=3)) for _ in range(3)])
        assert len(counts) == 7 and counts[0] == (0, 1) and all(count >= n + 1 for count, n in counts[1:])
        assert all(type(x) is int for row in rows for x in row)

    def test_affine_basis_is_greedy(self):
        rng = random.Random(101)
        for _ in range(150):
            dim = rng.randint(1, 5)
            points = rand_rows(rng, rng.randint(1, 7), dim, dim - 1 if rng.random() < 0.5 else None, singular=rng.random() < 0.5)
            diff = lambda i: tuple(a - b for a, b in zip(points[i], points[0]))
            basis, rank = [0], 0
            for i in range(1, len(points)):
                if minor_rank([diff(j) for j in basis[1:] + [i]]) > rank:
                    basis.append(i)
                    rank += 1
            assert _affine_basis(points) == (basis, rank)


def reference_facet(points, ids, basis, primes):
    """The primitive outward functionals of the hyperplane through integer
    points ``ids``, eliminated by ``_functionals`` and oriented against the
    interior point of ``basis``, the way the hull core made every facet
    before pencil facets."""
    k = len(points[0]) - len(primes) - 1
    inside = tuple(map(sum, zip(*(points[i] for i in basis))))
    fn = _functionals([points[i] for i in ids], k)
    row = [sum(map(mul, f, inside)) - (k + 2) * f[-1] for f in fn]
    s = _row_sign(row, primes) if primes else (row[0] > 0) - (row[0] < 0)
    g = -s * gcd(*(x for f in fn for x in f))
    return tuple(tuple(x // g for x in f) for f in fn)


def reference_hull_core(points, basis, primes):
    """``_hull_core`` before pencil facets: the points inserted in index
    order (callers sort them), the ridge map rebuilt from all facets on
    every insertion and every facet eliminated (``reference_facet``).  It is
    a differential reference, not an oracle: it shares ``_functionals``."""
    k = len(points[0]) - len(primes) - 1

    def facet(ids):
        return geomkernel._SimplicialFacet(frozenset(ids), reference_facet(points, ids, basis, primes))

    def visible(F, q):
        row = [sum(map(mul, f, q)) - f[-1] for f in F.fn]
        return (_row_sign(row, primes) if any(row) else 0) > 0 if primes else row[0] > 0

    facets = [facet([b for t, b in enumerate(basis) if t != s]) for s in range(k + 2)]
    for ip in sorted(set(range(len(points))) - set(basis)):
        visible_ids = {id(F) for F in facets if visible(F, points[ip])}
        if not visible_ids:
            continue
        ridge_map = {}
        for F in facets:
            for drop in F.ids:
                ridge_map.setdefault(F.ids - {drop}, []).append(F)
        new_facets = []
        for ridge, shared in ridge_map.items():
            flags = [id(F) in visible_ids for F in shared]
            if any(flags) and not all(flags):
                new_facets.append(facet(sorted(ridge) + [ip]))
        facets = [F for F in facets if id(F) not in visible_ids] + new_facets
    return facets


def hull_core_inputs(seed):
    """Sorted point lists, rational ones in 1-D to 6-D (``MAX_DIMENSION``)
    and lifted ones over 1-D to 3-D bases with one or two log primes: random
    sets, grids and their random subsets (collinear and coplanar points),
    Minkowski sums of lattice polytopes (repeated points) and explicit
    repeats."""
    rng = random.Random(seed)
    rational = [rand_points(rng, d, rng.randint(d + 2, d + 9), span=3) for d in (1, 2, 3, 4) for _ in range(6)]
    for d, m in ((1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)):
        grid = list(itertools.product(range(m + 1), repeat=d))
        rational += [grid, rng.sample(grid, max(d + 1, len(grid) * 2 // 3))]
    for d in (2, 3, 4):
        for _ in range(3):
            p, q = ([tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(rng.randint(2, 4))] for _ in "pq")
            rational.append([tuple(a + b for a, b in zip(x, y)) for x in p for y in q])
    rational += [pts + rng.sample(pts, 3) for pts in rational[:24:4]]
    lifted = []
    for k in (1, 2, 3):
        for primes in ((2,), (2, 3)):
            for _ in range(4):
                bases = [tuple(rng.randint(0, 2) for _ in range(k)) for _ in range(rng.randint(k + 2, k + 7))]
                lifts = [sum((rng.randint(-2, 2) * LL.log_prime(p) for p in primes), LL(F(rng.randint(-2, 2), 2))) for _ in bases]
                lifted.append(geomkernel._dedup([(*map(F, b), w) for b, w in zip(bases, lifts)]))
    for d in (5, 6):  # drawn last, so the sets above stay as they were
        rational += [rand_points(rng, d, rng.randint(d + 2, d + 5), span=3) for _ in range(3)]
        corners = list(itertools.product(range(2), repeat=d))
        rational += [rng.sample(corners, d + 4), rng.sample(corners, d + 4) + rng.sample(corners, 3)]
    return [sorted(map(tuple, (map(F, p) for p in pts))) for pts in rational], lifted


def cell_fields(cells):
    return [(c.polytope.vertices, c.gradient, c.offset, c.integral) for c in cells]


class TestHullCoreDifferential:
    """The hull core (far-first insertion, kept ridges, pencil facets)
    against ``reference_hull_core`` on the same integer points."""

    def core_pairs(self, pts):
        ints, primes, scale = _integer_points(pts)
        basis, rank, _ = _integer_basis(ints, len(pts[0]) - 1)
        if rank < len(ints[0]) - len(primes):
            return None
        return ints, primes, scale, basis

    def test_same_facets_vertices_and_volumes(self, monkeypatch):
        rational, lifted = hull_core_inputs(139)
        compared = 0
        for pts in rational + lifted:
            data = self.core_pairs(pts)
            if data is None:
                continue
            ints, primes, scale, basis = data
            new, ref = _hull_core(ints, basis, primes), reference_hull_core(ints, basis, primes)
            assert {F.fn for F in new} == {F.fn for F in ref}
            assert len({F.ids for F in new}) == len(new)
            compared += 1
            if primes:
                continue
            (merged_new, vertices_new), (merged_ref, vertices_ref) = (
                _merge_facets(ints, facets, scale) for facets in (new, ref)
            )
            assert vertices_new == vertices_ref
            assert sorted(merged_new) == sorted(merged_ref)
        assert compared >= 70
        unique = [sorted(set(pts)) for pts in rational] + [pts for pts in lifted if self.core_pairs(pts)]
        hulls = [convex_hull(pts) for pts in unique]
        monkeypatch.setattr(geomkernel, "_hull_core", reference_hull_core)
        for pts, hull in zip(unique, hulls):
            before = convex_hull(pts)
            assert (hull.vertices, hull.affine_dim, volume(hull)) == (before.vertices, before.affine_dim, volume(before))
            assert {(f.normal, f.offset, f.vertex_ids) for f in hull.facets} == {
                (f.normal, f.offset, f.vertex_ids) for f in before.facets
            }

    def test_same_graph_cells(self, monkeypatch):
        # rational lifts go through pencil facets, log-linear ones do not;
        # over a line the reference hulls what the chain reads, and the
        # cells, one per segment, may come in another order
        rng = random.Random(149)
        rational, lifted = hull_core_inputs(151)
        sets = lifted + [[(*p[:-1], F(rng.randint(-3, 3), rng.randint(1, 2))) for p in pts] for pts in lifted]
        sets += [[(*p, F(rng.randint(-4, 4))) for p in sorted(set(pts))] for pts in rational if len(pts[0]) < 4]
        sets = [pts for pts in map(geomkernel._dedup, sets) if self.core_pairs(pts)]
        assert len(sets) > 60
        assert sum(len(pts[0]) == 2 for pts in sets) > 20
        cells = [geomkernel._graph_cells(pts, lifted_integers(pts), lower=True) for pts in sets]
        monkeypatch.setattr(geomkernel, "_hull_core", reference_hull_core)
        monkeypatch.setattr(geomkernel, "_graph_simplices", graph_simplices_by_hull)
        for pts, (upper, lower) in zip(sets, cells):
            ref_upper, ref_lower = geomkernel._graph_cells(pts, lifted_integers(pts), lower=True)
            fields = cell_fields if len(pts[0]) > 2 else lambda c: sorted(cell_fields(c), key=repr)
            assert fields(upper) == fields(ref_upper)
            assert fields(lower) == fields(ref_lower)

    def test_every_facet_made_is_the_eliminated_one(self, monkeypatch):
        # pencil facets included, even those a later point removes
        made = []
        record = geomkernel._SimplicialFacet

        def spy(ids, fn):
            made.append(record(ids, fn))
            return made[-1]

        monkeypatch.setattr(geomkernel, "_SimplicialFacet", spy)
        rational, lifted = hull_core_inputs(157)
        for pts in rational + lifted:
            data = self.core_pairs(pts)
            if data is None:
                continue
            ints, primes, _, basis = data
            del made[:]
            final = _hull_core(ints, basis, primes)
            assert len(made) >= len(final)
            for F in made:
                assert F.fn == reference_facet(ints, sorted(F.ids), basis, primes)

    def test_rational_hull_eliminates_only_the_first_simplex(self, monkeypatch):
        # one elimination of its d+1 rows [1, *p, e_t], and no ``_functionals``
        calls, rows = [], []
        functionals, add = geomkernel._functionals, _Echelon.add
        monkeypatch.setattr(geomkernel, "_functionals", lambda *args: calls.append(1) or functionals(*args))
        monkeypatch.setattr(_Echelon, "add", lambda echelon, vec: rows.append(len(vec)) or add(echelon, vec))
        rational, _ = hull_core_inputs(163)
        dims = set()
        for pts in rational:
            data = self.core_pairs(pts)
            if data is None:
                continue
            ints, _, _, basis = data
            del calls[:], rows[:]
            _hull_core(ints, basis, ())
            d = len(ints[0])
            assert not calls
            assert rows == [2 * d + 2] * (d + 1)
            dims.add(d)
        assert dims == set(range(1, geomkernel.MAX_DIMENSION + 1))


NEAR_LOG2 = F(693147180559945309417232121458, 10**30)  # within 10^-20 of log 2: no double sum tells them apart


def line_cases(seed):
    """Seeded ``(base, lift)`` pairs over a line: integer, rational and
    log-linear lifts over integer and rational bases, repeated bases with
    lifts of their own, collinear and flat lifts, two points, and
    archimedean lifts at near-ties (``NEAR_LOG2`` beside log 2)."""
    rng = random.Random(seed)
    cases = [
        [((0,), 0), ((1,), log2)],
        [((0,), 0), ((1,), NEAR_LOG2), ((2,), 2 * log2)],
        [((0,), 0), ((1,), log2), ((1,), NEAR_LOG2), ((2,), 2 * log2)],
        [((0,), NEAR_LOG2), ((1,), log2), ((2,), NEAR_LOG2), ((2,), log2)],
        [((0,), 1), ((1,), 1), ((3,), 1), ((3,), 0), ((2,), 1)],
    ]
    for _ in range(400):
        kind = rng.choice(("integer", "rational", "loglinear", "near", "flat", "collinear"))
        bases = [(F(rng.randint(-4, 4), rng.choice((1, 1, 2))),) for _ in range(rng.randint(2, 7))]
        slope, constant = F(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2) * log2 + rng.randint(-1, 1) * log3

        def lift(b):
            if kind == "integer":
                return rng.randint(-4, 4)
            if kind == "rational":
                return F(rng.randint(-9, 9), rng.randint(1, 4))
            if kind == "loglinear":
                return F(rng.randint(-7, 7), 2) + rng.randint(-2, 2) * log2 + rng.randint(-1, 1) * log3
            if kind == "near":
                return b[0] * rng.choice((log2, NEAR_LOG2)) + rng.choice((0, log3))
            return slope * b[0] + constant - (kind == "collinear" and rng.random() < 0.4) * rng.randint(1, 2)

        points = [(b, lift(b)) for b in bases]
        points += [(b, lift(b)) for b, _ in rng.sample(points, rng.randint(0, 2))]  # repeated bases
        cases.append(points)
    return cases


def lifted_integers(points):
    """``_integer_points`` of lifted points, then their ``_integer_basis``."""
    ints, primes, scale = _integer_points(points)
    return ints, primes, scale, *_integer_basis(ints, len(points[0]) - 1)


def graph_points(points):
    lifted = geomkernel._dedup([(*map(F, b), geomkernel._as_value(t)) for b, t in points])
    return lifted, lifted_integers(lifted)


def widths(simplices):
    """Σ w of the simplices of each functional."""
    total = {}
    for fn, w, _ in simplices:
        total[fn] = total.get(fn, 0) + w
    return total


def row_integral(ints, simplices):
    """Σ w times the lift rows of each upper simplex's points, as ``_envelope_integral`` sums them."""
    return [sum(w * sum(ints[i][t] for i in ids) for fn, w, ids in simplices if fn[0][1] > 0) for t in range(1, len(ints[0]))]


def envelope_map(points):
    """``_envelope_map`` of ``(base, lift)`` points, decoded."""
    ints, primes, scale = _integer_points([(*b, t) for b, t in points])
    return decoded_map(geomkernel._envelope_map(ints, primes, scale), primes, scale)


class TestChainAgainstHull:
    """Over a line ``_graph_simplices`` is Andrew's monotone chain; the one
    hull it replaced there, ``graph_simplices_by_hull``, is the reference.
    The hull keeps a point on a segment only when it is in the first
    simplex; the chain drops it."""

    def test_same_segments(self, monkeypatch):
        kinds, near, ties = set(), [], 0
        interval_sign = exactnum._interval_sign
        monkeypatch.setattr(exactnum, "_interval_sign", lambda *args: near.append(args) or interval_sign(*args))
        for points in line_cases(211):
            lifted, integers = graph_points(points)
            ints, primes, _, _, rank, base = integers
            if len(base) < 2:
                for graph in (geomkernel._graph_simplices, graph_simplices_by_hull):
                    with pytest.raises(ValueError, match="degenerate projection"):
                        graph(integers)
                continue
            lower = rank == 2  # a flat lift is not asked for its lower chain
            near.clear()
            new = geomkernel._graph_simplices(integers, lower)
            ties += bool(near)  # signs the double filter left to intervals
            ref = graph_simplices_by_hull(integers, lower)
            for fn, w, ids in new:
                assert len(ids) == 2 and w == ints[ids[1]][0] - ints[ids[0]][0] > 0
            assert widths(new) == widths(ref)
            assert row_integral(ints, new) == row_integral(ints, ref)
            assert len({fn for fn, _, _ in new}) == len(new)  # one segment per cell
            kinds.add((bool(primes), lower, len({p[0] for p in ints}) < len(ints)))
        assert len(kinds) == 6 and ties > 20  # a flat lift has no repeated base

    def test_integer_chain_against_hull(self, monkeypatch):
        """``_chain`` on its own, its segments given the functionals of
        ``_segment_fn``: the hull's simplices on rational and log-linear
        lifts with repeated bases and collinear points, its upper chain what
        ``_upper_simplices`` reads, and with no ``_sign`` without primes."""
        rng = random.Random(239)
        sign, kinds = geomkernel._sign, set()
        fail = lambda *args: pytest.fail("a sign without primes")
        for draw in range(300):
            slope, constant = F(rng.randint(-3, 3), rng.randint(1, 2)), F(rng.randint(-4, 4), rng.randint(1, 3))
            if draw % 2:  # log-linear
                constant += rng.randint(-2, 2) * log2 + rng.choice((1, -1)) * log3
            below = rng.choice((0, 0.3, 0.6))  # 0: every point on one line
            bases = [(F(rng.randint(-4, 4), rng.choice((1, 1, 2))),) for _ in range(rng.randint(2, 7))]
            points = [(b, slope * b[0] + constant - (rng.random() < below) * rng.randint(1, 2)) for b in bases]
            points += [(b, t - rng.randint(-1, 1)) for b, t in rng.sample(points, rng.randint(0, 2))]  # repeated bases
            lifted, integers = graph_points(points)
            ints, primes, _, _, rank, base = integers
            if len(base) < 2:
                continue
            lower = rank == 2  # a flat lift is not asked for its lower chain
            monkeypatch.setattr(geomkernel, "_sign", sign if primes else fail)
            chains = geomkernel._chain(ints, primes, lower)
            monkeypatch.setattr(geomkernel, "_sign", sign)
            new = [(geomkernel._segment_fn(ints, s, ids), w, ids) for s, chain in zip((1, -1), chains) for w, ids in chain]
            ref = graph_simplices_by_hull(integers, lower)
            assert widths(new) == widths(ref) and row_integral(ints, new) == row_integral(ints, ref)
            assert new == geomkernel._graph_simplices(integers, lower) and chains[0] == geomkernel._upper_simplices(integers)
            on_chain = any(a[0] < b[0] < c[0] and not any((c[0] - a[0]) * (yb - ya) - (b[0] - a[0]) * (yc - ya) for ya, yb, yc in zip(a[1:], b[1:], c[1:]))
                           for _, (i, j) in chains[0] for a, c in [(ints[i], ints[j])] for b in ints)  # a dropped collinear point
            kinds.add((bool(primes), lower, len({p[0] for p in ints}) < len(ints), on_chain))
        assert {(primes, lower, collinear) for primes, lower, _, collinear in kinds} == set(itertools.product((False, True), repeat=3))
        assert len(kinds) >= 10

    def test_no_functional_for_integrals_and_maps(self, monkeypatch):
        """Over a line the integral and the vertex-value map read the upper
        chain's widths and ids alone: no segment functional is built, and
        without primes no sign is taken; cells still get theirs."""
        cases = line_cases(241)
        expected = []
        for points in cases:
            ints, primes, scale = _integer_points([(*b, t) for b, t in points])
            spans = len({p[0] for p in ints}) > 1
            expected.append((spans, geomkernel._envelope_integral(ints, primes, scale) if spans else None, geomkernel._envelope_map(ints, primes, scale)))
        sign, segment_fn, made = geomkernel._sign, geomkernel._segment_fn, []
        monkeypatch.setattr(geomkernel, "_segment_fn", lambda *args: made.append(args) or segment_fn(*args))
        integer_chains = 0
        for points, (spans, integral, values) in zip(cases, expected):
            ints, primes, scale = _integer_points([(*b, t) for b, t in points])
            if spans:  # a chain, not the largest lift of one point
                monkeypatch.setattr(geomkernel, "_sign", sign if primes else lambda *args: pytest.fail("a sign without primes"))
                assert geomkernel._envelope_integral(ints, primes, scale) == integral
                integer_chains += not primes
            assert geomkernel._envelope_map(ints, primes, scale) == values
            monkeypatch.setattr(geomkernel, "_sign", sign)
        assert integer_chains > 50 and not made
        cells = upper_envelope([((0,), 0), ((1,), 1), ((3,), 0)])
        assert len(made) == len(cells) == 2

    def test_same_cells_and_maps(self, monkeypatch):
        cases = line_cases(223)
        found = []
        for points in cases:
            lifted, integers = graph_points(points)
            if len(integers[-1]) > 1:
                found.append((geomkernel._graph_cells(lifted, integers, lower=integers[4] == 2), upper_envelope(points)))
            found.append(envelope_map(points))
        monkeypatch.setattr(geomkernel, "_graph_simplices", graph_simplices_by_hull)
        monkeypatch.setattr(geomkernel, "_upper_simplices", lambda integers: [(w, ids) for _, w, ids in graph_simplices_by_hull(integers)])
        dropped = 0
        for points in cases:
            lifted, integers = graph_points(points)
            if len(integers[-1]) > 1:
                (upper, lower), envelope = found.pop(0)
                ref_upper, ref_lower = geomkernel._graph_cells(lifted, integers, lower=integers[4] == 2)
                for cells, ref in ((upper, ref_upper), (lower, ref_lower)):
                    assert {c: c.integral for c in cells} == {c: c.integral for c in ref} and len(cells) == len(ref)
                    assert all(len(c.points) == 2 and set(c.points) == set(c.vertices) for c in cells)
            new, ref = found.pop(0), envelope_map(points)
            assert new.keys() <= ref.keys()
            assert all(as_loglinear(new[x]) == as_loglinear(ref[x]) for x in new)
            for x in ref.keys() - new.keys():  # on a segment of the chain, with the same value
                (cell,) = [c for c in envelope if min(c.points) < (F(x[0]),) < max(c.points)]
                assert as_loglinear(cell.value_at((x[0],))) == as_loglinear(ref[x])
                dropped += 1
        assert dropped > 10 and not found

    def test_archimedean_roofs_against_riemann_sums(self):
        rng = random.Random(227)
        for _ in range(25):
            bases = sorted({(rng.randint(-3, 3),) for _ in range(rng.randint(2, 6))})
            if len(bases) < 2:
                continue
            lifts = [F(rng.randint(-5, 5), 2) + rng.randint(-2, 2) * log2 + rng.randint(-1, 1) * log3 for _ in bases]
            bases += [bases[0]]
            lifts += [lifts[0] - log3]
            integral, width = geomkernel._envelope_integral(*_integer_points([(*b, t) for b, t in zip(bases, lifts)]))
            approx, bound = riemann_roof_oracle(bases, [float(t) for t in lifts])
            assert width == bases[-2][0] - bases[0][0]
            assert abs(float(as_loglinear(integral)) - approx) <= bound

