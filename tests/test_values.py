"""Value semantics of the package's immutable records: construction with
positional and keyword arguments and defaults, validation, the ``==`` and
hash rules, read-only fields, cached properties, ``repr``, and pickling
and copying."""

import copy
import pickle
from fractions import Fraction

import pytest

from toricheight.exactnum import LogLinearNumber, Place
from toricheight.geomkernel import AffineCell, Face, Facet, _SimplicialFacet, convex_hull, face_lattice
from toricheight.mixed import EmbeddingFamily
from toricheight.roof import LiftedPoint, Roof, roof_from_weight
from toricheight.toric import HeightReport, MonomialPair, normalized_height

F = Fraction
LOG2 = LogLinearNumber.log_prime(2)
CUBIC = MonomialPair.make([(0,), (1,), (2,), (3,)], [1, 4, F(1, 3), F(1, 2)])
LINE = MonomialPair.make([(0,), (1,)], [1, 2])


def cell(points=((0, 0), (1, 0), (0, 1)), gradient=(F(1), F(0)), offset=F(2), integral=F(1)):
    return AffineCell(tuple(tuple(map(F, p)) for p in points), gradient, offset, integral)


def field_repr(obj, fields):
    return f"{type(obj).__qualname__}({', '.join(f'{f}={getattr(obj, f)!r}' for f in fields)})"


def examples():
    """One instance of every public record, with its field names."""
    roof = roof_from_weight([(0,), (1,), (3,)], [F(0), 2 * LOG2, LOG2])
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    return [
        (Place(3), ("prime",)),
        (Place(), ("prime",)),
        (LogLinearNumber(F(1, 2), ((2, F(3)), (5, F(-1)))), ("constant", "logterms")),
        (square.facets[0], ("normal", "offset", "vertex_ids")),
        (roof.cells[0], ("points", "gradient", "offset", "integral")),
        (face_lattice(square).faces[0], ("dim", "vertex_ids")),
        (roof, ("generators",)),
        (roof.generators[1], ("base", "lift")),
        (CUBIC, ("exponents", "coefficients")),
        (normalized_height(CUBIC), ("value", "per_place", "degree", "dim", "scale")),
        (EmbeddingFamily((LINE, CUBIC)), ("members",)),
    ]


EXAMPLES = examples()
IDS = [type(x).__name__ for x, _ in EXAMPLES]


class TestConstruction:
    def test_place(self):
        assert Place().prime is None and Place(prime=7).prime == 7 == Place(7).prime
        assert Place.infinite() == Place() and Place.finite(5) == Place(5)
        with pytest.raises(ValueError, match="^4 is not a prime$"):
            Place(4)

    def test_loglinear(self):
        zero = LogLinearNumber()
        assert zero.constant == 0 and isinstance(zero.constant, Fraction) and zero.logterms == ()
        x = LogLinearNumber(logterms=((3, F(1)),), constant=F(2))
        assert (x.constant, x.logterms) == (2, ((3, 1),)) and x == LogLinearNumber(F(2), ((3, F(1)),))
        assert LogLinearNumber(F(5)).logterms == ()
        for bad in (((3, F(1)), (2, F(1))), ((2, F(1)), (2, F(2)))):
            with pytest.raises(ValueError, match="^log terms must have strictly ascending primes$"):
                LogLinearNumber(F(0), bad)
        with pytest.raises(ValueError, match="^zero coefficients must not be stored$"):
            LogLinearNumber(logterms=((2, F(1)), (3, F(0))))

    def test_simplicial_facet(self):
        f = _SimplicialFacet(ids=frozenset({0, 1}), fn=((1, 0, 2),))
        assert f.ids == {0, 1} and f.fn == ((1, 0, 2),)

    def test_facet_face(self):
        assert Facet(normal=(1, 0), offset=2, vertex_ids=(0, 1)) == Facet((1, 0), 2, (0, 1))
        assert Face(vertex_ids=frozenset({1}), dim=0).vertex_ids == {1}

    def test_affine_cell(self):
        c = AffineCell(points=((F(0),), (F(1),)), gradient=(F(1),), offset=F(0), integral=F(1, 2))
        assert c.value_at((F(1, 2),)) == F(1, 2) and c.integral == F(1, 2)

    def test_roof(self):
        f = roof_from_weight([(0,), (2,)], [F(0), F(4)])
        g = Roof(generators=f.generators)
        assert g == f and g.base_dim == 1

    def test_lifted_point(self):
        p = LiftedPoint(base=(F(1),), lift=F(2))
        assert p == ((F(1),), F(2)) and p.base == (F(1),) and p.lift == F(2) and p._fields == ("base", "lift")

    def test_monomial_pair(self):
        assert MonomialPair(coefficients=(F(1),), exponents=((0,),)).size == 1
        for exps, coeffs, message in [
            (((0,), (1,)), (F(1),), "exponents and coefficients must have equal length"),
            ((), (), "need at least one monomial"),
            (((0,), (1, 0)), (F(1), F(1)), "exponent vectors must share one dimension"),
            (((0,), (1,)), (F(1), F(0)), "zero coefficients are not allowed; drop them first"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                MonomialPair(exps, coeffs)

    def test_height_report(self):
        r = HeightReport(value=LOG2, per_place=((Place(), LOG2),), degree=1, dim=1, scale=2)
        assert r == HeightReport(LOG2, ((Place(), LOG2),), 1, 1, 2) and r.place_map() == {Place(): LOG2}

    def test_embedding_family(self):
        assert EmbeddingFamily(members=(LINE, CUBIC)).torus_dim == 1
        square = MonomialPair.make([(0, 0), (1, 0), (0, 1)], [1, 1, 1])
        for members, message in [
            ((), "need at least one member"),
            ((LINE, square), "members must share one exponent dimension"),
            ((LINE,), "need exactly 2 members for exponent dimension 1"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                EmbeddingFamily(members)


class TestEquality:
    @pytest.mark.parametrize("value, fields", EXAMPLES, ids=IDS)
    def test_field_equality_and_hash(self, value, fields):
        twin = type(value)(*(getattr(value, f) for f in fields))
        assert twin == value and not twin != value and hash(twin) == hash(value)
        if not isinstance(value, (LogLinearNumber, AffineCell)):
            assert hash(value) == hash(tuple(getattr(value, f) for f in fields))
            assert value != fields and (value == object()) is False

    def test_unequal_fields(self):
        assert Place(2) != Place(3) and Place() != Place(2)
        assert Facet((1, 0), 2, (0, 1)) != Facet((1, 0), 2, (1, 0))
        assert Face(1, frozenset({0, 1})) != Face(0, frozenset({0, 1}))
        assert MonomialPair(((0,),), (F(1),)) != MonomialPair(((0,),), (F(2),))

    def test_loglinear_equals_its_rational(self):
        assert LogLinearNumber(F(3, 2)) == F(3, 2) and hash(LogLinearNumber(F(3, 2))) == hash(F(3, 2))
        assert LogLinearNumber(F(3)) == 3 and LOG2 != 0
        assert hash(LOG2) == hash((F(0), ((2, F(1)),)))

    def test_simplicial_facets_compare_by_identity(self):
        a = _SimplicialFacet(frozenset({0, 1}), ((1, 0, 2),))
        b = _SimplicialFacet(frozenset({0, 1}), ((1, 0, 2),))
        assert a == a and a != b and len({a, b}) == 2 and hash(a) == object.__hash__(a)

    def test_affine_cell_rule(self):
        c = cell()
        # points in another order, another integral: the same cell
        same = cell(points=((0, 1), (0, 0), (1, 0)), integral=F(7))
        assert c == same and hash(c) == hash(same) == hash((c.gradient, c.offset))
        assert c != cell(offset=F(3)) and c != cell(gradient=(F(0), F(1)))
        assert c != cell(points=((0, 0), (2, 0), (0, 1)))
        assert c != (c.points, c.gradient, c.offset, c.integral)

    def test_affine_cell_hull_drops_inner_points(self):
        c = cell(points=((0, 0), (2, 0), (0, 2), (1, 0)))
        assert c == cell(points=((0, 0), (2, 0), (0, 2)))


class TestReadOnly:
    @pytest.mark.parametrize("value, fields", EXAMPLES, ids=IDS)
    def test_fields_cannot_be_assigned(self, value, fields):
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(value, f, None)
            with pytest.raises(AttributeError):
                delattr(value, f)
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_simplicial_facet_is_read_only(self):
        f = _SimplicialFacet(frozenset({0}), ((1,),))
        with pytest.raises(AttributeError):
            f.fn = ()
        assert f.fn == ((1,),)


class TestCachedProperties:
    def test_affine_cell_polytope_built_once(self):
        c = cell(points=((0, 0), (1, 0), (0, 1), (1, 1)))
        assert c.polytope is c.polytope and set(c.vertices) == set(c.points)
        assert c.vertices is c.polytope.vertices

    def test_affine_cell_vertices_can_be_seeded(self):
        # the envelope writes a simplex's points as its vertices, skipping its hull
        c = cell()
        c.__dict__["vertices"] = c.points
        assert c.vertices is c.points and "polytope" not in c.__dict__

    def test_envelope_cells_and_roof_domain(self):
        f = roof_from_weight([(0, 0), (1, 0), (0, 1)], [F(0), F(1), F(2)])
        (c,) = f.cells
        assert c.vertices is c.points and "polytope" not in c.__dict__
        assert f.domain is f.domain and set(f.domain.vertices) == {(0, 0), (1, 0), (0, 1)}


class TestRepr:
    @pytest.mark.parametrize("value, fields", EXAMPLES, ids=IDS)
    def test_repr_names_class_and_fields(self, value, fields):
        if isinstance(value, LogLinearNumber):
            assert repr(value) == f"LogLinearNumber({value})"
        else:
            assert repr(value) == field_repr(value, fields)

    def test_private_records(self):
        f = _SimplicialFacet(frozenset({0}), ((1,),))
        assert repr(f) == "_SimplicialFacet(ids=frozenset({0}), fn=((1,),))"
        assert repr(Place()) == "Place(prime=None)" and repr(Face(0, frozenset({2}))) == "Face(dim=0, vertex_ids=frozenset({2}))"


@pytest.mark.parametrize("value, fields", EXAMPLES, ids=IDS)
@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_round_trip(value, fields, how):
    again = {
        "pickle": lambda x: pickle.loads(pickle.dumps(x)),
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
    }[how](value)
    assert type(again) is type(value) and again == value and hash(again) == hash(value)
    assert all(getattr(again, f) == getattr(value, f) for f in fields)
    assert repr(again) == repr(value)
