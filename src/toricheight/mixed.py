"""Mixed volumes, mixed integrals, polarized Chow weights, and the
normalized multiheight of the torus under several monomial embeddings.

Mixed volumes and mixed integrals are one polarization: of the volume
under Minkowski sums and of the roof integral under sup-convolution.  It
runs over nonempty index subsets S in order of size with the sign
(-1)^(count - |S|), which reproduces the diagonal identities
MV(Q,...,Q) = n! Vol(Q) and MI(f,...,f) = (n+1)! Int(f).  Each subset is
built from the subset one size smaller and its last member; a single
member is the input itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import LatticeHypothesisError
from .exactnum import LogLinearNumber, as_loglinear, value_sign
from .geomkernel import convex_hull, lattice_normalize, minkowski_sum, volume
from .roof import lifted_polytope, roof_from_weight, roof_integral, sup_convolution
from .toric import HeightReport, MonomialPair, _over_places, _require_full_lattice

__all__ = [
    "EmbeddingFamily",
    "mixed_volume",
    "mixed_integral",
    "mixed_integral_via_mv",
    "multi_chow_weight",
    "multiheight",
]


def _polarize(items, combine, measure):
    """Sum of (-1)^(n - |S|) measure(combination of S) over the nonempty
    subsets S of the n items, each combination built as ``combine`` of the
    subset without its last member and that member."""
    n = len(items)
    built = {(i,): item for i, item in enumerate(items)}
    total = Fraction(0)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if size > 1:
                built[subset] = combine(built[subset[:-1]], items[subset[-1]])
            total = total + measure(built[subset]) * (-1) ** (n - size)
    return total


def mixed_volume(polytopes):
    """Polarization of the volume with respect to Minkowski sums; n
    polytopes in dimension n (the empty family has mixed volume 1).
    Lifted polytopes are accepted, in which case the result is a
    log-linear number."""
    polys = list(polytopes)
    n = len(polys)
    if n == 0:
        return Fraction(1)
    if any(p.ambient_dim != n for p in polys):
        raise ValueError(f"need {n} polytopes in ambient dimension {n}")
    return _polarize(polys, minkowski_sum, volume)


def mixed_integral(roofs):
    """Polarization of the roof integral with respect to sup-convolution;
    n+1 roofs over bases of dimension n."""
    roofs = list(roofs)
    n = len(roofs) - 1
    if n < 0:
        raise ValueError("need at least one roof")
    if any(f.base_dim != n for f in roofs):
        raise ValueError(f"need {n + 1} roofs over a base of dimension {n}")
    return as_loglinear(_polarize(roofs, sup_convolution, roof_integral))


def mixed_integral_via_mv(roofs, floors):
    """Mixed integral computed through mixed volumes of the lifted
    polytopes, with the floor correction; each floor must lie at or below
    min(f_i, 0)."""
    roofs = list(roofs)
    floors = list(floors)
    n = len(roofs) - 1
    if len(floors) != len(roofs):
        raise ValueError("one floor per roof")
    if any(f.base_dim != n for f in roofs):
        raise ValueError(f"need {n + 1} roofs over a base of dimension {n}")
    lifted = []
    for f, mu in zip(roofs, floors):
        if value_sign(as_loglinear(mu)) > 0:
            raise ValueError("floors must be nonpositive")
        lifted.append(lifted_polytope(f, mu))  # also checks mu <= min(f)
    total = mixed_volume(lifted)
    for i, mu in enumerate(floors):
        others = [roofs[j].domain for j in range(len(roofs)) if j != i]
        total = total + as_loglinear(mu) * mixed_volume(others)
    return as_loglinear(total)


def multi_chow_weight(datasets) -> LogLinearNumber:
    """Polarized Chow weight of several (exponents, weights) datasets with
    full lattices, as the mixed integral of their roofs."""
    roofs = []
    for exponents, weights in datasets:
        exponents, _ = _require_full_lattice(exponents)
        roofs.append(roof_from_weight(exponents, list(weights)))
    return mixed_integral(roofs)


@dataclass(frozen=True)
class EmbeddingFamily:
    """n+1 monomial pairs with exponents in the same Z^n, one per slot of
    the multiheight."""

    members: tuple[MonomialPair, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("need at least one member")
        n = self.members[0].n_ambient
        if any(m.n_ambient != n for m in self.members):
            raise ValueError("members must share one exponent dimension")
        if len(self.members) != n + 1:
            raise ValueError(f"need exactly {n + 1} members for exponent dimension {n}")

    @property
    def torus_dim(self) -> int:
        return self.members[0].n_ambient


def _common_normalization(family: EmbeddingFamily):
    """Exponent coordinates member by member: identity when every lattice
    is already full, otherwise a shared basis when all lattices agree."""
    n = family.torus_dim
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    data = [lattice_normalize(m.exponents) for m in family.members]
    if all(r == n and basis == identity for _, r, basis in data):
        return [list(m.exponents) for m in family.members]
    bases = {basis for _, r, basis in data if r == n}
    if any(r != n for _, r, _ in data) or len(bases) != 1:
        raise LatticeHypothesisError(
            "multiheight requires every member lattice to be Z^n, or one "
            "common lattice for a joint normalization"
        )
    return [coords for coords, _, _ in data]


def multiheight(family: EmbeddingFamily) -> HeightReport:
    """Normalized multiheight of the torus for the family of embeddings:
    the sum over places of the mixed integrals of the local roofs."""
    n = family.torus_dim
    coords = _common_normalization(family)
    per, total = _over_places(
        [m.coefficients for m in family.members],
        lambda *ws: mixed_integral([roof_from_weight(c, w) for c, w in zip(coords, ws)]),
    )
    mdeg = mixed_volume(
        [convex_hull([tuple(map(Fraction, a)) for a in coords[i]]) for i in range(1, n + 1)]
    )
    if mdeg.denominator != 1:
        raise ArithmeticError("mixed degree was not integral")
    return HeightReport(total, per, int(mdeg), n, 1)
