"""Exact normalized heights, Chow/Hilbert weights, mixed integrals, and
multiheights of projective monomial varieties over Q, as symbolic
combinations of logarithms of primes."""

from .errors import (
    DimensionLimitError,
    EnumerationCapError,
    FactorizationLimitError,
    LatticeHypothesisError,
    ParseError,
    ToricHeightError,
)
from .exactnum import (
    LogLinearNumber,
    Place,
    approximate,
    certified_sign,
    log_abs,
    padic_order,
    relevant_places,
)
from .geomkernel import (
    Face,
    FaceLattice,
    Polytope,
    convex_hull,
    face_lattice,
    lattice_normalize,
    minkowski_sum,
    upper_envelope,
    volume,
)
from .mixed import (
    EmbeddingFamily,
    mixed_integral,
    mixed_integral_via_mv,
    mixed_volume,
    multi_chow_weight,
    multiheight,
)
from .roof import (
    LiftedPoint,
    Roof,
    lifted_polytope,
    restrict_to_face,
    roof_eval,
    roof_from_generators,
    roof_from_weight,
    roof_integral,
    roof_pointwise_sum,
    sup_convolution,
)
from .toric import (
    HeightReport,
    MonomialPair,
    arithmetic_hilbert_norm,
    chow_weight,
    degree,
    function_field_height,
    hilbert_asymptotic_gap,
    hilbert_asymptotic_gap_exact,
    hilbert_weight,
    invert,
    join,
    monomial_image,
    normalized_height,
    orbit_decomposition,
    power,
    segre,
    symmetric_height_sum,
    translate,
    veronese,
    weight_vector,
)

__version__ = "0.1.0"
