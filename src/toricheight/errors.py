"""Exception types shared across the package and mapped to CLI exit codes
(2 parse, 3 hypothesis, 4 enumeration cap, 5 dimension limit, 6 factorization limit)."""


class ToricHeightError(Exception):
    """Base class for errors raised by this package."""


class ParseError(ToricHeightError):
    """Malformed input document, unparsable number, or a document of the
    wrong shape, such as ``mixed-integral`` weights that are not n+1
    documents of one exponent dimension n (CLI exit code 2)."""


class LatticeHypothesisError(ToricHeightError):
    """An operation that requires a full exponent lattice was given a
    non-full one (CLI exit code 3)."""


class EnumerationCapError(ToricHeightError):
    """A monomial enumeration would exceed the configured cap (CLI exit
    code 4)."""


class DimensionLimitError(ToricHeightError, ValueError):
    """A hull in an ambient dimension above ``geomkernel.MAX_DIMENSION``
    (one more for a lifted coordinate) was requested (CLI exit code 5).
    It is a ``ValueError`` so that callers catching that keep working."""


class FactorizationLimitError(ToricHeightError, ValueError):
    """An integer not factored within ``exactnum.MAX_RHO_STEPS`` rho steps (CLI exit code 6)."""
