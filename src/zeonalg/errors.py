"""Exception types with stable machine-readable codes for the CLI."""

from __future__ import annotations


class ZeonError(Exception):
    """Base class for domain errors; ``code`` is the stable CLI identifier."""

    code = "domain"


class DimensionMismatch(ZeonError):
    """Operands live in different algebras or have incompatible shapes."""

    code = "dimension"


class SingularityError(ZeonError):
    """Inversion or division was attempted on a non-invertible value."""

    code = "singular"


class PolyDivisionError(ZeonError):
    """Polynomial division needs a divisor with invertible leading coefficient."""

    code = "division"


class SpectralSimplicityError(ZeonError):
    """A repeated or ill-conditioned eigenvalue blocks the requested operation."""

    code = "not_spectrally_simple"


class DoesNotSplitError(SpectralSimplicityError):
    """The polynomial has a multiple complex zero, so it does not split."""

    code = "does_not_split"

    def __init__(self, message: str, clusters: tuple = ()):  # (value, multiplicity)
        super().__init__(message)
        self.clusters = tuple(clusters)


class NotSelfAdjointError(ZeonError):
    code = "not_self_adjoint"


class NonFiniteResultError(ZeonError):
    """A computed result holds a NaN or infinite coefficient, so it is no zeon value."""

    code = "non_finite"


class NonConvergenceError(ZeonError):
    """Iteration cap reached; ``report`` carries the partial result."""

    code = "no_convergence"

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ParseError(ValueError):
    """Malformed JSON payload: wrong schema, bad indices, or bad shapes."""
