"""Exception hierarchy.

Every failure that carries numerical meaning gets its own type so callers
(and the CLI exit-code mapping) can tell configuration mistakes apart from
genuine numerical trouble.
"""


class BhlError(Exception):
    """Base class for all package errors."""


class WeightDomainError(BhlError):
    """Weight parameters outside the admissible range, or a profile that
    fails a required structural check (integrability, tau growth)."""


class QuadratureError(BhlError):
    """An adaptive quadrature or refinement loop failed to converge."""


class InsufficientMomentsError(BhlError):
    """A series or matrix assembly needs more moments than the table holds.

    Attributes
    ----------
    required : int
        Estimated n_max that would suffice.
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class LogConvexityError(BhlError):
    """Computed moments violate log-convexity beyond numerical slack."""


class EigenResidualError(BhlError):
    """Eigenpair residual check failed after extraction."""


class DoublingTestError(BhlError):
    """Finite sections of size N and 2N disagree.

    Attributes
    ----------
    index : int
        0-based position, in descending order, of the first offending
        eigen- or singular value.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class WindowError(BhlError):
    """An s- or n-window contains no usable sample points."""


class DivergenceError(BhlError):
    """A norm or sum that the theory says is infinite for these parameters."""


class NonConvergedError(BhlError):
    """An iterative rule hit its cap before meeting its tolerance."""


class LawMismatchError(BhlError):
    """Asymptotic-law composition with an incompatible exponent or p."""


class CoveringError(BhlError):
    """Lattice covering verification failed.

    Attributes
    ----------
    witness : complex
        An uncovered test-grid point.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConfigError(BhlError):
    """Bad CLI configuration; carries the offending section/field."""
