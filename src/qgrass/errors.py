"""Exception types shared across the package."""


class QgrassError(Exception):
    """Base class for all package errors."""


class InvalidParameters(QgrassError):
    """Raised when (q, N, D) or another configuration value is unusable."""


class SizeCapExceeded(QgrassError):
    """Raised before an enumeration whose projected size exceeds a cap.

    Carries the projected count so callers can report it without
    starting the enumeration.
    """

    def __init__(self, message: str, projected: int, cap: int):
        super().__init__(message)
        self.projected = projected
        self.cap = cap


class DimensionMismatch(QgrassError):
    """Raised when matrix or vector shapes are incompatible."""


class EigenvalueCollision(QgrassError):
    """Raised if two eigenvalues from the closed form coincide."""


class InvalidType(QgrassError):
    """Raised for a module type (alpha, beta, rho) outside the admissible range."""


class FalsifiedFact(QgrassError, ArithmeticError):
    """Raised when a computed arithmetic fact that the mathematics
    guarantees comes out false, such as a point count that is no power
    of q, a cover that breaks the slash/backslash dichotomy or a
    table that holds the wrong number of subspaces."""


class InvalidQuadruple(QgrassError):
    """Raised for a parameter quadruple (r, t, d, e) violating the
    admissibility conditions."""
