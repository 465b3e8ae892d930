"""Semantic exception hierarchy shared by all modules."""

__all__ = [
    "CoskewError",
    "DomainError",
    "UnsupportedMarginalError",
    "InvalidCorrelationError",
    "DegenerateColumnError",
    "InsufficientEventRowsError",
    "QuadratureError",
]


class CoskewError(Exception):
    """Base class for all package errors."""


class DomainError(CoskewError, ValueError):
    """An argument is outside its mathematical domain (probability, lambda, ...)."""


class UnsupportedMarginalError(CoskewError, ValueError):
    """The requested operation needs a property the marginal lacks (e.g. symmetry)."""


class InvalidCorrelationError(CoskewError, ValueError):
    """A correlation triple does not form a positive semi-definite matrix."""


class DegenerateColumnError(CoskewError, ValueError):
    """A column has zero standard deviation, so a standardized moment is undefined."""


class InsufficientEventRowsError(CoskewError, ValueError):
    """A conditioning event selects too few rows for a stable estimate."""


class QuadratureError(CoskewError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""
