"""Exception types raised by the library.

Everything derives from QEntropyError so callers can catch broadly; the
concrete classes also subclass ValueError because every one of them signals
a rejected argument.
"""

from __future__ import annotations

__all__ = [
    "QEntropyError",
    "DomainError",
    "UndefinedValueError",
    "PositivityError",
    "NormalizationError",
    "PartitionError",
    "LengthMismatchError",
    "DimensionError",
    "HypothesisError",
    "DegenerateRangeError",
    "GeneratorError",
    "ConsistencyError",
    "UnknownCaseError",
]


class QEntropyError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QEntropyError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UndefinedValueError(QEntropyError, ValueError):
    """The deformed exponential is undefined: 1 + (1-q)x <= 0."""


class PositivityError(QEntropyError, ValueError):
    """A weight vector contains a non-positive or non-finite entry."""


class NormalizationError(QEntropyError, ValueError):
    """Weights do not sum to 1 within the allowed tolerance."""


class PartitionError(QEntropyError, ValueError):
    """Blocks are not disjoint or do not cover the index set exactly."""


class LengthMismatchError(QEntropyError, ValueError):
    """Two vectors that must share a length do not."""


class DimensionError(QEntropyError, ValueError):
    """An axis index, axis count, or array shape is invalid."""


class HypothesisError(QEntropyError, ValueError):
    """Parameters violate the hypothesis under which a statement holds."""


class DegenerateRangeError(QEntropyError, ValueError):
    """A curvature range degenerates (q = 0 has identically zero curvature)."""


class GeneratorError(QEntropyError, ValueError):
    """A generator function failed construction-time validation."""


class ConsistencyError(QEntropyError, ArithmeticError):
    """Two algebraically equal evaluation routes disagreed numerically."""


class UnknownCaseError(QEntropyError, KeyError):
    """No registered verification case has the requested id."""

    def __str__(self) -> str:
        # KeyError.__str__ repr-quotes the message; keep it plain
        return str(self.args[0]) if self.args else ""
