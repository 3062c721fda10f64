"""Exception hierarchy. Three branches map to CLI exit codes:
input/validation problems (2), dimension mismatches (3), numeric failures (4)."""

from __future__ import annotations

import operator

import numpy as np


def as_float(value, error: type, name: str) -> float:
    """float(value), or `error` when value is not a real number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {value!r}") from None


def as_count(value, error: type, name: str) -> int:
    """operator.index(value), or `error` when value is not an integer: an int or a
    numpy integer passes, a float (even an integral one), a string or None does not."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def as_array(value, error: type, name: str, dtype: type = complex) -> np.ndarray:
    """np.asarray(value, dtype=dtype), or `error` when value holds no such numbers."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise error(f"{name} must be an array of numbers, got {value!r}") from None


class PovmcohError(Exception):
    """Base class for all library errors."""


class ValidationError(PovmcohError):
    """Invalid input: bad shapes, broken object invariants, out-of-range parameters."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else []


class NotSquareError(ValidationError):
    pass


class NotHermitianError(ValidationError):
    pass


class NotUnitaryError(ValidationError):
    pass


class AlphaOutOfRangeError(ValidationError):
    pass


class InvalidExponentsError(ValidationError):
    pass


class ZOutOfRangeError(ValidationError):
    pass


class XOutOfRangeError(ValidationError):
    pass


class EmptyEnsembleError(ValidationError):
    pass


class BetaNonPositiveError(ValidationError):
    pass


class DimensionMismatchError(PovmcohError):
    """Operands live on different Hilbert-space dimensions."""


class NumericError(PovmcohError):
    """A numeric kernel produced something outside its contract."""


class ConvergenceFailureError(NumericError):
    pass


class NegativeEigenvalueError(NumericError):
    """An operator that must be positive semidefinite has a genuinely negative eigenvalue."""


class DomainError(NumericError):
    """A scalar function was evaluated outside its domain (e.g. log at 0 with no limit)."""


class SingularSumError(NumericError):
    """Random POVM construction drew a numerically singular normalization sum."""


class DegenerateEnsembleError(NumericError):
    """Ensemble average state is numerically zero; no measurement can be built."""
