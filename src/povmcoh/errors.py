"""Exception hierarchy. Three branches map to CLI exit codes:
input/validation problems (2), dimension mismatches (3), numeric failures (4)."""

from __future__ import annotations

import operator

import numpy as np


def shown(value) -> str:
    """repr(value) for a message, or its type when repr raises (an int too long to print)."""
    try:
        return repr(value)
    except Exception:
        return f"<unprintable {type(value).__name__}>"


def as_float(value, error: type, name: str) -> float:
    """float(value), or `error` when value is not a real number in the double range."""
    try:
        return float(value)
    except OverflowError:  # an int past the largest double, perhaps too long to print
        raise error(f"{name} must be a number in the double range") from None
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {shown(value)}") from None


def as_tolerance(value) -> float:
    """value as a tolerance: a float, finite and >= 0, or ValidationError.  A NaN
    tolerance would fail every check made with it, a negative one every inexact
    check, and inf would pass every one."""
    tol = as_float(value, ValidationError, "tol")
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol must be a finite number >= 0, got {tol}")
    return tol


def as_count(value, error: type, name: str) -> int:
    """operator.index(value), or `error` when value is not an integer: an int or a
    numpy integer passes, a float (even an integral one), a string or None does not."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {shown(value)}") from None


def as_array(value, error: type, name: str, dtype: type = complex) -> np.ndarray:
    """np.asarray(value, dtype=dtype), or `error` when value holds no such numbers in
    the double range."""
    try:
        return np.asarray(value, dtype=dtype)
    except OverflowError:
        raise error(f"{name} must hold numbers in the double range") from None
    except (TypeError, ValueError):
        raise error(f"{name} must be an array of numbers, got {shown(value)}") from None


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


class SingularSumError(NumericError):
    """Random POVM construction drew a numerically singular normalization sum."""


class DegenerateEnsembleError(NumericError):
    """Ensemble average state is numerically zero; no measurement can be built."""
