"""Exception types raised across the package, and the rules every module checks its inputs by.

Each kind of input value has one rule here, written so that NaN fails it: a count
(:func:`_count`), a real number (:func:`_real_number`) and a finite real array of a
fixed shape, the 2x2 matrices of the (X, Y) calculus and the mean vector
(:func:`_real_array`).  Each raises :class:`InvalidParameter` with one message template.
"""

import numbers

import numpy as np


class BoskrausError(Exception):
    """Base class for all package errors."""


class InvalidParameter(BoskrausError):
    """A parameter is outside its admissible range."""


class CutoffTooSmall(BoskrausError):
    """The Fock cutoff cannot represent the requested object accurately."""


class TailTooLarge(BoskrausError):
    """Too much probability mass sits beyond the cutoff for the operation."""


class DimMismatch(BoskrausError):
    """Operands live on truncated spaces of different dimension."""


class UnsupportedFamily(BoskrausError):
    """The channel family is not handled by this operation."""


class DefectTooLarge(BoskrausError):
    """The completeness defect of a Kraus family exceeds its bound."""


class GridTooCoarse(BoskrausError):
    """A phase-space quadrature grid fails its self-consistency probe."""


class OrderTooLarge(BoskrausError):
    """A requested derivative/Taylor order exceeds the stable range."""


class NotPositiveDefinite(BoskrausError):
    """A Gaussian integration quadratic form is not positive definite."""


class NotCompletelyPositive(BoskrausError):
    """An (X, Y) pair violates the complete-positivity inequality."""


class Unclassifiable(BoskrausError):
    """An (X, Y) pair does not match any single canonical channel form."""


class UnsupportedPair(BoskrausError):
    """A channel pair has no closed-form composition rule."""


class AllocationTooLarge(BoskrausError):
    """A requested array would exceed the allocation limit."""


def _count(value, name: str, least: int = 0) -> int:
    """``value`` as an int if it is an integer (numpy's too, never a ``bool``) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidParameter(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _real_number(value, name: str) -> float:
    """``value`` as a float if it is a real number (numpy's too) and not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameter(f"{name} must be a real number, got {value!r}")
    return float(value)


def _real_array(value, name: str, shape: tuple = (2, 2)) -> np.ndarray:
    """``value`` as a float array if it has ``shape`` and finite real entries (a 2x2 matrix by default)."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting
        array = np.empty(0)
    if array.shape != shape or array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        raise InvalidParameter(f"{name} must be a finite real array of shape {shape}, got {value!r}")
    return array.astype(float, copy=False)
