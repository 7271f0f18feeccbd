"""Exception types raised across the package."""


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
