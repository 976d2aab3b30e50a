"""Exception types shared across the package."""


class QTamperError(Exception):
    """Base class for all package errors."""


class DimMismatch(QTamperError):
    """Incompatible vector/matrix shapes."""


class RankDeficient(QTamperError):
    """QR pivot fell below the rank tolerance."""


class OutOfRange(QTamperError):
    """Parameter outside the supported range."""


class BudgetExceeded(QTamperError):
    """Exhaustive enumeration request beyond the fixed budget."""


class SingularGram(QTamperError):
    """Weingarten Gram matrix is singular (dimension below moment order)."""


class InvalidParams(QTamperError):
    """Code parameters violate a construction precondition."""


class NotUnitary(QTamperError):
    """Matrix fails the unitarity tolerance."""


class NotNormalized(QTamperError):
    """State vector fails the normalization tolerance."""


class ConsistencyError(QTamperError):
    """Internal cross-check failed (two computation routes disagree)."""


class InputError(QTamperError):
    """Malformed input file or CLI value."""
