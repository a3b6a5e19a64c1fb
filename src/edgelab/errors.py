"""Exception types shared across the package.

All of them derive from :class:`EdgeLabError` (a ``ValueError``), so callers
that do not care about the precise failure mode can catch a single class.
The CLI maps any ``EdgeLabError`` to exit code 2.
"""


class EdgeLabError(ValueError):
    """Base class for all edgelab errors."""


class NotHermitianError(EdgeLabError):
    """Input matrix is not Hermitian within tolerance."""


class DimensionMismatchError(EdgeLabError):
    """Operands have incompatible shapes."""


class InvalidParamError(EdgeLabError):
    """A parameter or matrix entry is outside its admissible range."""


class GramNotPSDError(InvalidParamError):
    """The Gram matrix implied by the requested inner products is not PSD."""


class OffdiagTooLargeError(InvalidParamError):
    """A requested inner product exceeds absolute value one."""


class ConditionViolatedError(InvalidParamError):
    """Parameters violate the strict edge-family condition."""
