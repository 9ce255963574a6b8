"""Exception types shared across the package."""


class MomsolveError(Exception):
    """Base class for all library errors."""


class ZeroMatrixError(MomsolveError):
    """The matrix has no nonzero entries."""


class InconsistentSystemError(MomsolveError):
    """The right-hand side is not (numerically) in the range of A."""


class InvalidRankError(MomsolveError):
    """Requested rank exceeds min(m, n) or is < 1."""


class UnsupportedError(MomsolveError):
    """Format or scheme not supported by this operation."""


class MatrixMarketParseError(MomsolveError):
    """Malformed Matrix Market file."""


class InvalidBlockSizeError(MomsolveError):
    """Block size outside [1, m]."""


class BreakdownError(MomsolveError):
    """A run broke down with its residual still large."""


class StalledSamplingError(BreakdownError):
    """Rejection sampling hit its cap while the residual is still large."""


class DegenerateDirectionError(BreakdownError):
    """Gradient and momentum direction are numerically dependent."""


class DivergedError(BreakdownError):
    """The iterate blew up: the relative solution error passed 1/eps² or is NaN."""
