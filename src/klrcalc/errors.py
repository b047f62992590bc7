"""Exception types shared across the package."""


class KLRError(Exception):
    """Base class for all package-specific errors."""


class ContainmentError(KLRError):
    """The inner partition is not contained in the outer one."""


class InvalidMark(KLRError):
    """A mark refers to a row where nothing can be inserted."""


class NotStraightShape(KLRError):
    """The filling's shape has a non-empty inner partition."""


class NotRotatedShape(KLRError):
    """The filling's shape is not a right-justified rotated diagram."""


class DomainError(KLRError):
    """Input object is outside the operation's domain."""


class InputError(KLRError, ValueError):
    """Input could not be read or parsed.

    Also a ValueError, so callers that reject bad values by catching
    ValueError keep working on decoded input.
    """


class InternalInvariantError(KLRError):
    """A postcondition that holds by theorem failed; indicates a bug."""


class DimensionMismatch(KLRError):
    """Polynomials live in different numbers of variables."""


class NotSymmetric(KLRError):
    """Polynomial is not invariant under permuting its variables."""


class ResidualNonzero(KLRError):
    """Basis peeling left terms behind (cap too small, or a bug)."""


class DegreeError(KLRError):
    """Degrees do not match the classical specialization."""
