"""Exception hierarchy shared across the package.

Every error carries the exit code the CLI maps it to: 2 for malformed
input, 3 for input that is well formed but falls outside the supported
family of representations (regular integral infinitesimal character,
self-dual finite-dimensional anchor).
"""


class SobranchError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class NotMonotoneError(SobranchError):
    """Weight entries are not weakly decreasing nonnegative integers."""

    exit_code = 2


class WrongRankError(SobranchError):
    """A weight vector has the wrong number of entries for its group."""

    exit_code = 2


class NotSelfDualError(SobranchError):
    """Weight violates self-duality (the trailing entry must vanish)."""


class SingularInfCharError(SobranchError):
    """Two entries of an infinitesimal character coincide."""


class RankMismatchError(SobranchError):
    """Interlacing requested between weights of incompatible ranks."""

    exit_code = 2


class GroupMismatchError(SobranchError):
    """A pair operation was called on non-adjacent groups."""

    exit_code = 2


class InvalidEnhancedError(SobranchError):
    """Height, rank, and signature of an enhanced parameter are inconsistent."""


class InvalidDescriptorError(SobranchError):
    """Langlands-type data fails the classification constraints."""


class NotAqLambdaError(SobranchError):
    """The parameter does not have the all-zero tail of a cohomologically induced module."""


class NotTemperedError(SobranchError):
    """Operation requires tempered (top-height) parameters."""


class NotInterlacingError(SobranchError):
    """The two weights do not interlace, so no diagram exists."""


class BadTargetError(SobranchError):
    """Chain search target is not a subgroup of the start group."""

    exit_code = 2


class InvariantError(SobranchError):
    """An internal consistency check failed: a bug in the package, not in the input."""


class OutOfRangeError(SobranchError):
    """Numeric argument outside its documented range."""

    exit_code = 2


class UnknownSuiteError(SobranchError):
    """Verification suite name not recognized."""

    exit_code = 2
