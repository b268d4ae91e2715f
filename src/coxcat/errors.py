"""Exception types, one per exit code of the command line.

UsageError (and its CapacityExceeded) means exit 2, CheckFailed exit 1;
InternalError is a bug and propagates.
"""


class CoxcatError(Exception):
    """Base class for all package-specific errors."""


class UsageError(CoxcatError):
    """The request is invalid: an unknown label or an unsupported operation for the type."""


class CapacityExceeded(UsageError):
    """The request is beyond a documented capacity limit of an exact computation."""


class CheckFailed(CoxcatError):
    """A checked identity or lemma does not hold; the message carries the witness."""


class InternalError(CoxcatError):
    """An internal invariant or proven bound failed; indicates a bug, not bad input."""
