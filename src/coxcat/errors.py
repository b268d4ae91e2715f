"""Exception types, one per exit code of the command line.

Every `raise` in the package names one of these classes, apart from the
command line's argparse type errors and the AttributeError that Python's
attribute protocol expects from `__getattr__` and `__setattr__`:

- `UsageError` (and its `CapacityExceeded`): the caller asked for something
  the type or the arguments do not support; exit 2.
- `CheckFailed`: a checked identity or lemma does not hold, and the message
  carries the witness; exit 1, on every command.
- `InternalError`: a bound or invariant the program guarantees failed; a
  bug, so it propagates as a traceback.
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
