"""Exception hierarchy shared across the package.

Two broad classes matter for callers (and for the CLI exit-code contract):
bad inputs/preconditions versus genuine numerical failures.
"""


class DecayLabError(Exception):
    """Base class for all package errors."""


class InputError(DecayLabError, ValueError):
    """A precondition on arguments or configuration data is violated."""


class NumericError(DecayLabError, RuntimeError):
    """A numerical procedure failed (non-bracketing bisection, scheme abort, ...)."""


class SchemeError(NumericError):
    """The time-stepping scheme produced an inadmissible state."""


class LadderError(NumericError):
    """Monotonicity of an approximation ladder was violated beyond tolerance."""
