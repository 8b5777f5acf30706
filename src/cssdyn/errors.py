"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies rather than bare ValueError/RuntimeError.
"""

import reprlib


class CssdynError(Exception):
    """Base class for all package errors."""


class DomainError(CssdynError, ValueError):
    """Input outside the mathematical domain of an operation.

    Examples: initial data violating |f0|^2 - |g0|^2 = 1, a schedule
    evaluated past its table horizon, a non-Hermitian coefficient.
    """


class NumericalError(CssdynError, RuntimeError):
    """Integration or evaluation failed to meet its accuracy contract.

    Carries the time at which the failure was detected when known.
    """

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ConvergenceError(NumericalError):
    """A truncated expansion could not be certified to the requested tail."""


class ConfigError(CssdynError, ValueError):
    """Run configuration is missing, malformed, or inconsistent."""


def _converted(convert, name: str, value, **options):
    """convert(value, **options), with the OverflowError that float, complex
    and numpy raise for an int past the floats turned into a DomainError
    that names the argument."""
    try:
        return convert(value, **options)
    except OverflowError:
        raise DomainError(f"{name} = {reprlib.repr(value)} lies past the floats") from None
