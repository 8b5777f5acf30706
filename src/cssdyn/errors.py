"""Exception types shared across the package, and the intake of numbers.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies rather than bare ValueError/RuntimeError.

Every number the library takes in passes one intake: _read for a real or
a complex number or an integer, _read_fields for the number fields of a
frozen dataclass, and _array for grids and x points.  A value is admitted
when it is a numbers.Real (a numbers.Complex where a complex number is
meant, a numbers.Integral where an integer is: numpy scalars, Fraction and
bool included) that converts to a float (a complex number, an int) without
overflow, and meets the bound of its site.  Anything else, a string, None,
or an int past the floats such as 10**400, raises a DomainError that
starts with the argument's name:

    <name> must be <bound>, got <value>
"""

import math
import numbers
import reprlib

import numpy as np


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


# the bounds of _read and their tests of the converted number (None: none
# past its kind); "real" and "complex" admit every number of their kind
# within the floats, and the bounds that name an integer a numbers.Integral
_BOUNDS = {"real": None, "complex": None, "finite": math.isfinite, "positive": lambda x: x > 0.0,
           "positive and finite": lambda x: 0.0 < x < math.inf,
           "finite and nonnegative": lambda x: 0.0 <= x < math.inf,
           "finite and nonzero": lambda x: x != 0.0 and math.isfinite(x),
           "in (0, 1)": lambda x: 0.0 < x < 1.0,
           "an integer": None, "a nonnegative integer": lambda n: n >= 0,
           "an integer of at least 2": lambda n: n >= 2}


# the kinds a bound reads as: (type, its numbers ABC, the exact built-in
# types that are instances of that ABC)
_KINDS = {"integer": (int, numbers.Integral, (int,)), "real": (float, numbers.Real, (int, float)),
          "complex": (complex, numbers.Complex, (int, float, complex))}
# each bound's reading, looked up once per read: (*its kind, its test, the
# text of a refusal)
_READINGS = {bound: (*_KINDS["integer" if "integer" in bound else "complex" if bound == "complex"
                             else "real"],
                     test, f"a {bound} number within the floats" if bound in _KINDS else bound)
             for bound, test in _BOUNDS.items()}


def _read(name: str, value, bound: str = "real"):
    """value as a float, as a complex number for the bound "complex", or as
    an int for a bound that names an integer, when it is a number of that
    kind (within the floats) that meets bound (a key of _BOUNDS); else
    DomainError naming name.

    Each bound's kind, ABC and test are looked up once (_READINGS).  A
    value whose type is exactly int, float or complex and an instance of
    the bound's ABC skips the ABC's isinstance check; any other type,
    bool and the numpy scalars included, takes it, so the result and the
    refusal are the same either way.
    """
    kind, number, exact, test, wanted = _READINGS[bound]
    try:
        x = kind(value) if type(value) in exact or isinstance(value, number) else None
    except OverflowError:  # an int or a fraction past the floats
        x = None
    if x is not None and (test is None or test(x)):
        return x
    raise DomainError(f"{name} must be {wanted}, got {_shown(value)}")


def _read_fields(record, bounds: dict) -> None:
    """Replace each named field of a frozen dataclass by its reading.

    bounds maps a field name to a bound of _read, or to a function
    value -> reading that does its own checks.
    """
    for name, bound in bounds.items():
        v = getattr(record, name)
        object.__setattr__(record, name, bound(v) if callable(bound) else _read(name, v, bound))


def _array(name: str, value) -> np.ndarray:
    """value as a float array, with numpy's own conversion; DomainError
    naming name unless every entry is a real number within the floats:
    strings, None, complex entries, ragged nesting and ints past the floats
    are refused."""
    try:
        raw = np.asarray(value)
        if raw.dtype.kind in "biuf" or all(isinstance(v, numbers.Real) for v in raw.flat):
            return np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, or an int past the floats
        pass
    raise DomainError(f"{name} must be real numbers within the floats, got {_shown(value)}")


def _shown(value) -> str:
    """A short repr of value for a message, or its type where repr raises
    (an int too long for str does)."""
    try:
        return reprlib.repr(value)
    except ValueError:
        return f"a {type(value).__name__} too long to show"
