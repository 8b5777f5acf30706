"""Time-dependent quadratic Hamiltonians in two equivalent parameterizations.

The most general Hermitian Hamiltonian quadratic in (a, a†) is

    H / hbar = (1/2) (conj(alpha) a^2 + alpha a†^2) + beta a†a
               + conj(gamma) a + gamma a† + delta

with alpha, gamma complex and beta, delta real.  The same operator written
in canonical variables reads

    H = p^2/(2m) + k x^2/2 + (Omega/2)(xp + px) + F x + V p + E

with six real coefficients.  Fixing hbar and the oscillator length l of the
mode basis, a = (x/l + i l p/hbar)/sqrt(2), the two sets map onto each other
exactly:

    1/m = (l^2/hbar) Re(beta - alpha)        k = (hbar/l^2) Re(beta + alpha)
    Omega = Im(alpha)                        F = (sqrt(2) hbar / l) Re(gamma)
    V = sqrt(2) l Im(gamma)                  E = hbar (delta - beta/2)

and inversely

    beta  = (l^2/2hbar)(k + hbar^2/(l^4 m))
    alpha = (l^2/2hbar)(k - hbar^2/(l^4 m)) + i Omega
    gamma = (l/(hbar sqrt(2)))(F + i hbar V / l^2)
    delta = E/hbar + (l^2/4hbar)(k + hbar^2/(l^4 m))

This module holds both coefficient records, the conversion maps, the time
profiles a coefficient may follow (constant, harmonic, polynomial, sampled
table), and a schedule bundling one profile per coefficient.  Each map is
written once, as a function of the coefficient values built from the unit
constants; to_algebraic, to_physical and the schedule's evaluators all
call it.  The hermiticity and mass checks are written once too, as the
checked reading of each coefficient's value, which the records, the
evaluators and validate share.  Every number enters through the package's
one intake (errors._read), the unit constants and the profiles' parameters
included.
A schedule is evaluated through one compiled function t -> (alpha, beta,
gamma, delta), the same at every t, which calls each profile once: each
package profile's value is one closure, built once from its parameters,
which the function calls directly where the coefficient's type allows it.
It tests only the mass, and reads the checked readings again only where a
time past the floats raises OverflowError.  validate alone decides each
profile over an interval, exactly, and samples only what it cannot decide.
The schedule also lists its knots, the sample times of its tables, where
the coefficients may have a kink: integrators put step edges there.
"""

from __future__ import annotations

import cmath
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from .errors import _BOUNDS, DomainError, _read, _read_fields, _shown

# ---------------------------------------------------------------------------
# units


@dataclass(frozen=True)
class UnitContext:
    """hbar and the oscillator length l fixing the mode basis.

    Both are positive finite numbers; everything downstream (coefficient
    maps, means, widths, wavefunctions) is evaluated relative to this pair.
    """

    hbar: float = 1.0
    l: float = 1.0

    def __post_init__(self):
        _read_fields(self, {"hbar": "positive and finite", "l": "positive and finite"})


# ---------------------------------------------------------------------------
# coefficient records


@dataclass(frozen=True)
class AlgebraicCoefficients:
    """Coefficients of H/hbar in the (a, a†) form at one instant.

    beta and delta are stored as floats: hermiticity makes them real, and
    keeping them real-typed means Im(beta) = Im(delta) = 0 holds bit-exactly.
    """

    alpha: complex = 0j
    beta: float = 0.0
    gamma: complex = 0j
    delta: float = 0.0

    def __post_init__(self):
        _read_fields(self, {key: _READ[key] for key in _ALGEBRAIC_KEYS})


@dataclass(frozen=True)
class PhysicalCoefficients:
    """Coefficients of H in the (x, p) form at one instant.

    m may be negative (the algebraic side puts no sign constraint on it)
    but must be finite and nonzero.
    """

    m: float = 1.0
    k: float = 0.0
    Omega: float = 0.0
    F: float = 0.0
    V: float = 0.0
    E: float = 0.0

    def __post_init__(self):
        _read_fields(self, {key: _READ[key] for key in _PHYSICAL_KEYS})


_ALGEBRAIC_KEYS = ("alpha", "beta", "gamma", "delta")
_PHYSICAL_KEYS = ("m", "k", "Omega", "F", "V", "E")
_COMPLEX_KEYS = ("alpha", "gamma")


def _reading(name: str):
    """The checked reading of coefficient name: a profile's or a record's
    value -> the coefficient.

    The value enters as a complex number through the intake (errors._read),
    which refuses anything else naming the coefficient.  alpha and gamma
    stay complex.  Hermiticity makes every other coefficient real: it reads
    as a float, and a nonzero imaginary part raises DomainError.  The mass
    is then held to the test of the intake's bound "finite and nonzero",
    and read through the intake a second time only to raise its refusal.
    """
    if name in _COMPLEX_KEYS:
        return lambda value: _read(name, value, "complex")
    mass = _BOUNDS["finite and nonzero"] if name == "m" else None

    def read(value):
        z = _read(name, value, "complex")
        if z.imag:
            raise DomainError(f"{name} must be real (hermiticity), got {z!r}")
        return z.real if mass is None or mass(z.real) else _read("mass", z.real, "finite and nonzero")

    return read


_READ = {name: _reading(name) for name in _ALGEBRAIC_KEYS + _PHYSICAL_KEYS}


def _algebraic_map(units: UnitContext):
    """(m, k, Omega, F, V, E) -> (alpha, beta, gamma, delta) at fixed units.

    Raises DomainError when l^4 m underflows to 0 for a nonzero mass, where
    hbar^2 / (l^4 m) has no value.
    """
    hbar, l = units.hbar, units.l
    hbar2, l4, ll, ihbar = hbar * hbar, l ** 4, l * l, 1j * hbar
    half = ll / (2.0 * hbar)
    quarter = 0.5 * half
    gscale = l / (hbar * math.sqrt(2.0))

    def algebraic(m, k, Omega, F, V, E):
        try:
            recip = hbar2 / (l4 * m)  # hbar^2 / (l^4 m)
        except ZeroDivisionError:
            raise DomainError(f"l^4 m underflows to 0 for mass {m!r} and l = {l!r}: "
                              "hbar^2 / (l^4 m) has no float value") from None
        kr = k + recip
        return (half * (k - recip) + 1j * Omega, half * kr,
                gscale * (F + ihbar * V / ll), E / hbar + quarter * kr)

    return algebraic


def _physical_map(units: UnitContext):
    """(alpha, beta, gamma, delta) -> (m, k, Omega, F, V, E) at fixed units.

    Raises DomainError when Re(beta - alpha) = 0, an infinite mass, and when
    the mass it gives is not finite and nonzero.
    """
    hbar, l = units.hbar, units.l
    mscale, kscale = l * l / hbar, hbar / (l * l)
    fscale, vscale = math.sqrt(2.0) * hbar / l, math.sqrt(2.0) * l
    read_m = _READ["m"]

    def physical(alpha, beta, gamma, delta):
        inv_m = mscale * (beta - alpha.real)
        if inv_m == 0.0:
            raise DomainError("Re(beta - alpha) = 0: no finite-mass (x, p) form exists")
        m = read_m(1.0 / inv_m)
        return (m, kscale * (beta + alpha.real), alpha.imag, fscale * gamma.real,
                vscale * gamma.imag, hbar * (delta - 0.5 * beta))

    return physical


def to_algebraic(phys: PhysicalCoefficients, units: UnitContext) -> AlgebraicCoefficients:
    """Map (m, k, Omega, F, V, E) to (alpha, beta, gamma, delta) at fixed units."""
    return AlgebraicCoefficients(*_algebraic_map(units)(
        phys.m, phys.k, phys.Omega, phys.F, phys.V, phys.E))


def to_physical(alg: AlgebraicCoefficients, units: UnitContext) -> PhysicalCoefficients:
    """Map (alpha, beta, gamma, delta) to (m, k, Omega, F, V, E) at fixed units.

    Raises DomainError when Re(beta - alpha) = 0, which corresponds to an
    infinite mass: the (x, p) form does not exist there.
    """
    return PhysicalCoefficients(*_physical_map(units)(alg.alpha, alg.beta, alg.gamma, alg.delta))


# ---------------------------------------------------------------------------
# time profiles
#
# A profile is a scalar callable t -> value.  Each package profile is built
# once from its parameters: Harmonic, Polynomial and Table coerce theirs to
# floats and are float-valued, Constant keeps a float or a complex value,
# and ComplexParts assembles two profiles.  Its value is one closure, which
# __call__ returns and the schedule's evaluator calls directly where the
# coefficient's type allows it.  Coefficients that must stay real (beta,
# delta, every physical one) read any other profile through the checked
# reading on every call, so a value that turns complex between any two
# sampled times is still caught.


class _Profile:
    """A package profile: __post_init__ stores its value, a closure of t
    built from the fields, as _value."""

    def __call__(self, t: float):
        return self._value(t)

    def __reduce__(self):  # the closure is rebuilt from the fields
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _reals(profile, name: str) -> tuple:
    """The sequence field name of profile as a tuple of floats, set back on
    it; DomainError unless it is a nonempty sequence of real numbers within
    the floats, each read by the intake (errors._read)."""
    given, label = getattr(profile, name), f"{type(profile).__name__}.{name}"
    values = tuple(_read(label, v) for v in given) if hasattr(given, "__iter__") else ()
    if not values:
        raise DomainError(f"{type(profile).__name__}.{name} must be a nonempty sequence of "
                          f"real numbers, got {given!r}")
    profile.__dict__[name] = values
    return values


@dataclass(frozen=True)
class Constant(_Profile):
    """A constant value: a float for a real number, else a complex number."""

    value: complex = 0.0

    def __post_init__(self):
        real = isinstance(self.value, numbers.Real) or not isinstance(self.value, numbers.Complex)
        value = _read("Constant.value", self.value, "real" if real else "complex")
        self.__dict__.update(value=value, _value=lambda t: value)


@dataclass(frozen=True)
class Harmonic(_Profile):
    """offset + amplitude * cos(omega * t), in floats.

    Raises DomainError where omega * t overflows, so cos has no value.
    """

    offset: float = 0.0
    amplitude: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        o, a, w = (_read(f"Harmonic.{f.name}", getattr(self, f.name)) for f in fields(Harmonic))
        self.__dict__.update(offset=o, amplitude=a, omega=w)
        cos = math.cos

        def harmonic(t):
            try:
                return o + a * cos(w * t)
            except ValueError:  # math.cos(inf)
                raise DomainError(
                    f"harmonic profile has no value at t={t!r}: omega * t = {w * t!r}") from None

        self.__dict__["_value"] = harmonic


@dataclass(frozen=True)
class Polynomial(_Profile):
    """sum_k coeffs[k] * t^k (ascending order), by Horner's rule in floats."""

    coeffs: tuple = (0.0,)

    def __post_init__(self):
        backwards = _reals(self, "coeffs")[::-1]

        def polynomial(t):
            acc, t = 0.0, float(t)
            for c in backwards:
                acc = acc * t + c
            return acc

        self.__dict__["_value"] = polynomial


@dataclass(frozen=True)
class Table(_Profile):
    """Piecewise-linear interpolation through (times, values) samples.

    times must be strictly increasing.  Evaluation outside
    [times[0], times[-1]], or at a non-finite time, raises DomainError: no
    extrapolation.  The value is np.interp's, bit for bit: the knot is found
    by bisection and np.interp's formula is applied to it.

    The profile has a kink at each interior knot, so a schedule holding the
    table lists its times as knots (CoefficientSchedule.knots), and evolve
    restarts its integrator there instead of stepping across.
    """

    times: tuple = (0.0,)
    values: tuple = (0.0,)

    def __post_init__(self):
        ts, ys = _reals(self, "times"), _reals(self, "values")
        if len(ys) != len(ts):
            raise DomainError("table needs equally many times and values")
        if not all(a < b for a, b in zip(ts, ts[1:])):
            raise DomainError("table times must be strictly increasing")
        slopes = tuple((ys[j + 1] - ys[j]) / (ts[j + 1] - ts[j]) for j in range(len(ts) - 1))

        def table(t):  # np.interp, operation for operation
            if not ts[0] <= t <= ts[-1]:  # NaN fails both comparisons
                raise DomainError(
                    f"table evaluated at t={t!r} outside its horizon [{ts[0]}, {ts[-1]}]")
            x = float(t)
            j = bisect_right(ts, x) - 1
            if ts[j] == x:  # at the last knot too
                return ys[j]
            y = slopes[j] * (x - ts[j]) + ys[j]
            if y != y:  # NaN one way: np.interp tries from the right knot
                y = slopes[j] * (x - ts[j + 1]) + ys[j + 1]
                if y != y and ys[j] == ys[j + 1]:
                    y = ys[j]
            return y

        self.__dict__["_value"] = table


def _direct(profile, kind: str) -> bool:
    """Whether the evaluator calls profile's own closure for a coefficient
    read as kind, "real", "mass" or "complex": a float-valued package
    profile for a real one, a complex Constant or a ComplexParts of two
    float-valued package profiles for a complex one.  The closure is the
    profile's value, already of the type the checked reading returns, so
    the reading would only check it.  A subclass of a package class, a
    ComplexParts with any other part, and any other callable, is read
    checked.
    """
    if type(profile) is Constant:
        return type(profile.value) is (complex if kind == "complex" else float)
    if type(profile) is ComplexParts:
        return kind == "complex" and _direct(profile.real, "real") and _direct(profile.imag, "real")
    return kind != "complex" and type(profile) in (Harmonic, Polynomial, Table)


@dataclass(frozen=True)
class ComplexParts(_Profile):
    """Complex profile assembled from independent real and imaginary profiles.

    Bare numbers are coerced to Constant profiles, as as_profile() does.
    The value is real(t) + 1j * imag(t), each part read as a complex
    number by the package's intake (errors._read): a part whose value is
    not a number within the floats, a string say, raises DomainError naming
    ComplexParts.real or ComplexParts.imag, and a schedule's evaluator
    names the coefficient and the time instead.  For two float-valued
    package profiles the parts need no reading, and the value is formed as
    complex(x + 0.0 * y, y + 0.0), which is the same bit for bit at every
    float.
    """

    real: object = Constant(0.0)
    imag: object = Constant(0.0)

    def __post_init__(self):
        real, imag = as_profile(self.real), as_profile(self.imag)
        self.__dict__.update(real=real, imag=imag)
        if _direct(real, "real") and _direct(imag, "real"):
            x, y = real._value, imag._value

            def parts(t):
                a, b = x(t), y(t)
                return complex(a + 0.0 * b, b + 0.0)
        else:
            def parts(t):
                return (_read("ComplexParts.real", real(t), "complex")
                        + 1j * _read("ComplexParts.imag", imag(t), "complex"))

        self.__dict__["_value"] = parts


def as_profile(value) -> object:
    """Coerce a bare number to a Constant profile; pass callables through."""
    return value if callable(value) else Constant(value)


# ---------------------------------------------------------------------------
# schedule

_KEYS = {"algebraic": _ALGEBRAIC_KEYS, "physical": _PHYSICAL_KEYS}


@dataclass(frozen=True)
class CoefficientSchedule:
    """One profile per coefficient, plus the units the profiles live in.

    Exactly one parameterization ("algebraic" or "physical") is authoritative;
    the other is obtained through the exact maps on demand, and profiles
    must name each of its coefficients and no other (DomainError otherwise).
    Construct via the algebraic()/physical() classmethods rather than
    directly.

    Every evaluation goes through one evaluator, compiled on first use (so
    the profiles are read then): t -> (alpha, beta, gamma, delta), with the
    physical -> algebraic map applied for physical schedules.  Its values
    are those of the checked reading the coefficient records use, so beta,
    delta and every physical coefficient must be real and the mass finite
    and nonzero, with the records' errors.  A package profile is read
    through its own closure without per-call checks where the coefficient's
    type allows it (_direct): a float-valued profile for a real coefficient,
    a complex Constant or a ComplexParts of two float-valued profiles for
    alpha and gamma.  Any other profile, a foreign callable for one, is
    read through its checked reading.  A call reads each profile once and
    tests only the mass; there is no second pass, except that a time past
    the floats, where a closure raises OverflowError, is read again
    checked, which names the coefficient.  So compiled(), algebraic_at and
    physical_at return the checked values, or raise the checked reading's
    first error, at every t, from the one evaluator the schedule compiles.
    The other parameterization is the unit map applied to that evaluator;
    a physical schedule's two forms are one function body, which hands the
    six values to the map or returns them.  A schedule of Constants read
    directly has the same values at every t: each form's value is computed
    once, by that form, and returned on every call, unless computing it
    raises (a mass of 0, or Re(beta - alpha) = 0 for the physical form of
    an algebraic schedule), in which case every call raises it.

    The knots (knots()) are compiled with the evaluators: the union of the
    times of every Table profile, those inside ComplexParts included.
    Between two knots every table is linear; at a knot the coefficients may
    kink, so evolve takes them as step edges.  Other callables add none.
    """

    units: UnitContext
    parameterization: str
    profiles: Mapping[str, object] = field(default_factory=dict)
    _evaluators: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.parameterization not in _KEYS:
            raise DomainError(
                f"parameterization must be 'algebraic' or 'physical', got {self.parameterization!r}"
            )
        unknown = set(self.profiles) - set(_KEYS[self.parameterization])
        if unknown:
            raise DomainError(f"unknown coefficient keys {sorted(unknown)} for {self.parameterization}")
        missing = set(_KEYS[self.parameterization]) - set(self.profiles)
        if missing:
            raise DomainError(f"missing coefficient keys {sorted(missing)} for {self.parameterization}")

    @classmethod
    def algebraic(cls, units: UnitContext = UnitContext(), *, alpha=0.0, beta=0.0,
                  gamma=0.0, delta=0.0) -> "CoefficientSchedule":
        profiles = dict(zip(_ALGEBRAIC_KEYS, map(as_profile, (alpha, beta, gamma, delta))))
        return cls(units=units, parameterization="algebraic", profiles=profiles)

    @classmethod
    def physical(cls, units: UnitContext = UnitContext(), *, m=1.0, k=0.0,
                 Omega=0.0, F=0.0, V=0.0, E=0.0) -> "CoefficientSchedule":
        profiles = dict(zip(_PHYSICAL_KEYS, map(as_profile, (m, k, Omega, F, V, E))))
        return cls(units=units, parameterization="physical", profiles=profiles)

    def _compiled(self) -> tuple:
        if self._evaluators is None:
            object.__setattr__(self, "_evaluators", _compile(self))
        return self._evaluators

    def compiled(self):
        """The evaluator t -> (alpha, beta, gamma, delta), the same at every
        t, bit-identical to the records' route (to_algebraic of the physical
        record)."""
        return self._compiled()[0]

    def knots(self) -> tuple:
        """Sorted distinct times of every Table profile, as floats."""
        return self._compiled()[2]

    # The records below hold values the compiled evaluator already checked:
    # they are filled straight through their __dict__, where the frozen
    # dataclass's __init__ puts them one object.__setattr__ at a time, so
    # they equal and hash like constructed ones.

    def algebraic_at(self, t: float) -> AlgebraicCoefficients:
        record = object.__new__(AlgebraicCoefficients)
        row = record.__dict__
        row["alpha"], row["beta"], row["gamma"], row["delta"] = self._compiled()[0](t)
        return record

    def physical_at(self, t: float) -> PhysicalCoefficients:
        record = object.__new__(PhysicalCoefficients)
        row = record.__dict__
        row["m"], row["k"], row["Omega"], row["F"], row["V"], row["E"] = self._compiled()[1](t)
        return record


# what each coefficient reads as: "complex", "mass" or "real"
_KIND = {key: "complex" if key in _COMPLEX_KEYS else "mass" if key == "m" else "real"
         for key in _ALGEBRAIC_KEYS + _PHYSICAL_KEYS}


def _compile(schedule: CoefficientSchedule) -> tuple:
    """(algebraic, physical, knots) of a schedule, checks included.

    algebraic is t -> (alpha, beta, gamma, delta) and physical is
    t -> (m, k, Omega, F, V, E).  The schedule's own form calls each
    profile once: its own closure where the coefficient's type allows it
    (_direct), its checked reading otherwise.  A closure's value already
    has the type the checked reading returns, and the checked reading
    refuses no other non-finite value than the mass, so the values are the
    checked ones and a raising closure raises the checked reading's error.
    Two cases are left.  A physical schedule reads m first, and a direct
    mass that is 0 or not finite is refused by the mass's reading.  A time
    past the floats, where a closure raises OverflowError, is read checked,
    which names the coefficient.  The other form applies the unit map to
    it, so both equal the records' route (to_algebraic or to_physical of
    the authoritative record) by construction.  For a physical schedule
    both forms come from one body, fused(out), which reads the six
    profiles and passes them to out: the unit map for algebraic, the tuple
    for physical, with no call or tuple between.  When every profile is a
    Constant read directly, whose closure returns its value at any t, each
    form is folded (_folded): its value is computed once, by the form
    itself, and returned on every call.  knots is the sorted tuple of
    distinct Table times over the profiles.
    """
    profiles = [(key, schedule.profiles[key]) for key in _KEYS[schedule.parameterization]]
    checked = [_checked(key, profile) for key, profile in profiles]
    closures = [profile._value if _direct(profile, _KIND[key]) else reading
                for (key, profile), reading in zip(profiles, checked)]
    knots = tuple(sorted({t for _, profile in profiles for t in _knots(profile)}))
    if schedule.parameterization == "algebraic":
        a, b, g, d = closures

        def algebraic(t):
            try:
                return a(t), b(t), g(t), d(t)
            except OverflowError:  # a time past the floats
                return tuple(read(t) for read in checked)

        pmap = _physical_map(schedule.units)
        evaluators = algebraic, lambda t: pmap(*algebraic(t))
    else:
        m, k, O, F, V, E = closures
        finite, read_m = math.isfinite, _READ["m"]

        def fused(out):  # t -> out(m, k, Omega, F, V, E), the body of both forms
            def evaluate(t):
                try:
                    mass = m(t)
                    if not (mass and finite(mass)):
                        read_m(mass)  # raises the mass's error
                    return out(mass, k(t), O(t), F(t), V(t), E(t))
                except OverflowError:  # a time past the floats
                    return out(*[read(t) for read in checked])

            return evaluate

        evaluators = fused(_algebraic_map(schedule.units)), fused(lambda *values: values)
    if all(type(profile) is Constant and _direct(profile, _KIND[key]) for key, profile in profiles):
        evaluators = tuple(map(_folded, evaluators))
    return (*evaluators, knots)


def _folded(evaluator):
    """t -> evaluator's value at t = 0, computed once, for a schedule whose
    every profile is a Constant read directly, which is the same at every
    t; evaluator itself where that computation raises, so that each call
    raises its error."""
    try:
        value = evaluator(0.0)
    except (ArithmeticError, DomainError):  # each call raises it instead
        return evaluator
    return lambda t: value


def _checked(key: str, profile):
    """t -> the checked reading of profile(t) as coefficient key.

    A time past the floats, where the profile raises OverflowError, and a
    value the intake refuses (a non-number, or a number past the floats)
    raise DomainError naming key and t.  A ComplexParts the evaluator does
    not call directly (_direct) is read part by part, so that the value of
    either part is held to the same rule.
    """
    read = _READ[key]
    if type(profile) is ComplexParts and not _direct(profile, "complex"):
        real = _intake(key, profile.real, "its real part")
        imag = _intake(key, profile.imag, "its imaginary part")
        return lambda t: read(real(t) + 1j * imag(t))
    value = _intake(key, profile)
    return lambda t: read(value(t))


def _intake(key: str, profile, what: str = "its value"):
    """t -> profile(t) as a complex number, read by the intake as what; its
    refusals and a time past the floats raise DomainError naming key and t."""

    def value(t):
        try:
            v = profile(t)
        except OverflowError as exc:  # a time past the floats
            raise DomainError(f"{key} has no float value at t={_shown(t)}: {exc}") from None
        try:
            return _read(what, v, "complex")
        except DomainError as exc:
            raise DomainError(f"{key} has no float value at t={_shown(t)}: {exc}") from None

    return value


def _knots(profile) -> tuple:
    """The times of the Table profiles profile holds, itself or as a part."""
    if type(profile) is ComplexParts:
        return _knots(profile.real) + _knots(profile.imag)
    return profile.times if type(profile) is Table else ()


# ---------------------------------------------------------------------------
# deciding a profile over an interval
#
# validate asks each profile the evaluator reads through its own closure
# (_direct) whether its exact value is finite, with magnitudes below 2^1000
# so that no float evaluation overflows, and, for the mass, free of zeros
# at every t in [0, T].

_BAND = 2.0 ** -30  # guard band around what is read off a float cosine
_HUGE = 2.0 ** 1000  # a bound on magnitudes that keeps float evaluations finite
_STURM_DEGREE = 16  # above it a polynomial mass is left to the scan


def _decision(profile, horizon: float, kind: str) -> tuple:
    """(proved, zero) of a profile read as kind over [0, horizon].

    proved: the evaluator calls the profile's own closure (_direct), its
    value is finite there and, for a "mass", never 0.  zero is a time near
    which a "mass" has an exact zero in [0, horizon], else None.  Any other
    profile is answered (False, None).
    """
    if not _direct(profile, kind):
        return False, None
    return _DECISIONS[type(profile)](profile, horizon, kind)


def _constant(profile: Constant, horizon, kind) -> tuple:
    if kind == "mass" and profile.value == 0.0:
        return False, 0.0
    return cmath.isfinite(profile.value), None


def _harmonic(profile: Harmonic, horizon, kind) -> tuple:
    o, a, w = profile.offset, profile.amplitude, profile.omega
    span = abs(w) * horizon  # bounds |w t| on [0, T]
    if not (span < math.inf and abs(o) + abs(a) < _HUGE):
        return False, None
    if kind == "mass" and not abs(o) > abs(a):  # |o| > |a| keeps the sign of o
        # o + a c over the range of c = cos(w t): [cos(|w| T), 1] until |w| T
        # passes pi; inner is surely inside the range, outer surely contains it
        inner = -1.0 if span >= math.pi + _BAND else math.cos(span) + _BAND
        if o + a == 0.0:
            return False, 0.0
        if inner < 1.0 and (o + a * inner > 0.0) != (o + a > 0.0):
            return False, math.acos(max(-1.0, min(1.0, -o / a))) / abs(w)
        outer = -1.0 if span >= math.pi - _BAND else math.cos(span) - _BAND
        ends, margin = (o + a * outer, o + a), _BAND * (abs(o) + abs(a))
        if not (min(ends) > margin or max(ends) < -margin):
            return False, None
    return True, None


def _polynomial(profile: Polynomial, horizon, kind) -> tuple:
    coeffs = profile.coeffs
    scale = max(1.0, horizon)
    bound = 0.0  # sum |c_k| scale^k, which bounds every Horner partial sum
    for c in reversed(coeffs):
        bound = bound * scale + abs(c)
    if not bound < _HUGE or (kind == "mass" and len(coeffs) - 1 > _STURM_DEGREE):
        return False, None
    return _sturm_decision(coeffs, horizon) if kind == "mass" else (True, None)


def _table(profile: Table, horizon, kind) -> tuple:
    ts, ys = profile.times, profile.values
    if not ts[0] <= 0.0 <= horizon <= ts[-1]:
        return False, None
    # the knots and segments an evaluation on [0, T] reads
    lo, hi = max(bisect_right(ts, 0.0) - 1, 0), bisect_right(ts, horizon)
    knots, read = ts[lo:hi + 1], ys[lo:hi + 1]
    slopes = [(y1 - y0) / (t1 - t0) for t0, t1, y0, y1 in zip(knots, knots[1:], read, read[1:])]
    if not (all(abs(y) < _HUGE for y in read) and all(map(math.isfinite, slopes))):
        return False, None
    if kind == "mass" and not (min(read) > 0.0 or max(read) < 0.0):
        return False, _table_zero(ts, ys, horizon)
    return True, None


def _table_zero(ts: tuple, ys: tuple, horizon: float) -> Optional[float]:
    """The first time in [0, horizon] where the exact linear interpolant
    through (ts, ys) is 0, else None; ts covers [0, horizon]."""

    def exact(s):
        j = bisect_right(ts, s) - 1
        if ts[j] == s:
            return Fraction(ys[j])
        t0, t1, y0, y1 = map(Fraction, (ts[j], ts[j + 1], ys[j], ys[j + 1]))
        return y0 + (y1 - y0) * (Fraction(s) - t0) / (t1 - t0)

    points = [(0.0, exact(0.0)), *((t, Fraction(y)) for t, y in zip(ts, ys) if 0.0 < t < horizon),
              (horizon, exact(horizon))]
    for (ta, ya), (tb, yb) in zip(points, points[1:]):
        if ya == 0:
            return ta
        if yb == 0 or (ya > 0) != (yb > 0):
            return float(Fraction(ta) + (Fraction(tb) - Fraction(ta)) * ya / (ya - yb))
    return None


def _complex_parts(profile: ComplexParts, horizon, kind) -> tuple:
    return all(_decision(part, horizon, "real")[0] for part in (profile.real, profile.imag)), None


# each package class's decision over an interval
_DECISIONS = {Constant: _constant, Harmonic: _harmonic, Polynomial: _polynomial,
              Table: _table, ComplexParts: _complex_parts}


# Sturm sequences in exact integer arithmetic (Basu, Pollack & Roy,
# Algorithms in Real Algebraic Geometry, ch. 2).  A polynomial is the list
# of its integer coefficients, highest degree first, without leading zeros.
# A positive multiple of each member has its signs, so remainders are taken
# as pseudo-remainders by |leading coefficient| and every member is divided
# by the gcd of its coefficients, which keeps the integers small.


def _horner(p: list, t) -> Fraction:
    acc = Fraction(0)
    for c in p:
        acc = acc * t + c
    return acc


def _sturm(p: list) -> list:
    """The Sturm sequence p, p', -rem(p, p'), ... of p, each member up to a
    positive factor."""
    n = len(p) - 1
    seq, q = [p], [c * (n - i) for i, c in enumerate(p[:-1])]
    while q:
        gcd = math.gcd(*q)
        seq.append([c // gcd for c in q])
        r, q = list(seq[-2]), seq[-1]
        while len(r) >= len(q):  # r <- |q[0]|^k r mod q, a positive multiple of rem(r, q)
            a, f = abs(q[0]), r[0] if q[0] > 0 else -r[0]
            r = [a * x - f * y for x, y in zip(r[1:], q[1:])] + [a * x for x in r[len(q):]]
        while r and r[0] == 0:
            r.pop(0)
        q = [-c for c in r]
    return seq


def _variations(seq: list, t) -> int:
    """Sign changes along the Sturm sequence at t, zeros skipped."""
    signs = [v > 0 for v in (_horner(p, t) for p in seq) if v != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _roots(seq: list, a, b) -> int:
    """Distinct roots of seq[0] in (a, b), for a < b not roots of it."""
    return _variations(seq, a) - _variations(seq, b)


def _sturm_decision(coeffs: list, horizon: float) -> tuple:
    """(proved, zero) for the polynomial mass p = sum coeffs[k] t^k.

    proved: p(0) and p(horizon) are nonzero and the Sturm sequence of p
    counts no root between them, so p keeps one sign on [0, horizon].
    Otherwise zero is the first root of p there, found by bisection on
    Sturm counts.
    """
    exact = [Fraction(c) for c in reversed(coeffs)]
    scale = max(c.denominator for c in exact)  # a power of 2 that makes them integers
    p = [int(c * scale) for c in exact]
    while p and p[0] == 0:
        p.pop(0)
    if not p or p[-1] == 0:
        return False, 0.0
    seq, lo, hi = _sturm(p), Fraction(0), Fraction(horizon)
    if _horner(p, hi) != 0 and (hi == 0 or _roots(seq, lo, hi) == 0):
        return True, None
    for _ in range(32):  # the first root lies in (lo, hi]
        mid = (lo + hi) / 2
        if _horner(p, mid) == 0 or _roots(seq, lo, mid) > 0:
            hi = mid
        else:
            lo = mid
    return False, float(hi)


_VALIDATE_SAMPLES = 257


def validate(schedule: CoefficientSchedule, horizon: float) -> list:
    """Diagnostics of the schedule over [0, horizon]; empty when it is usable.

    Usable means: every coefficient evaluates through the checked reading
    the compiled evaluator falls back on (so it respects hermiticity, and
    the mass is finite and nonzero) and is finite, and the mass has no zero.
    validate is the only code that decides a profile over an interval: each
    package profile is decided once over [0, horizon] (_decision), nothing
    is kept on the schedule, and a proved profile is not sampled.
    Only a refuted or unproved profile (a foreign callable, for one) is
    sampled at 257 times over [0, horizon], and its diagnostic names it and
    the first time it fails: an evaluation that raises, a non-finite value,
    or a mass whose sign differs between two consecutive samples, since a
    mass that crosses zero makes 1/m singular there.  A mass the samples
    pass but whose exact decision found a zero, two roots between two
    samples say, gets a diagnostic naming it and the time near that zero.
    That decision covers a Constant or Table mass, a Polynomial one up to
    degree 16 and a Harmonic one whose smallest |value| on the interval is
    not within about 2^-30 (|offset| + |amplitude|) of zero, magnitudes
    below 2^1000; any other mass is only sampled, and two of its zeros
    between two samples pass.  The decisions are about the exact profile:
    a float evaluation that rounds a proved mass to 0 next to a zero-free
    minimum is refused when evolve meets it, not here.
    Each coefficient gets at most one diagnostic.  No exception escapes;
    problems become diagnostics.
    """
    try:
        horizon = _read("horizon", horizon, "finite and nonnegative")
    except DomainError as exc:
        return [str(exc)]
    grid = np.linspace(0.0, horizon, _VALIDATE_SAMPLES).tolist()
    diagnostics = []
    for key in _KEYS[schedule.parameterization]:
        profile = schedule.profiles[key]
        proved, zero = _decision(profile, horizon, _KIND[key])
        problem = None if proved else _scan(key, _checked(key, profile), grid)
        if problem is None and zero is not None:
            problem = f"{key}: reaches zero near t={zero:.6g}, between two samples"
        if problem is not None:
            diagnostics.append(problem)
    return diagnostics


def _scan(key: str, checked, grid: list) -> Optional[str]:
    """The first problem of coefficient key, read by its checked reading
    (_checked), at the grid times, else None."""
    last = None  # the time and sign of the mass's previous sample
    for t in grid:
        try:
            value = checked(t)
        except Exception as exc:  # a foreign callable may raise anything
            return f"{key}: evaluation failed at t={t:.6g}: {exc}"
        if not cmath.isfinite(value):
            return f"{key}: non-finite value {value!r} at t={t:.6g}"
        if key == "m":
            if last and (value > 0) != last[1]:
                return f"m: changes sign between t={last[0]:.6g} and t={t:.6g}"
            last = t, value > 0
    return None
