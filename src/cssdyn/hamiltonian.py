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
evaluators and validate share.
A schedule is evaluated through one compiled function t -> (alpha, beta,
gamma, delta) that checks hermiticity and the mass on every call.  It also
lists its knots, the sample times of its tables, where the coefficients may
have a kink: integrators put step edges there.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError

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
        for name in ("hbar", "l"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be a positive finite real, got {v!r}")


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
        _read_fields(self, _ALGEBRAIC_KEYS)


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
        _read_fields(self, _PHYSICAL_KEYS)


_ALGEBRAIC_KEYS = ("alpha", "beta", "gamma", "delta")
_PHYSICAL_KEYS = ("m", "k", "Omega", "F", "V", "E")
_COMPLEX_KEYS = ("alpha", "gamma")


def _reading(name: str):
    """The checked reading of coefficient name: a profile's or a record's
    value -> the coefficient.

    alpha and gamma read as complex.  Hermiticity makes every other
    coefficient real: it reads as a float, and a nonzero imaginary part
    raises DomainError.  The mass must also be finite and nonzero.
    """
    if name in _COMPLEX_KEYS:
        return complex
    mass = name == "m"

    def read(value):
        z = complex(value)
        if z.imag:
            raise DomainError(f"{name} must be real (hermiticity), got {z!r}")
        if mass and (z.real == 0.0 or not math.isfinite(z.real)):
            raise DomainError(f"mass must be finite and nonzero, got {z.real!r}")
        return z.real

    return read


_READ = {name: _reading(name) for name in _ALGEBRAIC_KEYS + _PHYSICAL_KEYS}


def _read_fields(record, keys: Sequence[str]) -> None:
    """Replace each field of a record by its checked reading."""
    for key in keys:
        object.__setattr__(record, key, _READ[key](getattr(record, key)))


def _trusted(cls, keys: Sequence[str], values: Sequence) -> object:
    """A coefficient record from values the compiled evaluator already checked."""
    record = object.__new__(cls)
    record.__dict__.update(zip(keys, values))
    return record


def _algebraic_map(units: UnitContext):
    """(m, k, Omega, F, V, E) -> (alpha, beta, gamma, delta) at fixed units."""
    hbar, l = units.hbar, units.l
    hbar2, l4, ll, ihbar = hbar * hbar, l ** 4, l * l, 1j * hbar
    half = ll / (2.0 * hbar)
    quarter = 0.5 * half
    gscale = l / (hbar * math.sqrt(2.0))

    def algebraic(m, k, Omega, F, V, E):
        recip = hbar2 / (l4 * m)  # hbar^2 / (l^4 m)
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
# A profile is a scalar callable t -> value.  Values may be complex;
# coefficients that must stay real (beta, delta, every physical one) are
# checked by the schedule's compiled evaluator on every call, so a value
# that turns complex between any two sampled times is still caught.


@dataclass(frozen=True)
class Constant:
    value: complex = 0j

    def __call__(self, t: float) -> complex:
        return self.value


@dataclass(frozen=True)
class Harmonic:
    """offset + amplitude * cos(omega * t)

    Raises DomainError where omega * t overflows, so cos has no value.
    """

    offset: complex = 0j
    amplitude: complex = 0j
    omega: float = 0.0

    def __call__(self, t: float) -> complex:
        try:
            return self.offset + self.amplitude * math.cos(self.omega * t)
        except ValueError:  # math.cos(inf)
            raise DomainError(
                f"harmonic profile has no value at t={t!r}: omega * t = "
                f"{self.omega * t!r}") from None


@dataclass(frozen=True)
class Polynomial:
    """sum_k coeffs[k] * t^k (ascending order)."""

    coeffs: tuple = (0j,)

    def __call__(self, t: float) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


@dataclass(frozen=True)
class Table:
    """Piecewise-linear interpolation through (times, values) samples.

    times must be strictly increasing.  Evaluation outside
    [times[0], times[-1]], or at a non-finite time, raises DomainError: no
    extrapolation.  Each part is np.interp's value, bit for bit: the knots
    are float tuples found by bisection and np.interp's formula is applied
    to them.

    The profile has a kink at each interior knot, so a schedule holding the
    table lists its times as knots (CoefficientSchedule.knots), and evolve
    restarts its integrator there instead of stepping across.
    """

    times: tuple = (0.0,)
    values: tuple = (0j,)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1 or len(self.values) != t.size:
            raise DomainError("table needs equally many times and values")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise DomainError("table times must be strictly increasing")
        values = [complex(v) for v in self.values]
        knots = tuple(t.tolist())
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_real", _segments(knots, [v.real for v in values]))
        object.__setattr__(self, "_imag", _segments(knots, [v.imag for v in values]))

    def __call__(self, t: float) -> complex:
        ts = self._knots
        if not ts[0] <= t <= ts[-1]:  # NaN fails both comparisons
            raise DomainError(
                f"table evaluated at t={t!r} outside its horizon "
                f"[{self.times[0]}, {self.times[-1]}]"
            )
        x = float(t)
        j = bisect_right(ts, x) - 1
        return complex(_interp(ts, *self._real, j, x), _interp(ts, *self._imag, j, x))


def _segments(ts: tuple, ys: list) -> tuple:
    """(ys, slope of each segment), the slopes formed as np.interp forms them."""
    slopes = tuple((ys[j + 1] - ys[j]) / (ts[j + 1] - ts[j]) for j in range(len(ts) - 1))
    return tuple(ys), slopes


def _interp(ts: tuple, ys: tuple, slopes: tuple, j: int, x: float) -> float:
    """np.interp at x, for ts[j] <= x <= ts[-1], operation for operation."""
    if j == len(ts) - 1 or ts[j] == x:
        return ys[j]
    y = slopes[j] * (x - ts[j]) + ys[j]
    if y != y:  # NaN one way: np.interp tries from the right knot
        y = slopes[j] * (x - ts[j + 1]) + ys[j + 1]
        if y != y and ys[j] == ys[j + 1]:
            y = ys[j]
    return y


@dataclass(frozen=True)
class ComplexParts:
    """Complex profile assembled from independent real and imaginary profiles.

    Bare numbers are coerced to Constant profiles, as as_profile() does.
    """

    real: object = Constant(0.0)
    imag: object = Constant(0.0)

    def __post_init__(self):
        object.__setattr__(self, "real", as_profile(self.real))
        object.__setattr__(self, "imag", as_profile(self.imag))

    def __call__(self, t: float) -> complex:
        return complex(self.real(t)) + 1j * complex(self.imag(t))


def as_profile(value) -> object:
    """Coerce a bare number to a Constant profile; pass callables through."""
    if callable(value):
        return value
    return Constant(complex(value))


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
    physical -> algebraic map applied for physical schedules.  Each call
    reads every profile value through the checked reading the coefficient
    records use, so beta, delta and every physical coefficient must be real
    and the mass finite and nonzero, with the records' errors.  The other
    parameterization is the unit map applied to that evaluator.

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
        profiles = {"alpha": as_profile(alpha), "beta": as_profile(beta),
                    "gamma": as_profile(gamma), "delta": as_profile(delta)}
        return cls(units=units, parameterization="algebraic", profiles=profiles)

    @classmethod
    def physical(cls, units: UnitContext = UnitContext(), *, m=1.0, k=0.0,
                 Omega=0.0, F=0.0, V=0.0, E=0.0) -> "CoefficientSchedule":
        profiles = {"m": as_profile(m), "k": as_profile(k), "Omega": as_profile(Omega),
                    "F": as_profile(F), "V": as_profile(V), "E": as_profile(E)}
        return cls(units=units, parameterization="physical", profiles=profiles)

    def _compiled(self) -> tuple:
        if self._evaluators is None:
            object.__setattr__(self, "_evaluators", _compile(self))
        return self._evaluators

    def compiled(self):
        """The checked evaluator t -> (alpha, beta, gamma, delta), bit-identical to
        the records' route (to_algebraic of the physical record)."""
        return self._compiled()[0]

    def knots(self) -> tuple:
        """Sorted distinct times of every Table profile, as floats."""
        return self._compiled()[2]

    def algebraic_at(self, t: float) -> AlgebraicCoefficients:
        return _trusted(AlgebraicCoefficients, _ALGEBRAIC_KEYS, self._compiled()[0](t))

    def physical_at(self, t: float) -> PhysicalCoefficients:
        return _trusted(PhysicalCoefficients, _PHYSICAL_KEYS, self._compiled()[1](t))


def _table_times(profile) -> list:
    """Knots of a profile: a Table's times, a ComplexParts' of both parts."""
    if isinstance(profile, Table):
        return list(profile._knots)
    if isinstance(profile, ComplexParts):
        return _table_times(profile.real) + _table_times(profile.imag)
    return []


def _compile(schedule: CoefficientSchedule) -> tuple:
    """(algebraic, physical, knots) of a schedule, checks included.

    algebraic is t -> (alpha, beta, gamma, delta) and physical is
    t -> (m, k, Omega, F, V, E).  The schedule's own form reads each
    profile through its checked reading, and the other form applies the
    unit map to it, so both equal the records' route (to_algebraic or
    to_physical of the authoritative record) by construction.  knots is
    the sorted tuple of distinct Table times over the profiles.
    """
    knots = tuple(sorted({t for profile in schedule.profiles.values()
                          for t in _table_times(profile)}))
    readings = _readings(schedule)
    if schedule.parameterization == "algebraic":
        (_, ra, pa), (_, rb, pb), (_, rg, pg), (_, rd, pd) = readings

        def algebraic(t):
            return ra(pa(t)), rb(pb(t)), rg(pg(t)), rd(pd(t))

        pmap = _physical_map(schedule.units)
        return algebraic, lambda t: pmap(*algebraic(t)), knots

    (_, rm, pm), (_, rk, pk), (_, rO, pO), (_, rF, pF), (_, rV, pV), (_, rE, pE) = readings

    def physical(t):
        return rm(pm(t)), rk(pk(t)), rO(pO(t)), rF(pF(t)), rV(pV(t)), rE(pE(t))

    amap = _algebraic_map(schedule.units)
    return lambda t: amap(*physical(t)), physical, knots


def _readings(schedule: CoefficientSchedule) -> list:
    """(key, checked reading, profile) of each coefficient the schedule holds."""
    return [(key, _READ[key], schedule.profiles[key]) for key in _KEYS[schedule.parameterization]]


_VALIDATE_SAMPLES = 257


def validate(schedule: CoefficientSchedule, horizon: float) -> list:
    """Sample the schedule at 257 times over [0, horizon] and collect diagnostics.

    Returns a list of strings, empty when the schedule is usable: every
    coefficient evaluates through the checked reading the compiled
    evaluator uses (so it respects hermiticity, and the mass is finite and
    nonzero) and is finite, and the mass keeps one sign from sample to
    sample, since a mass that crosses zero between two samples makes 1/m
    singular there.  Each coefficient gets at most one diagnostic, naming
    it and the first time it fails.  No exception escapes; problems become
    diagnostics.
    """
    if not (math.isfinite(horizon) and horizon >= 0):
        return [f"horizon must be finite and nonnegative, got {horizon!r}"]
    diagnostics = []
    grid = np.linspace(0.0, horizon, _VALIDATE_SAMPLES).tolist()
    for key, read, profile in _readings(schedule):
        last = None  # the time and sign of the mass's previous sample
        for t in grid:
            try:
                value = read(profile(t))
            except DomainError as exc:
                diagnostics.append(f"{key}: evaluation failed at t={t:.6g}: {exc}")
                break
            if not cmath.isfinite(value):
                diagnostics.append(f"{key}: non-finite value {value!r} at t={t:.6g}")
                break
            if key == "m":
                if last and (value > 0) != last[1]:
                    diagnostics.append(f"m: changes sign between t={last[0]:.6g} and t={t:.6g}")
                    break
                last = t, value > 0
    return diagnostics
