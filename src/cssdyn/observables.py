"""Expectation values, uncertainties, and position-space wavefunctions.

Everything here is a closed-form functional of a motion frame (f, g, varphi)
plus units; nothing integrates.  The key relations, with u = g conj(varphi)
- conj(f) varphi and J = Im(f conj(g)):

    xbar = sqrt(2) l Re u               pbar = sqrt(2) (hbar/l) Im u
    sigma_x = (l/sqrt(2)) |f - g|       sigma_p = (hbar/(l sqrt(2))) |f + g|
    sigma_xp = hbar J
    sigma_x sigma_p = (hbar/2) sqrt(1 + 4 J^2)   >= hbar/2
    sigma_x^2 sigma_p^2 - sigma_xp^2 = hbar^2/4   (exactly, on the hyperboloid)

The position representation of the state attached to a frame is a complex
Gaussian; its equality with the truncated number-basis series is the main
cross-check between this module and the states module.

hamilton_residual checks the means of a run against their equation of
motion in the (a, a†) form, du/dt = -i (alpha conj(u) + beta u + gamma),
with the coefficients evolve integrates; it holds at infinite mass too,
where the (x, p) form does not exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, _array, _read
from .hamiltonian import AlgebraicCoefficients, CoefficientSchedule, UnitContext
from .motion import MotionFrame
from .states import _inverse_root


@dataclass(frozen=True)
class ObservableRecord:
    """First and second moments plus energy at one time."""

    t: float
    xbar: float
    pbar: float
    sigma_x: float
    sigma_p: float
    sigma_xp: float
    heisenberg: float
    sr: float
    energy: float


# the coefficients of the means, deviations and uncertainty, whose energy
# is not read
_AT_REST = AlgebraicCoefficients()
_SQRT2 = math.sqrt(2.0)


def _moments(frame: MotionFrame, alg: AlgebraicCoefficients, units: UnitContext) -> tuple:
    """(xbar, pbar, sigma_x, sigma_p, sigma_xp, heisenberg, sr, energy) of
    a frame under alg: every scalar observable, each formula written here
    once and each shared quantity (u, the deviations) formed once.

    A quantity that leaves the floats comes out inf or nan.  |f -+ g| past
    the floats is inf.  sr is inf once (hbar/2)^2 (|f|^2 - |g|^2)^2 is past
    the floats; where |f|^2 or |g|^2 is, the difference is taken in plain
    floats, inf or nan, instead of math.fsum, which raises there.
    """
    f, g, varphi = frame.f, frame.g, frame.varphi
    hbar, l = units.hbar, units.l
    u = g * varphi.conjugate() - f.conjugate() * varphi
    try:
        dx, dp = abs(f - g), abs(f + g)
    except OverflowError:  # a modulus past the floats
        dx, dp = (math.hypot(z.real, z.imag) for z in (f - g, f + g))
    fr, fi, gr, gi = f.real, f.imag, g.real, g.imag
    try:
        delta = math.fsum([fr * fr, fi * fi, -gr * gr, -gi * gi])
    except (OverflowError, ValueError):  # |f|^2 or |g|^2 past the floats
        delta = (fr * fr + fi * fi) - (gr * gr + gi * gi)
    try:
        sr = (0.5 * hbar * delta) ** 2
    except OverflowError:
        sr = math.inf
    alpha, gamma = alg.alpha, alg.gamma
    energy = (2.0 * gamma.conjugate() * u
              + alpha.conjugate() * u * u
              - alpha * f * g.conjugate()
              + alg.beta * ((g * g.conjugate()).real + (u * u.conjugate()).real)
              + alg.delta)
    sx, sp = (l / _SQRT2) * dx, (hbar / (l * _SQRT2)) * dp
    return (_SQRT2 * l * u.real, _SQRT2 * (hbar / l) * u.imag, sx, sp,
            hbar * (f * g.conjugate()).imag, sx * sp, sr, hbar * energy.real)


def means(frame: MotionFrame, units: UnitContext):
    """(xbar, pbar) of the state attached to a frame."""
    return _moments(frame, _AT_REST, units)[:2]


def deviations(frame: MotionFrame, units: UnitContext):
    """(sigma_x, sigma_p, sigma_xp)."""
    return _moments(frame, _AT_REST, units)[2:5]


def uncertainty(frame: MotionFrame, units: UnitContext):
    """(heisenberg, sr) = (sigma_x sigma_p, sigma_x^2 sigma_p^2 - sigma_xp^2).

    On the hyperboloid the first equals (hbar/2) sqrt(1 + 4 Im^2(f conj(g)))
    and the second is the invariant hbar^2/4 at every time.  sr is evaluated
    through the exact reduction

        sigma_x^2 sigma_p^2 - sigma_xp^2 = (hbar^2/4) (|f|^2 - |g|^2)^2

    because the literal difference of products cancels to ~|f|^4 eps, which
    swamps the invariant once |f| grows past a few hundred (parametric
    resonance reaches |f| ~ 1e3 within a few drive periods).  |f|^2 - |g|^2
    is summed exactly (math.fsum) from the squared parts.  Past the floats
    both come out inf or nan, as every observable does (see observe).
    """
    return _moments(frame, _AT_REST, units)[5:7]


def mean_energy(frame: MotionFrame, alg: AlgebraicCoefficients,
                units: UnitContext) -> float:
    """<H> for the state attached to a frame under the given coefficients."""
    return _moments(frame, alg, units)[7]


def observe(frame: MotionFrame, alg: AlgebraicCoefficients,
            units: UnitContext) -> ObservableRecord:
    """Every scalar observable of a frame in one record.

    The values are those of means, deviations, uncertainty and mean_energy,
    bit for bit: one call of their shared core, which forms u and the
    deviations once.  A quantity that leaves the floats comes out inf or
    nan instead of raising, as sr does once (hbar/2)^2 |f|^4 is past them
    on the hyperboloid.  The record is filled straight through its
    __dict__, where the frozen dataclass's __init__ puts the fields one
    object.__setattr__ at a time, so it equals and hashes like a
    constructed one.
    """
    record = object.__new__(ObservableRecord)
    row = record.__dict__
    row["t"] = frame.t
    (row["xbar"], row["pbar"], row["sigma_x"], row["sigma_p"], row["sigma_xp"],
     row["heisenberg"], row["sr"], row["energy"]) = _moments(frame, alg, units)
    return record


# ---------------------------------------------------------------------------
# position representation


def wavefunction(frame: MotionFrame, x, units: UnitContext,
                 winding: int = 0) -> np.ndarray:
    """Position-space wavefunction of the state attached to a frame.

    The state is the complex Gaussian

        Psi(x) = (l sqrt(pi))^(-1/2) f^(-1/2) (1 - g/f)^(-1/2)
                 exp[ -((f+g)/(f-g)) (x - xbar)^2 / (2 l^2)
                      + i (pbar/(2 hbar)) (2x - xbar) + i phase_phi ].

    The prefactor is kept factored: f^(-1/2) carries the winding (same
    convention as normalization()) and (1 - g/f)^(-1/2) has Re(1 - g/f) > 0
    on the hyperboloid, so its principal root is unambiguous.  This makes
    Psi equal to the number-basis series sum c_n psi_n pointwise, since
    both read the frame's one phase.  Where (x - xbar)^2 overflows, Psi is
    exactly 0: Re((f+g)/(f-g)) = 1/|f-g|^2 > 0 on the hyperboloid, so the
    Gaussian has underflowed long before that point.

    Where the phase (pbar/(2 hbar))(2x - xbar) + phase_phi leaves the
    floats, Psi is 0 too if its Gaussian exp(-Re((f+g)/(f-g)) (x - xbar)^2
    / (2 l^2)) has underflowed to 0 there; elsewhere Psi has no value, and
    NumericalError is raised.  DomainError is raised for the frames and
    windings normalization() refuses (a non-finite f, g or varphi, |g| >=
    |f|, a winding that is not an integer) and for an x whose entries are
    not real numbers within the floats (strings, None, ints past them).
    """
    l, hbar = units.l, units.hbar
    f, g = frame.f, frame.g
    xbar, pbar = means(frame, units)
    xs = _array("x", x)
    # _inverse_root refuses the frame before g / f is formed
    pref = _inverse_root(frame, winding) / (np.sqrt(l * math.sqrt(math.pi)) * np.sqrt(1.0 - g / f))
    width = (f + g) / (f - g)
    dx = xs - xbar
    with np.errstate(over="ignore", invalid="ignore"):
        gauss = -width * dx * dx / (2.0 * l * l)
        phase = (pbar / (2.0 * hbar)) * (2.0 * xs - xbar) + frame.phase_phi
        far = np.isinf(dx * dx)
        lost = ~(np.isfinite(phase) | far)
        valued = lost & (np.exp(gauss.real) != 0.0)  # the Gaussian has not underflowed
        if valued.any():
            raise NumericalError(
                f"wavefunction phase (pbar/(2 hbar))(2x - xbar) + phase_phi is not finite "
                f"at x = {float(xs[valued][0])!r} (pbar = {pbar:.6g})", t=frame.t)
        psi = pref * np.exp(gauss + 1j * phase)
        return np.where(far | lost, 0.0, psi)


def fock_wavefunction(n: int, x, units: UnitContext) -> np.ndarray:
    """Oscillator eigenfunction psi_n(x) = H_n(x/l) psi_0(x) / sqrt(2^n n!).

    Evaluated through the orthonormal three-term recurrence

        psi_0 = (l sqrt(pi))^(-1/2) exp(-(x/l)^2 / 2)
        psi_{m+1} = sqrt(2/(m+1)) (x/l) psi_m - sqrt(m/(m+1)) psi_{m-1}

    which stays bounded for any n, unlike raw Hermite values.  Raises
    DomainError unless n is a nonnegative integer (a numbers.Integral), and
    for an x whose entries are not real numbers within the floats.
    """
    n = _read("quantum number", n, "a nonnegative integer")
    xs = _array("x", x)
    uu = xs / units.l
    prev = np.zeros_like(uu)
    cur = np.exp(-0.5 * uu * uu) / math.sqrt(units.l * math.sqrt(math.pi))
    for m in range(n):
        prev, cur = cur, (math.sqrt(2.0 / (m + 1)) * uu * cur
                          - math.sqrt(m / (m + 1.0)) * prev)
    return cur


# ---------------------------------------------------------------------------
# dynamics consistency


def hamilton_residual(records, schedule: CoefficientSchedule):
    """Max central-difference residuals of the mean motion over records.

    records must be ObservableRecords on a uniformly spaced time grid (at
    least 3 of them).  The mean u = <a> = (xbar/l + i l pbar/hbar)/sqrt(2) obeys
    the Heisenberg equation

        du/dt = -i (alpha conj(u) + beta u + gamma)

    with the coefficients of the schedule's compiled evaluator, the one
    evolve integrates.  Returns (res_x, res_p) = (sqrt(2) l max|Re r|,
    sqrt(2) (hbar/l) max|Im r|) over the interior residuals r of that
    equation: in exact arithmetic these are the violations of Hamilton's
    equations for xbar and pbar in the (x, p) form, but they need no mass,
    so an infinite mass (Re(beta - alpha) = 0) is checked like any other.

    u is formed from two float columns, xbar / l and l pbar / hbar, set as
    its real and imaginary parts and divided by sqrt(2); alpha, beta and
    gamma are three columns of the evaluator's values at the interior
    times.  Each holds the bits of the per-record complex numbers and of
    the evaluator's tuples, so the residuals are those of the formula
    written per record.

    Second-order accurate: halving the spacing should shrink both by ~4x.
    Across a schedule knot (a table's kink) the means' second derivative
    jumps and the central difference is only first order, so points whose
    stencil (t[i-1], t[i+1]) holds a knot strictly inside are skipped,
    unless that leaves none.
    """
    recs = list(records)
    if len(recs) < 3:
        raise DomainError("hamilton_residual needs at least 3 records")
    ts = np.array([r.t for r in recs], dtype=float)
    steps = np.diff(ts)
    h = steps[0]
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-8 * max(abs(h), 1.0):
        raise DomainError("records must sit on a uniformly spaced, increasing grid")
    knots = np.asarray(schedule.knots(), dtype=float)
    kinked = (np.searchsorted(knots, ts[2:], side="left")
              > np.searchsorted(knots, ts[:-2], side="right"))
    interior = np.flatnonzero(~kinked) + 1
    if interior.size == 0:
        interior = np.arange(1, len(recs) - 1)
    l, hbar = schedule.units.l, schedule.units.hbar
    u = np.empty(len(recs), dtype=complex)
    u.real = np.array([r.xbar for r in recs]) / l
    u.imag = l * np.array([r.pbar for r in recs]) / hbar
    u /= math.sqrt(2.0)
    alpha, beta, gamma, _ = map(np.array, zip(*map(schedule.compiled(), ts[interior].tolist())))
    r = ((u[interior + 1] - u[interior - 1]) / (2.0 * h)
         + 1j * (alpha * u[interior].conj() + beta * u[interior] + gamma))
    return (math.sqrt(2.0) * l * float(np.max(np.abs(r.real))),
            math.sqrt(2.0) * (hbar / l) * float(np.max(np.abs(r.imag))))
