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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hamiltonian import AlgebraicCoefficients, CoefficientSchedule, UnitContext
from .motion import MotionFrame, u_of
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


def means(frame: MotionFrame, units: UnitContext):
    """(xbar, pbar) of the state attached to a frame."""
    u = u_of(frame)
    return (math.sqrt(2.0) * units.l * u.real,
            math.sqrt(2.0) * (units.hbar / units.l) * u.imag)


def varphi_from_means(xbar: float, pbar: float, f: complex, g: complex,
                      units: UnitContext) -> complex:
    """Displacement integral varphi that realizes given means under (f, g).

    Inverse of means(): varphi = -[(f+g) xbar/l + i l (f-g) pbar/hbar]/sqrt(2).
    """
    l, hbar = units.l, units.hbar
    return -((f + g) * (xbar / l) + 1j * l * (f - g) * (pbar / hbar)) / math.sqrt(2.0)


def deviations(frame: MotionFrame, units: UnitContext):
    """(sigma_x, sigma_p, sigma_xp)."""
    l, hbar = units.l, units.hbar
    f, g = frame.f, frame.g
    return ((l / math.sqrt(2.0)) * abs(f - g),
            (hbar / (l * math.sqrt(2.0))) * abs(f + g),
            hbar * (f * g.conjugate()).imag)


def uncertainty(frame: MotionFrame, units: UnitContext):
    """(heisenberg, sr) = (sigma_x sigma_p, sigma_x^2 sigma_p^2 - sigma_xp^2).

    On the hyperboloid the first equals (hbar/2) sqrt(1 + 4 Im^2(f conj(g)))
    and the second is the invariant hbar^2/4 at every time.  sr is evaluated
    through the exact reduction

        sigma_x^2 sigma_p^2 - sigma_xp^2 = (hbar^2/4) (|f|^2 - |g|^2)^2

    because the literal difference of products cancels to ~|f|^4 eps, which
    swamps the invariant once |f| grows past a few hundred (parametric
    resonance reaches |f| ~ 1e3 within a few drive periods).
    """
    sx, sp, _ = deviations(frame, units)
    f, g = frame.f, frame.g
    delta = math.fsum([f.real * f.real, f.imag * f.imag,
                       -g.real * g.real, -g.imag * g.imag])
    return sx * sp, (0.5 * units.hbar * delta) ** 2


def mean_energy(frame: MotionFrame, alg: AlgebraicCoefficients,
                units: UnitContext) -> float:
    """<H> for the state attached to a frame under the given coefficients."""
    f, g = frame.f, frame.g
    u = u_of(frame)
    val = (2.0 * alg.gamma.conjugate() * u
           + alg.alpha.conjugate() * u * u
           - alg.alpha * f * g.conjugate()
           + alg.beta * ((g * g.conjugate()).real + (u * u.conjugate()).real)
           + alg.delta)
    return units.hbar * val.real


def observe(frame: MotionFrame, alg: AlgebraicCoefficients,
            units: UnitContext) -> ObservableRecord:
    """Bundle every scalar observable of a frame into one record."""
    xbar, pbar = means(frame, units)
    sx, sp, sxp = deviations(frame, units)
    heis, sr = uncertainty(frame, units)
    return ObservableRecord(t=frame.t, xbar=xbar, pbar=pbar, sigma_x=sx,
                            sigma_p=sp, sigma_xp=sxp, heisenberg=heis, sr=sr,
                            energy=mean_energy(frame, alg, units))


# ---------------------------------------------------------------------------
# position representation


def wavefunction(frame: MotionFrame, x, units: UnitContext,
                 winding: int = 0) -> np.ndarray:
    """Position-space wavefunction of the state attached to a frame.

    The state is the complex Gaussian

        Psi(x) = (l sqrt(pi))^(-1/2) f^(-1/2) (1 - g/f)^(-1/2)
                 exp[ -((f+g)/(f-g)) (x - xbar)^2 / (2 l^2)
                      + i (pbar/(2 hbar)) (2x - xbar) - i phase_vartheta/hbar ].

    The prefactor is kept factored: f^(-1/2) carries the winding (same
    convention as normalization()) and (1 - g/f)^(-1/2) has Re(1 - g/f) > 0
    on the hyperboloid, so its principal root is unambiguous.  This makes
    Psi equal to the number-basis series sum c_n psi_n pointwise whenever
    phase_vartheta = -hbar * phase_phi (always true when gamma = 0).
    """
    l, hbar = units.l, units.hbar
    f, g = frame.f, frame.g
    xbar, pbar = means(frame, units)
    xs = np.asarray(x, dtype=float)
    pref = _inverse_root(f, winding) / (np.sqrt(l * math.sqrt(math.pi)) * np.sqrt(1.0 - g / f))
    width = (f + g) / (f - g)
    dx = xs - xbar
    phase = (pbar / (2.0 * hbar)) * (2.0 * xs - xbar) - frame.phase_vartheta / hbar
    return pref * np.exp(-width * dx * dx / (2.0 * l * l) + 1j * phase)


def fock_wavefunction(n: int, x, units: UnitContext) -> np.ndarray:
    """Oscillator eigenfunction psi_n(x) = H_n(x/l) psi_0(x) / sqrt(2^n n!).

    Evaluated through the orthonormal three-term recurrence

        psi_0 = (l sqrt(pi))^(-1/2) exp(-(x/l)^2 / 2)
        psi_{m+1} = sqrt(2/(m+1)) (x/l) psi_m - sqrt(m/(m+1)) psi_{m-1}

    which stays bounded for any n, unlike raw Hermite values.
    """
    if n < 0:
        raise DomainError(f"quantum number must be nonnegative, got {n!r}")
    xs = np.asarray(x, dtype=float)
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
    """Max central-difference residuals of Hamilton's equations over records.

    records must be ObservableRecords on a uniformly spaced time grid (at
    least 3 of them).  Returns (res_x, res_p), the worst interior-point
    violations of

        dxbar/dt = pbar/m + Omega xbar + V
        dpbar/dt = -k xbar - Omega pbar - F

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
    xb = np.array([r.xbar for r in recs])
    pb = np.array([r.pbar for r in recs])
    knots = np.asarray(schedule.knots(), dtype=float)
    kinked = (np.searchsorted(knots, ts[2:], side="left")
              > np.searchsorted(knots, ts[:-2], side="right"))
    interior = np.flatnonzero(~kinked) + 1
    if interior.size == 0:
        interior = range(1, len(recs) - 1)
    res_x = 0.0
    res_p = 0.0
    for i in interior:
        phys = schedule.physical_at(float(ts[i]))
        dx = (xb[i + 1] - xb[i - 1]) / (2.0 * h)
        dp = (pb[i + 1] - pb[i - 1]) / (2.0 * h)
        res_x = max(res_x, abs(dx - (pb[i] / phys.m + phys.Omega * xb[i] + phys.V)))
        res_p = max(res_p, abs(dp + phys.k * xb[i] + phys.Omega * pb[i] + phys.F))
    return res_x, res_p
