"""Shared builders for the test suite."""

import functools
import math
import operator
from dataclasses import replace

import numpy as np

from cssdyn import _dop853
from cssdyn import (AlgebraicCoefficients, CoefficientSchedule, ComplexParts, Constant,
                    DomainError, Harmonic, IntegratorSettings, MotionFrame, Polynomial, Table,
                    UnitContext, evolve, frames, from_initial_width, means)


def hyperboloid_frame(rng, zeta_max=0.9, displacement=1.0, t=0.0):
    """Random frame satisfying |f|^2 - |g|^2 = 1 exactly (up to rounding).

    |g/f| is uniform on [0, zeta_max], all phases uniform, varphi complex
    normal scaled by `displacement`.
    """
    r = zeta_max * rng.uniform()
    mod_f = 1.0 / math.sqrt(1.0 - r * r)
    f = mod_f * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    g = r * f * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    varphi = displacement * (rng.normal() + 1j * rng.normal()) / math.sqrt(2.0)
    return MotionFrame(t=t, f=complex(f), g=complex(g), varphi=complex(varphi))


def constant_draws():
    """Acceptance criterion 3's 100 constant Hamiltonians: |alpha| < 2,
    beta in (-2, 2) (the first five on the resonant edge beta = +-|alpha|),
    |gamma| < 2 and delta in (-2, 2), every phase uniform."""
    rng = np.random.default_rng(20240405)
    for case in range(100):
        mod_a = rng.uniform(0.0, 2.0)
        alpha = mod_a * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if case < 5:
            beta = rng.choice([-1.0, 1.0]) * abs(alpha)  # resonant edge
        else:
            beta = rng.uniform(-2.0, 2.0)
        gamma = rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        delta = rng.uniform(-2.0, 2.0)
        yield AlgebraicCoefficients(alpha=complex(alpha), beta=float(beta),
                                    gamma=complex(gamma), delta=float(delta))


def poisson_reference(xi_abs, n_levels):
    """P_n = e^{-|xi|^2} |xi|^{2n} / n! without factorial overflow."""
    lam = xi_abs * xi_abs
    out = np.empty(n_levels)
    out[0] = math.exp(-lam)
    for n in range(1, n_levels):
        out[n] = out[n - 1] * lam / n
    return out


def oracle(profile):
    """t -> profile's value in complex arithmetic, an oracle independent of
    the profiles' float closures: complex Horner from 0j, complex(offset) +
    complex(amplitude) cos(omega t), np.interp on the real and imaginary
    parts of a table (DomainError outside its times), and complex(real) +
    1j complex(imag) of two parts.  Any other callable, a subclass of a
    package class included, is its own oracle."""
    kind = type(profile)
    if kind is Constant:
        return lambda t: profile.value
    if kind is Harmonic:
        o, a, w = complex(profile.offset), complex(profile.amplitude), profile.omega
        return lambda t: o + a * math.cos(w * t)
    if kind is Polynomial:
        def horner(t):
            acc = 0j
            for c in reversed(profile.coeffs):
                acc = acc * t + complex(c)
            return acc
        return horner
    if kind is Table:
        times, values = np.array(profile.times), np.array(profile.values, dtype=complex)

        def interp(t):
            if not times[0] <= t <= times[-1]:
                raise DomainError(f"table evaluated at t={t!r} outside its horizon")
            return complex(float(np.interp(t, times, values.real)),
                           float(np.interp(t, times, values.imag)))
        return interp
    if kind is ComplexParts:
        real, imag = oracle(profile.real), oracle(profile.imag)
        return lambda t: complex(real(t)) + 1j * complex(imag(t))
    return profile


def hidden(profile):
    """The same profile as a bare callable, which lists no knots."""
    return lambda t: profile(t)


def kinked_schedule(wrap=lambda profile: profile):
    """A physical schedule whose k, F and V are tables with strong kinks;
    wrap=hidden gives the same coefficients without knots."""
    times = tuple(np.linspace(0.0, 3.0, 7))
    k = Table(times, (1.0, 2.2, 0.4, 1.8, 0.6, 2.0, 1.1))
    F = Table(times, (0.3, -0.4, 0.5, -0.2, 0.4, -0.5, 0.1))
    V = Table((0.0, 0.7, 1.3, 3.0), (0.1, -0.2, 0.3, 0.0))
    return CoefficientSchedule.physical(UnitContext(), m=1.0, k=wrap(k), F=wrap(F),
                                        V=wrap(V), Omega=0.1)


# a driven schedule (gamma != 0) in non-unit units, where the state's phase
# depends on the drive
DRIVEN_UNITS = UnitContext(hbar=0.8, l=1.1)
DRIVEN_SCHEDULE = CoefficientSchedule.algebraic(
    DRIVEN_UNITS, alpha=ComplexParts(Harmonic(0.1, 0.3, 2.0), 0.2),
    beta=Harmonic(1.5, 0.2, 1.3),
    gamma=ComplexParts(Harmonic(0.2, 0.3, 1.1), Polynomial((0.1, -0.2))),
    delta=Polynomial((0.3, 0.1)))


def driven_frames(times):
    """Frames of DRIVEN_SCHEDULE at the given times (after t = 0), from a
    squeezed, displaced start at rtol 1e-13 and atol 1e-15."""
    init = replace(from_initial_width(0.5, 0.3, DRIVEN_UNITS), varphi0=0.4 - 0.3j)
    grid = [0.0, *times]
    return evolve(DRIVEN_SCHEDULE, init, grid, IntegratorSettings(rtol=1e-13, atol=1e-15))[1:]


def scalar_grid_states(record, times):
    """The states (f, g, varphi, phase) at times from the rows of
    _dop853.integrate's step records, one time at a time in Python
    arithmetic, the oracle for _dop853.grid_states.  Each step's rows
    d0..d6 are formed from its ends and stage derivatives as the stepper
    once formed them: d3..d6 by a loop over the named D literals in stage
    order, the phase's in floats since its derivatives are floats.  Then
    the per-time dense output, or the end state at a step's end."""
    table = [[getattr(_dop853, f"D{i}{j}") for j in (1, *range(6, 17))] for i in range(4, 8)]
    states, rows = [], iter(record)
    row = next(rows, None)
    for s in times:
        while row[1] < s:
            row = next(rows)
        t, t_new = row[0], row[1]
        if s == t_new:
            states.append(tuple(row[6:10]))
            continue
        h = t_new - t
        x = (s - t) / h
        w = 1.0 - x
        state = []
        for c in range(4):
            y, k = row[2 + c], row[10 + c::4]  # k: stages 1 and 6..16
            d0 = row[6 + c] - y
            d1 = h * k[0] - d0
            d2 = 2.0 * d0 - h * (k[8] + k[0])
            d3, d4, d5, d6 = (h * functools.reduce(operator.add, map(operator.mul, row_d, k))
                              for row_d in table)
            state.append(
                y + x * (d0 + w * (d1 + x * (d2 + w * (d3 + x * (d4 + w * (d5 + x * d6)))))))
        states.append(tuple(state))
    return states


def mean_path(cfg, grid):
    """(t, xbar, pbar) at each time of the grid, from the Mathieu route's frames."""
    return [(fr.t, *means(fr, cfg.units)) for fr in frames(cfg, grid)]


def physical_residual(records, schedule):
    """hamilton_residual's (res_x, res_p) computed in the (x, p) form, point by
    point through physical_at: the worst interior violations of

        dxbar/dt = pbar/m + Omega xbar + V
        dpbar/dt = -k xbar - Omega pbar - F

    with the same grid and knot-stencil rules.  An oracle for the library's
    (a, a†) form; it needs a finite mass at every interior point.
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


def _harmonic(rng, offset, amplitude, omega):
    return Harmonic(rng.uniform(*offset), rng.uniform(*amplitude), rng.uniform(*omega))


def _table(rng, t_max, lo, hi, knots=9):
    return Table(times=tuple(np.linspace(0.0, t_max, knots)),
                 values=tuple(rng.uniform(lo, hi, knots)))


def family_schedule(family, rng, units, t_max):
    """A seeded schedule of one of six families: harmonic, polynomial and
    table profiles in the physical form, harmonic and table parts in the
    algebraic form, and constant coefficients in each form."""
    if family == "harmonic_physical":
        return CoefficientSchedule.physical(
            units, m=rng.uniform(0.8, 1.2), k=_harmonic(rng, (0.8, 1.5), (0.2, 0.6), (1.0, 3.0)),
            Omega=rng.uniform(-0.2, 0.2), F=_harmonic(rng, (-0.2, 0.2), (0.1, 0.5), (0.5, 2.0)),
            E=rng.uniform(-0.5, 0.5))
    if family == "polynomial_physical":
        return CoefficientSchedule.physical(
            units, m=Polynomial((rng.uniform(0.8, 1.2), rng.uniform(0.0, 0.05))),
            k=Polynomial((rng.uniform(0.8, 1.5), rng.uniform(-0.05, 0.05), rng.uniform(0.0, 0.01))),
            V=_harmonic(rng, (-0.2, 0.2), (0.1, 0.3), (0.5, 2.0)), F=rng.uniform(-0.3, 0.3))
    if family == "table_physical":
        return CoefficientSchedule.physical(
            units, m=rng.uniform(0.8, 1.2), k=_table(rng, t_max, 0.5, 2.0),
            F=_table(rng, t_max, -0.4, 0.4), Omega=rng.uniform(-0.1, 0.1))
    if family == "harmonic_algebraic":
        return CoefficientSchedule.algebraic(
            units, beta=_harmonic(rng, (1.4, 1.8), (0.1, 0.3), (1.0, 3.0)),
            alpha=ComplexParts(_harmonic(rng, (-0.1, 0.1), (0.2, 0.5), (1.5, 3.5)),
                               Constant(rng.uniform(-0.2, 0.2))),
            gamma=ComplexParts(_table(rng, t_max, -0.3, 0.3),
                               _harmonic(rng, (-0.1, 0.1), (0.1, 0.3), (0.5, 2.0))),
            delta=Polynomial((rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1))))
    if family == "constant_algebraic":
        return CoefficientSchedule.algebraic(
            units, alpha=complex(rng.uniform(0.2, 0.7) * np.exp(1j * rng.uniform(0.0, 6.0))),
            beta=rng.uniform(1.0, 1.6),
            gamma=complex(rng.uniform(0.0, 0.4) * np.exp(1j * rng.uniform(0.0, 6.0))),
            delta=rng.uniform(-0.5, 0.5))
    if family == "constant_physical":
        return CoefficientSchedule.physical(
            units, m=rng.uniform(0.7, 1.3), k=rng.uniform(-0.3, 1.5),
            Omega=rng.uniform(-0.3, 0.3), F=rng.uniform(-0.3, 0.3),
            V=rng.uniform(-0.3, 0.3), E=rng.uniform(-0.5, 0.5))
    raise ValueError(family)


FAMILIES = ("harmonic_physical", "polynomial_physical", "table_physical",
            "harmonic_algebraic", "constant_algebraic", "constant_physical")
