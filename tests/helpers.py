"""Shared builders for the test suite."""

import math

import numpy as np

from cssdyn import CoefficientSchedule, MotionFrame, Table, UnitContext


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


def poisson_reference(xi_abs, n_levels):
    """P_n = e^{-|xi|^2} |xi|^{2n} / n! without factorial overflow."""
    lam = xi_abs * xi_abs
    out = np.empty(n_levels)
    out[0] = math.exp(-lam)
    for n in range(1, n_levels):
        out[n] = out[n - 1] * lam / n
    return out


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
