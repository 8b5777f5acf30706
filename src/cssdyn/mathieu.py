"""Oscillator with harmonically modulated stiffness, reduced to Mathieu form.

H = p^2/(2 m0) + (epsilon0 - eta0 cos(omega0 t)) x^2 / 2

With the oscillator length fixed at l^2 = hbar/(m0 omega0), the sum and
difference combinations X = f + g, Y = f - g of the motion integrals decouple
into a single second-order equation for Y.  In the scaled time tau =
omega0 t / 2 it is the Mathieu equation in standard form,

    Y'' + [a - 2 q cos(2 tau)] Y = 0,
    a = 4 epsilon0 / (m0 omega0^2),   q = 2 eta0 / (m0 omega0^2),

and X = -(i/2) Y'.  Instead of the classical ce/se Mathieu pairs, the two
fundamental solutions with unit initial data are used,

    Yc(0) = 1, Yc'(0) = 0        Ys(0) = 0, Ys'(0) = 1,

whose Wronskian Yc Ys' - Yc' Ys is identically 1; its numerical drift is the
accuracy monitor.  The displacement integral varphi is constant here
(gamma = 0), both phase integrals vanish identically (E = V = F = 0 and
beta = 2 delta), and the mean trajectory is

    xbar = sqrt(2 hbar/(m0 omega0)) Re(g conj(varphi0) - conj(f) varphi0)
    pbar = sqrt(2 hbar m0 omega0)   Im(g conj(varphi0) - conj(f) varphi0).

All public output is in physical time t = 2 tau / omega0; tau only
parameterizes the input grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, NumericalError
from .hamiltonian import CoefficientSchedule, Harmonic, UnitContext
from .motion import InitialConditions, IntegratorSettings, MotionFrame

# Wronskian of the fundamental pair must stay this close to 1.
_WRONSKIAN_TOL = 1e-9


@dataclass(frozen=True)
class DrivenOscillatorConfig:
    """Modulated-stiffness oscillator; defaults are the a=0.04, q=1 preset.

    That preset has hbar = m0 = epsilon0 = 1, omega0 = 10, eta0 = 50 and
    starts from the coherent state f0 = 1, g0 = 0, varphi0 = -i, which puts
    the mean at xbar(0) = 0, pbar(0) = sqrt(20).
    """

    m0: float = 1.0
    epsilon0: float = 1.0
    eta0: float = 50.0
    omega0: float = 10.0
    hbar: float = 1.0
    init: InitialConditions = field(
        default_factory=lambda: InitialConditions(f0=1.0, g0=0.0, varphi0=-1j))

    def __post_init__(self):
        for name in ("m0", "omega0", "hbar"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be positive and finite, got {v!r}")
        for name in ("epsilon0", "eta0"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"{name} must be finite, got {v!r}")

    @property
    def length(self) -> float:
        return math.sqrt(self.hbar / (self.m0 * self.omega0))

    @property
    def units(self) -> UnitContext:
        return UnitContext(hbar=self.hbar, l=self.length)

    def schedule(self) -> CoefficientSchedule:
        # k(t) = epsilon0 - eta0 cos(omega0 t); everything else static
        return CoefficientSchedule.physical(
            self.units, m=self.m0,
            k=Harmonic(offset=self.epsilon0, amplitude=-self.eta0, omega=self.omega0))


@dataclass(frozen=True)
class MathieuParameters:
    """Standard-form parameters a and q of the Mathieu equation."""

    a: float
    q: float


@dataclass(frozen=True)
class FundamentalBasis:
    """Fundamental Mathieu pair and derivatives sampled on a tau grid."""

    tau: np.ndarray
    yc: np.ndarray
    dyc: np.ndarray
    ys: np.ndarray
    dys: np.ndarray

    def wronskian(self) -> np.ndarray:
        return self.yc * self.dys - self.dyc * self.ys


def mathieu_parameters(cfg: DrivenOscillatorConfig) -> MathieuParameters:
    a = 4.0 * cfg.epsilon0 / (cfg.m0 * cfg.omega0 ** 2)
    q = 2.0 * cfg.eta0 / (cfg.m0 * cfg.omega0 ** 2)
    return MathieuParameters(a=a, q=q)


def _check_tau_grid(tau_grid) -> np.ndarray:
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise DomainError("tau grid must be a one-dimensional, nonempty array")
    if taus[0] != 0.0:
        raise DomainError(f"tau grid must start at 0, got {taus[0]!r}")
    if taus.size > 1 and not np.all(np.diff(taus) > 0):
        raise DomainError("tau grid must be strictly increasing")
    return taus


def fundamental_solutions(params: MathieuParameters, tau_grid,
                          settings: IntegratorSettings = IntegratorSettings()
                          ) -> FundamentalBasis:
    """Integrate both fundamental solutions jointly over the tau grid.

    The Wronskian is checked at every sample against 1 to within 1e-9;
    a breach is retried once at 100x tighter tolerance and then raised as
    NumericalError with the offending tau.
    """
    taus = _check_tau_grid(tau_grid)
    a, q = params.a, params.q

    def rhs(tau, y):
        # y = (yc, dyc, ys, dys); y'' = -(a - 2 q cos 2 tau) y for both columns
        coeff = a - 2.0 * q * math.cos(2.0 * tau)
        return (y[1], -coeff * y[0], y[3], -coeff * y[2])

    y0 = (1.0, 0.0, 0.0, 1.0)

    def run(rtol, atol):
        if taus.size == 1:
            ys = np.asarray(y0, dtype=float)[:, None]
        else:
            sol = solve_ivp(rhs, (0.0, float(taus[-1])), y0, method="DOP853",
                            t_eval=taus, rtol=rtol, atol=atol,
                            max_step=settings.max_step)
            if not sol.success:
                raise NumericalError(f"Mathieu integration failed: {sol.message}",
                                     t=float(sol.t[-1]) if sol.t.size else 0.0)
            ys = sol.y
        return FundamentalBasis(tau=taus.copy(), yc=ys[0].copy(), dyc=ys[1].copy(),
                                ys=ys[2].copy(), dys=ys[3].copy())

    basis = run(settings.rtol, settings.atol)
    defect = np.abs(basis.wronskian() - 1.0)
    if np.max(defect) > _WRONSKIAN_TOL:
        basis = run(max(settings.rtol / 100.0, 3e-14), settings.atol / 100.0)
        defect = np.abs(basis.wronskian() - 1.0)
        if np.max(defect) > _WRONSKIAN_TOL:
            bad = int(np.argmax(defect > _WRONSKIAN_TOL))
            raise NumericalError(
                f"Wronskian drift {np.max(defect):.3e} exceeds {_WRONSKIAN_TOL:g} "
                "after refinement", t=float(taus[bad]))
    return basis


def frames(cfg: DrivenOscillatorConfig, tau_grid,
           settings: IntegratorSettings = IntegratorSettings()) -> list:
    """Motion frames on a tau grid via the fundamental-solution reduction.

    This is the specialized route; it must agree with the generic evolution
    of cfg.schedule() in physical time, which is the cross-check the test
    suite runs.  Frames come back in physical time t = 2 tau / omega0 with
    both phase integrals identically zero (beta = 2 delta, gamma = 0).
    """
    taus = _check_tau_grid(tau_grid)
    basis = fundamental_solutions(mathieu_parameters(cfg), taus, settings)
    f0, g0 = cfg.init.f0, cfg.init.g0
    y_start = f0 - g0
    dy_start = 2j * (f0 + g0)
    yy = y_start * basis.yc + dy_start * basis.ys
    dyy = y_start * basis.dyc + dy_start * basis.dys
    xx = -0.5j * dyy
    out = []
    for i, tau in enumerate(taus):
        f = 0.5 * (xx[i] + yy[i])
        g = 0.5 * (xx[i] - yy[i])
        out.append(MotionFrame(t=2.0 * float(tau) / cfg.omega0, f=complex(f),
                               g=complex(g), varphi=cfg.init.varphi0,
                               phase_phi=0.0, phase_vartheta=0.0))
    return out


def phase_trajectory(cfg: DrivenOscillatorConfig, tau_grid,
                     settings: IntegratorSettings = IntegratorSettings()) -> list:
    """Mean trajectory [(t, xbar, pbar), ...] over a tau grid."""
    scale_x = math.sqrt(2.0 * cfg.hbar / (cfg.m0 * cfg.omega0))
    scale_p = math.sqrt(2.0 * cfg.hbar * cfg.m0 * cfg.omega0)
    out = []
    for fr in frames(cfg, tau_grid, settings):
        u = fr.g * fr.varphi.conjugate() - fr.f.conjugate() * fr.varphi
        out.append((fr.t, scale_x * u.real, scale_p * u.imag))
    return out


def transition_snapshot(cfg: DrivenOscillatorConfig, tau: float,
                        tail_tolerance: float = 1e-10, n_max: int = 4096,
                        settings: IntegratorSettings = IntegratorSettings()):
    """Number-basis probabilities P_n of the state at one tau."""
    from .states import transition_probabilities

    if tau < 0:
        raise DomainError(f"tau must be nonnegative, got {tau!r}")
    grid = np.array([0.0]) if tau == 0 else np.array([0.0, float(tau)])
    frame = frames(cfg, grid, settings)[-1]
    return transition_probabilities(frame, tail_tolerance=tail_tolerance, n_max=n_max)
