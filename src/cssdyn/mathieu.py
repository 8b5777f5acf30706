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
accuracy monitor.

The pair is never integrated past tau = pi/2 (Floquet theory, NIST DLMF
§28.2).  The coefficient a - 2q cos(2 tau) is pi-periodic, so the
fundamental matrix Phi = [[Yc, Ys], [Yc', Ys']] advances by whole periods
through the monodromy matrix M = Phi(pi), Phi(k pi + r) = Phi(r) M^k; it
is even, so Phi(-tau) = D Phi(tau) D with D = diag(1, -1), which gives both
M and Phi on [pi/2, pi] from the half period [0, pi/2].  The cost of a grid
is then one half-period integration plus a few 2x2 products, whatever its
length, and the relative error grows like k times the half-period error.
Inside an instability tongue Phi grows like |mu|^k, |mu| > 1 the larger
Floquet multiplier, and the Wronskian check cancels two products of that
size: it fails once about eps |mu|^(2k) passes its 1e-9 bound (beyond
eight periods on the default preset), and an M^k beyond float64 fails it
as nan.

The displacement integral varphi is constant here
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
from .motion import (InitialConditions, IntegratorSettings, MotionFrame,
                     run_monitored)

# Wronskian of the fundamental pair must stay this close to 1.
_WRONSKIAN_TOL = 1e-9
_HALF_PERIOD = 0.5 * math.pi
# elementwise form of Phi -> D Phi D with D = diag(1, -1)
_REFLECT = np.array([[1.0, -1.0], [-1.0, 1.0]])


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
    if not np.all(np.isfinite(taus)):
        raise DomainError("tau grid must be finite")
    if taus[0] != 0.0:
        raise DomainError(f"tau grid must start at 0, got {taus[0]!r}")
    if taus.size > 1 and not np.all(np.diff(taus) > 0):
        raise DomainError("tau grid must be strictly increasing")
    return taus


def fundamental_solutions(params: MathieuParameters, tau_grid,
                          settings: IntegratorSettings = IntegratorSettings()
                          ) -> FundamentalBasis:
    """Both fundamental solutions on the tau grid, from one half period.

    Every tau is folded to tau = k pi + r with 0 <= r < pi and
    s = min(r, pi - r) <= pi/2.  One DOP853 run over [0, min(tau_max, pi/2)]
    samples Phi = [[yc, ys], [yc', ys']] at the distinct s and at pi/2, so
    the cost does not grow with tau.  The coefficient is even, which gives
    Phi(-tau) = D Phi(tau) D with D = diag(1, -1), and pi-periodic, which
    gives Phi(tau + pi) = Phi(tau) M for the monodromy M = Phi(pi).  Hence

        M      = D Phi(pi/2)^-1 D Phi(pi/2)   (adjugate inverse, det Phi = 1)
        Phi(r) = Phi(s)             for r <= pi/2
               = D Phi(s) D M       for r >  pi/2
        Phi(tau) = Phi(r) M^k,

    with the powers of M built by repeated squaring from one needed k to
    the next.  Each factor of M carries the integration error of the half
    period forward, so the relative error grows like k times it.

    The Wronskian is checked at every sample against 1 to within 1e-9;
    a breach, or a non-finite sample once M^k overflows, is retried once at
    100x tighter tolerance and then raised as NumericalError with the
    offending tau.
    """
    taus = _check_tau_grid(tau_grid)
    a, q = params.a, params.q

    def rhs(tau, y):
        # y = (yc, dyc, ys, dys); y'' = -(a - 2 q cos 2 tau) y for both columns
        coeff = a - 2.0 * q * math.cos(2.0 * tau)
        return (y[1], -coeff * y[0], y[3], -coeff * y[2])

    k, r = np.divmod(taus, math.pi)
    reflect = r > _HALF_PERIOD
    end = min(float(taus[-1]), _HALF_PERIOD)
    # nodes[-1] is end: pi/2 once the grid passes it, else the last tau.
    # Python's sort, not np.unique: the first np.unique of a process raised
    # its peak memory by about 0.4 MB.
    folded = np.append(np.minimum(r, math.pi - r), end)
    nodes = np.array(sorted(set(folded.tolist())))
    node_of = np.searchsorted(nodes, folded)
    # k never decreases along the increasing grid
    k = k.astype(np.int64)
    first = np.diff(k, prepend=-1) > 0
    periods, period_of = k[first], np.cumsum(first) - 1

    def run(rtol, atol):
        if end == 0.0:
            y = np.array([[1.0], [0.0], [0.0], [1.0]])
        else:
            sol = solve_ivp(rhs, (0.0, end), (1.0, 0.0, 0.0, 1.0), method="DOP853",
                            t_eval=nodes, rtol=rtol, atol=atol,
                            max_step=settings.max_step)
            if not sol.success:
                raise NumericalError(f"Mathieu integration failed: {sol.message}",
                                     t=float(sol.t[-1]) if sol.t.size else 0.0)
            y = sol.y
        # rows (yc, dyc, ys, dys) -> one matrix [[yc, ys], [dyc, dys]] per node
        half = np.stack([y[:2], y[2:]], axis=-1).transpose(1, 0, 2)
        (yc, ys), (dyc, dys) = half[-1]
        # D Phi(pi/2)^-1 D Phi(pi/2); unused (k = 0, no reflection) below pi/2
        monodromy = np.array([[yc * dys + ys * dyc, 2.0 * ys * dys],
                              [2.0 * yc * dyc, yc * dys + ys * dyc]])
        phi = half[node_of[:-1]]
        # a state too unstable for float64 overflows in M^k; the Wronskian
        # monitor then sees a non-finite sample and refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            phi[reflect] = (phi[reflect] * _REFLECT) @ monodromy
            phi = phi @ _powers(monodromy, periods)[period_of]
        return FundamentalBasis(tau=taus.copy(), yc=phi[:, 0, 0].copy(),
                                dyc=phi[:, 1, 0].copy(), ys=phi[:, 0, 1].copy(),
                                dys=phi[:, 1, 1].copy())

    return run_monitored(run, lambda basis: np.abs(basis.wronskian() - 1.0),
                         _WRONSKIAN_TOL, taus, settings,
                         "Wronskian drift {worst:.3e} exceeds {limit:g}")


def _powers(m: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """m^k for each of the increasing nonnegative ks, stacked.

    Steps from one k to the next by the binary digits of the gap, so a
    dense run of periods costs one product each and a sparse one about
    log2 of its gap.
    """
    out = np.empty((ks.size, 2, 2))
    acc, done, squares = np.eye(2), 0, [m]
    for i, k in enumerate(ks):
        gap, bit = int(k) - done, 0
        while gap:
            if bit == len(squares):
                squares.append(squares[-1] @ squares[-1])
            if gap & 1:
                acc = acc @ squares[bit]
            gap >>= 1
            bit += 1
        out[i] = acc
        done = int(k)
    return out


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
