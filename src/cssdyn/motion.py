"""Linear integrals of motion for quadratic Hamiltonians.

The operator A(t) = f(t) a + g(t) a† + varphi(t) stays an integral of motion,
[A, A†] = 1, when the coefficient triple follows

    i df/dt      = conj(alpha) g - beta f
    i dg/dt      = beta g - alpha f
    i dvarphi/dt = conj(gamma) g - gamma f

with f(0), g(0) on the hyperboloid |f|^2 - |g|^2 = 1.  That constraint is
then conserved exactly; numerically it is monitored, never projected.

Alongside (f, g, varphi) two real phase integrals are accumulated:

    phase_phi      = (1/2) int_0^t (beta - 2 delta) dtau
    phase_vartheta = int_0^t [E + (V pbar + F xbar)/2] dtau
                   = int_0^t [hbar (delta - beta/2) + hbar Re(conj(gamma) u)] dtau

where u = g conj(varphi) - conj(f) varphi.  The second identity is what the
code integrates; it never needs the (x, p) form, so schedules with
Re(beta - alpha) = 0 (infinite mass) evolve fine.

evolve integrates the three complex coefficients and the phase pair with
DOP853 on Python complex scalars (_dop853): Hairer's method with
scipy.integrate.solve_ivp's step control and dense output, so rtol and
atol mean what they mean there, without numpy work inside a step.

For constant coefficients the solution is closed-form through the entire
functions cos(Theta t) and sin(Theta t)/Theta of Theta^2 = beta^2 - |alpha|^2;
no complex square root is ever taken.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import _dop853
from .errors import DomainError, NumericalError
from .hamiltonian import AlgebraicCoefficients, CoefficientSchedule, UnitContext

# |f0|^2 - |g0|^2 = 1 must hold to this absolute tolerance at construction.
_INIT_TOL = 1e-12

# Below this |Theta^2| the trig pair switches to its 6-term Taylor series.
_THETA2_EPS = 1e-24


def _hyperboloid_defect(f: complex, g: complex) -> float:
    """| |f|^2 - |g|^2 - 1 |, zero in exact arithmetic.

    |f|^2 is Re(f conj(f)) = Re(f)^2 + Im(f)^2, squared from the parts: a
    huge but finite f gives inf or nan, which every check refuses, where
    abs(f) ** 2 raises OverflowError.
    """
    return abs((f * f.conjugate()).real - (g * g.conjugate()).real - 1.0)


@dataclass(frozen=True)
class InitialConditions:
    """Starting point (f0, g0, varphi0) on the hyperboloid |f0|^2 - |g0|^2 = 1."""

    f0: complex = 1.0 + 0j
    g0: complex = 0j
    varphi0: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "f0", complex(self.f0))
        object.__setattr__(self, "g0", complex(self.g0))
        object.__setattr__(self, "varphi0", complex(self.varphi0))
        defect = _hyperboloid_defect(self.f0, self.g0)
        if not defect <= _INIT_TOL:
            raise DomainError(
                f"|f0|^2 - |g0|^2 must equal 1 within {_INIT_TOL:g}, defect {defect:.3e}"
            )


@dataclass(frozen=True)
class MotionFrame:
    """State of the integral of motion at one time.

    phase_phi and phase_vartheta are the two accumulated phase integrals
    (dimensionless and action-valued respectively); both start at zero.
    """

    t: float
    f: complex
    g: complex
    varphi: complex
    phase_phi: float = 0.0
    phase_vartheta: float = 0.0

    @property
    def unitarity_defect(self) -> float:
        """| |f|^2 - |g|^2 - 1 |, zero in exact arithmetic."""
        return _hyperboloid_defect(self.f, self.g)


@dataclass(frozen=True)
class IntegratorSettings:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = math.inf
    drift_threshold: float = 1e-8

    def __post_init__(self):
        for name in ("rtol", "atol", "max_step", "drift_threshold"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v > 0):
                raise DomainError(f"{name} must be positive, got {v!r}")


def u_of(frame: MotionFrame) -> complex:
    """u = g conj(varphi) - conj(f) varphi, the complex mean-coordinate combination."""
    return frame.g * frame.varphi.conjugate() - frame.f.conjugate() * frame.varphi


def from_initial_width(sigma_x0: float, theta: float, units: UnitContext) -> InitialConditions:
    """Initial (f0, g0) realizing position width sigma_x0 with common phase theta.

    Parameters
    ----------
    sigma_x0 : float
        Target position deviation at t = 0; requires 0 < sigma_x0 <= l/sqrt(2).
    theta : float
        Common phase of f0 and g0.  Equal phases make the initial state
        minimum-uncertainty: sigma_xp(0) = 0 and sigma_p0 = hbar/(2 sigma_x0).
    units : UnitContext
        Supplies l.

    Returns
    -------
    InitialConditions
        With varphi0 = 0; displacement is an independent degree of freedom
        and can be set on the returned record via dataclasses.replace.
    """
    l = units.l
    if not (isinstance(sigma_x0, (int, float)) and 0 < sigma_x0 < math.inf):
        raise DomainError(f"sigma_x0 must be positive and finite, got {sigma_x0!r}")
    if l < math.sqrt(2.0) * sigma_x0:
        raise DomainError(
            "width map assumes l >= sqrt(2) * sigma_x0; "
            f"got l = {l:g}, sigma_x0 = {sigma_x0:g}"
        )
    a = l * l / (2.0 * sigma_x0 * sigma_x0)
    scale = sigma_x0 / (l * math.sqrt(2.0))
    phase = complex(math.cos(theta), math.sin(theta))
    return InitialConditions(f0=scale * (a + 1.0) * phase, g0=scale * (a - 1.0) * phase)


# ---------------------------------------------------------------------------
# numerical evolution


def _check_grid(grid) -> np.ndarray:
    """grid as a float array, refused with DomainError unless it is
    one-dimensional, nonempty, finite, strictly increasing and starts at 0.

    Both routes take their grids through it: evolve's times and the Mathieu
    route's tau grids.
    """
    ts = np.asarray(grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise DomainError("grid must be a one-dimensional, nonempty array")
    if not np.all(np.isfinite(ts)):
        raise DomainError("grid must be finite")
    if ts[0] != 0.0:
        raise DomainError(f"grid must start at 0, got {ts[0]!r}")
    if ts.size > 1 and not np.all(np.diff(ts) > 0):
        raise DomainError("grid must be strictly increasing")
    return ts


def evolve(schedule: CoefficientSchedule, init: InitialConditions, grid,
           settings: IntegratorSettings = IntegratorSettings(), *,
           enforce_drift: bool = True) -> list:
    """Integrate (f, g, varphi) and both phase integrals over a time grid.

    The stepper is DOP853 on complex scalars (see _dop853), with
    solve_ivp's initial step, error norm, step control and 7th-order dense
    output at the grid times.  The schedule's knots
    (CoefficientSchedule.knots) strictly inside (0, grid[-1]) are step
    edges: DOP853 restarts at each one from the state it reached there, so
    no step straddles a table's kink.  Between edges, and for a knot-free
    schedule over the whole horizon, it is one integration that yields the
    grid times on the way.  A step that falls below 10 ulps of t raises
    NumericalError at that t; errors the coefficients raise (DomainError)
    pass through unchanged.

    Parameters
    ----------
    schedule : CoefficientSchedule
        Coefficients as functions of time, with units.
    init : InitialConditions
        Values at t = 0.
    grid : array_like
        Strictly increasing finite times starting exactly at 0; a frame is
        returned for each entry.
    settings : IntegratorSettings
        Solver tolerances plus the unitarity drift threshold.
    enforce_drift : bool
        When True (default), a drift breach triggers one retry at 100x
        tighter tolerances and then NumericalError.  When False the drift is
        only measured, which lets callers report it themselves.

    Returns
    -------
    list of MotionFrame
    """
    ts = _check_grid(grid)
    hbar = schedule.units.hbar
    coefficients = schedule.compiled()

    # derivatives of (f, g, varphi, phase_phi + 1j * phase_vartheta)
    def rhs(t, f, g, varphi):
        alpha, beta, gamma, delta = coefficients(t)
        gc = gamma.conjugate()
        u = g * varphi.conjugate() - f.conjugate() * varphi
        return (-1j * (alpha.conjugate() * g - beta * f),
                -1j * (beta * g - alpha * f),
                -1j * (gc * g - gamma * f),
                complex(0.5 * (beta - 2.0 * delta),
                        hbar * (delta - 0.5 * beta) + hbar * (gc * u).real))

    # spans between step edges: the knots strictly inside the horizon, where
    # a table kinks; the single-point grid has none
    times = ts.tolist()
    t_end = times[-1]
    inner = [k for k in schedule.knots() if 0.0 < k < t_end]
    edges = [0.0, *inner, t_end] if t_end > 0.0 else []

    def run(rtol, atol):
        # a span yields the grid times in (a, b]; its state at b starts the next
        y = (init.f0, init.g0, init.varphi0, 0j)
        states, lo = [y], 1
        for a, b in zip(edges, edges[1:]):
            hi = bisect.bisect_right(times, b, lo)
            got, y = _dop853.integrate(rhs, a, b, y, times[lo:hi], rtol, atol,
                                       settings.max_step)
            states += got
            lo = hi
        return [MotionFrame(t, f, g, varphi, p.real, p.imag)
                for t, (f, g, varphi, p) in zip(times, states)]

    if not enforce_drift:
        return run(settings.rtol, settings.atol)
    return run_monitored(run, lambda frames: [fr.unitarity_defect for fr in frames],
                         settings.drift_threshold, ts, settings,
                         "unitarity drift {worst:.3e} exceeds threshold {limit:g}")


def run_monitored(run, defects, limit: float, times, settings: IntegratorSettings,
                  breach: str):
    """run(rtol, atol) with its accuracy invariant held at every sample.

    defects(result) gives one defect per entry of times.  Should any exceed
    limit, or fail to be finite, the run is repeated once at 100x tighter
    tolerances (rtol floored at 3e-14); a second breach raises
    NumericalError at the first offending time.  breach is the message,
    formatted with the worst defect and the limit.
    """

    def breaches(result):
        # an overflowed run gives inf - inf = nan, which must count as a breach
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.asarray(defects(result), dtype=float)
        return defect, ~(defect <= limit)

    result = run(settings.rtol, settings.atol)
    if breaches(result)[1].any():
        result = run(max(settings.rtol / 100.0, 3e-14), settings.atol / 100.0)
        defect, bad = breaches(result)
        if bad.any():
            raise NumericalError(
                breach.format(worst=np.max(defect), limit=limit) + " after refinement",
                t=float(times[np.argmax(bad)]))
    return result


# ---------------------------------------------------------------------------
# constant-coefficient closed form


def _entire_trig(theta2: float, t: float):
    """(cos(Theta t), sin(Theta t)/Theta, (cos(Theta t) - 1)/Theta^2) for Theta^2 = theta2.

    All three are entire functions of theta2, so they are evaluated from the
    real regime (trig), the negative regime (hyperbolic), or a 6-term Taylor
    series below |theta2| < 1e-24.  The third uses half-angle identities to
    avoid cancellation near the switch.
    """
    if abs(theta2) < _THETA2_EPS:
        z = theta2 * t * t
        c = s = d = 0.0
        # cos: sum (-z)^k/(2k)!,  sinc: sum (-z)^k/(2k+1)!,  both 6 terms
        term_c, term_s, term_d = 1.0, 1.0, -0.5
        for k in range(6):
            c += term_c
            s += term_s
            d += term_d
            term_c *= -z / ((2 * k + 1) * (2 * k + 2))
            term_s *= -z / ((2 * k + 2) * (2 * k + 3))
            term_d *= -z / ((2 * k + 3) * (2 * k + 4))
        return c, t * s, t * t * d
    if theta2 > 0.0:
        w = math.sqrt(theta2)
        half = math.sin(0.5 * w * t)
        return math.cos(w * t), math.sin(w * t) / w, -2.0 * half * half / theta2
    w = math.sqrt(-theta2)
    half = math.sinh(0.5 * w * t)
    return math.cosh(w * t), math.sinh(w * t) / w, 2.0 * half * half / theta2


def closed_form(alg: AlgebraicCoefficients, init: InitialConditions, t: float,
                units: UnitContext = UnitContext()) -> MotionFrame:
    """Exact frame at time t for constant coefficients.

    phase_phi is (beta - 2 delta) t / 2 exactly; phase_vartheta is the
    closed-form integrand integrated by adaptive quadrature (its x/p mean
    factors mix incommensurate frequencies), which keeps this route fully
    independent of the step-by-step evolution.
    """
    f, g, varphi = _closed_fgp(alg, init, t)
    phase_phi = 0.5 * (alg.beta - 2.0 * alg.delta) * float(t)
    hbar = units.hbar
    vartheta = hbar * (alg.delta - 0.5 * alg.beta) * float(t)
    if alg.gamma != 0:
        gc = alg.gamma.conjugate()

        def work_rate(tau):
            ff, gg, pp = _closed_fgp(alg, init, tau)
            u = gg * pp.conjugate() - ff.conjugate() * pp
            return (gc * u).real

        integral, _ = quad(work_rate, 0.0, float(t), epsabs=1e-13, epsrel=1e-12, limit=200)
        vartheta += hbar * integral
    return MotionFrame(t=float(t), f=f, g=g, varphi=varphi,
                       phase_phi=phase_phi, phase_vartheta=vartheta)


def _closed_fgp(alg: AlgebraicCoefficients, init: InitialConditions, t: float):
    theta2 = alg.beta * alg.beta - (alg.alpha * alg.alpha.conjugate()).real
    c, s, d = _entire_trig(theta2, float(t))
    f0, g0, p0 = init.f0, init.g0, init.varphi0
    al, be, ga = alg.alpha, alg.beta, alg.gamma
    f = f0 * c + 1j * (be * f0 - al.conjugate() * g0) * s
    g = g0 * c + 1j * (al * f0 - be * g0) * s
    varphi = (1j * (ga * f0 - ga.conjugate() * g0) * s
              + ((ga * be - ga.conjugate() * al) * f0
                 + (ga.conjugate() * be - ga * al.conjugate()) * g0) * d
              + p0)
    return f, g, varphi
