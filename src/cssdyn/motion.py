"""Linear integrals of motion for quadratic Hamiltonians.

The operator A(t) = f(t) a + g(t) a† + varphi(t) stays an integral of motion,
[A, A†] = 1, when the coefficient triple follows

    i df/dt      = conj(alpha) g - beta f
    i dg/dt      = beta g - alpha f
    i dvarphi/dt = conj(gamma) g - gamma f

with f(0), g(0) on the hyperboloid |f|^2 - |g|^2 = 1.  That constraint is
then conserved exactly; numerically it is monitored, never projected.

Alongside (f, g, varphi) one real phase is accumulated, the one that makes
the state attached to the frame solve the Schrodinger equation, drive
included:

    phase_phi = int_0^t [(beta - 2 delta)/2 - Re(conj(gamma) u)] dtau

where u = g conj(varphi) - conj(f) varphi.  It never needs the (x, p)
form, so schedules with Re(beta - alpha) = 0 (infinite mass) evolve fine.
Its action-valued form, -hbar phase_phi = int_0^t [E + (V pbar + F xbar)/2]
dtau, is stored beside it as phase_vartheta.

evolve integrates the three complex coefficients and the phase with
DOP853 on Python complex scalars (_dop853): Hairer's method with
scipy.integrate.solve_ivp's step control and dense output, so rtol and
atol mean what they mean there, without numpy work inside a step.  The
stepper returns a record of the steps that hold grid times, and evolve
reads the grid states, their drift and the frames from it column by
column: one numpy pass of the dense output for all times, the values the
scalar expression gives bit for bit.  That solve_ivp is the reference the
stepper is tested against; nothing here imports scipy.

For constant coefficients the solution is closed-form through the entire
functions cos(Theta t) and sin(Theta t)/Theta of Theta^2 = beta^2 - |alpha|^2,
and so is the phase, whose drive term integrates them exactly; no complex
square root is ever taken.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields

import numpy as np

from . import _dop853
from .errors import DomainError, NumericalError, _array, _read, _read_fields
from .hamiltonian import AlgebraicCoefficients, CoefficientSchedule, UnitContext

# |f0|^2 - |g0|^2 = 1 must hold to this tolerance relative to |f0|^2 + |g0|^2
# at construction: rounding in the difference grows with its terms.
_INIT_TOL = 1e-12

# Below this |Theta^2| the trig pair switches to its 6-term Taylor series.
_THETA2_EPS = 1e-24

# Coefficient evaluations one evolve call may make over its spans and its
# drift retry: 50,000 DOP853 steps of 12 evaluations.  dop853.f stops one
# integration after NMAX = 100,000 steps, where a compiled step costs about
# a microsecond.  A step here costs about 60 us, so that count would let a
# run that cannot progress go on for some 6 s, and half of it stops one in
# about 3 s.  Such a run: a coefficient oscillating at 1e300 rad/s is noise
# to the step control, which holds the step near 1e-12, so [0, 0.5] would
# take months.  Successful calls stay far below the budget: at most 4,238
# evaluations in the test suite and 777 in a trajectory_sweep task, and an
# oscillator at the default rtol spends about 210 a period.
_EVALUATION_BUDGET = 600_000


def _hyperboloid_defect(f, g):
    """| |f|^2 - |g|^2 - 1 | of complex numbers or arrays, zero in exact
    arithmetic.

    |f|^2 is Re(f)^2 + Im(f)^2, squared from the parts: a huge but finite f
    gives inf or nan, which every check refuses, where abs(f) ** 2 raises
    OverflowError.  On Python complex numbers this is Re(f conj(f)) -
    Re(g conj(g)) - 1 bit for bit.
    """
    return abs((f.real * f.real + f.imag * f.imag) - (g.real * g.real + g.imag * g.imag) - 1.0)


@dataclass(frozen=True)
class InitialConditions:
    """Starting point (f0, g0, varphi0) on the hyperboloid |f0|^2 - |g0|^2 = 1.

    The three are stored as complex numbers, read through the package's
    intake (errors._read).  The hyperboloid must hold to 1e-12 relative to
    |f0|^2 + |g0|^2, which must be finite; anything else raises DomainError.
    """

    f0: complex = 1.0 + 0j
    g0: complex = 0j
    varphi0: complex = 0j

    def __post_init__(self):
        _read_fields(self, {"f0": "complex", "g0": "complex", "varphi0": "complex"})
        defect = _hyperboloid_defect(self.f0, self.g0)
        size = (self.f0 * self.f0.conjugate()).real + (self.g0 * self.g0.conjugate()).real
        if not defect <= _INIT_TOL * size < math.inf:
            raise DomainError(
                f"|f0|^2 - |g0|^2 must equal 1 within {_INIT_TOL:g} relative to "
                f"|f0|^2 + |g0|^2 = {size:.3g}, defect {defect:.3e}"
            )


@dataclass(frozen=True)
class MotionFrame:
    """State of the integral of motion at one time.

    phase_phi is the accumulated phase of the state, zero at t = 0, and
    phase_vartheta = -hbar phase_phi its action-valued form.  A frame built
    by hand reads t and the phases as floats, and f, g and varphi as
    complex numbers, through the package's intake (errors._read), which
    refuses anything else with a DomainError naming the field.
    """

    t: float
    f: complex
    g: complex
    varphi: complex
    phase_phi: float = 0.0
    phase_vartheta: float = 0.0

    def __post_init__(self):
        _read_fields(self, {"t": "real", "f": "complex", "g": "complex", "varphi": "complex",
                            "phase_phi": "real", "phase_vartheta": "real"})

    @property
    def unitarity_defect(self) -> float:
        """| |f|^2 - |g|^2 - 1 |, zero in exact arithmetic."""
        return _hyperboloid_defect(self.f, self.g)


def _frames(ts, fs, gs, varphis, phis, varthetas) -> list:
    """MotionFrames from equal columns of Python floats and complex numbers,
    one per row.

    The fields go straight into each frame's __dict__, which is where the
    frozen dataclass's __init__ puts them one object.__setattr__ at a time,
    so equality, hashing and dataclasses.replace treat these frames as
    constructed ones.  The columns are not checked or converted: they
    already hold what the constructor's reading would store.
    """
    frames = []
    append, new = frames.append, object.__new__
    for t, f, g, varphi, phi, vartheta in zip(ts, fs, gs, varphis, phis, varthetas):
        frame = new(MotionFrame)
        row = frame.__dict__
        row["t"], row["f"], row["g"], row["varphi"] = t, f, g, varphi
        row["phase_phi"], row["phase_vartheta"] = phi, vartheta
        append(frame)
    return frames


@dataclass(frozen=True)
class IntegratorSettings:
    """Accuracy settings of evolve, the generic route to a motion frame.

    evolve reads all four: rtol, atol and max_step steer DOP853, and
    drift_threshold bounds the unitarity defect of every frame.  The
    Mathieu route (mathieu.fundamental_solutions) reads none; it always
    solves at the rounding floor and checks the Wronskian against a fixed
    1e-9.  Each is stored as a float and must be positive (inf included);
    the intake (errors._read) admits any real number type.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = math.inf
    drift_threshold: float = 1e-8

    def __post_init__(self):
        _read_fields(self, {f.name: "positive" for f in fields(self)})


def u_of(frame: MotionFrame) -> complex:
    """u = g conj(varphi) - conj(f) varphi, the complex mean-coordinate combination."""
    return frame.g * frame.varphi.conjugate() - frame.f.conjugate() * frame.varphi


def from_initial_width(sigma_x0: float, theta: float, units: UnitContext) -> InitialConditions:
    """Initial (f0, g0) realizing position width sigma_x0 on the phase theta.

    Parameters
    ----------
    sigma_x0 : float
        Target position deviation at t = 0, positive and finite.  A
        DomainError names it when 2 sigma_x0^2 underflows to 0 (below
        about 1e-162) or when the start it gives is off the hyperboloid
        in floating point.
    theta : float
        Phase of f0, finite.  g0 is a real multiple of the same phase, negative
        when sigma_x0 > l/sqrt(2), which makes the initial state
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
    sigma_x0 = _read("sigma_x0", sigma_x0, "positive and finite")
    theta = _read("theta", theta, "finite")
    denominator = 2.0 * sigma_x0 * sigma_x0
    if denominator == 0.0:
        raise DomainError(f"sigma_x0 = {sigma_x0!r} with l = {l!r}: 2 sigma_x0^2 underflows to 0")
    a = l * l / denominator
    scale = sigma_x0 / (l * math.sqrt(2.0))
    phase = complex(math.cos(theta), math.sin(theta))
    try:
        return InitialConditions(f0=scale * (a + 1.0) * phase, g0=scale * (a - 1.0) * phase)
    except DomainError as exc:
        # |f0|^2 - |g0|^2 cancels to rounding once sigma_x0 / l is far from 1
        raise DomainError(f"sigma_x0 = {sigma_x0!r} with l = {l!r}: {exc}") from None


# ---------------------------------------------------------------------------
# numerical evolution


def _check_grid(grid) -> np.ndarray:
    """grid as a float array, refused with DomainError unless its entries
    are real numbers within the floats (errors._array) and it is
    one-dimensional, nonempty, finite, strictly increasing and starts at 0.

    Both routes take their grids through it: evolve's times and the Mathieu
    route's tau grids.
    """
    ts = _array("grid", grid)
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
    """Integrate (f, g, varphi) and the phase over a time grid.

    The stepper is DOP853 on complex scalars (see _dop853), with
    solve_ivp's initial step, error norm, step control and 7th-order dense
    output at the grid times.  The schedule's knots
    (CoefficientSchedule.knots) strictly inside (0, grid[-1]) are step
    edges: DOP853 restarts at each one from the state it reached there, so
    no step straddles a table's kink.  Between edges, and for a knot-free
    schedule over the whole of [0, grid[-1]], it is one integration whose
    step record keeps the steps that hold grid times.  The grid states
    come from those records in one numpy pass (_dop853.grid_states), the
    dense output that Python complex arithmetic gives bit for bit, and the
    drift test below reads the same columns.  The coefficients come from
    the schedule's compiled evaluator (CoefficientSchedule.compiled), the
    checked values bit for bit.  A step that falls below 10 ulps of t
    raises NumericalError at that t, and so does a derivative whose scaled
    norm overflows at a step edge; errors the coefficients raise
    (DomainError) pass through unchanged.  One call evaluates the
    coefficients at most 600,000 times (about 50,000 steps), its spans and
    drift retry together; the evaluation that would pass that budget
    raises NumericalError at its t instead, where a coefficient that no
    step resolves would otherwise keep the stepper going for months.

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
        When True (default), a unitarity defect above drift_threshold, or
        nan, at any grid time triggers one retry at 100x tighter tolerances
        (rtol floored at 3e-14); a second breach raises NumericalError at
        the first offending time.  When False the first run is returned and
        the drift is only measured, which lets callers report it themselves.

    Returns
    -------
    list of MotionFrame
    """
    ts = _check_grid(grid)
    hbar = schedule.units.hbar
    coefficients = schedule.compiled()
    evaluations = 0

    # derivatives of (f, g, varphi, phase_phi); the phase is real
    def rhs(t, f, g, varphi):
        nonlocal evaluations
        evaluations += 1
        if evaluations > _EVALUATION_BUDGET:
            raise NumericalError(
                f"evolve stopped at t = {t!r}: its budget of {_EVALUATION_BUDGET} coefficient "
                f"evaluations (about {_EVALUATION_BUDGET // 12} steps) is spent", t=t)
        alpha, beta, gamma, delta = coefficients(t)
        gc = gamma.conjugate()
        u = g * varphi.conjugate() - f.conjugate() * varphi
        return (-1j * (alpha.conjugate() * g - beta * f),
                -1j * (beta * g - alpha * f),
                -1j * (gc * g - gamma * f),
                0.5 * (beta - 2.0 * delta) - (gc * u).real)

    # spans between step edges: the knots strictly inside the horizon, where
    # a table kinks; the single-point grid has none
    times = ts.tolist()
    t_end = times[-1]
    inner = [k for k in schedule.knots() if 0.0 < k < t_end]
    edges = [0.0, *inner, t_end] if t_end > 0.0 else []

    def run(rtol, atol):
        # the grid states, one row (f, g, varphi, phase) per time: a span's
        # record covers the grid times in (a, b], and its state at b starts
        # the next span
        y = (init.f0, init.g0, init.varphi0, 0j)
        states = np.empty((len(times), 4), dtype=complex)
        states[0] = y
        record, lo = [], 1
        for a, b in zip(edges, edges[1:]):
            hi = bisect.bisect_right(times, b, lo)
            steps, y = _dop853.integrate(rhs, a, b, y, times[lo:hi], rtol, atol,
                                         settings.max_step)
            record += steps
            lo = hi
        if record:
            states[1:] = _dop853.grid_states(record, ts[1:])
        return states

    def breaches(states):
        # an overflowed run gives inf - inf = nan, which must count as a breach
        with np.errstate(over="ignore", invalid="ignore"):
            defect = _hyperboloid_defect(states[:, 0], states[:, 1])
        return defect, ~(defect <= settings.drift_threshold)

    states = run(settings.rtol, settings.atol)
    if enforce_drift and breaches(states)[1].any():
        states = run(max(settings.rtol / 100.0, 3e-14), settings.atol / 100.0)
        defect, bad = breaches(states)
        if bad.any():
            raise NumericalError(
                f"unitarity drift {np.max(defect):.3e} exceeds threshold "
                f"{settings.drift_threshold:g} after refinement", t=times[np.argmax(bad)])
    phase = states[:, 3].real
    with np.errstate(over="ignore"):
        vartheta = -hbar * phase
    return _frames(times, states[:, 0].tolist(), states[:, 1].tolist(), states[:, 2].tolist(),
                   phase.tolist(), vartheta.tolist())


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


def _d_integral(theta2: float, t: float, s: float) -> float:
    """(s - t)/Theta^2 for s = sin(Theta t)/Theta: the integral over [0, t]
    of d = (cos(Theta tau) - 1)/Theta^2.

    Entire in theta2 as well.  Below |Theta^2 t^2| = 1, where s - t would
    cancel, it is summed as -t^3 sum_k (-Theta^2 t^2)^k / (2k + 3)!, whose
    10 terms reach the rounding floor there; at and above it the
    difference loses at most a factor 1/(1 - sin 1) < 7.
    """
    z = theta2 * t * t
    if abs(z) >= 1.0:
        return (s - t) / theta2
    total, term = 0.0, -t * t * t / 6.0
    for k in range(10):
        total += term
        term *= -z / ((2 * k + 4) * (2 * k + 5))
    return total


def closed_form(alg: AlgebraicCoefficients, init: InitialConditions, t: float,
                units: UnitContext = UnitContext()) -> MotionFrame:
    """Exact frame at time t for constant coefficients.

    f, g and varphi are combinations of c = cos(Theta t),
    s = sin(Theta t)/Theta and d = (c - 1)/Theta^2 (see _entire_trig).  So
    is the mean combination u = g conj(varphi) - conj(f) varphi, which
    solves i du/dt = beta u + alpha conj(u) + gamma:

        u = c u0 - i s (beta u0 + alpha conj(u0) + gamma)
              + d (beta gamma - alpha conj(gamma)).

    phase_phi is (beta - 2 delta) t / 2 less the drive's part, the integral
    of Re(conj(gamma) u), taken exactly: c, s and d integrate over [0, t]
    to s, -d and (s - t)/Theta^2 (see _d_integral).  No quadrature and no
    stepping, which keeps this route fully independent of evolve.

    Raises NumericalError carrying t once cosh(|Theta| t) overflows a float
    (Theta^2 < 0 and |Theta| t past about 710), and DomainError naming t
    unless t is a finite real number.
    """
    t = _read("t", t, "finite")
    theta2 = alg.beta * alg.beta - (alg.alpha * alg.alpha.conjugate()).real
    try:
        c, s, d = _entire_trig(theta2, t)
    except OverflowError:
        raise NumericalError(f"closed form at t = {t:g}: cosh(|Theta| t) overflows "
                             f"for Theta^2 = {theta2:g}", t=t) from None
    f0, g0, p0 = init.f0, init.g0, init.varphi0
    al, be, ga = alg.alpha, alg.beta, alg.gamma
    f = f0 * c + 1j * (be * f0 - al.conjugate() * g0) * s
    g = g0 * c + 1j * (al * f0 - be * g0) * s
    varphi = (1j * (ga * f0 - ga.conjugate() * g0) * s
              + ((ga * be - ga.conjugate() * al) * f0
                 + (ga.conjugate() * be - ga * al.conjugate()) * g0) * d
              + p0)
    phase_phi = 0.5 * (be - 2.0 * alg.delta) * t
    if ga != 0:
        u0 = g0 * p0.conjugate() - f0.conjugate() * p0
        drive = (s * u0 + 1j * d * (be * u0 + al * u0.conjugate() + ga)
                 + _d_integral(theta2, t, s) * (be * ga - al * ga.conjugate()))
        phase_phi -= (ga.conjugate() * drive).real
    return MotionFrame(t=t, f=f, g=g, varphi=varphi,
                       phase_phi=phase_phi, phase_vartheta=-units.hbar * phase_phi)
