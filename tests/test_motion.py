"""Evolution of the invariant-operator coefficients (f, g, varphi)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import cssdyn._dop853
from cssdyn import (AlgebraicCoefficients, CoefficientSchedule, ComplexParts,
                    Constant, DomainError, Harmonic, InitialConditions,
                    IntegratorSettings, NumericalError, Polynomial, Table,
                    UnitContext, closed_form, deviations, evolve,
                    from_initial_width, u_of)

from helpers import hidden, kinked_schedule

UNITS = UnitContext()
TIGHT = IntegratorSettings(rtol=1e-12, atol=1e-14)


def constant_schedule(alpha=0.0, beta=0.0, gamma=0.0, delta=0.0):
    return CoefficientSchedule.algebraic(UNITS, alpha=alpha, beta=beta,
                                         gamma=gamma, delta=delta)


def frame_distance(a, b):
    return max(abs(a.f - b.f), abs(a.g - b.g), abs(a.varphi - b.varphi))


# ---------------------------------------------------------------------------
# evolve


def test_pure_rotation_quarter_turn():
    # alpha = 0 decouples f: f(t) = f0 exp(i beta t)
    frames = evolve(constant_schedule(beta=1.0), InitialConditions(),
                    [0.0, math.pi / 2.0], TIGHT)
    assert frames[-1].f == pytest.approx(1j, abs=1e-10)
    assert frames[-1].g == pytest.approx(0.0, abs=1e-12)
    assert frames[-1].varphi == 0.0


def test_initial_frame_is_returned_unchanged():
    init = InitialConditions(f0=math.cosh(0.3), g0=math.sinh(0.3) * 1j,
                             varphi0=0.2 - 0.1j)
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=Harmonic(1.0, 0.5, 3.0))
    frame = evolve(sched, init, [0.0])[0]
    assert frame.t == 0.0
    assert frame.f == init.f0
    assert frame.g == init.g0
    assert frame.varphi == init.varphi0
    assert frame.phase_phi == 0.0
    assert frame.phase_vartheta == 0.0


def test_hyperbolic_stretch():
    frames = evolve(constant_schedule(alpha=1j), InitialConditions(),
                    [0.0, 1.0], TIGHT)
    assert frames[-1].f == pytest.approx(math.cosh(1.0), abs=1e-10)
    assert frames[-1].g == pytest.approx(-math.sinh(1.0), abs=1e-10)


def test_grid_must_start_at_zero_and_increase():
    sched = constant_schedule(beta=1.0)
    with pytest.raises(DomainError):
        evolve(sched, InitialConditions(), [0.5, 1.0])
    with pytest.raises(DomainError):
        evolve(sched, InitialConditions(), [0.0, 1.0, 1.0])


def test_non_finite_grid_is_refused():
    sched = constant_schedule(beta=1.0)
    for grid in ([0.0, math.inf], [0.0, 1.0, math.inf]):
        with pytest.raises(DomainError, match="finite"):
            evolve(sched, InitialConditions(), grid)


def test_overflowing_frame_raises_numerical_error():
    # |f| ~ cosh(461 t) passes 1e154, where abs(f) ** 2 raises OverflowError,
    # while f is still finite
    with pytest.raises(NumericalError, match="unitarity drift"):
        evolve(constant_schedule(alpha=461j), InitialConditions(), np.linspace(0.0, 1.0, 11))


def test_closed_form_with_huge_alpha_gives_a_refused_frame():
    # |alpha| ** 2 of a finite alpha past 1.3e154 raises OverflowError; squared
    # from its parts it overflows to inf and the frame fails the drift check
    alg = AlgebraicCoefficients(alpha=1e160, beta=1e160)
    frame = closed_form(alg, InitialConditions(), 1e-170)
    assert not frame.unitarity_defect <= 1e-8


def test_drift_breach_raises_with_time():
    # crude tolerances on a stiff-ish stretch, threshold far below reach
    sched = constant_schedule(alpha=2.0)
    settings = IntegratorSettings(rtol=1e-3, atol=1e-3, drift_threshold=1e-15)
    with pytest.raises(NumericalError) as err:
        evolve(sched, InitialConditions(), np.linspace(0.0, 6.0, 11), settings)
    assert err.value.t is not None
    assert 0.0 <= err.value.t <= 6.0


def test_unitarity_on_randomized_schedules():
    rng = np.random.default_rng(5)
    profiles = [
        lambda: Constant(rng.uniform(-2.0, 2.0)),
        lambda: Harmonic(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                         rng.uniform(0.5, 4.0)),
        lambda: Polynomial(tuple(rng.uniform(-0.5, 0.5, size=3))),
        lambda: Table(times=(0.0, 1.5, 3.0),
                      values=tuple(rng.uniform(-2.0, 2.0, size=3))),
    ]
    grid = np.linspace(0.0, 3.0, 61)
    for _ in range(6):
        sched = CoefficientSchedule.algebraic(
            UNITS,
            alpha=rng.choice(profiles)(),
            beta=rng.choice(profiles)(),
            gamma=rng.choice(profiles)(),
            delta=rng.choice(profiles)())
        for fr in evolve(sched, InitialConditions(), grid):
            assert fr.unitarity_defect < 1e-8


def test_superposition_of_the_linear_flow():
    """(f, g) evolves by one linear map, so two probe runs predict a third."""
    sched = constant_schedule(alpha=0.4 + 0.3j, beta=1.1, gamma=0.2j)
    grid = np.linspace(0.0, 2.0, 21)
    s = 0.5
    probe_a = evolve(sched, InitialConditions(1.0, 0.0), grid, TIGHT)
    probe_b = evolve(sched, InitialConditions(math.cosh(s), math.sinh(s)),
                     grid, TIGHT)
    target_init = InitialConditions(math.cosh(0.7) * np.exp(0.4j),
                                    math.sinh(0.7) * np.exp(-0.2j))
    target = evolve(sched, target_init, grid, TIGHT)
    b = target_init.g0 / math.sinh(s)
    a = target_init.f0 - b * math.cosh(s)
    for fa, fb, ft in zip(probe_a, probe_b, target):
        assert a * fa.f + b * fb.f == pytest.approx(ft.f, abs=1e-8)
        assert a * fa.g + b * fb.g == pytest.approx(ft.g, abs=1e-8)


# ---------------------------------------------------------------------------
# knots as step edges


KINKED_INIT = InitialConditions(f0=math.cosh(0.3), g0=math.sinh(0.3) * 1j,
                                varphi0=0.4 - 0.2j)


def relative_distance(frames, reference):
    return max(frame_distance(a, b) / max(1.0, abs(b.f)) for a, b in zip(frames, reference))


@pytest.fixture
def spans(monkeypatch):
    """((t0, t1), times) of every span the stepper integrates."""
    calls = []
    integrate = cssdyn._dop853.integrate

    def recording(rhs, t0, t1, y, times, *args):
        calls.append(((t0, t1), list(times)))
        return integrate(rhs, t0, t1, y, times, *args)

    monkeypatch.setattr(cssdyn._dop853, "integrate", recording)
    return calls


def test_collinear_table_matches_linear_polynomial():
    a, b = 0.9, 0.35
    times = (0.0, 0.37, 1.1, 1.5, 1.9, 2.5)
    line = Table(times, tuple(a + b * t for t in times))
    grid = np.linspace(0.0, 2.5, 26)
    init = InitialConditions(f0=math.cosh(0.2), g0=math.sinh(0.2) * 1j, varphi0=0.3)
    got, want = (evolve(CoefficientSchedule.physical(UNITS, m=1.2, k=k, F=0.2, V=-0.1),
                        init, grid, TIGHT)
                 for k in (line, Polynomial((a, b))))
    assert relative_distance(got, want) < 1e-10
    for fr, ref in zip(got, want):
        assert fr.phase_phi == pytest.approx(ref.phase_phi, abs=1e-10)
        assert fr.phase_vartheta == pytest.approx(ref.phase_vartheta, abs=1e-10)


def test_constant_table_matches_closed_form():
    alg = AlgebraicCoefficients(alpha=0.5 - 0.3j, beta=1.2, gamma=0.25 + 0.4j, delta=-0.3)
    times = (0.0, 0.5, 0.8, 1.7, 2.0)  # 0.5 on the grid, 0.8 and 1.7 off it
    flat = lambda v: Table(times, (v,) * len(times))  # noqa: E731
    sched = CoefficientSchedule.algebraic(
        UNITS, alpha=flat(alg.alpha), beta=flat(alg.beta),
        gamma=ComplexParts(flat(alg.gamma.real), flat(alg.gamma.imag)), delta=flat(alg.delta))
    init = InitialConditions(f0=math.cosh(0.4), g0=-math.sinh(0.4), varphi0=0.1j)
    for fr in evolve(sched, init, np.linspace(0.0, 2.0, 9), TIGHT)[1:]:
        ref = closed_form(alg, init, fr.t)
        assert frame_distance(fr, ref) < 1e-9
        assert fr.phase_phi == pytest.approx(ref.phase_phi, abs=1e-10)
        assert fr.phase_vartheta == pytest.approx(ref.phase_vartheta, abs=1e-9)


def test_knots_inside_the_horizon_are_step_edges(spans):
    # knots at 0 and 0.5 (on the grid), at 0.8 (off it), shared by two
    # profiles; 2.0 ends the horizon and 2.6 lies beyond it
    sched = CoefficientSchedule.algebraic(
        UNITS, beta=Table((0.0, 0.5, 0.8, 2.6), (1.0, 1.4, 0.9, 1.2)),
        alpha=ComplexParts(Table((0.0, 0.8, 2.0), (0.2, -0.1, 0.3)), 0.1))
    assert sched.knots() == (0.0, 0.5, 0.8, 2.0, 2.6)
    grid = np.linspace(0.0, 2.0, 9)
    frames = evolve(sched, KINKED_INIT, grid, TIGHT)
    assert [t_span for t_span, _ in spans] == [(0.0, 0.5), (0.5, 0.8), (0.8, 2.0)]
    # each span yields the grid times after its left edge, up to its right edge
    assert [times for _, times in spans] == [[0.25, 0.5], [0.75], list(grid[4:])]
    assert [fr.t for fr in frames] == list(grid)  # the knot at 0.5 appears once
    assert frames[0].f == KINKED_INIT.f0
    spans.clear()
    reference = evolve(CoefficientSchedule.algebraic(
        UNITS, beta=hidden(sched.profiles["beta"]), alpha=hidden(sched.profiles["alpha"])),
        KINKED_INIT, grid, IntegratorSettings(rtol=3e-14, atol=1e-16))
    assert len(spans) == 1
    assert relative_distance(frames, reference) < 1e-10


def test_knot_free_horizon_is_one_span(spans):
    # knots only at 0, at t_end and beyond: the single call of a knot-free
    # schedule, with bit-identical frames
    table = Table((0.0, 1.5, 2.5), (0.8, 1.3, 0.7))
    grid = np.linspace(0.0, 1.5, 7)
    frames = [evolve(CoefficientSchedule.physical(UNITS, m=1.0, k=k), KINKED_INIT, grid)
              for k in (table, hidden(table))]
    assert [t_span for t_span, _ in spans] == [(0.0, 1.5)] * 2
    assert [times for _, times in spans] == [list(grid[1:])] * 2
    assert frames[0] == frames[1]


def test_single_point_grid_integrates_nothing(spans):
    frame, = evolve(kinked_schedule(), KINKED_INIT, [0.0])
    assert spans == []
    assert (frame.f, frame.g, frame.varphi) == (KINKED_INIT.f0, KINKED_INIT.g0,
                                                KINKED_INIT.varphi0)


def test_kinked_table_against_tight_reference():
    grid = np.linspace(0.0, 3.0, 61)
    reference = evolve(kinked_schedule(hidden), KINKED_INIT, grid,
                       IntegratorSettings(rtol=3e-14, atol=1e-16))
    segmented = evolve(kinked_schedule(), KINKED_INIT, grid)
    bound = 5e-10
    assert relative_distance(segmented, reference) < bound
    # What the edges buy.  Across a kink the error estimate misjudges the
    # step, so the error of a single span hangs on a few accept/reject
    # decisions there and is erratic in rtol; with edges it tracks rtol.
    # Over a sweep of tolerances the segmented error stays within 5 rtol
    # every time, and the single span leaves it more than once.
    excess = {True: 0, False: 0}
    for rtol in np.logspace(-11.0, -8.0, 13):
        settings = IntegratorSettings(rtol=rtol, atol=rtol / 100.0)
        for edges, wrap in ((True, lambda p: p), (False, hidden)):
            frames = evolve(kinked_schedule(wrap), KINKED_INIT, grid, settings,
                            enforce_drift=False)
            excess[edges] += relative_distance(frames, reference) > 5.0 * rtol
    assert excess[True] == 0
    assert excess[False] >= 2


def test_step_edges_halve_the_evaluations():
    table = Table(tuple(np.linspace(0.0, 3.0, 7)), (0.2, -0.3, 0.4, -0.1, 0.3, -0.4, 0.1))
    grid = np.linspace(0.0, 3.0, 31)
    counts = []
    for real in (table, hidden(table)):
        calls = []

        def counting(t):
            calls.append(t)
            return 0.15

        sched = CoefficientSchedule.algebraic(UNITS, alpha=ComplexParts(real, counting),
                                              beta=1.3)
        evolve(sched, KINKED_INIT, grid)
        counts.append(len(calls))
    assert counts[0] <= counts[1] / 2


# ---------------------------------------------------------------------------
# the stepper against scipy's DOP853


def family_schedules():
    """One schedule per trajectory_sweep family, and the kinked table."""
    units = UnitContext(hbar=0.9, l=1.1)
    t_max = 4.0
    knots = tuple(np.linspace(0.0, t_max, 7))
    return {
        "harmonic_physical": CoefficientSchedule.physical(
            units, m=1.1, k=Harmonic(1.2, 0.4, 2.0), Omega=0.1,
            F=Harmonic(0.1, 0.3, 1.2), E=0.2),
        "polynomial_physical": CoefficientSchedule.physical(
            units, m=Polynomial((1.0, 0.03)), k=Polynomial((1.1, -0.02, 0.005)),
            V=Harmonic(0.1, 0.2, 1.5), F=0.2),
        "table_physical": CoefficientSchedule.physical(
            units, m=0.9, k=Table(knots, (1.2, 0.6, 1.9, 1.0, 1.5, 0.7, 1.3)),
            F=Table(knots, (0.3, -0.2, 0.1, 0.4, -0.3, 0.2, 0.0)), Omega=0.05),
        "harmonic_algebraic": CoefficientSchedule.algebraic(
            units, beta=Harmonic(1.6, 0.2, 2.0),
            alpha=ComplexParts(Harmonic(0.05, 0.3, 2.5), Constant(0.1)),
            gamma=ComplexParts(Table(knots, (0.2, -0.1, 0.3, 0.0, -0.2, 0.1, 0.25)),
                               Harmonic(0.0, 0.2, 1.0)),
            delta=Polynomial((0.2, -0.05))),
        "constant_algebraic": CoefficientSchedule.algebraic(
            units, alpha=0.4 * np.exp(1.0j), beta=1.3, gamma=0.3 * np.exp(2.0j), delta=0.1),
        "constant_physical": CoefficientSchedule.physical(
            units, m=1.0, k=0.8, Omega=0.2, F=-0.1, V=0.2, E=0.3),
        "kinked_table": kinked_schedule(),
    }


def solve_ivp_frames(schedule, init, grid, rtol, atol):
    """Columns (f, g, varphi) and (phase_phi, phase_vartheta) at the grid times
    from solve_ivp's DOP853 on 8 real components over the same step edges:
    the oracle of the scalar stepper."""
    hbar = schedule.units.hbar
    coefficients = schedule.compiled()

    def rhs(t, y):
        alpha, beta, gamma, delta = coefficients(t)
        f, g, varphi = complex(y[0], y[1]), complex(y[2], y[3]), complex(y[4], y[5])
        df = -1j * (alpha.conjugate() * g - beta * f)
        dg = -1j * (beta * g - alpha * f)
        dvarphi = -1j * (gamma.conjugate() * g - gamma * f)
        u = g * varphi.conjugate() - f.conjugate() * varphi
        return (df.real, df.imag, dg.real, dg.imag, dvarphi.real, dvarphi.imag,
                0.5 * (beta - 2.0 * delta),
                hbar * (delta - 0.5 * beta) + hbar * (gamma.conjugate() * u).real)

    t_end = grid[-1]
    edges = [0.0, *[k for k in schedule.knots() if 0.0 < k < t_end], t_end]
    y = [init.f0.real, init.f0.imag, init.g0.real, init.g0.imag,
         init.varphi0.real, init.varphi0.imag, 0.0, 0.0]
    ys = np.empty((8, grid.size))
    ys[:, 0], lo = y, 0
    for a, b in zip(edges, edges[1:]):
        hi = grid.size if b == t_end else int(np.searchsorted(grid, b))
        t_eval = grid[lo:] if b == t_end else np.append(grid[lo:hi], b)
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol)
        assert sol.success
        ys[:, lo:hi] = sol.y[:, :hi - lo]
        y, lo = sol.y[:, -1], hi
    return (ys[0:6:2] + 1j * ys[1:6:2]).T, ys[6:].T


@pytest.fixture
def evaluations(monkeypatch):
    """Times of every coefficient evaluation through a compiled schedule."""
    times = []
    compiled = CoefficientSchedule.compiled

    def counting(self):
        evaluate = compiled(self)

        def counted(t):
            times.append(t)
            return evaluate(t)

        return counted

    monkeypatch.setattr(CoefficientSchedule, "compiled", counting)
    return times


@pytest.mark.parametrize("rtol, atol", [(1e-10, 1e-12), (3e-14, 1e-16)])
@pytest.mark.parametrize("family", list(family_schedules()))
def test_stepper_matches_solve_ivp(family, rtol, atol, evaluations):
    schedule = family_schedules()[family]
    init = replace(from_initial_width(0.45 * schedule.units.l, 1.0, schedule.units),
                   varphi0=0.5 - 0.3j)
    grid = np.linspace(0.0, 3.0 if family == "kinked_table" else 4.0, 201)
    frames = evolve(schedule, init, grid, IntegratorSettings(rtol=rtol, atol=atol),
                    enforce_drift=False)
    ours = len(evaluations)
    coefficients, phases = solve_ivp_frames(schedule, init, grid, rtol, atol)
    theirs = len(evaluations) - ours
    scale = np.maximum(1.0, np.abs(coefficients[:, :1]))
    got = np.array([(fr.f, fr.g, fr.varphi) for fr in frames])
    assert np.max(np.abs(got - coefficients) / scale) < 1e-12
    got = np.array([(fr.phase_phi, fr.phase_vartheta) for fr in frames])
    assert np.max(np.abs(got - phases) / np.maximum(1.0, np.abs(phases))) < 1e-12
    assert abs(ours - theirs) <= 0.02 * theirs


def test_step_below_ten_ulps_raises_where_it_failed():
    # beta turns NaN past t = 1: every step across it has a NaN error norm,
    # which must reject it, so the steps shrink onto t = 1 until they fall
    # below 10 ulps there
    sched = CoefficientSchedule.algebraic(
        UNITS, beta=lambda t: 1.0 if t <= 1.0 else math.nan, alpha=0.3)
    with pytest.raises(NumericalError, match="step size") as err:
        evolve(sched, KINKED_INIT, [0.0, 0.5, 2.0], enforce_drift=False)
    assert 1.0 - 1e-12 < err.value.t <= 1.0


def test_coefficient_errors_propagate_unchanged():
    # beta turns complex past t = 1: the compiled evaluator's hermiticity check
    sched = CoefficientSchedule.algebraic(
        UNITS, beta=lambda t: 1.0 if t <= 1.0 else 1.0 + 0.1j, alpha=0.3)
    with pytest.raises(DomainError, match="hermiticity"):
        evolve(sched, KINKED_INIT, [0.0, 2.0])


def test_max_step_caps_every_step():
    # a linear solution has a zero error estimate, so the controller would
    # grow every step tenfold; the cap must hold each one
    calls = []

    def rhs(t, f, g, varphi):
        calls.append(t)
        return 1j, -1j, 0.5 + 0j, 0.25 + 0.5j

    y = (1.0 + 0j, 0j, 0j, 0j)
    _, end = cssdyn._dop853.integrate(rhs, 0.0, 1.0, y, [], 1e-10, 1e-12, 0.125)
    # two evaluations to start, then twelve per step, the last at its end
    assert (len(calls) - 2) % 12 == 0
    steps = np.diff([0.0, *calls[13::12]])
    assert calls[-1] == 1.0
    assert np.all(steps <= 0.125 * (1.0 + 1e-15))
    assert np.max(steps) == pytest.approx(0.125, rel=1e-12)
    assert end == pytest.approx((1.0 + 1j, -1j, 0.5, 0.25 + 0.5j), abs=1e-15)


def test_max_step_reaches_the_stepper(evaluations):
    settings = IntegratorSettings(max_step=0.05)
    evolve(constant_schedule(alpha=0.3, beta=1.0), KINKED_INIT, [0.0, 2.0], settings)
    assert len(evaluations) >= 12 * 40


# ---------------------------------------------------------------------------
# closed form


def test_degenerate_frequency_limit():
    # beta^2 = |alpha|^2 makes sin(Theta t)/Theta -> t
    alg = AlgebraicCoefficients(alpha=1.0, beta=1.0)
    frame = closed_form(alg, InitialConditions(), 2.0)
    assert frame.f == pytest.approx(1.0 + 2.0j, abs=1e-14)
    assert frame.g == pytest.approx(2.0j, abs=1e-14)
    sched = constant_schedule(alpha=1.0, beta=1.0)
    evolved = evolve(sched, InitialConditions(), [0.0, 2.0], TIGHT)[-1]
    assert frame_distance(frame, evolved) < 1e-9


def test_closed_form_reduces_to_exponential():
    alg = AlgebraicCoefficients(beta=1.0)
    init = InitialConditions(f0=math.cosh(0.4) * np.exp(0.3j),
                             g0=math.sinh(0.4))
    for t in (0.3, 1.0, 4.7, 11.0):
        frame = closed_form(alg, init, t)
        assert frame.f == pytest.approx(init.f0 * np.exp(1j * t), abs=1e-13)
        assert frame.g == pytest.approx(init.g0 * np.exp(-1j * t), abs=1e-13)


def test_closed_form_at_zero_time():
    alg = AlgebraicCoefficients(alpha=0.3 + 1j, beta=0.2, gamma=1.0 - 0.5j,
                                delta=0.9)
    init = InitialConditions(varphi0=2.0 - 1.0j)
    frame = closed_form(alg, init, 0.0)
    assert frame.f == init.f0
    assert frame.g == init.g0
    assert frame.varphi == init.varphi0
    assert frame.phase_phi == 0.0
    assert frame.phase_vartheta == 0.0


def test_closed_form_matches_integration_across_regimes():
    rng = np.random.default_rng(17)
    grid = np.array([0.0, 0.5, 1.0, 3.0])
    for _ in range(8):
        alg = AlgebraicCoefficients(
            alpha=complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            beta=rng.uniform(-2.0, 2.0),
            gamma=complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            delta=rng.uniform(-1.0, 1.0))
        sched = constant_schedule(alg.alpha, alg.beta, alg.gamma, alg.delta)
        frames = evolve(sched, InitialConditions(), grid, TIGHT,
                        enforce_drift=False)
        for fr in frames[1:]:
            ref = closed_form(alg, InitialConditions(), fr.t)
            assert frame_distance(ref, fr) < 1e-8
            assert fr.phase_phi == pytest.approx(ref.phase_phi, abs=1e-10)
            assert fr.phase_vartheta == pytest.approx(ref.phase_vartheta,
                                                      abs=1e-8)


def test_quadrature_slope_identity():
    # g = (i/conj(alpha)) df/dt + (beta/conj(alpha)) f for constant coefficients
    alg = AlgebraicCoefficients(alpha=0.8 - 0.6j, beta=1.3, gamma=0.4)
    init = InitialConditions(f0=math.cosh(0.5), g0=math.sinh(0.5) * 1j)
    h = 1e-4
    for t in (0.7, 2.1):
        fm = closed_form(alg, init, t - h).f
        fp = closed_form(alg, init, t + h).f
        df = (fp - fm) / (2.0 * h)
        frame = closed_form(alg, init, t)
        predicted = (1j * df + alg.beta * frame.f) / alg.alpha.conjugate()
        assert abs(predicted - frame.g) < 1e-6


# ---------------------------------------------------------------------------
# initial data


def test_width_ratio_one_gives_vacuum():
    init = from_initial_width(1.0 / math.sqrt(2.0), 0.0, UNITS)
    assert init.f0 == pytest.approx(1.0, abs=1e-15)
    assert init.g0 == pytest.approx(0.0, abs=1e-15)


def test_half_width_squeeze():
    init = from_initial_width(0.5, 0.0, UNITS)
    assert init.f0 == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), abs=1e-14)
    assert init.g0 == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-14)


def test_width_data_sits_on_hyperboloid_and_minimizes():
    rng = np.random.default_rng(23)
    for _ in range(25):
        units = UnitContext(hbar=rng.uniform(0.5, 2.0), l=rng.uniform(0.5, 2.0))
        sigma = units.l / math.sqrt(2.0) * rng.uniform(0.05, 1.0)
        init = from_initial_width(sigma, rng.uniform(0.0, 2.0 * math.pi), units)
        assert abs(init.f0) ** 2 - abs(init.g0) ** 2 == pytest.approx(1.0, abs=1e-13)
        frame = evolve(constant_schedule(), init, [0.0])[0]
        sx, sp, _ = deviations(frame, units)
        assert sx == pytest.approx(sigma, rel=1e-12)
        assert sx * sp == pytest.approx(units.hbar / 2.0, rel=1e-12)


def test_width_out_of_range_rejected():
    with pytest.raises(DomainError):
        from_initial_width(0.8, 0.0, UNITS)  # needs sigma <= l / sqrt(2)
    with pytest.raises(DomainError):
        from_initial_width(0.0, 0.0, UNITS)


def test_off_hyperboloid_initial_data_rejected():
    with pytest.raises(DomainError):
        InitialConditions(f0=1.0, g0=0.5)
    with pytest.raises(DomainError):  # |f0|^2 overflows while f0 is finite
        InitialConditions(f0=1e200, g0=1e200)


# ---------------------------------------------------------------------------
# small algebra


def test_shift_functional():
    assert u_of(evolve(constant_schedule(), InitialConditions(), [0.0])[0]) == 0.0
    frame = evolve(constant_schedule(),
                   InitialConditions(varphi0=0.3 - 0.2j), [0.0])[0]
    assert u_of(frame) == -(0.3 - 0.2j)
    frame = evolve(constant_schedule(), InitialConditions(varphi0=-1j), [0.0])[0]
    assert u_of(frame) == 1j


def test_phase_integrals_on_constant_schedule():
    alg = AlgebraicCoefficients(beta=1.4, delta=0.3)
    frame = closed_form(alg, InitialConditions(), 2.0)
    assert frame.phase_phi == pytest.approx(0.5 * (1.4 - 0.6) * 2.0, abs=1e-14)
    # with gamma = 0 the action phase is locked to -hbar * phase_phi
    assert frame.phase_vartheta == pytest.approx(-frame.phase_phi, abs=1e-14)
    sched = constant_schedule(beta=1.4, delta=0.3)
    evolved = evolve(sched, InitialConditions(), [0.0, 2.0], TIGHT)[-1]
    assert evolved.phase_phi == pytest.approx(frame.phase_phi, abs=1e-10)
    assert evolved.phase_vartheta == pytest.approx(frame.phase_vartheta, abs=1e-10)
