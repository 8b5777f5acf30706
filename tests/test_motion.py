"""Evolution of the invariant-operator coefficients (f, g, varphi)."""

import math
import numbers
import re
import subprocess
import sys
from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import cssdyn._dop853
from cssdyn import (AlgebraicCoefficients, CoefficientSchedule, ComplexParts,
                    Constant, DomainError, DrivenOscillatorConfig, Harmonic, InitialConditions,
                    IntegratorSettings, MotionFrame, NumericalError, PhysicalCoefficients,
                    Polynomial, Table, UnitContext, closed_form, deviations, evolve,
                    fock_coefficients, fock_wavefunction, frames, from_initial_width,
                    normalization, overlap, parameters, transition_snapshot, u_of,
                    wavefunction)
from cssdyn.errors import _BOUNDS, _read, _shown

from helpers import (DRIVEN_SCHEDULE, DRIVEN_UNITS, constant_draws, driven_frames, hidden,
                     kinked_schedule, scalar_grid_states)

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


@pytest.mark.parametrize("grid", [[], [[0.0, 1.0]]], ids=["empty", "2-D"])
def test_grid_must_be_one_dimensional_and_nonempty(grid):
    with pytest.raises(DomainError, match="one-dimensional, nonempty"):
        evolve(constant_schedule(beta=1.0), InitialConditions(), grid)


def test_zero_schedule_keeps_the_initial_frame():
    # every derivative is exactly 0: the first step comes from the tiny-
    # derivative rule and every step's error estimate is exactly 0
    init = InitialConditions(f0=math.cosh(0.3), g0=math.sinh(0.3) * 1j, varphi0=0.5 - 1j)
    for fr in evolve(constant_schedule(), init, np.linspace(0.0, 2.0, 5)):
        assert (fr.f, fr.g, fr.varphi, fr.phase_phi) == (init.f0, init.g0, init.varphi0, 0.0)


def test_non_finite_grid_is_refused():
    sched = constant_schedule(beta=1.0)
    for grid in ([0.0, math.inf], [0.0, 1.0, math.inf]):
        with pytest.raises(DomainError, match="finite"):
            evolve(sched, InitialConditions(), grid)


def test_overflowing_frame_raises_numerical_error():
    # |f| ~ cosh(461 t) passes 1e154, where abs(f) ** 2 raises OverflowError,
    # while f is still finite; the grid states and the drift test overflow
    # to inf and nan without a numpy warning (the suite makes one an error)
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(NumericalError, match="unitarity drift"):
        evolve(constant_schedule(alpha=461j), InitialConditions(), grid)
    frames = evolve(constant_schedule(alpha=461j), InitialConditions(), grid, enforce_drift=False)
    assert not math.isfinite(frames[-1].unitarity_defect)


def test_drift_breach_retries_once_at_tighter_tolerances(monkeypatch):
    # the overflowing frame's nan is a breach; the retry runs at 100x
    # tighter tolerances, rtol floored at 3e-14, and breaches again
    tolerances = []
    integrate = cssdyn._dop853.integrate

    def recording(rhs, t0, t1, y, times, rtol, atol, max_step):
        tolerances.append((rtol, atol))
        return integrate(rhs, t0, t1, y, times, rtol, atol, max_step)

    monkeypatch.setattr(cssdyn._dop853, "integrate", recording)
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(NumericalError) as err:
        evolve(constant_schedule(alpha=461j), InitialConditions(), grid, TIGHT)
    assert str(err.value) == "unitarity drift nan exceeds threshold 1e-08 after refinement"
    assert err.value.t in grid
    assert tolerances == [(1e-12, 1e-14), (3e-14, 1e-16)]


def test_evaluation_budget_ends_a_run_that_cannot_progress(monkeypatch):
    # F oscillates at 1e300 rad/s, which no step resolves, so the steps stay
    # near 1e-12; the evaluation that passes the budget raises, naming its t
    monkeypatch.setattr(cssdyn.motion, "_EVALUATION_BUDGET", 1200)
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=1.0, F=Harmonic(3.0, 1.408, -1e300))
    with pytest.raises(NumericalError, match="budget of 1200 coefficient evaluations") as err:
        evolve(sched, InitialConditions(), np.linspace(0.0, 0.5, 11))
    assert 0.0 < err.value.t < 0.5
    assert str(err.value).startswith(f"evolve stopped at t = {err.value.t!r}: ")


def test_evaluation_budget_spans_the_call(monkeypatch, evaluations):
    # one budget for every span of a knotted schedule and for the drift retry
    # of an overflowing run: one evaluation less than a whole call stops it
    knotted = (kinked_schedule(), KINKED_INIT, np.linspace(0.0, 3.0, 61))
    evolve(*knotted)
    knotted_count = len(evaluations)
    overflowing = (constant_schedule(alpha=461j), InitialConditions(), np.linspace(0.0, 1.0, 11))
    with pytest.raises(NumericalError, match="unitarity drift"):
        evolve(*overflowing)
    retried_count = len(evaluations) - knotted_count
    for args, count in ((knotted, knotted_count), (overflowing, retried_count)):
        monkeypatch.setattr(cssdyn.motion, "_EVALUATION_BUDGET", count - 1)
        with pytest.raises(NumericalError, match=f"budget of {count - 1} coefficient"):
            evolve(*args)


def test_closed_form_with_huge_alpha_gives_a_refused_frame():
    # |alpha| ** 2 of a finite alpha past 1.3e154 raises OverflowError; squared
    # from its parts it overflows to inf and the frame fails the drift check
    alg = AlgebraicCoefficients(alpha=1e160, beta=1e160)
    frame = closed_form(alg, InitialConditions(), 1e-170)
    assert not frame.unitarity_defect <= 1e-8


def test_closed_form_overflow_raises_with_time():
    # Theta^2 = -4: cosh(2 t) passes the largest float near t = 355
    with pytest.raises(NumericalError, match="overflows") as err:
        closed_form(AlgebraicCoefficients(alpha=2.0), InitialConditions(), 1000.0)
    assert err.value.t == 1000.0


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
        UNITS, alpha=ComplexParts(flat(alg.alpha.real), flat(alg.alpha.imag)), beta=flat(alg.beta),
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
                0.5 * (beta - 2.0 * delta) - (gamma.conjugate() * u).real, 0.0)

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
    return (ys[0:6:2] + 1j * ys[1:6:2]).T, np.array([ys[6], -hbar * ys[6]]).T


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


@pytest.fixture
def records(monkeypatch):
    """The step record of every span the stepper integrates, in order."""
    calls = []
    integrate = cssdyn._dop853.integrate

    def recording(*args):
        record, end = integrate(*args)
        calls.append(record)
        return record, end

    monkeypatch.setattr(cssdyn._dop853, "integrate", recording)
    return calls


@pytest.mark.parametrize("family", [*family_schedules(), "single_point"])
def test_frames_are_the_scalar_dense_output_bit_for_bit(family, records):
    # every frame is a step's scalar interpolant, or its end state, read off
    # the step records; compared by repr, so the last bit and signed zeros count
    schedule = family_schedules()["kinked_table" if family == "single_point" else family]
    init = replace(from_initial_width(0.45 * schedule.units.l, 1.0, schedule.units),
                   varphi0=0.5 - 0.3j)
    grid = np.array([0.0]) if family == "single_point" else np.linspace(0.0, 3.0, 181)
    frames = evolve(schedule, init, grid)
    rows = [row for record in records for row in record]
    states = [(init.f0, init.g0, init.varphi0, 0j), *scalar_grid_states(rows, grid[1:].tolist())]
    hbar = schedule.units.hbar
    want = [(t, f, g, varphi, p.real, -hbar * p.real)
            for t, (f, g, varphi, p) in zip(grid.tolist(), states)]
    assert repr([astuple(fr) for fr in frames]) == repr(want)


def test_grid_states_keep_signed_zeros_and_non_finite_parts():
    # step records with parts that test complex arithmetic's corners: +-0,
    # subnormals, +-1e308, +-inf and nan, in the states and in the stage
    # derivatives; the phase's derivatives are floats, as the stepper's rhs
    # returns them.  A step draws its corners at one of three rates, so that
    # some interpolants stay finite, or draws mostly or only signed zeros and
    # subnormals, so that the signs of zero products can reach the states.
    rng = np.random.default_rng(2024)
    corners = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
    draws = [(0.01, corners), (0.1, corners), (0.4, corners), (0.9, corners[:4]),
             (1.0, corners[:2])]

    def part():
        return pool[rng.integers(len(pool))] if rng.uniform() < rate else rng.normal()

    record, times, t = [], [], 0.0
    for _ in range(120):
        t_new = t + rng.uniform(0.1, 1.0)
        rate, pool = draws[rng.integers(len(draws))]
        ends = [complex(part(), part()) for _ in range(8)]
        stages = [part() if j % 4 == 3 else complex(part(), part()) for j in range(48)]
        record.append((t, t_new, *ends, *stages))
        inside = sorted(rng.uniform(t, t_new, rng.integers(0, 4)).tolist())
        times += [s for s in inside if t < s < t_new] + [t_new] * bool(rng.integers(2))
        t = t_new
    got = cssdyn._dop853.grid_states(record, np.array(times))
    assert repr([tuple(state) for state in got.tolist()]) == repr(
        scalar_grid_states(record, times))


def test_step_below_ten_ulps_raises_where_it_failed():
    # beta turns NaN past t = 1: every step across it has a NaN error norm,
    # which must reject it, so the steps shrink onto t = 1 until they fall
    # below 10 ulps there
    sched = CoefficientSchedule.algebraic(
        UNITS, beta=lambda t: 1.0 if t <= 1.0 else math.nan, alpha=0.3)
    with pytest.raises(NumericalError, match="step size") as err:
        evolve(sched, KINKED_INIT, [0.0, 0.5, 2.0], enforce_drift=False)
    assert 1.0 - 1e-12 < err.value.t <= 1.0


@pytest.mark.parametrize("k", [1e290, 1e300])
def test_overflowing_first_derivative_raises_at_the_start(k):
    # the scaled norm of the derivative at t = 0 overflows, which leaves no
    # first step to size: a numerical failure there, not a ZeroDivisionError
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=k)
    with pytest.raises(NumericalError, match="first step") as err:
        evolve(sched, InitialConditions(), np.linspace(0.0, 1.0, 11))
    assert err.value.t == 0.0


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


def test_stepper_reads_scipys_tableau_entry_for_entry():
    # each coefficient the stepper writes as a literal is scipy's entry bit
    # for bit (== on floats), so scipy stays the owner of record; every entry
    # it leaves unnamed is zero, except E3's, which equal the Bj that the
    # 3rd-order sums use in their place
    from scipy.integrate import DOP853
    names = vars(cssdyn._dop853)
    seen = set()

    def check(name, entry, unnamed):
        if name in names:
            assert type(names[name]) is float and names[name] == entry, name
            seen.add(name)
        else:
            assert entry == unnamed, name

    for j, c in enumerate(DOP853.C):
        check(f"C{j + 1}", c, 0.0)
    for j, c in enumerate(DOP853.C_EXTRA):
        check(f"C{j + 14}", c, None)
    # stage 1 has no row; skipping it keeps A1(11) apart from A11(1)
    for first, table in ((2, DOP853.A[1:]), (14, DOP853.A_EXTRA), (4, DOP853.D)):
        prefix = "D" if table is DOP853.D else "A"
        for i, row in enumerate(table):
            for j, a in enumerate(row):
                check(f"{prefix}{first + i}{j + 1}", a, 0.0)
    for j, b in enumerate(DOP853.B):
        check(f"B{j + 1}", b, 0.0)
    for j, e in enumerate(DOP853.E5):
        check(f"ER{j + 1}", e, 0.0)
    for j, e in enumerate(DOP853.E3):
        check(f"E3_{j + 1}", e, DOP853.B[j] if j < DOP853.B.size else 0.0)
    tableau = {name for name in names if re.fullmatch(r"(A|B|C|D|ER|E3_)\d+", name)}
    assert tableau == seen and len(seen) == 155
    # the dense output's table, at the stages a step record keeps
    assert cssdyn._dop853._D.tolist() == DOP853.D[:, [0, *range(5, 16)]].tolist()


def test_max_step_reaches_the_stepper(evaluations):
    settings = IntegratorSettings(max_step=0.05)
    evolve(constant_schedule(alpha=0.3, beta=1.0), KINKED_INIT, [0.0, 2.0], settings)
    assert len(evaluations) >= 12 * 40


_PAST = 10**400
_OSCILLATOR = CoefficientSchedule.physical(UNITS, m=1.0, k=1.0)
_GROUND = MotionFrame(t=0.0, f=1.0 + 0j, g=0j, varphi=0j)
_LONG = Fraction(10**5000, 3)

# entry points that raised OverflowError on an int past the floats: (call,
# the argument the DomainError names)
_PAST_THE_FLOATS = {
    "evolve": (lambda: evolve(_OSCILLATOR, InitialConditions(), [0, _PAST]), "grid"),
    "mathieu.frames": (lambda: frames(DrivenOscillatorConfig(), [0, _PAST]), "grid"),
    "closed_form": (lambda: closed_form(AlgebraicCoefficients(beta=1.0), InitialConditions(),
                                        _PAST), "t"),
    "transition_snapshot": (lambda: transition_snapshot(DrivenOscillatorConfig(), _PAST), "tau"),
    "InitialConditions": (lambda: InitialConditions(f0=_PAST), "f0"),
    "from_initial_width sigma_x0": (lambda: from_initial_width(_PAST, 0.0, UNITS), "sigma_x0"),
    "from_initial_width theta": (lambda: from_initial_width(1.0, _PAST, UNITS), "theta"),
    "IntegratorSettings": (lambda: IntegratorSettings(rtol=_PAST), "rtol"),
    "wavefunction": (lambda: wavefunction(_GROUND, [_PAST], UNITS), "x"),
    "fock_wavefunction": (lambda: fock_wavefunction(1, [0.0, _PAST], UNITS), "x"),
}


# arguments that are not numbers, or not the numbers the call means, which
# each entry point admitted, raised TypeError or ValueError, or refused
# under another name before every number entered through one intake
_REFUSED = {
    "AlgebraicCoefficients string": (lambda: AlgebraicCoefficients(beta="2"), "beta"),
    "AlgebraicCoefficients None": (lambda: AlgebraicCoefficients(beta=None), "beta"),
    "AlgebraicCoefficients past the floats": (lambda: AlgebraicCoefficients(beta=_PAST), "beta"),
    "PhysicalCoefficients past the floats": (lambda: PhysicalCoefficients(m=_PAST), "m"),
    "InitialConditions string": (lambda: InitialConditions(f0="1"), "f0"),
    "closed_form string": (lambda: closed_form(AlgebraicCoefficients(beta=1.0),
                                               InitialConditions(), "1.5"), "t"),
    "closed_form word": (lambda: closed_form(AlgebraicCoefficients(beta=1.0),
                                             InitialConditions(), "x"), "t"),
    "closed_form None": (lambda: closed_form(AlgebraicCoefficients(beta=1.0),
                                             InitialConditions(), None), "t"),
    "from_initial_width NaN theta": (lambda: from_initial_width(1.0, math.nan, UNITS), "theta"),
    "from_initial_width width past the floats": (
        lambda: from_initial_width(1e200, 0.0, UNITS), "sigma_x0"),
    "evolve string grid": (lambda: evolve(_OSCILLATOR, InitialConditions(), ["0", "1"]), "grid"),
    "evolve word grid": (lambda: evolve(_OSCILLATOR, InitialConditions(), ["x"]), "grid"),
    "mathieu.frames word grid": (lambda: frames(DrivenOscillatorConfig(), ["x"]), "grid"),
    "wavefunction string x": (lambda: wavefunction(_GROUND, ["0", "1"], UNITS), "x"),
    "fock_wavefunction word x": (lambda: fock_wavefunction(1, ["x"], UNITS), "x"),
    "transition_snapshot None": (lambda: transition_snapshot(DrivenOscillatorConfig(), None),
                                 "tau"),
    "transition_snapshot NaN": (lambda: transition_snapshot(DrivenOscillatorConfig(), math.nan),
                                "tau"),
    "transition_snapshot string": (lambda: transition_snapshot(DrivenOscillatorConfig(), "1"),
                                   "tau"),
    "fock_coefficients None": (lambda: fock_coefficients(_GROUND, None), "tail_tolerance"),
    "MotionFrame past the floats": (lambda: MotionFrame(0.0, _PAST, 0j, 0j), "f"),
    "MotionFrame string": (lambda: MotionFrame(0.0, "1", 0j, 0j), "f"),
    # ints too long for repr are shown by their type
    "fock_wavefunction quantum number past repr": (
        lambda: fock_wavefunction(-10**5000, 0.0, UNITS), "quantum number"),
    "fock_coefficients n_max past repr": (
        lambda: fock_coefficients(MotionFrame(0.0, 1.0, 0.0, 0.0), n_max=-10**5000), "n_max"),
    # a winding that is not an integer, shown by its type where repr raises
    "normalization winding past repr": (lambda: normalization(_GROUND, _LONG), "winding"),
    "overlap winding past repr": (lambda: overlap(_GROUND, _GROUND, _LONG, 0), "winding"),
    "wavefunction winding past repr": (
        lambda: wavefunction(_GROUND, [0.0], UNITS, winding=_LONG), "winding"),
    "fock_coefficients winding past repr": (
        lambda: fock_coefficients(_GROUND, winding=_LONG), "winding"),
    # a hand-built frame with f = 0 has no xi = varphi / f or zeta = g / f
    "parameters at f = 0": (lambda: parameters(MotionFrame(0.0, 0j, 0j, 0j)), "frame"),
    # bool, numpy scalars and Fraction are held to their bounds as before
    "UnitContext bool": (lambda: UnitContext(hbar=False), "hbar"),
    "IntegratorSettings float64": (lambda: IntegratorSettings(rtol=np.float64(-1e-6)), "rtol"),
    "fock_coefficients n_max int64": (lambda: fock_coefficients(_GROUND, n_max=np.int64(1)),
                                      "n_max"),
    "normalization winding float64": (lambda: normalization(_GROUND, np.float64(1.0)), "winding"),
    "normalization winding Fraction": (lambda: normalization(_GROUND, Fraction(2, 1)), "winding"),
}


@pytest.mark.parametrize("call, name", [*_PAST_THE_FLOATS.values(), *_REFUSED.values()],
                         ids=[*_PAST_THE_FLOATS, *_REFUSED])
def test_arguments_past_the_floats_are_domain_errors(call, name):
    with pytest.raises(DomainError, match=f"^{name} "):
        call()


# every real number type within the floats is admitted, and stored as a
# Python float or complex number
_ADMITTED = {
    "UnitContext Fraction": lambda: UnitContext(hbar=Fraction(1, 2)),
    "IntegratorSettings float32": lambda: IntegratorSettings(rtol=np.float32(1e-6)),
    "DrivenOscillatorConfig float32": lambda: DrivenOscillatorConfig(m0=np.float32(1.0)),
    "InitialConditions complex64": lambda: InitialConditions(f0=np.complex64(1)),
    "closed_form float64": lambda: closed_form(AlgebraicCoefficients(beta=1.0),
                                               InitialConditions(), np.float64(1.5)),
    "UnitContext bool": lambda: UnitContext(hbar=True),
    "IntegratorSettings float64": lambda: IntegratorSettings(atol=np.float64(1e-9)),
    "DrivenOscillatorConfig int64": lambda: DrivenOscillatorConfig(eta0=np.int64(-3)),
    "closed_form Fraction": lambda: closed_form(AlgebraicCoefficients(beta=1.0),
                                                InitialConditions(), Fraction(3, 2)),
}


@pytest.mark.parametrize("call", _ADMITTED.values(), ids=_ADMITTED.keys())
def test_real_number_types_are_admitted(call):
    stored = [v for v in vars(call()).values() if isinstance(v, numbers.Number)]
    assert stored and all(type(v) in (float, complex) for v in stored)


def _read_by_abc(name, value, bound="real"):
    """errors._read with every value, of whatever type, held to the ABC of
    its bound's kind."""
    kind, number = ((int, numbers.Integral) if "integer" in bound else
                    (complex, numbers.Complex) if bound == "complex" else (float, numbers.Real))
    try:
        x = kind(value) if isinstance(value, number) else None
    except OverflowError:
        x = None
    test = _BOUNDS[bound]
    if x is not None and (test is None or test(x)):
        return x
    wanted = f"a {bound} number within the floats" if bound in ("real", "complex") else bound
    raise DomainError(f"{name} must be {wanted}, got {_shown(value)}")


def test_the_intake_reads_every_type_as_the_abc_does():
    # the exact types int, float and complex skip the ABC check; every
    # value reads, or is refused, as the ABC check alone reads it
    values = [True, False, 0, 1, -1, 2, 3, 10**400, -10**400, 0.0, -0.0, 0.5, 1.5, -2.0,
              math.inf, -math.inf, math.nan, 2j, 1 + 0j, complex(math.nan, 0.0),
              complex(0.5, math.inf), np.bool_(True), np.int64(3), np.int64(-1),
              np.float64(0.5), np.float64(2.0), np.float32(0.25), np.complex128(1 - 1j),
              Fraction(1, 3), Fraction(4, 2), Fraction(10**400), _LONG, "1", None, [1.0]]
    for bound in _BOUNDS:
        for value in values:
            try:
                want = _read_by_abc("x", value, bound)
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    _read("x", value, bound)
                assert str(got.value) == str(exc)
            else:
                got = _read("x", value, bound)
                assert type(got) is type(want) and repr(got) == repr(want), (bound, value)


def test_hand_built_frames_hold_floats():
    # MotionFrame reads its fields at construction (its refusals are in
    # _REFUSED): any number type is stored as a Python float or complex
    frame = MotionFrame(np.float64(0.5), np.complex128(1.0), 0, Fraction(1, 4), 1, True)
    assert astuple(frame) == (0.5, 1.0, 0.0, 0.25, 1.0, 1.0)
    assert [type(v) for v in astuple(frame)] == [float, complex, complex, complex, float, float]
    # closed_form's frames keep their bits through the constructor
    alg = AlgebraicCoefficients(alpha=0.3 - 0.2j, beta=1.1, gamma=0.4 + 0.1j, delta=0.2)
    ref = closed_form(alg, InitialConditions(varphi0=0.5j), 2.5)
    assert [type(v) for v in astuple(ref)] == [float, complex, complex, complex, float, float]
    assert repr(replace(ref)) == repr(ref)



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


def quadrature_phase(alg, init, t):
    """phase_phi with the drive's part by adaptive quadrature of
    Re(conj(gamma) u) over the closed-form frames: the oracle of the exact
    integral."""
    gc = alg.gamma.conjugate()
    drive, _ = quad(lambda tau: (gc * u_of(closed_form(alg, init, tau))).real, 0.0, t,
                    epsabs=1e-13, epsrel=1e-12, limit=200)
    return 0.5 * (alg.beta - 2.0 * alg.delta) * t - drive


def test_closed_form_phase_matches_quadrature_on_random_draws():
    for alg in constant_draws():
        for t in (0.5, 1.0, 5.0):
            ref = quadrature_phase(alg, InitialConditions(), t)
            got = closed_form(alg, InitialConditions(), t).phase_phi
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


SQUEEZED_DISPLACED = InitialConditions(f0=1.2, g0=math.sqrt(0.44) * 1j, varphi0=0.4 - 0.3j)


@pytest.mark.parametrize("alg, t", [
    (AlgebraicCoefficients(alpha=0.6 - 0.3j, beta=30.0, gamma=0.7 - 0.2j, delta=0.4), 40.0),
    (AlgebraicCoefficients(alpha=1.5 + 0.5j, beta=0.4, gamma=0.3 + 0.8j, delta=-0.2), 5.0),
    (AlgebraicCoefficients(alpha=1.0, beta=1.0, gamma=0.3 + 0.8j, delta=-0.2), 5.0),
    (AlgebraicCoefficients(alpha=1.0, beta=1.0 + 1e-9, gamma=-0.5 + 0.1j, delta=0.7), 5.0),
], ids=["theta_t_1200", "theta2_negative", "resonant", "near_resonant"])
@pytest.mark.parametrize("init", [InitialConditions(), SQUEEZED_DISPLACED],
                         ids=["vacuum", "squeezed_displaced"])
def test_closed_form_phase_matches_quadrature(alg, t, init):
    # Theta t = 1200 rad; e^(|Theta| t) = 1.2e5; Theta = 0; Theta^2 = 2e-9
    # puts Theta^2 t^2 below 1, where (s - t)/Theta^2 is summed as a series
    ref = quadrature_phase(alg, init, t)
    frame = closed_form(alg, init, t)
    assert frame.phase_phi == pytest.approx(ref, rel=1e-12, abs=1e-12)
    assert frame.phase_vartheta == -frame.phase_phi


@pytest.mark.parametrize("theta2", [1.0, -1.0])
@pytest.mark.parametrize("t", [1.0 - 1e-9, 1.0 + 1e-9], ids=["series", "difference"])
def test_d_integral_on_both_sides_of_its_switch(theta2, t):
    # (s - t)/Theta^2 is summed as a series below |Theta^2 t^2| = 1 and taken
    # as the difference above; both meet 25 terms of the series, summed exactly
    z = theta2 * t * t
    w = math.sqrt(abs(theta2))
    s = math.sin(w * t) / w if theta2 > 0 else math.sinh(w * t) / w
    terms = [-t ** 3 * (-z) ** k / math.factorial(2 * k + 3) for k in range(25)]
    got = cssdyn.motion._d_integral(theta2, t, s)
    assert got == pytest.approx(math.fsum(terms), rel=8e-16)


def test_closed_form_imports_no_scipy():
    # the oracle lives in the tests: a fresh interpreter that imports the
    # package and takes a driven closed form loads no scipy module
    script = ("import sys, cssdyn\n"
              "alg = cssdyn.AlgebraicCoefficients(alpha=0.3, beta=1.0, gamma=0.5 - 0.2j)\n"
              "assert cssdyn.closed_form(alg, cssdyn.InitialConditions(), 2.0).phase_phi != 0.0\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n"


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
    for sigma in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(DomainError, match="sigma_x0"):
            from_initial_width(sigma, 0.0, UNITS)


@pytest.mark.parametrize("sigma", [1e-162, 1e-200, 5e-324])
def test_width_whose_square_underflows_is_refused(sigma):
    # 2 sigma_x0^2 underflows to 0: a DomainError, not a ZeroDivisionError
    with pytest.raises(DomainError, match="sigma_x0 = .* underflows"):
        from_initial_width(sigma, 0.0, UNITS)


@pytest.mark.parametrize("sigma", [100.0, 1e-3])
def test_hyperboloid_tolerance_is_relative(sigma):
    # |f0|^2 is about 5e3 and 1.25e5 here, so rounding leaves an absolute
    # defect of 1.8e-12 and 1.5e-11: within 1e-12 of |f0|^2 + |g0|^2
    init = from_initial_width(sigma, 0.0, UNITS)
    frame = evolve(constant_schedule(), init, [0.0])[0]
    assert deviations(frame, UNITS)[0] == pytest.approx(sigma, rel=1e-12)
    # a defect of 1e-10 at |f0|^2 + |g0|^2 = 1 is still refused
    with pytest.raises(DomainError, match="relative to"):
        InitialConditions(f0=1.0, g0=1e-5)


@pytest.mark.parametrize("sigma", [0.5, 1.0], ids=["below_l_over_sqrt2", "above_l_over_sqrt2"])
def test_width_on_both_sides_of_l_over_sqrt2(sigma):
    # past l/sqrt(2), a = l^2/(2 sigma^2) < 1 only turns the sign of g0: the
    # start is still on the hyperboloid and minimum-uncertainty
    init = from_initial_width(sigma, 0.3, UNITS)
    assert abs(init.f0) ** 2 - abs(init.g0) ** 2 == pytest.approx(1.0, abs=1e-15)
    sx, sp, sxp = deviations(MotionFrame(0.0, init.f0, init.g0, init.varphi0), UNITS)
    assert sx == pytest.approx(sigma, rel=1e-15)
    assert sp == pytest.approx(0.5 / sigma, rel=1e-15)
    assert abs(sxp) < 1e-16


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


def test_action_phase_is_minus_hbar_times_the_phase():
    # one phase is integrated; phase_vartheta is -hbar phase_phi on every route,
    # a drive (gamma != 0) included
    hbar = DRIVEN_UNITS.hbar
    evolved = driven_frames([0.5, 1.7])
    init = InitialConditions(f0=1.2, g0=math.sqrt(0.44) * 1j, varphi0=0.4 - 0.3j)
    exact = [closed_form(DRIVEN_SCHEDULE.algebraic_at(t), init, t, DRIVEN_UNITS)
             for t in (0.5, 1.7)]
    for frame in evolved + exact:
        assert frame.phase_phi != 0.0
        assert frame.phase_vartheta == -hbar * frame.phase_phi
