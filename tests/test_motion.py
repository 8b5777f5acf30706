"""Evolution of the invariant-operator coefficients (f, g, varphi)."""

import math

import numpy as np
import pytest

import cssdyn.motion
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
    """(t_span, t_eval) of every solve_ivp call evolve makes."""
    calls = []
    solve = cssdyn.motion.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        calls.append((t_span, list(kwargs["t_eval"])))
        return solve(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(cssdyn.motion, "solve_ivp", recording)
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
    # each span evaluates its grid times and its right edge, the last span t_end
    assert [t_eval for _, t_eval in spans] == [[0.0, 0.25, 0.5], [0.5, 0.75, 0.8],
                                               list(grid[4:])]
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
    assert [t_eval for _, t_eval in spans] == [list(grid)] * 2
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
    single_span = evolve(kinked_schedule(hidden), KINKED_INIT, grid)
    bound = 5e-10
    assert relative_distance(segmented, reference) < bound
    assert relative_distance(single_span, reference) > bound  # what the edges buy


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
