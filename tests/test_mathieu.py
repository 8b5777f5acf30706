"""Cosine-modulated oscillator: standard-form reduction and both pipelines."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cssdyn import (AlgebraicCoefficients, DomainError, DrivenOscillatorConfig,
                    InitialConditions, IntegratorSettings,
                    MathieuParameters, NumericalError, closed_form, evolve,
                    frames, fundamental_solutions, mathieu_parameters,
                    transition_snapshot)
from cssdyn import mathieu

from helpers import mean_path

PRESET = DrivenOscillatorConfig()
SETTINGS = IntegratorSettings()


def test_standard_form_parameters():
    p = mathieu_parameters(PRESET)
    assert p.a == pytest.approx(0.04, abs=1e-16)
    assert p.q == pytest.approx(1.0, abs=1e-16)
    assert mathieu_parameters(DrivenOscillatorConfig(eta0=0.0)).q == 0.0
    assert mathieu_parameters(DrivenOscillatorConfig(epsilon0=0.0)).a == 0.0


def test_config_validation_and_derived_length():
    with pytest.raises(DomainError):
        DrivenOscillatorConfig(m0=0.0)
    with pytest.raises(DomainError):
        DrivenOscillatorConfig(omega0=-1.0)
    assert PRESET.length == pytest.approx(math.sqrt(0.1), abs=1e-16)


@pytest.mark.parametrize("m0, omega0", [(1.0, 1e200), (1e300, 1e10), (1.0, 1e-200)])
def test_preset_refuses_a_scale_off_the_positive_floats(m0, omega0):
    # a and q divide by m0 omega0^2: omega0 ** 2 overflowing, m0 times it
    # overflowing, or the product underflowing to 0 is a domain error
    with pytest.raises(DomainError, match="omega0"):
        DrivenOscillatorConfig(m0=m0, omega0=omega0)
    assert PRESET.units.l == PRESET.length


@pytest.mark.parametrize("fields, named", [
    ({"eta0": math.inf}, "eta0 must be finite"),
    ({"epsilon0": 1e308, "eta0": -1e308}, "epsilon0 = 1e+308 and eta0 = -1e+308"),
], ids=["eta0", "both"])
def test_preset_refuses_an_unbounded_stiffness(fields, named):
    # |k| <= |epsilon0| + |eta0| must be a finite float: checked here, exactly,
    # in place of a sampled scan of the schedule
    with pytest.raises(DomainError, match=re.escape(named)):
        DrivenOscillatorConfig(**fields)


def test_unmodulated_basis_is_trigonometric():
    p = mathieu_parameters(DrivenOscillatorConfig(eta0=0.0))
    taus = np.linspace(0.0, 12.0, 49)
    basis = fundamental_solutions(p, taus)
    w = math.sqrt(p.a)  # 0.2
    assert np.max(np.abs(basis.yc - np.cos(w * taus))) < 1e-9
    assert np.max(np.abs(basis.ys - np.sin(w * taus) / w)) < 1e-9


def test_free_basis_is_affine():
    p = mathieu_parameters(DrivenOscillatorConfig(epsilon0=0.0, eta0=0.0))
    taus = np.linspace(0.0, 5.0, 11)
    basis = fundamental_solutions(p, taus)
    assert np.max(np.abs(basis.yc - 1.0)) < 1e-10
    assert np.max(np.abs(basis.ys - taus)) < 1e-10


def test_wronskian_stays_pinned():
    taus = np.linspace(0.0, 20.0, 201)
    basis = fundamental_solutions(mathieu_parameters(PRESET), taus)
    assert np.max(np.abs(basis.wronskian() - 1.0)) < 1e-9


def test_frames_start_from_initial_data():
    fr = frames(PRESET, np.array([0.0]))[0]
    assert fr.t == 0.0
    assert fr.f == PRESET.init.f0
    assert fr.g == PRESET.init.g0
    assert fr.varphi == PRESET.init.varphi0


def test_frames_are_the_per_sample_arithmetic():
    # frames maps the basis to (t, f, g) on whole arrays; the loop over
    # samples it replaced is the reference, bit for bit
    cfg = DrivenOscillatorConfig(init=InitialConditions(
        math.cosh(0.4), math.sinh(0.4) * complex(math.cos(0.7), math.sin(0.7)), 0.5 - 1j))
    grid = np.linspace(0.0, 4.0, 257)
    basis = fundamental_solutions(mathieu_parameters(cfg), cfg.omega0 * grid / 2.0)
    y0, dy0 = cfg.init.f0 - cfg.init.g0, 2j * (cfg.init.f0 + cfg.init.g0)
    yy = y0 * basis.yc + dy0 * basis.ys
    xx = -0.5j * (y0 * basis.dyc + dy0 * basis.dys)
    got = frames(cfg, grid)
    for i, t in enumerate(grid):
        assert got[i].t == t
        assert got[i].f == complex(0.5 * (xx[i] + yy[i]))
        assert got[i].g == complex(0.5 * (xx[i] - yy[i]))


def test_unmodulated_frames_match_constant_coefficients():
    cfg = DrivenOscillatorConfig(eta0=0.0)
    got = frames(cfg, np.linspace(0.0, 1.6, 33))
    alg = cfg.schedule().algebraic_at(0.0)
    const = AlgebraicCoefficients(alpha=alg.alpha, beta=alg.beta,
                                  gamma=alg.gamma, delta=alg.delta)
    for fr in got:
        ref = closed_form(const, cfg.init, fr.t)
        assert abs(fr.f - ref.f) < 1e-8
        assert abs(fr.g - ref.g) < 1e-8
        assert fr.unitarity_defect < 1e-8


def test_both_pipelines_agree():
    grid = np.linspace(0.0, 1.2, 61)
    osc = frames(PRESET, grid)
    generic = evolve(PRESET.schedule(), PRESET.init, grid, SETTINGS)
    worst = max(max(abs(a.f - b.f), abs(a.g - b.g), abs(a.varphi - b.varphi))
                for a, b in zip(osc, generic))
    assert worst < 1e-7


def test_trajectory_anchors():
    grid = np.linspace(0.0, 0.4, 21)
    pts = mean_path(PRESET, grid)
    t0, x0, p0 = pts[0]
    assert t0 == 0.0
    assert x0 == 0.0
    assert p0 == pytest.approx(math.sqrt(20.0), abs=1e-12)

    quiet = DrivenOscillatorConfig(init=InitialConditions(varphi0=0.0))
    for _, x, p in mean_path(quiet, grid):
        assert x == 0.0 and p == 0.0


def test_unmodulated_orbit_closes():
    cfg = DrivenOscillatorConfig(eta0=0.0)
    # classical angular frequency sqrt(epsilon0/m0) = 1, period 2 pi
    pts = mean_path(cfg, np.linspace(0.0, 2.0 * math.pi, 401))
    _, x0, p0 = pts[0]
    t1, x1, p1 = pts[-1]
    assert t1 == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert math.hypot(x1 - x0, p1 - p0) < 1e-6


def test_snapshot_distribution():
    p0 = transition_snapshot(PRESET, 0.0)
    assert p0[0] == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert np.argmax(p0) == 0
    for tau in (0.0, 2.0):
        p = transition_snapshot(PRESET, tau, tail_tolerance=1e-10, n_max=65536)
        assert abs(np.sum(p) - 1.0) < 2e-10
    with pytest.raises(DomainError):
        transition_snapshot(PRESET, -1.0)


def test_drift_and_wronskian_defects_track_each_other():
    basis = fundamental_solutions(mathieu_parameters(PRESET), np.linspace(0.0, 20.0, 201))
    w_defect = float(np.max(np.abs(basis.wronskian() - 1.0)))
    f_defect = max(fr.unitarity_defect
                   for fr in frames(PRESET, np.linspace(0.0, 4.0, 201)))
    assert w_defect < 1e-8
    assert f_defect < 1e-8
    # same invariant seen through two runs; keep them the same order
    ratio = max(w_defect, f_defect) / max(min(w_defect, f_defect), 1e-16)
    assert ratio < 100.0


# ---------------------------------------------------------------------------
# the half-period Floquet route against one long integration


def long_integration(params, taus, rtol=1e-13, atol=1e-15):
    """(yc, dyc, ys, dys) rows from one DOP853 run across the whole grid."""
    a, q = params.a, params.q

    def rhs(tau, y):
        coeff = a - 2.0 * q * math.cos(2.0 * tau)
        return (y[1], -coeff * y[0], y[3], -coeff * y[2])

    if taus.size == 1:
        return np.array([[1.0], [0.0], [0.0], [1.0]])
    sol = solve_ivp(rhs, (0.0, float(taus[-1])), (1.0, 0.0, 0.0, 1.0),
                    method="DOP853", t_eval=taus, rtol=rtol, atol=atol)
    assert sol.success
    return sol.y


def anchor_grid(periods):
    """k pi and k pi +- pi/2 for k = 0..periods, the fold's edge cases."""
    k = np.arange(periods + 1) * math.pi
    return np.unique(np.concatenate([k, k + 0.5 * math.pi, k[1:] - 0.5 * math.pi]))


def residue_grid(periods, seed):
    """Sorted taus whose fold residues come in random order."""
    rng = np.random.default_rng(seed)
    ks = rng.integers(0, periods, size=60)
    rs = rng.uniform(0.0, math.pi, size=60)
    return np.unique(np.append(0.0, ks * math.pi + rs))


def span_grid(periods):
    return np.linspace(0.0, periods * math.pi, 20 * periods + 1)


PRESET_PARAMS = mathieu_parameters(PRESET)
STABLE = MathieuParameters(a=0.5, q=0.2)      # |trace M| = 1.35 < 2
NEGATIVE_A = MathieuParameters(a=-0.3, q=0.1)
FAST = MathieuParameters(a=400.0, q=10.0)     # about ten oscillations per half period
SLOW_MODULATION = MathieuParameters(a=4e6, q=2e4)  # omega0 = 0.01, two panels to tau = 0.05


@pytest.mark.parametrize("params, taus", [
    (PRESET_PARAMS, anchor_grid(6)),
    (PRESET_PARAMS, np.array([0.0])),
    (PRESET_PARAMS, span_grid(8)),
    (PRESET_PARAMS, residue_grid(6, 3)),
    (STABLE, anchor_grid(40)),
    (STABLE, span_grid(12)),
    (STABLE, span_grid(40)),
    (STABLE, residue_grid(40, 5)),
    (MathieuParameters(a=0.04, q=0.0), span_grid(12)),
    (MathieuParameters(a=0.0, q=0.0), anchor_grid(12)),
    (NEGATIVE_A, anchor_grid(3)),
    (NEGATIVE_A, residue_grid(3, 7)),
    (FAST, span_grid(4)),
    (FAST, residue_grid(4, 11)),
    (PRESET_PARAMS, np.linspace(0.0, 1.2, 25)),
    (STABLE, np.array([0.0, 0.3])),
    (SLOW_MODULATION, np.linspace(0.0, 0.05, 11)),
], ids=["preset-anchors", "preset-origin", "preset-8-periods", "preset-residues",
        "stable-anchors", "stable-12-periods", "stable-40-periods",
        "stable-residues", "unmodulated-12-periods", "free-anchors",
        "negative-a-anchors", "negative-a-residues", "fast-4-periods",
        "fast-residues", "preset-short-grid", "stable-one-step",
        "slow-modulation-short-grid"])
def test_floquet_route_matches_long_integration(params, taus):
    basis = fundamental_solutions(params, taus)
    want = long_integration(params, taus)
    got = np.array([basis.yc, basis.dyc, basis.ys, basis.dys])
    assert np.array_equal(basis.tau, taus)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-9
    assert np.max(np.abs(basis.wronskian() - 1.0)) < 1e-9


def test_unmodulated_route_is_trigonometric_over_many_periods():
    taus = span_grid(12)
    basis = fundamental_solutions(MathieuParameters(a=0.04, q=0.0), taus)
    w = 0.2
    assert np.max(np.abs(basis.yc - np.cos(w * taus))) < 1e-9
    assert np.max(np.abs(basis.dyc + w * np.sin(w * taus))) < 1e-9
    assert np.max(np.abs(basis.ys - np.sin(w * taus) / w)) < 1e-9
    assert np.max(np.abs(basis.dys - np.cos(w * taus))) < 1e-9


# a = -0.25 keeps cosh^2 below ~1e4 over three periods: the Wronskian check
# cancels two products of that size and refuses past about 1e-9 / eps
@pytest.mark.parametrize("a", [0.04, 2.25, -0.25])
def test_unmodulated_route_matches_closed_form(a):
    taus = span_grid(3)
    basis = fundamental_solutions(MathieuParameters(a=a, q=0.0), taus)
    w = math.sqrt(abs(a))
    if a > 0:
        cos, sin, slope = np.cos(w * taus), np.sin(w * taus), -w * np.sin(w * taus)
    else:
        cos, sin, slope = np.cosh(w * taus), np.sinh(w * taus), w * np.sinh(w * taus)
    want = np.array([cos, slope, sin / w, cos])
    got = np.array([basis.yc, basis.dyc, basis.ys, basis.dys])
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-13


def test_half_period_error_stays_below_tolerance():
    # a = 225, q = 0: at 33 nodes the Chebyshev tail is about 5e-10 and the
    # error about 3e-12, so the floor solve must take more nodes
    taus = np.linspace(0.0, 0.5 * math.pi, 201)
    basis = fundamental_solutions(MathieuParameters(a=225.0, q=0.0), taus)
    w = 15.0
    cos, sin = np.cos(w * taus), np.sin(w * taus)
    # each column against the closed form, in units of its own scale
    err = max(np.max(np.abs(basis.yc - cos)), np.max(np.abs(w * basis.ys - sin)),
              np.max(np.abs(basis.dyc / w + sin)), np.max(np.abs(basis.dys - cos)))
    assert err < 1e-12


def spy_half_period(monkeypatch):
    """Record the panels of every Chebyshev half period solved."""
    seen = []
    solve = mathieu._half_period

    def spy(a, q, end):
        panels = solve(a, q, end)
        seen.append(panels)
        return panels

    monkeypatch.setattr(mathieu, "_half_period", spy)
    return seen


def test_node_count_follows_the_oscillation(monkeypatch):
    seen = spy_half_period(monkeypatch)
    fundamental_solutions(PRESET_PARAMS, anchor_grid(2))
    fundamental_solutions(FAST, anchor_grid(2))
    [(slow, _, _)], [(fast, _, _)] = seen
    assert fast.size > slow.size


def test_loose_tolerances_solve_once_at_the_floor(monkeypatch):
    # a tail of 1e-5 would take 33 nodes for a = 400 and breach the
    # Wronskian check; the half period is solved once, at the rounding floor
    seen = spy_half_period(monkeypatch)
    params, taus = MathieuParameters(a=400.0, q=0.0), span_grid(3)
    basis = fundamental_solutions(params, taus)
    [(nodes, _, _)], = seen
    assert nodes.size >= 49
    assert np.max(np.abs(basis.wronskian() - 1.0)) < 1e-9
    want = long_integration(params, taus)
    got = np.array([basis.yc, basis.dyc, basis.ys, basis.dys])
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-9


def test_panels_carry_a_fast_oscillation(monkeypatch):
    # a = 4e6 turns sqrt(a) pi/2, about 3100 radians, per half period: far
    # beyond one panel of 513 nodes
    seen = spy_half_period(monkeypatch)
    a, w = 4e6, 2000.0
    taus = span_grid(2)
    basis = fundamental_solutions(MathieuParameters(a=a, q=0.0), taus)
    panels, = seen
    assert len(panels) > 1
    cos, sin = np.cos(w * taus), np.sin(w * taus)
    err = max(np.max(np.abs(basis.yc - cos)), np.max(np.abs(w * basis.ys - sin)),
              np.max(np.abs(basis.dyc / w + sin)), np.max(np.abs(basis.dys - cos)))
    assert err < 1e-9


def test_interpolation_in_chunks_matches_one_pass(monkeypatch):
    taus = residue_grid(5, 13)
    whole = fundamental_solutions(STABLE, taus)
    monkeypatch.setattr(mathieu, "_CHUNK", 7)
    chunked = fundamental_solutions(STABLE, taus)
    # the same sums, blocked differently by BLAS: equal to an ulp or two
    for name in ("yc", "dyc", "ys", "dys"):
        want = getattr(whole, name)
        assert np.max(np.abs(getattr(chunked, name) - want)) < 1e-15 * np.max(np.abs(want))


def test_overflow_across_panels_raises():
    # a = -1e6 grows like exp(1000 tau): the carried panels overflow before pi/2
    with pytest.raises(NumericalError, match="Wronskian drift nan"):
        fundamental_solutions(MathieuParameters(a=-1e6, q=0.0), anchor_grid(1))


def test_too_many_panels_raise():
    # 1e12 would need about 2.5e4 panels
    with pytest.raises(NumericalError, match="more than 4096"):
        fundamental_solutions(MathieuParameters(a=1e12, q=0.0), anchor_grid(1))


def test_slow_modulation_on_a_short_grid(monkeypatch):
    # omega0 = 0.01 gives a = 4e6, q = 2e4; t <= 10 is tau <= 0.05, and the
    # half period is solved on [0, 0.05] only
    seen = spy_half_period(monkeypatch)
    cfg = DrivenOscillatorConfig(epsilon0=100.0, eta0=1.0, omega0=0.01)
    times = np.linspace(0.0, 10.0, 21)
    osc = frames(cfg, times)
    panels, = seen
    assert panels[-1][0][-1] == cfg.omega0 * times[-1] / 2.0
    generic = evolve(cfg.schedule(), cfg.init, times, SETTINGS)
    scale = max(abs(b.f) for b in generic)
    worst = max(max(abs(a.f - b.f), abs(a.g - b.g)) for a, b in zip(osc, generic))
    assert worst < 1e-7 * scale


def test_free_monodromy_is_a_shear():
    free = MathieuParameters(a=0.0, q=0.0)
    basis = fundamental_solutions(free, np.array([0.0, math.pi]))
    monodromy = [[basis.yc[1], basis.ys[1]], [basis.dyc[1], basis.dys[1]]]
    assert np.max(np.abs(np.array(monodromy) - [[1.0, math.pi], [0.0, 1.0]])) < 1e-12
    taus = anchor_grid(12)
    basis = fundamental_solutions(free, taus)
    assert np.max(np.abs(basis.ys - taus) / np.maximum(1.0, taus)) < 1e-12
    assert np.max(np.abs(basis.yc - 1.0)) < 1e-12


def test_non_finite_tau_grid_is_refused():
    for grid in ([0.0, math.inf], [0.0, 1.0, math.nan]):
        with pytest.raises(DomainError, match="finite"):
            fundamental_solutions(PRESET_PARAMS, np.array(grid))
    with pytest.raises(DomainError, match="finite"):
        transition_snapshot(PRESET, math.inf)


def test_period_count_past_int64_is_refused_before_any_solve(monkeypatch):
    # k = tau // pi is an int64: from 2^63 periods on it cannot be counted
    seen = spy_half_period(monkeypatch)
    with pytest.raises(NumericalError, match=re.escape("2^63")) as err:
        fundamental_solutions(PRESET_PARAMS, np.array([0.0, 1.0, 1e20]))
    assert err.value.t == 1e20
    assert seen == []
    with pytest.raises(NumericalError, match=re.escape("2^63")):
        transition_snapshot(PRESET, 1e20)
    # 2^62 periods are still counted: the free monodromy is a shear, and
    # its powers double exactly
    far = 2.0 ** 62 * math.pi
    basis = fundamental_solutions(MathieuParameters(a=0.0, q=0.0), np.array([0.0, far]))
    assert basis.ys[-1] == pytest.approx(far, rel=1e-12)


@pytest.mark.parametrize("grid, t, message", [
    ([0.0, 1.0, 1e20], 1e20, "2^63"),
    (np.linspace(0.0, 20.0, 11), 6.0, "Wronskian drift"),
], ids=["period_count", "wronskian"])
def test_frames_report_failures_in_physical_time(grid, t, message):
    # the basis fails at tau = omega0 t / 2; frames names the grid's own t
    with pytest.raises(NumericalError, match=re.escape(message)) as err:
        frames(PRESET, grid)
    assert err.value.t == t
    assert str(err.value).startswith(f"at t = {t:g}: ")


def test_overflowing_monodromy_power_raises(monkeypatch):
    # a refused grid is solved once: the check runs once, with no retry
    seen = spy_half_period(monkeypatch)
    with pytest.raises(NumericalError) as err:
        fundamental_solutions(PRESET_PARAMS, np.array([0.0, 3000.0]))
    assert err.value.t == 3000.0
    assert str(err.value) == "Wronskian drift nan exceeds 1e-09"
    assert len(seen) == 1


def _powers_per_sample(m, ks):
    """m^k for each k, stepped from the previous sample's k by the binary
    digits of the gap, one sample at a time."""
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


def test_powers_are_the_per_sample_products_bit_for_bit():
    # one power per distinct k, gathered, is the per-sample loop's products
    rng = np.random.default_rng(2802)
    for _ in range(200):
        m = rng.normal(size=(2, 2)) * rng.uniform(0.5, 1.2)
        steps = rng.choice([0, 0, 1, 1, 2, 5, 37, 1000], size=rng.integers(1, 60))
        ks = np.cumsum(steps).astype(np.int64) + int(rng.integers(0, 3))
        with np.errstate(over="ignore", invalid="ignore"):  # as fundamental_solutions calls it
            got, want = mathieu._powers(m, ks), _powers_per_sample(m, ks)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
