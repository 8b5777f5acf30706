"""Semiclassical quantities: means, spreads, energy, position density."""

import math

import numpy as np
import pytest

from cssdyn import (AlgebraicCoefficients, CoefficientSchedule, DomainError,
                    Harmonic, InitialConditions, IntegratorSettings,
                    MotionFrame, UnitContext, deviations, evolve,
                    fock_coefficients, fock_wavefunction, from_initial_width,
                    hamilton_residual, mean_energy, means, observe,
                    uncertainty, varphi_from_means, wavefunction)

from helpers import hidden, hyperboloid_frame, kinked_schedule

UNITS = UnitContext()
VACUUM = MotionFrame(t=0.0, f=1.0, g=0.0, varphi=0.0)


# ---------------------------------------------------------------------------
# first moments


def test_no_displacement_no_means():
    frame = MotionFrame(t=0.0, f=math.cosh(2.0), g=math.sinh(2.0) * 1j,
                        varphi=0.0)
    assert means(frame, UNITS) == (0.0, 0.0)


def test_driven_start_means():
    units = UnitContext(hbar=1.0, l=math.sqrt(0.1))
    frame = MotionFrame(t=0.0, f=1.0, g=0.0, varphi=-1j)
    xbar, pbar = means(frame, units)
    assert xbar == 0.0
    assert pbar == pytest.approx(math.sqrt(20.0), abs=1e-12)


def test_mean_inversion_round_trip():
    rng = np.random.default_rng(71)
    for _ in range(30):
        units = UnitContext(hbar=rng.uniform(0.5, 2.0), l=rng.uniform(0.5, 2.0))
        fr = hyperboloid_frame(rng, zeta_max=0.9)
        x_want, p_want = rng.normal(size=2) * 2.0
        varphi = varphi_from_means(x_want, p_want, fr.f, fr.g, units)
        fr2 = MotionFrame(t=0.0, f=fr.f, g=fr.g, varphi=varphi)
        xbar, pbar = means(fr2, units)
        assert xbar == pytest.approx(x_want, abs=1e-12)
        assert pbar == pytest.approx(p_want, abs=1e-12)


def test_mean_inversion_anchor():
    assert varphi_from_means(math.sqrt(2.0), 0.0, 1.0, 0.0, UNITS) \
        == pytest.approx(-1.0, abs=1e-15)
    assert varphi_from_means(0.0, 0.0, 1.3, 0.5j, UNITS) == 0.0


def test_stationary_frame_recovers_plain_shift():
    xbar, pbar = 0.7, -1.9
    varphi = -(xbar + 1j * pbar) / math.sqrt(2.0)
    frame = MotionFrame(t=0.0, f=1.0, g=0.0, varphi=varphi)
    got = means(frame, UNITS)
    assert got[0] == pytest.approx(xbar, abs=1e-14)
    assert got[1] == pytest.approx(pbar, abs=1e-14)


# ---------------------------------------------------------------------------
# second moments


def test_vacuum_spreads():
    sx, sp, sxp = deviations(VACUUM, UNITS)
    assert sx == pytest.approx(1.0 / math.sqrt(2.0))
    assert sp == pytest.approx(1.0 / math.sqrt(2.0))
    assert sxp == 0.0
    h, sr = uncertainty(VACUUM, UNITS)
    assert h == pytest.approx(0.5)
    assert sr == pytest.approx(0.25)


def test_squeezed_spreads():
    frame = MotionFrame(t=0.0, f=math.cosh(1.0), g=-math.sinh(1.0), varphi=0.0)
    sx, sp, sxp = deviations(frame, UNITS)
    assert sx == pytest.approx(math.e / math.sqrt(2.0), abs=1e-14)
    assert sp == pytest.approx(math.exp(-1.0) / math.sqrt(2.0), abs=1e-14)
    assert sxp == 0.0


def test_rotated_frame_uncertainty_value():
    frame = MotionFrame(t=0.0, f=math.sqrt(2.0) * np.exp(1j * math.pi / 4.0),
                        g=1.0, varphi=0.0)
    h, _ = uncertainty(frame, UNITS)
    assert h == pytest.approx(0.5 * math.sqrt(5.0), abs=1e-14)


def test_product_identity_and_lower_bounds():
    rng = np.random.default_rng(73)
    for _ in range(40):
        units = UnitContext(hbar=rng.uniform(0.5, 2.0), l=rng.uniform(0.5, 2.0))
        fr = hyperboloid_frame(rng, zeta_max=0.97)
        sx, sp, sxp = deviations(fr, units)
        assert sx > 0 and sp > 0
        cross = (fr.f * fr.g.conjugate()).imag
        assert sx * sp == pytest.approx(
            0.5 * units.hbar * math.sqrt(1.0 + 4.0 * cross * cross), rel=1e-12)
        h, sr = uncertainty(fr, units)
        assert h >= units.hbar / 2.0 - 1e-12
        assert sr >= units.hbar ** 2 / 4.0 - 1e-12
        assert sr == pytest.approx((sx * sp) ** 2 - sxp ** 2, rel=1e-12)


def test_minimal_uncertainty_is_preserved_in_time():
    rng = np.random.default_rng(79)
    sched = CoefficientSchedule.physical(UNITS, m=1.0,
                                         k=Harmonic(1.0, 0.8, 3.0))
    for _ in range(4):
        sigma = rng.uniform(0.1, 0.99) / math.sqrt(2.0)
        init = from_initial_width(sigma, rng.uniform(0.0, 2.0 * math.pi), UNITS)
        for fr in evolve(sched, init, np.linspace(0.0, 3.0, 31)):
            _, sr = uncertainty(fr, UNITS)
            assert abs(sr / 0.25 - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# energy


def test_ground_state_energy():
    omega = 2.7
    alg = AlgebraicCoefficients(beta=omega, delta=omega / 2.0)
    assert mean_energy(VACUUM, alg, UNITS) == pytest.approx(omega / 2.0)


def test_squeezed_quanta_energy():
    frame = MotionFrame(t=0.0, f=math.cosh(1.0), g=-math.sinh(1.0), varphi=0.0)
    alg = AlgebraicCoefficients(beta=1.0)
    assert mean_energy(frame, alg, UNITS) == pytest.approx(math.sinh(1.0) ** 2,
                                                           abs=1e-13)


def matrix_energy(frame, alg, units):
    """Independent route: ladder-operator expectation values from the
    number-basis coefficients."""
    c = fock_coefficients(frame, tail_tolerance=1e-20, n_max=4096).coefficients
    n = np.arange(c.size, dtype=float)
    occupancy = float(np.sum(n * np.abs(c) ** 2))
    lower = np.sum(np.conj(c[:-1]) * np.sqrt(n[1:]) * c[1:])
    lower2 = np.sum(np.conj(c[:-2]) * np.sqrt(n[2:] * (n[2:] - 1.0)) * c[2:])
    total = 0.5 * (alg.alpha.conjugate() * lower2 + alg.alpha * np.conj(lower2)) \
        + alg.beta * occupancy \
        + alg.gamma.conjugate() * lower + alg.gamma * np.conj(lower) + alg.delta
    return units.hbar * complex(total).real


def test_energy_against_ladder_matrix_elements():
    rng = np.random.default_rng(83)
    for _ in range(10):
        fr = hyperboloid_frame(rng, zeta_max=0.75, displacement=0.8)
        alg = AlgebraicCoefficients(
            alpha=complex(rng.normal(), rng.normal()),
            beta=rng.normal(),
            gamma=complex(rng.normal(), rng.normal()),
            delta=rng.normal())
        want = matrix_energy(fr, alg, UNITS)
        assert mean_energy(fr, alg, UNITS) == pytest.approx(want, abs=1e-8)


def test_observe_record_is_consistent():
    rng = np.random.default_rng(89)
    fr = hyperboloid_frame(rng, zeta_max=0.8)
    alg = AlgebraicCoefficients(alpha=0.2j, beta=1.0, gamma=0.3, delta=0.1)
    rec = observe(fr, alg, UNITS)
    sx, sp, sxp = deviations(fr, UNITS)
    assert (rec.sigma_x, rec.sigma_p, rec.sigma_xp) == (sx, sp, sxp)
    assert rec.heisenberg == sx * sp
    assert rec.sr == pytest.approx((sx * sp) ** 2 - sxp ** 2, rel=1e-12)
    assert rec.energy == mean_energy(fr, alg, UNITS)
    assert (rec.xbar, rec.pbar) == means(fr, UNITS)


# ---------------------------------------------------------------------------
# position representation


def test_vacuum_wavefunction_is_the_ground_state():
    xs = np.linspace(-4.0, 4.0, 101)
    psi = wavefunction(VACUUM, xs, UNITS)
    want = fock_wavefunction(0, xs, UNITS)
    assert np.max(np.abs(psi - want)) < 1e-14


def test_density_normalization_mean_and_width():
    rng = np.random.default_rng(97)
    for _ in range(12):
        units = UnitContext(hbar=rng.uniform(0.5, 2.0), l=rng.uniform(0.5, 2.0))
        fr = hyperboloid_frame(rng, zeta_max=0.9, displacement=1.5)
        xbar, _ = means(fr, units)
        sx, _, _ = deviations(fr, units)
        xs = np.linspace(xbar - 8.0 * sx, xbar + 8.0 * sx, 1025)
        rho = np.abs(wavefunction(fr, xs, units)) ** 2
        mass = np.trapezoid(rho, xs)
        assert abs(mass - 1.0) < 1e-8
        assert np.trapezoid(rho * xs, xs) == pytest.approx(xbar, abs=1e-6)
        var = np.trapezoid(rho * (xs - xbar) ** 2, xs)
        assert var == pytest.approx(sx * sx, rel=1e-6, abs=1e-6)


def test_gaussian_equals_number_basis_series():
    rng = np.random.default_rng(101)
    for _ in range(6):
        fr = hyperboloid_frame(rng, zeta_max=0.8, displacement=1.0)
        xbar, _ = means(fr, UNITS)
        sx, _, _ = deviations(fr, UNITS)
        xs = np.linspace(xbar - 5.0 * sx, xbar + 5.0 * sx, 161)
        direct = wavefunction(fr, xs, UNITS)
        c = fock_coefficients(fr, tail_tolerance=1e-20, n_max=4096).coefficients
        series = np.zeros_like(direct)
        for n, cn in enumerate(c):
            series += cn * fock_wavefunction(n, xs, UNITS)
        assert np.max(np.abs(direct - series)) < 1e-8


def test_eigenfunction_anchors():
    assert fock_wavefunction(0, 0.0, UNITS) == pytest.approx(math.pi ** -0.25)
    assert fock_wavefunction(1, 0.0, UNITS) == 0.0
    units = UnitContext(hbar=1.0, l=2.0)
    # l enters as both argument scale and overall normalization
    assert fock_wavefunction(0, 0.0, units) \
        == pytest.approx(math.pi ** -0.25 / math.sqrt(2.0))


def test_eigenfunction_orthonormality():
    xs = np.linspace(-12.0, 12.0, 4001)
    basis = [fock_wavefunction(n, xs, UNITS) for n in range(13)]
    for m in range(13):
        for n in range(m, 13):
            inner = np.trapezoid(basis[m] * basis[n], xs)
            want = 1.0 if m == n else 0.0
            assert abs(inner - want) < 1e-8


# ---------------------------------------------------------------------------
# classical consistency of the means


def run_records(sched, init, t_max, h, settings=IntegratorSettings()):
    n = int(round(t_max / h))
    grid = np.linspace(0.0, n * h, n + 1)
    frames = evolve(sched, init, grid, settings)
    return [observe(fr, sched.algebraic_at(fr.t), sched.units) for fr in frames]


def test_constant_oscillator_residual_scale():
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=1.0)
    init = InitialConditions(varphi0=-1j)
    rx, rp = hamilton_residual(run_records(sched, init, 2.0, 1e-3), sched)
    assert rx < 1e-5
    assert rp < 1e-5
    rx2, rp2 = hamilton_residual(run_records(sched, init, 2.0, 5e-4), sched)
    assert 3.5 <= rx / rx2 <= 4.5
    assert 3.5 <= rp / rp2 <= 4.5


def test_undisplaced_state_has_zero_residual():
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=1.0)
    records = run_records(sched, InitialConditions(), 1.0, 1e-2)
    assert hamilton_residual(records, sched) == (0.0, 0.0)


def test_modulated_stiffness_residuals():
    m0, eps0, eta0, w0 = 1.0, 1.0, 50.0, 10.0
    units = UnitContext(hbar=1.0, l=math.sqrt(1.0 / (m0 * w0)))
    sched = CoefficientSchedule.physical(units, m=m0,
                                         k=Harmonic(eps0, -eta0, w0))
    init = InitialConditions(varphi0=-1j)
    h = 2.0 * math.pi / (1000.0 * w0)
    rx, rp = hamilton_residual(run_records(sched, init, 2.0 * math.pi / w0, h),
                               sched)
    assert rx < 1e-4
    # dp/dt picks up k'(t) ~ eta0 * w0 through the chain rule, one power of
    # w0 above the coordinate residual; same h gives a larger floor
    assert rp < 1e-3
    rx2, rp2 = hamilton_residual(
        run_records(sched, init, 2.0 * math.pi / w0, h / 2.0), sched)
    assert 3.5 <= rx / rx2 <= 4.5
    assert 3.5 <= rp / rp2 <= 4.5


def test_residual_skips_stencils_across_knots():
    tables, bare = kinked_schedule(), kinked_schedule(hidden)
    init = InitialConditions(varphi0=-1j)
    coarse = run_records(tables, init, 3.0, 0.02)
    fine = run_records(tables, init, 3.0, 0.01)
    for rc, rf in zip(hamilton_residual(coarse, tables), hamilton_residual(fine, tables)):
        assert 3.5 <= rc / rf <= 4.5
    # every stencil counts when the knots are hidden: first order at the kinks
    for rc, rf in zip(hamilton_residual(coarse, bare), hamilton_residual(fine, bare)):
        assert rc / rf < 2.5


def test_residual_falls_back_to_all_stencils():
    tables, bare = kinked_schedule(), kinked_schedule(hidden)
    records = run_records(tables, InitialConditions(varphi0=-1j), 1.0, 0.5)
    assert len(records) == 3  # the one stencil (0, 1) holds the knot at 0.5
    assert hamilton_residual(records, tables) == hamilton_residual(records, bare)
    assert min(hamilton_residual(records, tables)) > 0.0


def test_residual_needs_enough_uniform_samples():
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=1.0)
    records = run_records(sched, InitialConditions(varphi0=-1j), 1.0, 0.5)
    assert len(records) == 3  # minimum for one interior point
    short = records[:2]
    with pytest.raises(DomainError):
        hamilton_residual(short, sched)
