"""Semiclassical quantities: means, spreads, energy, position density."""

import math

import numpy as np
import pytest

from cssdyn import (AlgebraicCoefficients, CoefficientSchedule, ComplexParts,
                    DomainError, DrivenOscillatorConfig, Harmonic,
                    InitialConditions, IntegratorSettings, MotionFrame, ObservableRecord,
                    PhysicalCoefficients, Polynomial, SqueezeDisplace, Table, UnitContext,
                    branch_windings, deviations, evolve, fock_coefficients, fock_wavefunction,
                    from_initial_width, hamilton_residual, mean_energy, means, normalization,
                    observe, parameters, uncertainty, wavefunction)

from helpers import (DRIVEN_UNITS, FAMILIES, driven_frames, family_schedule, hidden,
                     hyperboloid_frame, kinked_schedule, physical_residual)

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
    assert (rec.heisenberg, rec.sr) == uncertainty(fr, UNITS)
    assert rec.sr == pytest.approx((sx * sp) ** 2 - sxp ** 2, rel=1e-12)
    assert rec.energy == mean_energy(fr, alg, UNITS)
    assert (rec.xbar, rec.pbar) == means(fr, UNITS)


def _record_oracle(frame, alg, units):
    """The observables of a frame, each formula written out on its own and
    the record built by its constructor: the oracle of observe's single
    pass."""
    l, hbar = units.l, units.hbar
    f, g, varphi = frame.f, frame.g, frame.varphi
    u = g * varphi.conjugate() - f.conjugate() * varphi
    sx = (l / math.sqrt(2.0)) * abs(f - g)
    sp = (hbar / (l * math.sqrt(2.0))) * abs(f + g)
    delta = math.fsum([f.real * f.real, f.imag * f.imag, -g.real * g.real, -g.imag * g.imag])
    val = (2.0 * alg.gamma.conjugate() * u
           + alg.alpha.conjugate() * u * u
           - alg.alpha * f * g.conjugate()
           + alg.beta * ((g * g.conjugate()).real + (u * u.conjugate()).real)
           + alg.delta)
    return ObservableRecord(
        t=frame.t, xbar=math.sqrt(2.0) * l * u.real, pbar=math.sqrt(2.0) * (hbar / l) * u.imag,
        sigma_x=sx, sigma_p=sp, sigma_xp=hbar * (f * g.conjugate()).imag, heisenberg=sx * sp,
        sr=(0.5 * hbar * delta) ** 2, energy=hbar * val.real)


def _family_runs():
    """(schedule, frames) of each of six schedule families, over a few
    periods, plus hand-built frames with signed zeros under a schedule whose
    coefficients are signed zeros too."""
    rng = np.random.default_rng(2510)
    for family in FAMILIES * 2:
        units = UnitContext(hbar=rng.uniform(0.8, 1.2), l=rng.uniform(0.8, 1.2))
        t_max = rng.uniform(3.0, 5.0)
        schedule = family_schedule(family, rng, units, t_max)
        width = from_initial_width(rng.uniform(0.3, 0.6) * units.l, rng.uniform(0.0, 6.0), units)
        init = InitialConditions(width.f0, width.g0, complex(rng.normal(), rng.normal()))
        yield schedule, evolve(schedule, init, np.linspace(0.0, t_max, 61))
    zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    signed = CoefficientSchedule.algebraic(UNITS, alpha=-0.0j, beta=-0.0, gamma=complex(-0.0, 0.0),
                                           delta=-0.0)
    yield signed, [MotionFrame(t, complex(1.0, -0.0) if t else complex(-1.0, 0.0), g, varphi)
                   for t, (g, varphi) in enumerate((g, varphi) for g in zeros for varphi in zeros)]


def test_per_frame_readers_are_their_oracles_bit_for_bit():
    # observe, the schedule's records, parameters and branch_windings build
    # their results without constructors; each equals the constructed one
    # from the formulas written out, compared by repr so that signed zeros
    # count
    for schedule, frames in _family_runs():
        units, evaluate = schedule.units, schedule.compiled()
        for fr in frames:
            alg = schedule.algebraic_at(fr.t)
            assert repr(alg) == repr(AlgebraicCoefficients(*evaluate(fr.t)))
            if schedule.parameterization == "physical":
                phys = schedule.physical_at(fr.t)
                assert repr(phys) == repr(PhysicalCoefficients(*schedule._compiled()[1](fr.t)))
            rec = observe(fr, alg, units)
            want = _record_oracle(fr, alg, units)
            assert repr(rec) == repr(want) and rec == want and hash(rec) == hash(want)
            helpers = (*means(fr, units), *deviations(fr, units), *uncertainty(fr, units),
                       mean_energy(fr, alg, units))
            assert repr(helpers) == repr(tuple(vars(rec).values())[1:])
            pair = parameters(fr)
            assert repr(pair) == repr(SqueezeDisplace(fr.varphi / fr.f, fr.g / fr.f))
            assert pair == SqueezeDisplace(fr.varphi / fr.f, fr.g / fr.f)
        args = np.array([np.angle(fr.f) for fr in frames])
        unwrapped = np.unwrap(args)
        unwrapped += args[0] - unwrapped[0]
        want = [int(round(w)) for w in (unwrapped - args) / (2.0 * np.pi)]
        windings = branch_windings(frames)
        assert windings == want and all(type(w) is int for w in windings)


# frames whose observables leave the floats: |f|^2 past them, |f|^2 and
# |g|^2 both past them, and |f - g| past them
_PAST_THE_FLOATS = [MotionFrame(0.0, 1e100, 0j, 0j), MotionFrame(0.0, 1e200, 1e200, 0j),
                    MotionFrame(0.0, complex(1.5e308, 1.5e308), 0j, 0j)]


@pytest.mark.parametrize("frame", _PAST_THE_FLOATS, ids=["f 1e100", "f = g = 1e200", "f 1.5e308"])
def test_observables_past_the_floats_are_inf_or_nan(frame):
    # these raised OverflowError or ValueError from inside the package
    rec = observe(frame, AlgebraicCoefficients(beta=1.0), UNITS)
    assert all(type(v) is float for v in vars(rec).values())
    assert not math.isfinite(rec.sr)
    assert repr(uncertainty(frame, UNITS)) == repr((rec.heisenberg, rec.sr))


def test_observables_past_the_floats_values():
    alg = AlgebraicCoefficients(beta=1.0)
    huge, equal, wide = (observe(fr, alg, UNITS) for fr in _PAST_THE_FLOATS)
    assert huge.sr == math.inf and huge.sigma_x == 1e100 / math.sqrt(2.0) and huge.energy == 0.0
    assert math.isnan(equal.sr) and equal.sigma_x == 0.0 and equal.energy == math.inf
    assert math.isnan(uncertainty(_PAST_THE_FLOATS[1], UNITS)[1])
    assert wide.sigma_x == wide.sigma_p == wide.heisenberg == math.inf


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


@pytest.mark.parametrize("frame", [
    MotionFrame(t=0.0, f=1.0, g=2.0, varphi=0.0),
    MotionFrame(t=0.0, f=1.0, g=1.0, varphi=0.0),
    MotionFrame(t=0.0, f=complex(math.nan, 0.0), g=0.0, varphi=0.0),
], ids=["g-above-f", "g-equal-f", "nan-f"])
def test_wavefunction_refuses_the_frames_normalization_refuses(frame):
    # no normalizable state, so no wavefunction either: one DomainError,
    # not values or a numpy warning
    for state in (normalization, lambda fr: wavefunction(fr, [-1.0, 0.0, 1.0], UNITS)):
        with pytest.raises(DomainError, match=r"not finite|\|g\| >= \|f\|"):
            state(frame)


def test_wavefunction_is_zero_where_the_squared_offset_overflows():
    # (x - xbar)^2 overflows past about 1.3e154; the Gaussian's modulus has
    # underflowed long before, so those points are exactly 0, without a warning
    frame = MotionFrame(t=0.0, f=math.cosh(0.5), g=1j * math.sinh(0.5), varphi=0.4 - 0.2j)
    xs = np.array([-7e307, -2e154, 1e154, 0.0, 0.5, 3.5e307])
    psi = wavefunction(frame, xs, UNITS)
    assert np.array_equal(psi[[0, 1, 5]], np.zeros(3))
    assert np.array_equal(psi[2:5], wavefunction(frame, xs[2:5], UNITS))
    assert np.all(np.isfinite(psi)) and abs(psi[3]) > 0.0


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


def test_driven_gaussian_equals_number_basis_series():
    # an evolved driven frame carries a nonzero phase, which the Gaussian and
    # the series must read alike
    frame, = driven_frames([1.7])
    xbar, _ = means(frame, DRIVEN_UNITS)
    sx, _, _ = deviations(frame, DRIVEN_UNITS)
    xs = np.linspace(xbar - 5.0 * sx, xbar + 5.0 * sx, 161)
    direct = wavefunction(frame, xs, DRIVEN_UNITS)
    c = fock_coefficients(frame, tail_tolerance=1e-20, n_max=4096).coefficients
    series = sum(cn * fock_wavefunction(n, xs, DRIVEN_UNITS) for n, cn in enumerate(c))
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


def _family(kind, rng, units, t_max):
    """A seeded schedule of one of six families: harmonic, polynomial and
    table physical ones, a harmonic/table algebraic one, constant ones."""
    def harmonic(lo, hi, w):
        return Harmonic(rng.uniform(lo, hi), rng.uniform(0.1, 0.5), rng.uniform(*w))

    def table(lo, hi):
        return Table(tuple(np.linspace(0.0, t_max, 6)), tuple(rng.uniform(lo, hi, 6)))

    if kind == "harmonic_physical":
        return CoefficientSchedule.physical(
            units, m=rng.uniform(0.8, 1.2), k=harmonic(0.8, 1.5, (1.0, 3.0)),
            Omega=rng.uniform(-0.2, 0.2), F=harmonic(-0.2, 0.2, (0.5, 2.0)))
    if kind == "polynomial_physical":
        return CoefficientSchedule.physical(
            units, m=Polynomial((rng.uniform(0.8, 1.2), rng.uniform(0.0, 0.05))),
            k=Polynomial((rng.uniform(0.8, 1.5), rng.uniform(-0.05, 0.05))),
            V=harmonic(-0.2, 0.2, (0.5, 2.0)), F=rng.uniform(-0.3, 0.3))
    if kind == "table_physical":
        return CoefficientSchedule.physical(
            units, m=rng.uniform(0.8, 1.2), k=table(0.5, 2.0), F=table(-0.4, 0.4),
            Omega=rng.uniform(-0.1, 0.1))
    if kind == "harmonic_algebraic":
        return CoefficientSchedule.algebraic(
            units, beta=harmonic(1.4, 1.8, (1.0, 3.0)),
            alpha=ComplexParts(harmonic(-0.1, 0.1, (1.5, 3.5)), rng.uniform(-0.2, 0.2)),
            gamma=ComplexParts(table(-0.3, 0.3), harmonic(-0.1, 0.1, (0.5, 2.0))),
            delta=Polynomial((rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1))))
    if kind == "constant_algebraic":
        return CoefficientSchedule.algebraic(
            units, alpha=complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
            beta=rng.uniform(1.0, 1.6), gamma=complex(rng.uniform(-0.3, 0.3),
                                                      rng.uniform(-0.3, 0.3)))
    return CoefficientSchedule.physical(
        units, m=rng.uniform(0.7, 1.3), k=rng.uniform(-0.3, 1.5),
        Omega=rng.uniform(-0.3, 0.3), F=rng.uniform(-0.3, 0.3), V=rng.uniform(-0.3, 0.3))


FAMILIES = ("harmonic_physical", "polynomial_physical", "table_physical",
            "harmonic_algebraic", "constant_algebraic", "constant_physical")


def assert_matches_physical_form(records, sched):
    got, want = hamilton_residual(records, sched), physical_residual(records, sched)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-9 * w


@pytest.mark.parametrize("kind", FAMILIES)
def test_residual_matches_the_physical_form(kind):
    rng = np.random.default_rng(FAMILIES.index(kind) + 7)
    for _ in range(4):
        units = UnitContext(hbar=rng.uniform(0.8, 1.2), l=rng.uniform(0.8, 1.2))
        t_max = rng.uniform(3.0, 5.0)
        sched = _family(kind, rng, units, t_max)
        init = InitialConditions(varphi0=complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        assert_matches_physical_form(run_records(sched, init, t_max, t_max / 120), sched)


def test_residual_matches_the_physical_form_on_the_mathieu_preset():
    cfg = DrivenOscillatorConfig()
    sched = cfg.schedule()
    assert_matches_physical_form(run_records(sched, cfg.init, 2.0, 0.01), sched)


def test_residual_converges_at_infinite_mass():
    # beta = Re(alpha) at every time: no (x, p) form, but the means still move
    drive = Harmonic(1.0, 0.5, 2.0)
    sched = CoefficientSchedule.algebraic(
        UNITS, alpha=ComplexParts(drive, 0.3), beta=drive, gamma=0.3 - 0.2j)
    with pytest.raises(DomainError):
        sched.physical_at(0.0)
    init = InitialConditions(varphi0=0.5)
    rx, rp = hamilton_residual(run_records(sched, init, 3.0, 0.015), sched)
    rx2, rp2 = hamilton_residual(run_records(sched, init, 3.0, 0.0075), sched)
    assert 3.5 <= rx / rx2 <= 4.5
    assert 3.5 <= rp / rp2 <= 4.5


def test_fock_wavefunction_refuses_a_negative_quantum_number():
    with pytest.raises(DomainError, match="nonnegative"):
        fock_wavefunction(-1, 0.0, UNITS)


def test_residual_refuses_a_non_uniform_grid():
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=1.0)
    frames = evolve(sched, InitialConditions(varphi0=-1j), [0.0, 0.5, 1.5])
    records = [observe(fr, sched.algebraic_at(fr.t), sched.units) for fr in frames]
    with pytest.raises(DomainError, match="uniformly spaced"):
        hamilton_residual(records, sched)


def test_residual_needs_enough_uniform_samples():
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=1.0)
    records = run_records(sched, InitialConditions(varphi0=-1j), 1.0, 0.5)
    assert len(records) == 3  # minimum for one interior point
    short = records[:2]
    with pytest.raises(DomainError):
        hamilton_residual(short, sched)


def _residual_formula(records, schedule):
    """hamilton_residual written out as one complex row per record and one
    array of 4-tuples of the evaluator's values."""
    ts = np.array([r.t for r in records], dtype=float)
    knots = np.asarray(schedule.knots(), dtype=float)
    kinked = (np.searchsorted(knots, ts[2:], side="left")
              > np.searchsorted(knots, ts[:-2], side="right"))
    interior = np.flatnonzero(~kinked) + 1
    if interior.size == 0:
        interior = np.arange(1, len(records) - 1)
    l, hbar = schedule.units.l, schedule.units.hbar
    u = np.array([complex(r.xbar / l, l * r.pbar / hbar) for r in records]) / math.sqrt(2.0)
    alpha, beta, gamma, _ = np.array(list(map(schedule.compiled(), ts[interior].tolist()))).T
    r = ((u[interior + 1] - u[interior - 1]) / (2.0 * (ts[1] - ts[0]))
         + 1j * (alpha * u[interior].conj() + beta * u[interior] + gamma))
    return (math.sqrt(2.0) * l * float(np.max(np.abs(r.real))),
            math.sqrt(2.0) * (hbar / l) * float(np.max(np.abs(r.imag))))


def test_residual_is_its_written_out_formula_bit_for_bit():
    # u from two float columns and (alpha, beta, gamma) as three columns give
    # the bits of the complex rows and the array of 4-tuples
    for schedule, frames in _family_runs():
        records = [observe(fr, schedule.algebraic_at(fr.t), schedule.units) for fr in frames]
        assert repr(hamilton_residual(records, schedule)) == repr(_residual_formula(records,
                                                                                    schedule))
