"""Coefficient maps between the ladder and position-momentum forms."""

import math

import numpy as np
import pytest

from cssdyn import (AlgebraicCoefficients, CoefficientSchedule, ComplexParts,
                    Constant, DomainError, Harmonic, InitialConditions,
                    PhysicalCoefficients, Polynomial, Table, UnitContext, evolve,
                    to_algebraic, to_physical, validate)

UNITS = UnitContext()


def test_free_particle_maps_to_quadrature_mix():
    alg = to_algebraic(PhysicalCoefficients(m=1.0), UNITS)
    assert alg.beta == pytest.approx(0.5, abs=1e-15)
    assert alg.alpha == pytest.approx(-0.5, abs=1e-15)
    assert alg.gamma == 0.0
    assert alg.delta == pytest.approx(0.25, abs=1e-15)


def test_driven_oscillator_start_coefficients():
    # m=1, k(0) = 1 - 50 = -49, l^2 = 1/10
    units = UnitContext(hbar=1.0, l=math.sqrt(0.1))
    alg = to_algebraic(PhysicalCoefficients(m=1.0, k=-49.0), units)
    assert alg.beta == pytest.approx(2.55, abs=1e-13)
    assert alg.alpha == pytest.approx(-7.45, abs=1e-13)
    assert alg.gamma == 0.0


def test_zero_force_zero_velocity_gives_exact_zero_gamma():
    rng = np.random.default_rng(3)
    for _ in range(20):
        phys = PhysicalCoefficients(m=rng.uniform(0.2, 3.0),
                                    k=rng.uniform(-5.0, 5.0),
                                    Omega=rng.uniform(-2.0, 2.0))
        assert to_algebraic(phys, UNITS).gamma == 0.0


def test_zero_mass_rejected():
    with pytest.raises(DomainError):
        to_algebraic(PhysicalCoefficients(m=0.0), UNITS)


def test_inverse_map_recovers_free_particle():
    phys = to_physical(AlgebraicCoefficients(alpha=-0.5, beta=0.5, delta=0.25), UNITS)
    assert phys.m == pytest.approx(1.0, abs=1e-14)
    assert phys.k == pytest.approx(0.0, abs=1e-14)
    assert phys.Omega == 0.0
    assert phys.F == 0.0
    assert phys.V == 0.0
    assert phys.E == pytest.approx(0.0, abs=1e-14)


def test_rotation_rate_is_imaginary_part_of_alpha():
    alg = AlgebraicCoefficients(alpha=-0.5 + 0.7j, beta=0.5)
    assert to_physical(alg, UNITS).Omega == pytest.approx(0.7, abs=1e-15)


def test_infinite_mass_rejected():
    with pytest.raises(DomainError):
        to_physical(AlgebraicCoefficients(alpha=0.5 + 0.3j, beta=0.5), UNITS)


def test_round_trip_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        units = UnitContext(hbar=rng.uniform(0.5, 2.0), l=rng.uniform(0.5, 2.0))
        phys = PhysicalCoefficients(
            m=rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 4.0),
            k=rng.uniform(-5.0, 5.0), Omega=rng.uniform(-2.0, 2.0),
            F=rng.uniform(-2.0, 2.0), V=rng.uniform(-2.0, 2.0),
            E=rng.uniform(-2.0, 2.0))
        back = to_physical(to_algebraic(phys, units), units)
        for name in ("m", "k", "Omega", "F", "V", "E"):
            want = getattr(phys, name)
            got = getattr(back, name)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), name

        alg = to_algebraic(phys, units)
        again = to_algebraic(to_physical(alg, units), units)
        assert again.alpha == pytest.approx(alg.alpha, rel=1e-12, abs=1e-12)
        assert again.beta == pytest.approx(alg.beta, rel=1e-12, abs=1e-12)
        assert again.gamma == pytest.approx(alg.gamma, rel=1e-12, abs=1e-12)
        assert again.delta == pytest.approx(alg.delta, rel=1e-12, abs=1e-12)


def test_mass_scale_identity_on_preset():
    # Re(beta - alpha) = hbar / (l^2 m), which the preset fixes at omega0
    units = UnitContext(hbar=1.0, l=math.sqrt(0.1))
    sched = CoefficientSchedule.physical(units, m=1.0,
                                         k=Harmonic(1.0, -50.0, 10.0))
    for t in np.linspace(0.0, 4.0, 17):
        alg = sched.algebraic_at(t)
        assert (alg.beta - alg.alpha).real == pytest.approx(10.0, abs=1e-12)


def test_algebraic_images_are_real_typed():
    alg = to_algebraic(PhysicalCoefficients(m=2.0, k=3.0, F=1.0), UNITS)
    assert complex(alg.beta).imag == 0.0
    assert complex(alg.delta).imag == 0.0


def test_hermiticity_enforced_on_construction():
    with pytest.raises(DomainError):
        AlgebraicCoefficients(beta=1.0 + 1e-3j)
    with pytest.raises(DomainError):
        AlgebraicCoefficients(delta=1j)


# ---------------------------------------------------------------------------
# schedules and profiles


def test_profile_evaluation():
    assert Constant(2.5)(7.0) == 2.5
    h = Harmonic(offset=1.0, amplitude=-50.0, omega=10.0)
    assert h(0.0) == pytest.approx(-49.0)
    assert h(math.pi / 10.0) == pytest.approx(51.0)
    p = Polynomial(coeffs=(1.0, 0.0, 3.0))
    assert p(2.0) == pytest.approx(13.0)
    tab = Table(times=(0.0, 1.0, 2.0), values=(0.0, 2.0, 2.0))
    assert tab(0.5) == pytest.approx(1.0)
    assert tab(1.5) == pytest.approx(2.0)


def test_complex_parts_accept_bare_numbers():
    bare = ComplexParts(real=0.02)
    assert bare == ComplexParts(Constant(0.02))
    grid = np.linspace(0.0, 2.0, 21)
    frames = [evolve(CoefficientSchedule.algebraic(UNITS, alpha=parts, beta=1.0),
                     InitialConditions(), grid)
              for parts in (bare, ComplexParts(Constant(0.02)))]
    assert frames[0] == frames[1]


def test_table_refuses_extrapolation_and_disorder():
    tab = Table(times=(0.0, 1.0), values=(1.0, 2.0))
    with pytest.raises(DomainError):
        tab(1.5)
    with pytest.raises(DomainError):
        Table(times=(0.0, 0.0), values=(1.0, 2.0))


def test_schedule_rejects_unknown_keys_and_kinds():
    with pytest.raises(DomainError):
        CoefficientSchedule(units=UNITS, parameterization="spectral")
    with pytest.raises(DomainError):
        CoefficientSchedule(units=UNITS, parameterization="algebraic",
                            profiles={"mass": Constant(1.0)})


def test_schedule_cross_parameterization_sampling():
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=Constant(1.0))
    alg = sched.algebraic_at(0.0)
    assert alg.beta == pytest.approx(1.0)
    assert alg.alpha == pytest.approx(0.0, abs=1e-15)
    back = sched.physical_at(0.3)
    assert back.m == pytest.approx(1.0)
    assert back.k == pytest.approx(1.0)


def test_validate_accepts_real_constant():
    sched = CoefficientSchedule.algebraic(UNITS, beta=1.0)
    assert validate(sched, horizon=5.0) == []


def test_validate_flags_complex_beta():
    sched = CoefficientSchedule.algebraic(UNITS, beta=Constant(1.0 + 1e-3j))
    problems = validate(sched, horizon=1.0)
    assert problems
    assert any("beta" in p for p in problems)


def test_validate_flags_short_table():
    sched = CoefficientSchedule.physical(
        UNITS, m=1.0, k=Table(times=(0.0, 1.0), values=(1.0, 1.0)))
    problems = validate(sched, horizon=2.0)
    assert problems
    assert any("k" in p for p in problems)
