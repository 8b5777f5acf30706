"""Coefficient maps between the ladder and position-momentum forms."""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from cssdyn import (AlgebraicCoefficients, CoefficientSchedule, ComplexParts,
                    Constant, DomainError, Harmonic, InitialConditions,
                    IntegratorSettings, PhysicalCoefficients, Polynomial, Table,
                    UnitContext, evolve, to_algebraic, to_physical, validate)

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


@pytest.mark.parametrize("times", [(0.0, 1.0, 4.0), (2.0,)])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_table_refuses_non_finite_times(times, t):
    tab = Table(times=times, values=(5.0,) * len(times))
    with pytest.raises(DomainError, match="outside its horizon"):
        tab(t)
    sched = CoefficientSchedule.physical(UNITS, k=tab)
    with pytest.raises(DomainError, match="outside its horizon"):
        sched.algebraic_at(t)


def _bits(value):
    """Type and IEEE-754 bit pattern of a float or complex: equal means identical."""
    if isinstance(value, complex):
        return complex, struct.pack("<dd", value.real, value.imag)
    return type(value), struct.pack("<d", value)


def _record_bits(record):
    return [(f.name, _bits(getattr(record, f.name))) for f in dataclasses.fields(record)]


def test_table_matches_np_interp_bit_for_bit():
    rng = np.random.default_rng(20)
    tables = []
    for _ in range(300):
        n = int(rng.integers(1, 12))
        times = np.cumsum(rng.exponential(10.0 ** rng.uniform(-3, 2), n)) - rng.uniform(0, 5)
        values = (rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
                  + 1j * rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n))
        tables.append((times, values))
    # infinite slopes and values, where np.interp's knot and NaN rules decide
    tables.append((np.array([0.0, 1e-300, 1.0]), np.array([1e308, -1e308 + 1e308j, 0.0])))
    tables.append((np.array([0.0, 1.0, 2.0]), np.array([math.inf, math.inf, 1.0 - 1j * math.inf])))
    for times, values in tables:
        tab = Table(times=tuple(times), values=tuple(values))
        probes = list(times) + list(rng.uniform(times[0], times[-1], 20))
        for t in probes:
            want = complex(float(np.interp(t, times, values.real)),
                           float(np.interp(t, times, values.imag)))
            assert _bits(tab(t)) == _bits(want), (times, values, t)
            assert _bits(tab(float(t))) == _bits(want)


# every profile type, each given a base value a and a variation b over [0, 2]
_KNOTS = (0.0, 0.5, 1.25, 2.0)


def _profile(kind, a, b):
    if kind == "Constant":
        return Constant(a)
    if kind == "Harmonic":
        return Harmonic(offset=a, amplitude=b, omega=2.3)
    if kind == "Polynomial":
        return Polynomial((a, b, -0.3 * b))
    if kind == "ComplexParts":
        return ComplexParts(Harmonic(complex(a).real, complex(b).real, 1.7),
                            Polynomial((complex(a).imag, complex(b).imag)))
    if kind == "lambda":
        return lambda t: a + b * math.sin(t)
    if kind == "Table":
        return Table(times=_KNOTS, values=tuple(a + b * s for s in (0.0, 0.6, -0.4, 0.3)))
    if kind == "single-knot Table":
        return Table(times=(0.75,), values=(a,))
    raise ValueError(kind)


_PHYSICAL_BASE = {"m": (1.2, 0.15), "k": (-0.7, 0.5), "Omega": (0.3, -0.2),
                  "F": (0.45, 0.25), "V": (-0.35, 0.1), "E": (0.8, -0.6)}
_ALGEBRAIC_BASE = {"alpha": (0.3 - 0.4j, 0.2 + 0.1j), "beta": (1.4, 0.3),
                   "gamma": (-0.2 + 0.5j, 0.1 - 0.3j), "delta": (0.25, -0.15)}


@pytest.mark.parametrize("kind", ["Constant", "Harmonic", "Polynomial", "ComplexParts",
                                  "lambda", "Table", "single-knot Table"])
def test_compiled_evaluation_matches_record_route_bit_for_bit(kind):
    # the record route: raw profile values through the validating records and
    # the public maps, as every evaluation went before the schedule compiled
    rng = np.random.default_rng(21)
    times = [0.75] if kind == "single-knot Table" else list(_KNOTS) + list(rng.uniform(0, 2, 25))
    for units in (UnitContext(hbar=1.7, l=0.6), UnitContext(hbar=0.45, l=2.3)):
        phys_sched = CoefficientSchedule.physical(
            units, **{key: _profile(kind, *ab) for key, ab in _PHYSICAL_BASE.items()})
        alg_sched = CoefficientSchedule.algebraic(
            units, **{key: _profile(kind, *ab) for key, ab in _ALGEBRAIC_BASE.items()})
        for t in times:
            phys = PhysicalCoefficients(**{key: complex(phys_sched.profiles[key](t)) for key in _PHYSICAL_BASE})
            assert _record_bits(phys_sched.physical_at(t)) == _record_bits(phys)
            assert _record_bits(phys_sched.algebraic_at(t)) == _record_bits(to_algebraic(phys, units))
            alg = AlgebraicCoefficients(**{key: complex(alg_sched.profiles[key](t)) for key in _ALGEBRAIC_BASE})
            assert _record_bits(alg_sched.algebraic_at(t)) == _record_bits(alg)
            assert _record_bits(alg_sched.physical_at(t)) == _record_bits(to_physical(alg, units))
            for sched in (phys_sched, alg_sched):
                want = sched.algebraic_at(t)
                got = sched.compiled()(t)
                assert [_bits(v) for v in got] == [_bits(getattr(want, key))
                                                   for key in _ALGEBRAIC_BASE]


@pytest.mark.parametrize("alpha, beta", [
    (0.5 + 0.3j, 0.5),  # Re(beta - alpha) = 0: no (x, p) form
    (-1e308, 1e308),  # 1/m overflows, so m = 0
    (complex(math.inf, 0.0), math.inf),  # 1/m is NaN
    (0.25 - 0.1j, 1.5),
])
@pytest.mark.parametrize("units", [UNITS, UnitContext(hbar=0.45, l=2.3)])
def test_algebraic_physical_map_matches_to_physical(alpha, beta, units):
    # the compiled map raises what to_physical raises, and returns its values
    sched = CoefficientSchedule.algebraic(units, alpha=alpha, beta=beta, gamma=0.3 - 0.2j,
                                          delta=0.7)
    record = AlgebraicCoefficients(alpha=alpha, beta=beta, gamma=0.3 - 0.2j, delta=0.7)
    try:
        want = _record_bits(to_physical(record, units))
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            sched.physical_at(0.4)
    else:
        assert _record_bits(sched.physical_at(0.4)) == want


def test_knots_are_the_table_times():
    inner = Table(times=(0.25, 1.0, 2.0), values=(0.1, 0.3, 0.2))
    sched = CoefficientSchedule.algebraic(
        UNITS, alpha=ComplexParts(Table(times=(0.0, 1.0, 3.0), values=(0.0, 1.0, 0.0)), inner),
        beta=Table(times=(np.float64(2.0), 5), values=(1.0, 1.0)),
        gamma=lambda t: 0.1 * t, delta=Harmonic(0.0, 1.0, 2.0))
    assert sched.knots() == (0.0, 0.25, 1.0, 2.0, 3.0, 5.0)
    assert all(type(k) is float for k in sched.knots())
    assert CoefficientSchedule.physical(UNITS, m=1.0, k=Harmonic(1.0, 0.5, 3.0)).knots() == ()
    assert CoefficientSchedule.physical(UNITS, m=inner, F=inner).knots() == (0.25, 1.0, 2.0)


def test_checks_hold_on_every_call_between_validate_samples():
    # validate samples [0, 1] at k/256; each defect lives strictly between two samples
    t_bad = 128.5 / 256
    inside = lambda t: abs(t - t_bad) < 0.25 / 256  # noqa: E731
    complex_beta = CoefficientSchedule.algebraic(
        UNITS, alpha=0.1, beta=lambda t: 1.0 + (1e-3j if inside(t) else 0.0))
    massless = CoefficientSchedule.physical(
        UnitContext(hbar=1.3, l=0.8), m=lambda t: 0.0 if inside(t) else 1.0, k=1.0)
    cases = ((complex_beta, "beta must be real (hermiticity), got (1+0.001j)"),
             (massless, "mass must be finite and nonzero, got 0.0"))
    # steps of at most 1e-3 must put a step start inside the 2e-3-wide window
    settings = IntegratorSettings(max_step=1e-3)
    for sched, message in cases:
        assert validate(sched, horizon=1.0) == []
        for evaluate in (sched.algebraic_at, sched.physical_at, sched.compiled()):
            with pytest.raises(DomainError, match=re.escape(message)):
                evaluate(t_bad)
        with pytest.raises(DomainError, match=re.escape(message)):
            evolve(sched, InitialConditions(), np.linspace(0.0, 1.0, 11), settings)


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


def test_validate_names_each_bad_coefficient_and_its_time():
    # beta is complex from the start; the delta table stops before the horizon
    sched = CoefficientSchedule.algebraic(
        UNITS, beta=Constant(1.0 + 1e-3j), delta=Table(times=(0.0, 1.0), values=(0.2, 0.3)))
    problems = validate(sched, horizon=2.0)
    assert len(problems) == 2
    assert problems[0].startswith("beta:") and "t=0" in problems[0]
    # the first sample past t = 1 is 129/128
    assert problems[1].startswith("delta:") and "t=1.00781" in problems[1]


def test_validate_flags_non_finite_values():
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=lambda t: math.nan if t > 0.5 else 1.0)
    problems = validate(sched, horizon=1.0)
    assert len(problems) == 1
    assert problems[0].startswith("k: non-finite") and "t=0.503906" in problems[0]


def test_validate_accepts_algebraic_schedule_without_physical_form():
    # Re(beta - alpha) = 0 has no (x, p) form, but the algebraic form is sound
    sched = CoefficientSchedule.algebraic(UNITS, alpha=0.5 + 0.3j, beta=0.5)
    assert validate(sched, horizon=1.0) == []
    with pytest.raises(DomainError, match="Re\\(beta - alpha\\) = 0"):
        sched.physical_at(0.5)
