"""Coefficient maps between the ladder and position-momentum forms."""

import dataclasses
import math
import pickle
import re
import reprlib
import struct

import numpy as np
import pytest

from cssdyn import (AlgebraicCoefficients, CoefficientSchedule, ComplexParts,
                    Constant, CssdynError, DomainError, DrivenOscillatorConfig, Harmonic,
                    InitialConditions, IntegratorSettings, PhysicalCoefficients, Polynomial,
                    Table, UnitContext, evolve, to_algebraic, to_physical, validate)

from helpers import family_schedule

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


def test_mass_whose_l4_m_underflows_is_refused_by_name():
    # l^4 m = 1e-20 * 1e-320 underflows to 0 for a nonzero mass: hbar^2 / (l^4 m)
    # raised a bare ZeroDivisionError
    units = UnitContext(1.0, 1e-5)
    message = r"l\^4 m underflows to 0 for mass 1e-320 and l = 1e-05"
    with pytest.raises(DomainError, match=message):
        to_algebraic(PhysicalCoefficients(m=1e-320, k=1.0), units)
    schedule = CoefficientSchedule.physical(units, m=1e-320, k=1.0)
    with pytest.raises(DomainError, match=message):
        schedule.algebraic_at(0.0)
    with pytest.raises(DomainError, match=message):
        schedule.compiled()(0.5)
    # l^4 m = 1e-300 keeps its image
    assert math.isfinite(to_algebraic(PhysicalCoefficients(m=1e-280, k=1.0), units).beta)


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


def test_table_refuses_unpaired_values():
    with pytest.raises(DomainError, match="equally many times and values"):
        Table((0.0, 1.0), (1.0,))


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
        probes = list(times) + list(rng.uniform(times[0], times[-1], 20))
        # each part is its own real table; ComplexParts assembles the two
        for part in (values.real, values.imag):
            tab = Table(times=tuple(times), values=tuple(part))
            for t in probes:
                want = float(np.interp(t, times, part))
                assert _bits(tab(t)) == _bits(want), (times, part, t)
                assert _bits(tab(float(t))) == _bits(want)


# every profile type, each given a base value a and a variation b over [0, 2]
_KNOTS = (0.0, 0.5, 1.25, 2.0)


def _profile(kind, a, b):
    if kind == "Constant":
        return Constant(a)
    if kind not in ("ComplexParts", "lambda") and isinstance(a + b, complex):
        # the float-valued classes take a complex coefficient as two parts
        return ComplexParts(_profile(kind, a.real, b.real), _profile(kind, a.imag, b.imag))
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
    with pytest.raises(DomainError, match=re.escape("missing coefficient keys ['E', 'F', "
                                                    "'Omega', 'V', 'k'] for physical")):
        CoefficientSchedule(UnitContext(), "physical", {"m": Constant(1.0)})


def test_schedule_cross_parameterization_sampling():
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=Constant(1.0))
    alg = sched.algebraic_at(0.0)
    assert alg.beta == pytest.approx(1.0)
    assert alg.alpha == pytest.approx(0.0, abs=1e-15)
    back = sched.physical_at(0.3)
    assert back.m == pytest.approx(1.0)
    assert back.k == pytest.approx(1.0)


@pytest.mark.parametrize("horizon", [-1.0, math.nan, 10**400, "1", None],
                         ids=["-1.0", "nan", "10**400", "'1'", "None"])
def test_validate_refuses_a_horizon_off_the_nonnegative_floats(horizon):
    # a diagnostic, never an exception, whatever the horizon is
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=1.0)
    assert validate(sched, horizon) == [
        f"horizon must be finite and nonnegative, got {reprlib.repr(horizon)}"]


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


@pytest.mark.parametrize("mass, horizon, message", [
    (Polynomial((1.0, -1.0)), 2.1, "m: changes sign between t=0.992578 and t=1.00078"),
    (Harmonic(0.2, 1.0, 1.0), 5.0, "m: changes sign between t=1.75781 and t=1.77734"),
    # a mass that jumps from one sign to the other never passes zero
    (lambda t: 1.0 if t < 0.3 else -1.0, 1.0, "m: changes sign between t=0.296875 and t=0.300781"),
    # a sample sits on the zero at t = 1, before the sign can change
    (Polynomial((1.0, -1.0)), 2.0, "m: evaluation failed at t=1: mass must be finite and nonzero"),
])
def test_validate_flags_mass_that_reaches_or_crosses_zero(mass, horizon, message):
    sched = CoefficientSchedule.physical(UNITS, m=mass, k=1.0)
    problems = validate(sched, horizon=horizon)
    assert len(problems) == 1
    assert problems[0].startswith(message)


def test_validate_flags_non_finite_values():
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=lambda t: math.nan if t > 0.5 else 1.0)
    problems = validate(sched, horizon=1.0)
    assert len(problems) == 1
    assert problems[0].startswith("k: non-finite") and "t=0.503906" in problems[0]


@pytest.mark.parametrize("k, message", [
    (lambda t: 1.0 / (t - t), "float division by zero"),
    (lambda t: 10**400, "k has no float value at t=0.0: its value must be a complex number "
                        f"within the floats, got {reprlib.repr(10**400)}")],
    ids=["<lambda>-float division by zero", "<lambda>-int too large to convert to float"])
def test_validate_names_what_a_foreign_callable_raises(k, message):
    # validate returns a diagnostic, whatever a callable raises or returns
    sched = CoefficientSchedule.physical(UNITS, m=1.0, k=k)
    assert validate(sched, horizon=1.0) == [f"k: evaluation failed at t=0: {message}"]


def test_validate_accepts_algebraic_schedule_without_physical_form():
    # Re(beta - alpha) = 0 has no (x, p) form, but the algebraic form is sound
    sched = CoefficientSchedule.algebraic(UNITS, alpha=0.5 + 0.3j, beta=0.5)
    assert validate(sched, horizon=1.0) == []
    with pytest.raises(DomainError, match="Re\\(beta - alpha\\) = 0"):
        sched.physical_at(0.5)


def test_harmonic_past_overflow_is_a_domain_error():
    # omega * t overflows to inf past t = 1.8e308 / 1e308, where math.cos
    # raises ValueError
    profile = Harmonic(1.0, 0.5, 1e308)
    assert profile(1.5) == 1.0 + 0.5 * math.cos(1.5e308)
    with pytest.raises(DomainError, match="omega \\* t = inf"):
        profile(2.0)
    problems = validate(CoefficientSchedule.physical(UNITS, m=1.0, k=profile), horizon=2.0)
    assert len(problems) == 1
    assert problems[0].startswith("k: evaluation failed at t=1.80469")


@pytest.mark.parametrize("field", ["omega", "amplitude"])
def test_int_parameter_past_the_floats_is_a_domain_error(field):
    # 10**400 has no float: the profile is refused when it is built, by
    # class and field, and so is the schedule that would hold it
    with pytest.raises(DomainError, match=f"^Harmonic.{field} must be a real number within "
                                          f"the floats, got 1000.*0$"):
        Harmonic(**{field: 10**400})
    with pytest.raises(DomainError, match="Constant.value"):
        CoefficientSchedule.physical(UNITS, m=1.0, k=10**400)


_PHYSICAL = CoefficientSchedule.physical
_HUGE_INT = 10**400

# calls that raised TypeError, ValueError or OverflowError from inside the
# package before profiles coerced their parameters: (call, message)
_FOREIGN_EXCEPTION_CASES = {
    "complex harmonic under validate": (
        lambda: validate(_PHYSICAL(m=1, k=Harmonic(1, 0.5, 1j)), 1),
        "Harmonic.omega must be a real number within the floats, got 1j"),
    "complex harmonic under compiled": (
        lambda: _PHYSICAL(m=1, k=Harmonic(1, 0.5, 1j)).compiled()(0.1), "Harmonic.omega"),
    "empty polynomial mass under validate": (
        lambda: validate(_PHYSICAL(m=Polynomial(()), k=1), 1),
        "Polynomial.coeffs must be a nonempty sequence of real numbers, got ()"),
    "table of strings": (lambda: Table((0, 1), ("a", "b")), "Table.values must be a real"),
    "table of one number": (lambda: Table(0.0, 1.0), "Table.times must be a nonempty sequence"),
    "ragged table": (lambda: Table(((0, 1), 2), (1, 2)), "Table.times must be a real number"),
    "polynomial past the floats": (lambda: Polynomial((_HUGE_INT,)), "Polynomial.coeffs"),
    "table value past the floats": (lambda: Table((0, 1), (_HUGE_INT, 1)), "Table.values"),
    "table time past the floats": (lambda: Table((0, _HUGE_INT), (1, 1)), "Table.times"),
    "constant past the floats under validate": (
        lambda: validate(_PHYSICAL(m=1, k=Constant(_HUGE_INT)), 1), "Constant.value"),
    "physical number past the floats": (lambda: _PHYSICAL(k=_HUGE_INT), "Constant.value"),
    "complex parts past the floats": (lambda: ComplexParts(1.0, _HUGE_INT), "Constant.value"),
    "constant of a string": (lambda: Constant("1"), "Constant.value must be a real number "
                                                    "within the floats, got '1'"),
    "hbar past the floats": (lambda: UnitContext(hbar=_HUGE_INT), "hbar must be positive and finite"),
    "l past the floats": (lambda: UnitContext(l=_HUGE_INT), "l must be positive and finite"),
    "preset offset past the floats": (lambda: DrivenOscillatorConfig(epsilon0=_HUGE_INT),
                                      "epsilon0 must be finite"),
    "preset mass past the floats": (lambda: DrivenOscillatorConfig(m0=_HUGE_INT),
                                    "m0 must be positive and finite"),
    "preset sum past the floats": (lambda: DrivenOscillatorConfig(epsilon0=10**308, eta0=10**308),
                                   "|epsilon0| + |eta0| is not a finite float"),
}


@pytest.mark.parametrize("call, message", _FOREIGN_EXCEPTION_CASES.values(),
                         ids=_FOREIGN_EXCEPTION_CASES.keys())
def test_only_package_errors_leave_the_coefficient_api(call, message):
    with pytest.raises(CssdynError) as caught:
        call()
    assert type(caught.value) is DomainError and message in str(caught.value)


def test_complex_parts_read_a_foreign_part_through_the_intake():
    # complex('1') used to admit a part that returns a string as alpha = 1
    schedule = CoefficientSchedule.algebraic(UNITS, alpha=ComplexParts(lambda t: "1", 0.0),
                                             beta=1.0)
    refused = ("alpha has no float value at t={}: its real part must be a complex number "
               "within the floats, got '1'")
    for evaluate in (schedule.compiled(), schedule.algebraic_at, schedule.physical_at):
        with pytest.raises(DomainError, match=f"^{re.escape(refused.format(0.5))}$"):
            evaluate(0.5)
    assert validate(schedule, 1.0) == [f"alpha: evaluation failed at t=0: {refused.format(0.0)}"]
    with pytest.raises(DomainError, match="^ComplexParts.imag must be a complex number"):
        ComplexParts(0.0, lambda t: "1")(0.5)
    # a foreign part that returns a number keeps its value, signed zeros included
    schedule = CoefficientSchedule.algebraic(UNITS, alpha=ComplexParts(lambda t: 0.5 * t, -0.0),
                                             beta=1.0)
    for profile in (schedule.profiles["alpha"], lambda t: schedule.compiled()(t)[0]):
        assert repr(profile(0.5)) == repr(complex(0.25) + 1j * complex(-0.0))


@pytest.mark.parametrize("evaluator", ["compiled", "algebraic_at", "physical_at"])
@pytest.mark.parametrize("key, schedule, t", [
    ("m", lambda: _PHYSICAL(m=Polynomial((1.0, 0.1)), k=1.0), _HUGE_INT),
    ("k", lambda: _PHYSICAL(m=1.0, k=Harmonic(1.0, 0.5, 2.0)), _HUGE_INT),
    ("k", lambda: _PHYSICAL(m=1.0, k=lambda t: _HUGE_INT), 0.5),
    ("alpha", lambda: CoefficientSchedule.algebraic(UNITS, alpha=lambda t: _HUGE_INT), 0.5),
    ("beta", lambda: CoefficientSchedule.algebraic(UNITS, beta=Harmonic(1.0, 0.5, 2.0)),
     _HUGE_INT),
], ids=["polynomial at an int time", "harmonic at an int time", "foreign real value",
        "foreign complex value", "algebraic harmonic at an int time"])
def test_evaluators_past_the_floats_raise_domain_errors(key, schedule, t, evaluator):
    # the closure's OverflowError sends the call to the checked reading,
    # which names the coefficient
    schedule = schedule()
    call = schedule.compiled() if evaluator == "compiled" else getattr(schedule, evaluator)
    with pytest.raises(DomainError, match=f"^{key} has no float value at t="):
        call(t)


def test_each_profile_is_read_once_per_evaluation():
    # the evaluator has no second pass: a value that is not finite, and a
    # callable that raises, are read once
    calls = []

    def k(t):
        calls.append(t)
        if t > 1.0:
            raise ZeroDivisionError("k")
        return math.nan

    for schedule in (_PHYSICAL(m=1.0, k=k), CoefficientSchedule.algebraic(UNITS, beta=k)):
        evaluate = schedule.compiled()
        calls.clear()
        assert math.isnan(evaluate(0.5)[1])
        with pytest.raises(ZeroDivisionError):
            evaluate(2.0)
        assert calls == [0.5, 2.0]


@pytest.mark.parametrize("profile", [
    Constant(0.5), Constant(0.5 - 2j), Harmonic(1.0, -0.5, 2.0), Polynomial((1.0, 0.0, -0.25)),
    Table((0.0, 1.0, 3.0), (1.0, 2.0, 0.5)),
    ComplexParts(Harmonic(0.1, 0.2, 3.0), Table((0.0, 3.0), (0.0, 1.0))),
    ComplexParts(Constant(0.5 - 2j), math.sin)], ids=lambda profile: type(profile).__name__)
def test_profiles_are_values_of_their_fields(profile):
    # equal and hashable by their fields, rebuilt by replace and by pickle,
    # and evaluated the same by each copy
    twin = dataclasses.replace(profile)
    assert twin == profile and hash(twin) == hash(profile) and twin is not profile
    copy = pickle.loads(pickle.dumps(profile))
    assert copy == profile
    for t in (0.0, 0.7, 2.5):
        assert repr(twin(t)) == repr(copy(t)) == repr(profile(t))


def test_float_profiles_coerce_their_parameters():
    # ints and numpy numbers become floats; the profiles equal their float twins
    assert Harmonic(1, np.int64(2), np.float32(0.5)) == Harmonic(1.0, 2.0, 0.5)
    harmonic = Harmonic(1, np.int64(2), 3)
    assert {type(harmonic.offset), type(harmonic.amplitude), type(harmonic.omega)} == {float}
    table = Table(np.array([0, 1, 2]), [1, 2, 3])
    assert table.times == (0.0, 1.0, 2.0) and table.values == (1.0, 2.0, 3.0)
    assert Polynomial([1, 2]).coeffs == (1.0, 2.0)
    assert type(Constant(1).value) is float and type(Constant(1 + 0j).value) is complex
    # non-finite floats are admitted; validate names them
    schedule = _PHYSICAL(m=1.0, k=Polynomial((math.inf,)))
    assert validate(schedule, 1.0) == ["k: non-finite value inf at t=0"]


# the times a folded schedule is read at: 0, inside the horizon, NaN and an
# int past the floats; a Constant has the same value at each
_FOLD_TIMES = (0.0, 1.3, math.nan, _HUGE_INT)


@pytest.mark.parametrize("units", [UNITS, UnitContext(hbar=0.45, l=2.3)])
def test_constant_schedules_fold_to_the_record_route_bit_for_bit(units):
    phys = PhysicalCoefficients(m=1.2, k=-0.7, Omega=0.3, F=0.45, V=-0.35, E=0.8)
    alg = AlgebraicCoefficients(alpha=0.3 - 0.4j, beta=1.4, gamma=-0.2 + 0.5j, delta=0.25)
    for schedule, algebraic, physical in (
            (CoefficientSchedule.physical(units, **vars(phys)), to_algebraic(phys, units), phys),
            (CoefficientSchedule.algebraic(units, **vars(alg)), alg, to_physical(alg, units))):
        evaluate = schedule.compiled()
        for t in _FOLD_TIMES:
            assert [_bits(v) for v in evaluate(t)] == [_bits(v) for v in vars(algebraic).values()]
            assert _record_bits(schedule.algebraic_at(t)) == _record_bits(algebraic)
            assert _record_bits(schedule.physical_at(t)) == _record_bits(physical)
            # folded: every call returns the one value computed at compile time
            assert evaluate(t) is evaluate(0.0)
            assert schedule._compiled()[1](t) is schedule._compiled()[1](0.0)


@pytest.mark.parametrize("family", ["harmonic_physical", "polynomial_physical", "table_physical"])
def test_fused_physical_evaluator_matches_the_record_route_bit_for_bit(family):
    # both forms of a physical schedule come from one body; each equals the
    # profiles read through the record and to_algebraic
    rng = np.random.default_rng(2801)
    for _ in range(4):
        units = UnitContext(hbar=rng.uniform(0.8, 1.2), l=rng.uniform(0.8, 1.2))
        t_max = rng.uniform(3.0, 5.0)
        schedule = family_schedule(family, rng, units, t_max)
        evaluate = schedule.compiled()
        for t in [0.0, t_max, *rng.uniform(0.0, t_max, 40)]:
            phys = PhysicalCoefficients(**{key: schedule.profiles[key](t)
                                           for key in _PHYSICAL_BASE})
            alg = to_algebraic(phys, units)
            assert _record_bits(schedule.physical_at(t)) == _record_bits(phys)
            assert _record_bits(schedule.algebraic_at(t)) == _record_bits(alg)
            assert [_bits(v) for v in evaluate(t)] == [_bits(v) for v in vars(alg).values()]


def test_constant_schedules_that_raise_raise_at_every_call():
    # a folded value that cannot be computed is not folded: each call raises
    massless = CoefficientSchedule.physical(UNITS, m=0.0, k=1.0)
    infinite_mass = CoefficientSchedule.algebraic(UNITS, alpha=0.5 + 0.3j, beta=0.5,
                                                  gamma=0.3 - 0.2j, delta=0.7)
    assert massless.knots() == () and infinite_mass.knots() == ()
    evaluate = massless.compiled()
    for t in _FOLD_TIMES:
        for call in (evaluate, massless.algebraic_at, massless.physical_at):
            with pytest.raises(DomainError, match=r"^mass must be finite and nonzero, got 0\.0$"):
                call(t)
        with pytest.raises(DomainError, match=r"^Re\(beta - alpha\) = 0: no finite-mass"):
            infinite_mass.physical_at(t)
        assert infinite_mass.algebraic_at(t) == AlgebraicCoefficients(0.5 + 0.3j, 0.5,
                                                                      0.3 - 0.2j, 0.7)
