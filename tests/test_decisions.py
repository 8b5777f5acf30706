"""The closures of the package profiles against the complex-arithmetic
oracle, the schedule's evaluator that falls back on the checked reading, and
validate's exact decisions."""

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cssdyn import (AlgebraicCoefficients, CoefficientSchedule, ComplexParts, Constant,
                    DomainError, Harmonic, InitialConditions, MotionFrame, NumericalError,
                    PhysicalCoefficients, Polynomial, Table, UnitContext, evolve,
                    to_algebraic, to_physical, validate, wavefunction)
from cssdyn import hamiltonian
from cssdyn.hamiltonian import _READ, _decision, _direct, _knots

from helpers import oracle

UNITS = UnitContext()

# what each kind of coefficient reads as, through its checked reading
_READER = {"real": _READ["k"], "mass": _READ["m"], "complex": _READ["alpha"]}


def _outcome(evaluate, t):
    """repr of the value, signed zeros included, or the error raised."""
    try:
        return repr(evaluate(t))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _finite(evaluate, t):
    """evaluate(t) when it returns a finite value or tuple of them, else None."""
    try:
        value = evaluate(t)
    except Exception:
        return None
    values = value if isinstance(value, tuple) else (value,)
    return value if all(map(cmath.isfinite, values)) else None


def _accepted(closure, t, kind):
    """Whether the schedule's evaluator keeps closure(t): nothing raised, the
    value is finite and, for a mass, nonzero."""
    value = _finite(closure, t)
    return value is not None and (kind != "mass" or value != 0.0)


def _number(rng):
    """A seeded real number, sometimes a signed zero or an int."""
    pick = rng.integers(8)
    if pick == 0:
        return rng.choice([0.0, -0.0])
    x = float(rng.normal() * 10.0 ** rng.uniform(-2, 2))
    return int(round(x)) if pick == 2 else x


def _table(rng, horizon):
    n = int(rng.integers(2, 8))
    inner = [t for t in np.unique(rng.uniform(0.0, horizon, n - 2)) if 0.0 < t < horizon]
    # the last knot at the horizon leaves t = T+ off the table
    end = horizon if rng.integers(4) == 0 else horizon + rng.uniform(0.0, 0.5)
    times = [-rng.uniform(0.0, 0.5), *inner, end]
    n = len(times)
    values = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
    if rng.integers(3) == 0:
        values = np.abs(values) + 0.5  # one sign, as a mass needs
    return Table(tuple(times), tuple(values))


def _real_profiles(rng, horizon):
    """Seeded real profiles of every package class over [0, horizon]."""
    yield Constant(-0.0)
    yield Constant(_number(rng))
    offset = _number(rng)
    amplitude = rng.uniform(0.0, 2.0) * abs(offset) * rng.choice([-1.0, 1.0])
    yield Harmonic(offset, amplitude, float(rng.uniform(-4.0, 4.0)))
    yield Harmonic(_number(rng), _number(rng), int(rng.integers(-3, 4)))
    yield Polynomial(tuple(_number(rng) for _ in range(int(rng.integers(1, 5)))))
    yield Polynomial((1.0 + abs(_number(rng)), rng.uniform(-0.2, 0.2), 0.01))
    yield _table(rng, horizon)


def _zero_imaginary(rng, horizon):
    """Real values in complex form, each read checked on a real key: a
    complex Constant, and a ComplexParts whose imaginary part is a signed
    zero, the form a complex-typed parameter of a float-valued class takes."""
    yield Constant(complex(_number(rng), 0.0))
    for profile in _real_profiles(rng, horizon):
        yield ComplexParts(profile, rng.choice([0.0, -0.0]))


def _draws(rng, horizon):
    """(kind, profile) pairs: every class as each kind it can be proved as,
    and profiles in complex form on real keys."""
    reals = list(_real_profiles(rng, horizon))
    for profile in reals + list(_zero_imaginary(rng, horizon)):
        yield "real", profile
        yield "mass", profile
    yield "complex", Constant(complex(_number(rng), _number(rng)))
    for real, imag in zip(reals, reals[::-1]):
        yield "complex", ComplexParts(real, imag)
    for x in (0.0, -0.0):
        for y in (0.0, -0.0):
            yield "complex", ComplexParts(Constant(x), Constant(y))
            yield "complex", ComplexParts(Polynomial((x, 1.0)), Constant(y))
            # a part whose value is complex with a signed zero imaginary part
            yield "complex", ComplexParts(Constant(x), Constant(complex(-1.0, y)))


def _times(rng, profile, horizon):
    """Times in [0, horizon], the knots inside it, and times past it on both
    sides, at the float extremes, signed zeros and NaN included."""
    knots = [t for t in _knots(profile) if 0.0 <= t <= horizon]
    inside = [0.0, horizon, *knots, *rng.uniform(0.0, horizon, 12).tolist()]
    past = [-0.0, math.nextafter(horizon, math.inf), 2.0 * horizon + 1.0, -1.0, 1e300,
            -1e300, math.inf, -math.inf, math.nan]
    return inside, past


def test_every_proved_closure_is_the_checked_reading_bit_for_bit():
    rng = np.random.default_rng(20261019)
    proved = set()
    for _ in range(60):
        horizon = float(rng.choice([0.0, rng.uniform(0.1, 6.0)]))
        for kind, profile in _draws(rng, horizon):
            decided, _ = _decision(profile, horizon, kind)
            if not _direct(profile, kind):
                assert not decided, (kind, profile)
                continue
            if decided:
                proved.add((kind, type(profile).__name__))
            read, closure = _READER[kind], profile._value
            inside, past = _times(rng, profile, horizon)
            for t in inside + past:
                # the closure is the profile's value, and the oracle's
                # complex-arithmetic reading wherever that is finite
                assert _outcome(profile, t) == _outcome(closure, t)
                want = _finite(lambda s: read(oracle(profile)(s)), t)
                if want is not None:
                    assert repr(closure(t)) == repr(want), (kind, profile, t)
                # over [0, horizon] the evaluator keeps every value of a proved profile
                if decided and t in inside:
                    assert _accepted(closure, t, kind), (kind, profile, t)
    classes = {"Constant", "Harmonic", "Polynomial", "Table"}
    assert proved == ({(kind, name) for kind in ("real", "mass") for name in classes}
                      | {("complex", "Constant"), ("complex", "ComplexParts")})


def _reference(schedule, read_profile):
    """(own, other): t -> the schedule's own form, each profile read by
    read_profile and then through the checked reading, in key order, and
    t -> the records' unit map of it, to_algebraic or to_physical."""
    keys = hamiltonian._KEYS[schedule.parameterization]

    def own(t):
        return tuple(_READ[key](read_profile(schedule.profiles[key])(t)) for key in keys)

    if schedule.parameterization == "physical":
        record = lambda t: to_algebraic(PhysicalCoefficients(*own(t)), schedule.units)  # noqa: E731
    else:
        record = lambda t: to_physical(AlgebraicCoefficients(*own(t)), schedule.units)  # noqa: E731
    return own, _fields(record)


def _fields(record):
    return lambda t: tuple(vars(record(t)).values())


def _mixed_profiles(rng, horizon):
    """Profiles of every package class, with int- and float-typed parameters,
    real values in complex form, one value that is not real, and two
    callables the package does not decide."""
    reals = list(_real_profiles(rng, horizon))
    reals += [Constant(int(rng.integers(-3, 4))), Constant(complex(rng.normal(), 0.0)),
              ComplexParts(Harmonic(int(rng.integers(-3, 4)), rng.normal(), 2), -0.0),
              ComplexParts(Polynomial((int(rng.integers(-3, 4)), rng.normal(), 1e300)), 0.0),
              ComplexParts(Table((0.0, horizon + 1.0), (int(rng.integers(1, 4)), rng.normal())),
                           0.0),
              Constant(complex(1.0, 1e-3)), lambda t: 1.0 + 0.5 * t, _Shifted(horizon / 2.0)]
    return reals


class _Shifted(Constant):
    """A subclass of a package class, so a foreign callable: 1 + t - value."""

    def __call__(self, t):
        return 1.0 + t - self.value


def test_public_evaluators_are_the_checked_reference():
    rng = np.random.default_rng(7)
    for _ in range(40):
        horizon = float(rng.uniform(0.5, 5.0))
        reals = _mixed_profiles(rng, horizon)
        pick = lambda: reals[int(rng.integers(len(reals)))]  # noqa: E731
        units = UnitContext(hbar=rng.uniform(0.5, 2.0), l=rng.uniform(0.5, 2.0))
        schedules = (
            CoefficientSchedule.physical(units, m=pick(), k=pick(), Omega=pick(), F=pick(),
                                         V=pick(), E=pick()),
            CoefficientSchedule.algebraic(units, alpha=ComplexParts(pick(), pick()),
                                          beta=pick(), gamma=ComplexParts(pick(), pick()),
                                          delta=pick()),
            CoefficientSchedule.algebraic(units, alpha=complex(rng.normal(), rng.normal()),
                                          beta=pick(), gamma=pick(), delta=pick()))
        for schedule in schedules:
            validate(schedule, horizon)
            own, other = _reference(schedule, lambda profile: profile)
            own_oracle, other_oracle = _reference(schedule, oracle)
            if schedule.parameterization == "physical":
                pairs = ((schedule.physical_at, own, own_oracle),
                         (schedule.algebraic_at, other, other_oracle),
                         (schedule.compiled(), other, other_oracle))
            else:
                pairs = ((schedule.algebraic_at, own, own_oracle),
                         (schedule.physical_at, other, other_oracle),
                         (schedule.compiled(), own, own_oracle))
            inside, past = _times(rng, Constant(0.0), horizon)
            for t in inside + past + list(schedule.knots()) + [np.float64(horizon / 3.0), 1]:
                for evaluate, reference, independent in pairs:
                    got = evaluate if evaluate is schedule.compiled() else _fields(evaluate)
                    assert _outcome(got, t) == _outcome(reference, t), (schedule, t)
                    want = _finite(independent, t)
                    if want is not None:
                        assert _outcome(got, t) == repr(want), (schedule, t)


def test_one_evaluator_for_every_horizon():
    schedule = CoefficientSchedule.physical(UNITS, m=Polynomial((1.0, 0.1)),
                                            k=Harmonic(1.0, 0.5, 2.0))
    evaluator = schedule.compiled()
    assert validate(schedule, 2.0) == []
    evolve(schedule, InitialConditions(), [0.0, 0.5, 1.0])
    evolve(schedule, InitialConditions(), [0.0, 3.0])
    assert validate(schedule, 3.0) == []
    assert schedule.compiled() is evaluator
    # the evaluator cached on a schedule leaves its equality alone
    assert schedule == CoefficientSchedule.physical(UNITS, m=Polynomial((1.0, 0.1)),
                                                    k=Harmonic(1.0, 0.5, 2.0))


def test_a_failed_fast_reading_raises_the_first_checked_error():
    # at t = 1 the mass closure returns 0 and the table past its end raises:
    # the checked reading, in key order, names the mass
    schedule = CoefficientSchedule.physical(UNITS, m=Polynomial((1.0, -1.0)),
                                            k=Table((0.0, 0.5), (1.0, 1.0)))
    massless = re.escape("mass must be finite and nonzero, got 0.0")
    for evaluate in (schedule.physical_at, schedule.algebraic_at, schedule.compiled()):
        with pytest.raises(DomainError, match=massless):
            evaluate(1.0)
    # alpha's table fails before beta's hermiticity
    schedule = CoefficientSchedule.algebraic(
        UNITS, alpha=ComplexParts(Table((0.0, 0.5), (1.0, 1.0)), 0.0), beta=Constant(1j))
    with pytest.raises(DomainError, match="outside its horizon"):
        schedule.compiled()(1.0)
    with pytest.raises(DomainError, match=re.escape("beta must be real (hermiticity)")):
        schedule.compiled()(0.25)


def test_public_evaluators_stay_checked_past_the_horizon():
    # m = 1 - t is proved over [0, 0.5], which evolve integrates
    mass = CoefficientSchedule.physical(UNITS, m=Polynomial((1.0, -1.0)), k=1.0)
    evolve(mass, InitialConditions(1.0, 0.0, 0.0), [0.0, 0.25, 0.5])
    assert _decision(mass.profiles["m"], 0.5, "mass") == (True, None)
    # 1e300 t is finite over [0, 1], where validate proves the profile
    overflow = CoefficientSchedule.physical(UNITS, m=1.0, F=Harmonic(0.0, 1.0, 1e300))
    assert validate(overflow, 1.0) == []
    assert _decision(overflow.profiles["F"], 1.0, "real") == (True, None)
    for schedule, t, error in ((mass, 1.0, "mass must be finite and nonzero"),
                               (overflow, 1e10, "harmonic profile has no value")):
        for evaluate in (schedule.physical_at, schedule.algebraic_at, schedule.compiled()):
            with pytest.raises(DomainError, match=error):
                evaluate(t)


def test_a_table_keeps_its_range_check_when_proved():
    schedule = CoefficientSchedule.physical(UNITS, m=Table((0.0, 2.0), (1.0, 1.5)), k=1.0)
    assert validate(schedule, 2.0) == []
    assert _decision(schedule.profiles["m"], 2.0, "mass") == (True, None)
    past = math.nextafter(2.0, math.inf)
    with pytest.raises(DomainError, match="outside its horizon"):
        schedule.compiled()(past)


def _polynomial_roots_oracle(coeffs, horizon):
    """Whether sum coeffs[k] t^k has a zero in [0, horizon], and the first
    one: numpy.roots brackets each root, and the exact polynomial's sign is
    read at every bracket end, root and midpoint between two roots."""
    exact = [Fraction(c) for c in coeffs]

    def value(t):
        return sum(c * t ** k for k, c in enumerate(exact))

    centres = sorted(z.real for z in np.roots(coeffs[::-1]) if abs(z.imag) < 1e-2)
    points = {0.0, horizon}
    for x in centres:
        points.update((x - 1e-3, x, x + 1e-3))
    points.update((x + y) / 2.0 for x, y in zip(centres, centres[1:]))
    points = sorted(Fraction(p) for p in points if 0.0 <= p <= horizon)
    values = [value(p) for p in points]
    for p, q, vp, vq in zip(points, points[1:], values, values[1:]):
        if vp == 0:
            return float(p)
        if vq == 0 or (vp > 0) != (vq > 0):
            return float(p + (q - p) * vp / (vp - vq))
    return None


def test_sturm_decision_matches_a_roots_oracle_on_near_double_roots():
    rng = np.random.default_rng(2026)
    found = 0
    for _ in range(200):
        horizon = float(rng.uniform(0.5, 3.0))
        r = rng.uniform(0.2, 0.8) * horizon
        eps = 10.0 ** rng.uniform(-12, -7) * rng.choice([-1.0, 1.0])  # < 0: two roots
        lead = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 1)
        quadratic = [lead * (r * r + eps), -2.0 * lead * r, lead]
        far = rng.choice([-1.5, horizon + 1.5])  # a third root outside [0, horizon]
        cubic = [-far * quadratic[0], quadratic[0] - far * quadratic[1],
                 quadratic[1] - far * quadratic[2], quadratic[2]]
        for coeffs in (quadratic, cubic):
            zero = _polynomial_roots_oracle(coeffs, horizon)
            proved, certified = _decision(Polynomial(tuple(coeffs)), horizon, "mass")
            if zero is None:
                assert proved and certified is None, (coeffs, horizon)
            else:
                found += 1
                assert not proved and certified == pytest.approx(zero, abs=1e-6)
    assert 100 < found < 300


def test_double_zero_between_samples_is_refused_by_name():
    # roots 0.497 and 0.498, both between the samples at 0.49609 and 0.5
    schedule = CoefficientSchedule.physical(UNITS, m=Polynomial((0.247506, -0.995, 1.0)), k=1.0)
    assert validate(schedule, 1.0) == ["m: reaches zero near t=0.497, between two samples"]
    # the same mass is proved over [0, 0.49], short of both roots
    assert validate(schedule, 0.49) == []
    assert _decision(schedule.profiles["m"], 0.49, "mass") == (True, None)


@pytest.mark.parametrize("zeros", [4, 11])
def test_a_double_zero_above_degree_eight_is_refused_by_name(zeros):
    # the same two roots times 1 + 1e-3 t^(zeros + 3): degree 9 and 16
    coeffs = (0.247506, -0.995, 1.0) + (0.0,) * zeros + (0.000247506, -0.000995, 0.001)
    schedule = CoefficientSchedule.physical(UNITS, m=Polynomial(coeffs), k=1.0)
    assert validate(schedule, 1.0) == ["m: reaches zero near t=0.497, between two samples"]
    assert validate(schedule, 0.49) == []


def test_harmonic_mass_at_the_offset_amplitude_edge():
    # |offset| just above |amplitude|: one sign over any horizon
    above = Harmonic(1.0, -math.nextafter(1.0, 0.0), 3.0)
    assert _decision(above, 1e6, "mass") == (True, None)
    # just below: two zeros next to t = pi, between two samples of [0, 5]
    below = CoefficientSchedule.physical(UNITS, m=Harmonic(1.0, 1.0 + 1e-12, 1.0), k=1.0)
    assert validate(below, 5.0) == ["m: reaches zero near t=3.14159, between two samples"]
    # cos(omega t) stays above -1 / (1 + 1e-12) on [0, 3]
    assert validate(below, 3.0) == []
    assert _decision(below.profiles["m"], 3.0, "mass") == (True, None)
    # just below with the opposite amplitude: m(0) < 0 < m(0.02), which the samples see
    starts = CoefficientSchedule.physical(UNITS, m=Harmonic(1.0, -(1.0 + 1e-12), 1.0), k=1.0)
    problems = validate(starts, 5.0)
    assert len(problems) == 1 and problems[0].startswith("m: changes sign between t=0 and")


def test_only_unproved_profiles_are_sampled(monkeypatch):
    scanned = []
    scan = hamiltonian._scan
    monkeypatch.setattr(hamiltonian, "_scan",
                        lambda key, *rest: scanned.append(key) or scan(key, *rest))
    proved = CoefficientSchedule.algebraic(
        UNITS, alpha=ComplexParts(Harmonic(0.1, 0.2, 2.0), 0.3), beta=Polynomial((1.5, 0.1)),
        gamma=ComplexParts(Table((0.0, 5.0), (0.0, 1.0)), 0.0), delta=0.5)
    assert validate(proved, 5.0) == [] and scanned == []
    # a foreign callable, and a table that stops before the horizon
    foreign = CoefficientSchedule.physical(
        UNITS, m=lambda t: 1.0 + t, k=Table((0.0, 1.0), (1.0, 2.0)), F=Harmonic(0.0, 1.0, 2.0))
    problems = validate(foreign, 2.0)
    assert scanned == ["m", "k"]
    assert len(problems) == 1 and problems[0].startswith("k: evaluation failed at t=1.00781")


def test_wavefunction_refuses_a_phase_past_the_floats():
    frame = MotionFrame(t=0.0, f=1.0, g=0.0, varphi=1e308j)
    with pytest.raises(NumericalError, match=re.escape("(pbar/(2 hbar))(2x - xbar)")):
        wavefunction(frame, [-4.0, 0.0, 4.0], UNITS)
    # where (x - xbar)^2 overflows the Gaussian is 0, whatever its phase
    psi = wavefunction(MotionFrame(t=0.0, f=1.0, g=0.0, varphi=0.0), [-1e308, 1e308], UNITS)
    assert np.array_equal(psi, np.zeros(2))
    # and so it is where the phase is lost in a tail the Gaussian underflowed in
    frame = MotionFrame(t=0.0, f=1.0, g=0.0, varphi=1e300j)
    psi = wavefunction(frame, [0.0, 1e9], UNITS)
    assert psi[1] == 0.0 and psi[0] == wavefunction(frame, [0.0], UNITS)[0] != 0.0
