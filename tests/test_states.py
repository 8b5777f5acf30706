"""Number-basis expansion, normalization, and overlaps."""

import math
from collections import deque

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

import cssdyn.states
from cssdyn import (CoefficientSchedule, ConvergenceError, DomainError,
                    InitialConditions, MotionFrame, UnitContext, branch_windings,
                    evolve, fock_coefficients, normalization, overlap,
                    parameters, transition_probabilities)

from helpers import hyperboloid_frame, poisson_reference

UNITS = UnitContext()

VACUUM = MotionFrame(t=0.0, f=1.0, g=0.0, varphi=0.0)
COHERENT = MotionFrame(t=0.0, f=1.0, g=0.0, varphi=1.0)
SQUEEZED = MotionFrame(t=0.0, f=math.cosh(1.0), g=-math.sinh(1.0), varphi=0.0)


def hermite_direct(n, z):
    """Physicists' H_n at a complex point, through the series basis."""
    coeff = np.zeros(n + 1)
    coeff[n] = 1.0
    return hermval(z, coeff)


# ---------------------------------------------------------------------------
# displacement and squeeze parameters


def test_parameter_extraction():
    assert parameters(VACUUM).xi == 0.0
    assert parameters(VACUUM).zeta == 0.0
    sd = parameters(SQUEEZED)
    assert sd.zeta == pytest.approx(-math.tanh(1.0), abs=1e-15)
    assert sd.xi == 0.0
    assert parameters(COHERENT).xi == pytest.approx(1.0)


def test_squeeze_parameter_stays_inside_unit_disk():
    rng = np.random.default_rng(2)
    for _ in range(50):
        fr = hyperboloid_frame(rng, zeta_max=0.999)
        assert abs(parameters(fr).zeta) < 1.0


# ---------------------------------------------------------------------------
# normalization factor


def test_normalization_anchors():
    assert normalization(VACUUM) == pytest.approx(1.0)
    assert normalization(SQUEEZED) == pytest.approx(math.cosh(1.0) ** -0.5,
                                                    abs=1e-14)


def test_norm_factor_against_closed_sum():
    # |Phi|^2 * S = 1 with S the closed sum of |B_n|^2 / n! over the disk
    rng = np.random.default_rng(31)
    for _ in range(40):
        fr = hyperboloid_frame(rng, zeta_max=0.95, displacement=1.5)
        sd = parameters(fr)
        z2 = 1.0 - abs(sd.zeta) ** 2
        s_exact = math.exp((abs(sd.xi) ** 2
                            - (sd.zeta.conjugate() * sd.xi ** 2).real) / z2) \
            / math.sqrt(z2)
        mass = abs(normalization(fr)) ** 2 * s_exact
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_norm_factor_continuity_through_the_branch_cut():
    # moduli fixed, arg f sweeps a full turn; the square root must not jump
    r = 0.3
    thetas = np.linspace(0.0, 2.0 * math.pi, 181)
    frames = [MotionFrame(t=float(th), f=math.cosh(r) * np.exp(1j * th),
                          g=math.sinh(r) * np.exp(-1j * th), varphi=0.0)
              for th in thetas]
    windings = branch_windings(frames)
    values = [normalization(fr, winding=w) for fr, w in zip(frames, windings)]
    steps = np.abs(np.diff(values))
    assert steps.max() < 0.05
    # f^(-1/2) has period 4 pi in arg f: one loop lands on the other sheet
    assert values[-1] == pytest.approx(-values[0], abs=1e-12)


# ---------------------------------------------------------------------------
# number-basis coefficients


def test_vacuum_expands_to_single_term():
    dist = fock_coefficients(VACUUM)
    assert dist.coefficients[0] == pytest.approx(1.0)
    assert np.all(dist.probabilities[1:] == 0.0)
    assert dist.tail_bound == 0.0


def test_coherent_state_is_poisson():
    dist = fock_coefficients(COHERENT, tail_tolerance=1e-16)
    want = poisson_reference(1.0, dist.probabilities.size)
    assert np.max(np.abs(dist.probabilities - want)) < 1e-14
    assert dist.probabilities[0] == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_coherent_phases_follow_alternating_powers():
    # with g = 0: c_n / c_0 = (-xi)^n / sqrt(n!)
    frame = MotionFrame(t=0.0, f=1.0, g=0.0, varphi=0.6 + 0.8j)
    dist = fock_coefficients(frame, tail_tolerance=1e-16)
    c = dist.coefficients
    xi = parameters(frame).xi
    acc = c[0]
    for n in range(1, 12):
        acc = acc * (-xi) / math.sqrt(n)
        assert c[n] == pytest.approx(acc, rel=1e-13)


def test_squeezed_vacuum_even_ladder():
    dist = fock_coefficients(SQUEEZED, tail_tolerance=1e-14)
    p = dist.probabilities
    sech = 1.0 / math.cosh(1.0)
    assert p[0] == pytest.approx(sech, abs=1e-14)
    assert np.all(p[1::2] == 0.0)
    assert p[2] == pytest.approx(sech * math.tanh(1.0) ** 2 / 2.0, abs=1e-14)


def test_distribution_bookkeeping_invariants():
    rng = np.random.default_rng(41)
    for tol in (1e-8, 1e-10, 1e-12):
        fr = hyperboloid_frame(rng, zeta_max=0.9)
        dist = fock_coefficients(fr, tail_tolerance=tol, n_max=65536)
        assert dist.tail_bound < tol
        assert dist.truncation == dist.coefficients.size - 1
        total = np.sum(dist.probabilities) + dist.tail_bound
        assert 1.0 - 2.0 * tol <= total <= 1.0 + 2.0 * tol


def test_probabilities_shortcut_matches_coefficients():
    rng = np.random.default_rng(43)
    for _ in range(10):
        fr = hyperboloid_frame(rng, zeta_max=0.85)
        p = transition_probabilities(fr, tail_tolerance=1e-12, n_max=65536)
        dist = fock_coefficients(fr, tail_tolerance=1e-12, n_max=65536)
        assert p.size == dist.probabilities.size
        assert np.array_equal(p, dist.probabilities)


def test_completeness_for_moderate_squeezing():
    rng = np.random.default_rng(47)
    for _ in range(15):
        fr = hyperboloid_frame(rng, zeta_max=0.9, displacement=1.5)
        p = transition_probabilities(fr, tail_tolerance=1e-10, n_max=65536)
        assert abs(np.sum(p) - 1.0) < 2e-10


def test_recurrence_matches_hermite_definition():
    """B_n against (g/2f)^{n/2} H_n(varphi / sqrt(2 g f)) for n <= 10.

    f is kept real positive so the principal square roots of the two
    factors pair consistently.
    """
    rng = np.random.default_rng(53)
    for _ in range(12):
        r = 0.8 * rng.uniform()
        f = 1.0 / math.sqrt(1.0 - r * r)
        g = r * f * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        varphi = (rng.normal() + 1j * rng.normal()) / math.sqrt(2.0)
        fr = MotionFrame(t=0.0, f=f, g=complex(g), varphi=complex(varphi))
        dist = fock_coefficients(fr, tail_tolerance=1e-16, n_max=65536)
        phi0 = normalization(fr)
        fact = 1.0
        for n in range(min(11, dist.coefficients.size)):
            if n > 0:
                fact *= n
            b_rec = (-1.0) ** n * dist.coefficients[n] * math.sqrt(fact) / phi0
            b_def = np.sqrt(g / (2.0 * f)) ** n \
                * hermite_direct(n, varphi / np.sqrt(2.0 * g * f))
            assert abs(b_rec - b_def) < 1e-10


def test_probabilities_are_branch_free():
    # squared moduli computed from the direct Hermite form with independent
    # principal roots must agree whatever branch each root picked
    rng = np.random.default_rng(59)
    for _ in range(8):
        fr = hyperboloid_frame(rng, zeta_max=0.8, displacement=1.2)
        if fr.g == 0:
            continue
        dist = fock_coefficients(fr, tail_tolerance=1e-16, n_max=65536)
        phi2 = abs(normalization(fr)) ** 2
        fact = 1.0
        for n in range(min(13, dist.coefficients.size)):
            if n > 0:
                fact *= n
            b = np.sqrt(fr.g / (2.0 * fr.f)) ** n \
                * hermite_direct(n, fr.varphi / np.sqrt(2.0 * fr.g * fr.f))
            direct = phi2 * abs(b) ** 2 / fact
            assert dist.probabilities[n] == pytest.approx(direct, rel=1e-10,
                                                          abs=1e-12)


def test_weak_squeezing_approaches_displaced_limit():
    frame = MotionFrame(t=0.0, f=math.sqrt(1.0 + 1e-12), g=1e-6, varphi=0.9)
    dist = fock_coefficients(frame, tail_tolerance=1e-14)
    want = poisson_reference(0.9, dist.probabilities.size)
    assert np.max(np.abs(dist.probabilities - want)) < 1e-5


def test_tail_refusal_reports_squeeze():
    frame = MotionFrame(t=0.0, f=1.0 / math.sqrt(1.0 - 0.999 ** 2),
                        g=0.999 / math.sqrt(1.0 - 0.999 ** 2), varphi=0.0)
    with pytest.raises(ConvergenceError) as err:
        fock_coefficients(frame, tail_tolerance=1e-10, n_max=64)
    assert "0.999" in str(err.value)


def test_bad_expansion_arguments():
    with pytest.raises(Exception):
        fock_coefficients(VACUUM, tail_tolerance=0.0)
    with pytest.raises(Exception):
        fock_coefficients(VACUUM, n_max=1)


# ---------------------------------------------------------------------------
# the blocked engine against the plain scalar recurrence


def scalar_reference(frame, tail_tolerance, n_max, winding=0):
    """(c, P, truncation, tail_bound) from the level-by-level recurrence.

    The one-level-at-a-time loop with the certification rule inline, kept
    as the oracle for the blocked engine in cssdyn.states.
    """
    par = parameters(frame)
    xi, zeta = complex(par.xi), complex(par.zeta)
    phi = normalization(frame, winding)
    weight = abs(phi) ** 2
    zeta2 = zeta.real * zeta.real + zeta.imag * zeta.imag
    d = [1.0 + 0.0j, -xi]
    p = [1.0, abs(xi) ** 2]

    def done(top, bound):
        c = phi * np.array(d[:top + 1])
        return c, weight * np.array(p[:top + 1]), top, bound

    d_prev, d_cur = d
    even_e = 0.0
    prev_pair = p[0] + p[1]
    ratios = deque(maxlen=16)
    streak = 0
    for n in range(1, n_max):
        root = math.sqrt(n + 1.0)
        d_next = -(xi * d_cur) / root - (math.sqrt(n) / root) * (zeta * d_prev)
        d_prev, d_cur = d_cur, d_next
        q = d_cur.real * d_cur.real + d_cur.imag * d_cur.imag
        d.append(d_cur)
        p.append(q)
        if q == 0.0 and d_prev == 0:
            nz = np.nonzero(p)[0]
            return done(int(nz[-1]) if nz.size else 0, 0.0)
        if (n + 1) & 1 == 0:
            even_e = q
            continue
        pair = even_e + q
        ratio = pair / prev_pair if prev_pair > 0.0 else math.inf
        prev_pair = pair
        ratios.append(ratio)
        streak = streak + 1 if ratio < 1.0 else 0
        if streak >= 16 and weight * pair <= tail_tolerance:
            rho = max(max(ratios), zeta2)
            if rho < 1.0:
                bound = weight * pair * rho / (1.0 - rho)
                if bound <= tail_tolerance:
                    return done(n + 1, float(bound))
    raise ConvergenceError(
        f"tail not certified below {tail_tolerance:g} within n_max={n_max} "
        f"(|zeta| = {abs(zeta):.8f}, last pair mass {weight * prev_pair:.3e})")


def squeezed_frame(r, varphi, f_phase=0.0, g_phase=0.0):
    """|zeta| = r exactly in modulus, with the given phases and displacement."""
    f = np.exp(1j * f_phase) / math.sqrt(1.0 - r * r)
    return MotionFrame(t=0.0, f=complex(f), g=complex(r * f * np.exp(1j * g_phase)),
                       varphi=complex(varphi))


def engine_regimes():
    rng = np.random.default_rng(71)
    frames = [VACUUM, COHERENT]
    for mod in (0.5, 2.0, 4.0, 6.0):  # coherent, |xi| up to 6
        frames.append(MotionFrame(t=0.0, f=1.0, g=0.0,
                                  varphi=complex(mod * np.exp(2j * math.pi * rng.uniform()))))
    for r in (0.3, 0.9, 0.99, 0.999):  # squeezed vacuum
        frames.append(squeezed_frame(r, 0.0, *rng.uniform(0.0, 2.0 * math.pi, 2)))
    for r in (0.2, 0.6, 0.95, 0.995):  # displaced and squeezed, displacement 3
        varphi = 3.0 * np.exp(2j * math.pi * rng.uniform())
        frames.append(squeezed_frame(r, varphi, *rng.uniform(0.0, 2.0 * math.pi, 2)))
    return frames


def assert_same_expansion(frame, tol, n_max, winding):
    c_ref, p_ref, top, bound = scalar_reference(frame, tol, n_max, winding)
    dist = fock_coefficients(frame, tol, n_max, winding)
    p = transition_probabilities(frame, tol, n_max)
    assert dist.truncation == top
    assert p.size == top + 1
    assert dist.tail_bound == pytest.approx(bound, rel=1e-12, abs=0.0)
    scale = np.max(p_ref)
    assert np.max(np.abs(dist.probabilities - p_ref)) <= 1e-13 * scale
    assert np.max(np.abs(p - p_ref)) <= 1e-13 * scale
    assert np.max(np.abs(dist.coefficients - c_ref)) <= 1e-13 * np.max(np.abs(c_ref))


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-16])
def test_engine_matches_scalar_reference(tol):
    for i, frame in enumerate(engine_regimes()):
        assert_same_expansion(frame, tol, 200_000, winding=i % 2)


def test_engine_matches_scalar_reference_deep():
    # about 2.4e5 levels: blocks some 90 levels wide
    assert_same_expansion(squeezed_frame(0.9999, 0.01, 0.3, 1.9), 1e-10, 1_000_000, 0)


def test_depth_prediction_allocates_close_to_the_truncation():
    # the engine's one allocation: a few percent over, never many times over
    for frame in engine_regimes()[1:]:
        par = parameters(frame)
        weight = abs(normalization(frame)) ** 2
        for tol in (1e-8, 1e-16):
            top = transition_probabilities(frame, tol, 200_000).size - 1
            guess = cssdyn.states._predict_depth(complex(par.xi), complex(par.zeta),
                                                 weight, tol)
            assert top <= guess <= 1.1 * top + 16


def test_growth_and_chunking_keep_the_rule(monkeypatch):
    # a far too shallow first guess and tiny chunks: every carry is exercised
    monkeypatch.setattr(cssdyn.states, "_predict_depth", lambda *args: 40)
    monkeypatch.setattr(cssdyn.states, "_CHUNK", 5)
    for frame in (COHERENT, squeezed_frame(0.99, 0.0, 0.4, 2.2),
                  squeezed_frame(0.95, 3.0, 1.0, 0.3)):
        assert_same_expansion(frame, 1e-12, 200_000, 0)


@pytest.mark.parametrize("n_max", [2, 3, 40, 41, 64, 65])
def test_refusal_matches_scalar_reference(n_max):
    for frame in (squeezed_frame(0.999, 0.0, 0.0, 1.0),
                  MotionFrame(t=0.0, f=1.0, g=0.0, varphi=6.0j),
                  squeezed_frame(0.995, 3.0)):
        with pytest.raises(ConvergenceError) as want:
            scalar_reference(frame, 1e-16, n_max)
        with pytest.raises(ConvergenceError) as got:
            fock_coefficients(frame, 1e-16, n_max)
        assert str(got.value) == str(want.value)
        with pytest.raises(ConvergenceError) as got:
            transition_probabilities(frame, 1e-16, n_max)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("frame", [
    squeezed_frame(0.99999, 0.0),                        # needs about 1e6 levels
    squeezed_frame(0.995, 300.0),                        # overflows float64
    MotionFrame(t=0.0, f=1.0, g=0.0, varphi=40.0),       # |Phi|^2 underflows
])
def test_degenerate_frames_refuse_like_scalar_reference(frame):
    for n_max in (64, 5000):
        with pytest.raises(ConvergenceError) as want:
            scalar_reference(frame, 1e-10, n_max)
        for expand in (fock_coefficients, transition_probabilities):
            with pytest.raises(ConvergenceError) as got:
                expand(frame, 1e-10, n_max)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("frame", [
    MotionFrame(t=0.0, f=1.0, g=2.0, varphi=0.0),        # |zeta| = 2
    MotionFrame(t=0.0, f=1.0, g=-1.0j, varphi=0.5),      # |zeta| = 1
    MotionFrame(t=0.0, f=0.0, g=0.0, varphi=0.0),
])
def test_unit_or_larger_zeta_is_refused_up_front(frame, monkeypatch):
    # no normalizable state: refused before the recurrence takes a step,
    # instead of spending n_max levels on a ConvergenceError
    def no_march(*args):
        raise AssertionError("the recurrence started")

    monkeypatch.setattr(cssdyn.states, "_march", no_march)
    for expand in (normalization, fock_coefficients, transition_probabilities,
                   lambda fr: overlap(VACUUM, fr)):
        with pytest.raises(DomainError, match=r"\|g\| >= \|f\|"):
            expand(frame)


NON_FINITE = [
    MotionFrame(t=0.0, f=complex(math.nan, 0.0), g=0.0, varphi=0.0),
    MotionFrame(t=0.0, f=1.0, g=complex(0.0, math.inf), varphi=0.0),
    MotionFrame(t=0.0, f=1.0, g=0.0, varphi=complex(math.nan, 1.0)),
]


@pytest.mark.parametrize("frame", NON_FINITE)
def test_normalization_refuses_non_finite_frames(frame):
    with pytest.raises(DomainError, match="not finite"):
        normalization(frame)


@pytest.mark.parametrize("frame", NON_FINITE)
def test_transition_probabilities_refuse_non_finite_frames(frame):
    with pytest.raises(DomainError, match="not finite"):
        transition_probabilities(frame)


@pytest.mark.parametrize("frame", NON_FINITE)
def test_overlap_refuses_non_finite_frames(frame):
    with pytest.raises(DomainError, match="not finite"):
        overlap(VACUUM, frame)
    with pytest.raises(DomainError, match="not finite"):
        overlap(frame, VACUUM)


def test_exact_zero_termination_matches_scalar_reference():
    # vacuum ends at once; an underflowing squeeze or displacement ends when
    # two consecutive coefficients reach exact zero, before any streak
    for frame in (VACUUM,
                  MotionFrame(t=0.0, f=1.0, g=1e-30, varphi=0.0),
                  MotionFrame(t=0.0, f=1.0, g=0.0, varphi=1e-20),
                  MotionFrame(t=0.0, f=1.0, g=1e-200, varphi=1e-200)):
        c_ref, p_ref, top, bound = scalar_reference(frame, 1e-16, 4096)
        assert bound == 0.0
        dist = fock_coefficients(frame, 1e-16, 4096)
        assert (dist.truncation, dist.tail_bound) == (top, 0.0)
        assert np.array_equal(dist.coefficients, c_ref)
        assert np.array_equal(dist.probabilities, p_ref)
        assert np.array_equal(transition_probabilities(frame, 1e-16, 4096), p_ref)


# ---------------------------------------------------------------------------
# evolving families keep their character


def test_pure_squeezing_keeps_zero_displacement():
    # gamma = 0 freezes varphi, so xi stays 0 when it starts there
    sched = CoefficientSchedule.algebraic(UNITS, alpha=0.7, beta=1.2)
    frames = evolve(sched, InitialConditions(), np.linspace(0.0, 3.0, 31))
    for fr in frames:
        assert abs(parameters(fr).xi) < 1e-12


def test_pure_displacement_keeps_zero_squeeze():
    # alpha = 0 decouples g from f, so g stays 0 when it starts there
    sched = CoefficientSchedule.algebraic(UNITS, beta=1.2, gamma=0.5 - 0.3j)
    frames = evolve(sched, InitialConditions(), np.linspace(0.0, 3.0, 31))
    for fr in frames:
        assert abs(parameters(fr).zeta) < 1e-10


# ---------------------------------------------------------------------------
# overlaps


def test_self_overlap_is_exactly_normalized():
    rng = np.random.default_rng(61)
    for _ in range(20):
        fr = hyperboloid_frame(rng, zeta_max=0.95, displacement=1.5)
        assert overlap(fr, fr) == pytest.approx(1.0, abs=1e-12)


def test_vacuum_coherent_overlap_magnitude():
    value = overlap(VACUUM, COHERENT)
    assert abs(value) == pytest.approx(math.exp(-0.5), abs=1e-14)


def test_overlap_against_series_inner_product():
    rng = np.random.default_rng(67)
    for _ in range(10):
        fr1 = hyperboloid_frame(rng, zeta_max=0.85, displacement=1.2)
        fr2 = hyperboloid_frame(rng, zeta_max=0.85, displacement=1.2)
        closed = overlap(fr1, fr2)
        c1 = fock_coefficients(fr1, tail_tolerance=1e-20, n_max=8192).coefficients
        c2 = fock_coefficients(fr2, tail_tolerance=1e-20, n_max=8192).coefficients
        n = min(c1.size, c2.size)
        series = np.sum(np.conj(c1[:n]) * c2[:n])
        assert closed == pytest.approx(series, abs=1e-10)
