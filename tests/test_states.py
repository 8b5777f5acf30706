"""Number-basis expansion, normalization, and overlaps."""

import math
from collections import deque

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

import cssdyn.states
from cssdyn import (CoefficientSchedule, ConvergenceError, DomainError,
                    InitialConditions, MotionFrame, NumericalError, UnitContext, branch_windings,
                    evolve, fock_coefficients, fock_wavefunction, normalization, overlap,
                    parameters, transition_probabilities, wavefunction)

from helpers import DRIVEN_SCHEDULE, driven_frames, hyperboloid_frame, poisson_reference

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


def test_windings_of_no_frames_are_empty():
    assert branch_windings([]) == []


def test_windings_are_the_unwrap_of_each_frames_angle():
    # arg f turns about seven times; np.angle over the f column is the
    # per-frame np.angle bit for bit, so the unwrap counts the same crossings
    frames = evolve(CoefficientSchedule.algebraic(UNITS, alpha=0.4, beta=3.0),
                    InitialConditions(), np.linspace(0.0, 15.0, 301))
    args = np.array([np.angle(fr.f) for fr in frames])
    unwrapped = np.unwrap(args)
    unwrapped += args[0] - unwrapped[0]
    want = [int(round(w)) for w in (unwrapped - args) / (2.0 * np.pi)]
    assert branch_windings(frames) == want
    assert max(want) >= 3


@pytest.mark.parametrize("f", [complex("nan"), complex(math.inf, 0.0)], ids=["nan", "inf"])
def test_windings_refuse_a_non_finite_f(f):
    # a NaN raised a bare ValueError from int(round(w)); an infinite f, whose
    # np.angle is finite, got a winding
    frames = [MotionFrame(0.0, 1.0, 0j, 0j), MotionFrame(1.0, f, 0j, 0j),
              MotionFrame(2.0, 1.0, 0j, 0j)]
    with pytest.raises(DomainError, match=r"^frame at t = 1\.0 has a non-finite f"):
        branch_windings(frames)


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
    p = [1.0, xi.real * xi.real + xi.imag * xi.imag]

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
        if q == 0.0 and p[-2] == 0.0 and ((n + 1) & 1 or n + 1 == n_max):  # a zero pair
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


def march_oracle(xi, zeta, edge, lo, hi, p, d):
    """The blocked march as it divided by sqrt(n + 1) in complex arithmetic
    and converted the scalar pass's pairs from tuples: states._march must
    write the same bits."""
    def store(where, values):
        p[where] = values.real * values.real + values.imag * values.imag
        if d is not None:
            d[where] = values

    m = hi - lo
    width = max(1, int(math.sqrt(m / cssdyn.states._KAPPA)))
    nb, rem = divmod(m, width) if width > 1 else (0, m)
    x0, x1 = edge
    values = []
    for n in range(lo, lo + rem):
        root = math.sqrt(n + 1.0)
        x0, x1 = x1, -(xi * x1) / root - (math.sqrt(n) / root) * (zeta * x0)
        values.append(x1)
    first = lo + rem
    if rem:
        store(slice(lo + 1, first + 1), np.array(values))
    if not nb:
        return x0, x1
    mxi, mzeta = -xi, -zeta
    starts = first + width * np.arange(nb, dtype=float)
    root = np.sqrt(starts)
    root1 = np.sqrt(starts + 1.0)
    prev = np.zeros((2, nb), dtype=complex)
    prev[1] = 1.0
    cur = np.array([mzeta * (root / root1), mxi / root1])
    for j in range(1, width):
        root = root1
        root1 = np.sqrt(starts + (j + 1.0))
        prev, cur = cur, (mxi / root1) * cur + (mzeta * (root / root1)) * prev
    heads = [(x0, x1)]
    for u0, v0, u1, v1 in zip(prev[0].tolist(), prev[1].tolist(),
                              cur[0].tolist(), cur[1].tolist()):
        x0, x1 = u0 * x0 + v0 * x1, u1 * x0 + v1 * x1
        heads.append((x0, x1))
    pairs = np.array(heads)
    store(slice(first + width, hi + 1, width), pairs[1:, 1])
    block = slice(first + 1, hi + 1)
    block_p = p[block].reshape(nb, width)
    block_d = d[block].reshape(nb, width) if d is not None else None
    prev, cur = pairs[:-1, 0], pairs[:-1, 1]
    root1 = np.sqrt(starts)
    for j in range(width - 1):
        root = root1
        root1 = np.sqrt(starts + (j + 1.0))
        prev, cur = cur, (mxi / root1) * cur + (mzeta * (root / root1)) * prev
        block_p[:, j] = cur.real * cur.real + cur.imag * cur.imag
        if block_d is not None:
            block_d[:, j] = cur
    return x0, x1


MARCH_PARAMETERS = [  # (xi, zeta)
    (complex(0.0, 0.8), 0.5 + 0.3j),                 # xi.real = +0
    (complex(-0.0, -0.8), -0.6 + 0.2j),              # xi.real = -0
    (complex(0.0, -0.8), 0.4 - 0.5j),
    (complex(1.2, 0.0), complex(0.6, 0.0)),          # xi.imag = +0, real zeta
    (0.3 - 1.1j, complex(0.0, 0.95)),                # purely imaginary zeta
    (0.02 + 0.01j, complex(-0.0, -0.99999)),
    (complex(3e-320, 1.1), complex(0.7, -4e-318)),   # subnormal parts
    (complex(-1.2, -5e-324), complex(1e-310, 0.9)),
    (0.01 * np.exp(0.7j), 0.99999 * np.exp(2.1j)),   # deep squeezing
]


@pytest.mark.parametrize("levels, width", [(100, 1), (3_300, 10), (260_000, 90),
                                           (2_510_000, 280)])
def test_march_writes_the_oracles_bits(levels, width):
    assert max(1, int(math.sqrt(levels / cssdyn.states._KAPPA))) == width
    cases = enumerate(MARCH_PARAMETERS)
    if levels > 10**5:  # keeps the test quick (subnormal arithmetic is slow)
        cases = [case for case in cases if case[0] in ((0, 2, 4, 6, 8), (1, 4))[levels > 10**6]]
    for i, (xi, zeta) in cases:
        xi, zeta = complex(xi), complex(zeta)
        # from the engine's start, and from a pair in the middle of an expansion
        lo, edge = (1, (1.0 + 0.0j, -xi)) if i % 2 else (7, (0.3 - 0.2j, -0.0 + 0.4j))
        for keep in (True, False):
            runs = []
            for march in (march_oracle, cssdyn.states._march):
                p = np.zeros(lo + levels + 1)
                d = np.zeros(lo + levels + 1, dtype=complex) if keep else np.zeros(0)
                with np.errstate(over="ignore", invalid="ignore"):  # as in _expand
                    last = march(xi, zeta, edge, lo, lo + levels, p, d if keep else None)
                runs.append([np.array(last), p, d])
            for want, got in zip(*runs):  # the bytes: NaN, -0.0 and subnormals included
                assert np.array_equal(want.view(np.uint64), got.view(np.uint64)), (xi, zeta, keep)


def test_numpy_divides_a_complex_scalar_by_floats_through_the_reciprocal():
    # _march forms mxi / root1 as ((re + im*0.0) * s, (im - re*0.0) * s),
    # s = 1.0 / root1; a numpy that divides otherwise fails here instead of
    # shifting the bits of every expansion
    rng = np.random.default_rng(29)
    r = np.concatenate([np.sqrt(np.arange(1.0, 65.0)), np.sqrt(rng.uniform(1.0, 3e6, 64)),
                        10.0 ** rng.uniform(-3.0, 6.0, 64)])
    s = 1.0 / r
    for _ in range(2000):
        re, im = (rng.choice([-1.0, 1.0]) * rng.choice([
            0.0, 5e-324 * float(rng.integers(1, 2**52)), 10.0 ** rng.uniform(-300.0, 3.0),
            10.0 ** rng.uniform(200.0, 308.0)]) for _ in range(2))
        want = np.empty(r.size, dtype=complex)
        with np.errstate(over="ignore"):
            want.real = (re + im * 0.0) * s
            want.imag = (im - re * 0.0) * s
            got = complex(re, im) / r
        assert got.tobytes() == want.tobytes(), complex(re, im)


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


def scalar_rule(p, top, weight, zeta2, tail_tolerance):
    """The truncation rule that scalar_reference runs inline, reading the
    pairs of levels 0..top of a given array: None, (2k + 1, bound) for the
    first pair that certifies, or (last nonzero level, 0.0) for the first
    pair that is exactly zero.  A lone last level (an even top) belongs to
    no pair; the even-n_max clause of scalar_reference is _expand's."""
    p = [float(x) for x in p[:top + 1]]
    prev_pair = sum(p[:2])
    ratios = deque(maxlen=16)
    streak = 0
    for k in range(1, (top + 1) // 2):
        if p[2 * k] == 0.0 and p[2 * k + 1] == 0.0:
            nz = np.nonzero(p[:2 * k + 2])[0]
            return (int(nz[-1]) if nz.size else 0), 0.0
        pair = p[2 * k] + p[2 * k + 1]
        ratio = pair / prev_pair if prev_pair > 0.0 else math.inf
        prev_pair = pair
        ratios.append(ratio)
        streak = streak + 1 if ratio < 1.0 else 0
        if streak >= 16 and weight * pair <= tail_tolerance:
            rho = max(max(ratios), zeta2)
            if rho < 1.0:
                bound = weight * pair * rho / (1.0 - rho)
                if bound <= tail_tolerance:
                    return 2 * k + 1, float(bound)
    return None


def falling(rng, pairs, n, lo=0.3, hi=0.95):
    """Append n level pairs whose sums fall by ratios in [lo, hi]."""
    for _ in range(n):
        e = sum(pairs[-1]) * rng.uniform(lo, hi)
        share = rng.uniform()
        pairs.append((e * share, e - e * share))


def sawtooth(rng, n):
    """n level pairs, (P_2k, P_2k+1), that never hold a streak: runs of 1 to
    15 falling pairs, each ended by a pair ratio of exactly 1 (the last
    pair repeated) in about half the runs, then by a jump back to 1 or more."""
    pairs = [(1.0, 0.5)]
    while len(pairs) < n:
        falling(rng, pairs, int(rng.integers(1, 16)))
        if rng.uniform() < 0.5:
            pairs.append(pairs[-1])
        e, share = max(1.0, 1.01 * sum(pairs[-1])) * rng.uniform(1.0, 1.5), rng.uniform()
        pairs.append((e * share, e - e * share))
    return pairs[:n]


def certifying_at(rng, k, tol, extra=20, lo=0.3, hi=0.6):
    """(levels, weight) whose pair k is the first to certify at tail tol:
    a sawtooth, a repeated pair k - 16, then pairs falling by ratios in
    [lo, hi], so that the streak reaches 16 at pair k; the weight puts the
    mass of pair k at tol / 2."""
    pairs = sawtooth(rng, k - 16)
    pairs.append(pairs[-1])
    falling(rng, pairs, 16 + extra, lo, hi)
    p = np.array(pairs).ravel()
    return p, 0.5 * tol / (p[2 * k] + p[2 * k + 1])


def synthetic_cases(rng, chunk):
    """(name, p, top, weight, zeta2, tol, expected) level arrays that hold
    the rule's rare cases at the chunk boundaries of a chunk size; expected
    is the outcome the case must reach: "certified", "zero", None, or the
    certified truncation itself."""
    tol = 1e-10
    k = 1 + chunk * -(-16 // chunk)  # the first chunk opener with 16 pairs before it
    p, weight = certifying_at(rng, k, tol)
    yield "certifying pair opens a chunk", p, p.size - 1, weight, 0.25, tol, 2 * k + 1
    yield "rho >= 1 certifies nothing", p, p.size - 1, weight, 1.0, tol, None
    levels = np.array(sawtooth(rng, k + 10)).ravel()
    for zero in (k - 1, k, k + 1):  # a zero pair just before, at, just after a boundary
        q = levels.copy()
        q[2 * zero:2 * zero + 2] = 0.0
        if rng.uniform() < 0.5:
            q[2 * zero - 1] = 0.0  # the last nonzero level is 2 zero - 2
        yield f"zero pair {zero - k:+d} from a chunk opener", q, q.size - 1, 1.0, 0.25, tol, "zero"
    tie = p.copy()
    tie[2 * k:2 * k + 2] = 0.0
    yield "zero pair tied with a certified one", tie, tie.size - 1, weight, 0.25, tol, "zero"
    after = p.copy()
    after[2 * k + 2:2 * k + 4] = 0.0
    yield "certified pair before a zero pair", after, after.size - 1, weight, 0.25, tol, 2 * k + 1
    yield "even top past the certified pair", p, 2 * k + 2, weight, 0.25, tol, 2 * k + 1
    lone = p.copy()
    lone[2 * k - 1] = lone[2 * k] = 0.0  # zero levels that straddle two pairs
    lone[2 * k + 1:] = 0.0  # never read: with level 2k, a zero pair
    yield "even top with a lone last level", lone, 2 * k, weight, 0.25, tol, None
    broken = p.copy()
    broken[2 * k - 9] = math.nan  # a NaN level in the streak
    yield "NaN in the streak", broken, broken.size - 1, weight, 0.25, tol, "certified"
    opened = p.copy()
    opened[2 * k - 32] = math.inf  # the pair before the streak: then a ratio of 0
    yield "inf before the streak", opened, opened.size - 1, weight, 0.25, tol, 2 * k + 1
    # pairs spanning several chunks, where _certify first scans for the first
    # pair that can end the expansion, k*, and reads the rule from k* - 32 on:
    # a fall steep enough that no pair before k has a mass within tol
    k = 1 + chunk * (2 + -(-40 // chunk)) + 32  # 2 _WINDOW past a chunk opener
    p, weight = certifying_at(rng, k, tol, lo=1e-3, hi=1e-2)
    yield "certifying pair 2 _WINDOW past a chunk opener", p, p.size - 1, weight, 0.25, tol, \
        2 * k + 1
    for dip, name in ((40, "mass dips below the limit chunks early, no streak"),
                      (5, "restart clamped to pair 1")):
        low = p.copy()
        low[2 * dip - 2:2 * dip] = low[2 * dip - 4:2 * dip - 2]  # a ratio of 1 before it
        low[2 * dip:2 * dip + 2] = 1e-300
        yield name, low, low.size - 1, weight, 0.25, tol, 2 * k + 1
    odd = p.copy()
    odd[2 * (k // 2)] = math.nan
    odd[2 * (k - 33) + 1] = math.inf  # the pair before the restart
    yield "NaN and inf pairs in skipped chunks", odd, odd.size - 1, weight, 0.25, tol, 2 * k + 1
    zero = p.copy()
    zero[2 * k + 10:2 * k + 12] = 0.0
    yield "zeta2 >= 1, a zero pair chunks in", zero, zero.size - 1, weight, 1.0, tol, "zero"
    yield "zeta2 >= 1, no zero pair", p, p.size - 1, weight, 1.0, tol, None


def random_cases(rng, count):
    """Short seeded level arrays mixing sawtooths, geometric tails, ratios
    of exactly 1, zero pairs, NaN and inf levels, and tops of both parities
    with unread levels past them."""
    for i in range(count):
        pairs = sawtooth(rng, int(rng.integers(1, 60)))
        # the weight puts tol near the mass of a pair of the geometric tail
        at = len(pairs) - 1
        if rng.uniform() < 0.7:
            fall = int(rng.integers(10, 80))
            falling(rng, pairs, fall, 0.3, rng.uniform(0.5, 1.0))
            at += int(rng.integers(1, fall + 1))
        weight = 1e-10 / sum(pairs[at]) * 10 ** rng.uniform(-1, 1)
        p = np.array(pairs).ravel()
        for value in (0.0, math.nan, math.inf):
            if rng.uniform() < 0.25:
                at = 2 * int(rng.integers(1, p.size // 2)) if p.size > 2 else 0
                p[at:at + int(rng.integers(1, 3))] = value
        top = p.size - 1 - int(rng.integers(0, min(4, p.size)))
        p[top + 1:] = 0.0  # never read: they would make zero pairs
        zeta2 = float(rng.choice([0.0, rng.uniform(0.0, 0.9), rng.uniform(0.9, 0.999), 1.0]))
        yield f"random {i}", p, top, weight, zeta2, 1e-10, "any"


def test_certify_is_the_scalar_rule_on_synthetic_levels(monkeypatch):
    # frame-derived levels rarely reach these cases; the rule must not
    # depend on where its chunks fall
    rng = np.random.default_rng(26)
    chunks = (1, 5, 16, cssdyn.states._CHUNK)
    cases = [*random_cases(rng, 200)]
    for chunk in chunks:
        cases.extend(synthetic_cases(rng, chunk))
    outcomes = set()
    for name, p, top, weight, zeta2, tol, expected in cases:
        want = scalar_rule(p, top, weight, zeta2, tol)
        kind = None if want is None else "zero" if want[1] == 0.0 else "certified"
        assert expected in ("any", kind) or (want and want[0] == expected), (name, want)
        outcomes.add(kind)
        for chunk in chunks:
            if top > 4000 * chunk:  # keeps the test quick; every chunk size sees each case kind
                continue
            monkeypatch.setattr(cssdyn.states, "_CHUNK", chunk)
            with np.errstate(over="ignore", invalid="ignore"):  # as in _expand
                got = cssdyn.states._certify(p, top, weight, zeta2, tol)
            assert repr(got) == repr(want), (name, chunk)
    assert outcomes == {None, "zero", "certified"}


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


@pytest.mark.parametrize("varphi, weight", [(27.0, "2.51e-317"), (28.0, "0")])
def test_a_subnormal_weight_over_overflowing_levels_is_refused(varphi, weight):
    # |Phi|^2 = exp(-varphi^2) is subnormal at 27 and 0 at 28, while the
    # peak levels' |d_n|^2 overflow: the weighted probabilities were inf
    # (their sum inf) at 27 and NaN at 28
    frame = MotionFrame(t=0.5, f=1.0, g=0.0, varphi=varphi)
    for expand in (fock_coefficients, transition_probabilities):
        with pytest.raises(NumericalError, match=f"at t = 0.5: .*[|]Phi[|]\\^2 = {weight} ") as got:
            expand(frame)
        assert got.value.t == 0.5 and not isinstance(got.value, ConvergenceError)
    # one level lower the weight is normal and bounds every level
    normal = MotionFrame(t=0.5, f=1.0, g=0.0, varphi=26.0)
    assert np.isfinite(transition_probabilities(normal)).all()


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
    # vacuum ends at once; an underflowing squeeze or displacement ends at
    # its first pair of probabilities that is exactly zero, before any streak
    for frame in (VACUUM,
                  MotionFrame(t=0.0, f=1.0, g=1e-30, varphi=0.0),
                  MotionFrame(t=0.0, f=1.0, g=0.0, varphi=1e-20),
                  MotionFrame(t=0.0, f=1.0, g=1e-200, varphi=1e-200),
                  # |xi|^2 rounds up to the least subnormal, xr^2 + xi^2 to 0
                  MotionFrame(t=0.0, f=1.0, g=0.0, varphi=complex(1.2728e-162, 1.2728e-162))):
        c_ref, p_ref, top, bound = scalar_reference(frame, 1e-16, 4096)
        assert bound == 0.0
        dist = fock_coefficients(frame, 1e-16, 4096)
        assert (dist.truncation, dist.tail_bound) == (top, 0.0)
        assert np.array_equal(dist.coefficients, c_ref)
        assert np.array_equal(dist.probabilities, p_ref)
        assert np.array_equal(transition_probabilities(frame, 1e-16, 4096), p_ref)


def test_a_zero_pair_ends_the_expansion_at_the_last_nonzero_level():
    # P_n = (4e-10)^n / n! reaches 0.0 at level 31 while d_31 is still about
    # 2e-163: the zero pair E_16 = P_32 + P_33 ends the expansion at level 30
    frame = MotionFrame(t=0.0, f=1.0, g=0.0, varphi=2e-5)
    dist = fock_coefficients(frame)
    assert (dist.truncation, dist.tail_bound) == (30, 0.0)
    assert dist.probabilities[30] > 0.0
    assert np.array_equal(transition_probabilities(frame), dist.probabilities)
    assert_same_expansion(frame, cssdyn.states.TAIL_TOLERANCE, cssdyn.states.N_MAX, 0)
    # n_max = 2 leaves level 2 without a pair: P_1 = P_2 = 0 ends it there
    for n_max in (2, 3, 4):
        dist = fock_coefficients(VACUUM, n_max=n_max)
        assert (dist.truncation, dist.tail_bound) == (0, 0.0)
        assert np.array_equal(transition_probabilities(VACUUM, n_max=n_max), [1.0])


def test_depth_estimate_past_the_float_range_keeps_the_rule():
    # a zero threshold, weight / threshold past the floats and guess / |xi|^2
    # past 1e154 each made the depth estimate raise a bare Python exception
    frames = [MotionFrame(t=0.0, f=1.0, g=0.0, varphi=1e-100)]
    for r in (0.0, 1e-320, 1e-160, 1e-100, 1e-5, 0.5, 0.94):
        for x in (0.0, 1e-320, 1e-160, 1e-100, 2e-5, 1.0, 3.0):
            frames.append(squeezed_frame(r, x * np.exp(0.7j), 0.3, 1.1))
    for frame in frames:
        for tol in (1e-323, 1e-310, 1e-300, 1e-10):
            try:
                scalar_reference(frame, tol, cssdyn.states.N_MAX)
            except ConvergenceError:
                for expand in (fock_coefficients, transition_probabilities):
                    with pytest.raises(ConvergenceError):
                        expand(frame, tol)
            else:
                assert_same_expansion(frame, tol, cssdyn.states.N_MAX, 0)


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


def ladder_hamiltonian(c, alg):
    """(H/hbar) c in the number basis for
    H/hbar = (conj(alpha) a^2 + alpha a†^2)/2 + beta a†a + conj(gamma) a + gamma a† + delta;
    c is taken as zero past its last entry."""
    n = np.arange(c.size, dtype=float)
    out = (alg.beta * n + alg.delta) * c
    out[:-1] += alg.gamma.conjugate() * np.sqrt(n[1:]) * c[1:]
    out[1:] += alg.gamma * np.sqrt(n[1:]) * c[:-1]
    out[:-2] += 0.5 * alg.alpha.conjugate() * np.sqrt(n[2:] * (n[2:] - 1.0)) * c[2:]
    out[2:] += 0.5 * alg.alpha * np.sqrt(n[2:] * (n[2:] - 1.0)) * c[:-2]
    return out


def test_driven_coefficients_obey_the_schroedinger_equation():
    # a drive (gamma != 0) enters the state's phase; with it the coefficients
    # of an evolved driven frame solve i dc/dt = (H/hbar) c
    t, h = 1.7, 1e-4
    columns = [fock_coefficients(fr, tail_tolerance=1e-14, n_max=90).coefficients
               for fr in driven_frames([t - h, t, t + h])]
    size = max(col.size for col in columns)
    before, now, after = (np.pad(col, (0, size - col.size)) for col in columns)
    residual = (1j * (after - before) / (2.0 * h)
                - ladder_hamiltonian(now, DRIVEN_SCHEDULE.algebraic_at(t)))
    assert np.max(np.abs(residual[:50])) < 1e-6


_FRAME = MotionFrame(t=0.0, f=math.cosh(0.3) + 0j, g=math.sinh(0.3) * 1j, varphi=0.2 - 0.1j)


@pytest.mark.parametrize("call", [
    lambda: overlap(_FRAME, _FRAME, 0, 0.5),
    lambda: normalization(_FRAME, 1.5),
    lambda: fock_coefficients(_FRAME, winding=0.5),
    lambda: wavefunction(_FRAME, [0.0], UnitContext(), winding=2.0),
    lambda: fock_coefficients(_FRAME, n_max=10.5),
    lambda: transition_probabilities(_FRAME, n_max=100.0),
    lambda: fock_wavefunction(3.5, [0.0], UnitContext()),
], ids=["overlap", "normalization", "fock_coefficients", "wavefunction", "n_max",
        "transition_probabilities", "fock_wavefunction"])
def test_windings_and_level_counts_must_be_integers(call):
    # a winding of 0.5 flipped the sign of f^(-1/2) (overlap(fr, fr, 0, 0.5)
    # was -1.03), and a level count of 10.5 raised TypeError
    with pytest.raises(DomainError, match="integer"):
        call()


def test_numpy_integer_windings_and_level_counts_are_integers():
    assert overlap(_FRAME, _FRAME, np.int64(3), 1) == pytest.approx(1.0, abs=1e-14)
    assert fock_coefficients(_FRAME, n_max=np.int64(64), winding=np.int32(1)).truncation < 64
