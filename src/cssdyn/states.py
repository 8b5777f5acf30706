"""Coherent squeezed states built on a linear integral of motion.

A frame (f, g, varphi) fixes the normalized state annihilated by the
integral of motion, written without any unitary squeeze/displacement
factorization as

    |xi, zeta> = Phi exp(-xi a† - (zeta/2) a†^2) |0>,
    xi = varphi / f,   zeta = g / f,   |zeta| < 1,

with normalization

    Phi = f^(-1/2) exp( (conj(g)/f) varphi^2 / 2 - |varphi|^2 / 2 + i phase_phi ),

where phase_phi is the frame's one phase (see motion), the one that makes
the state solve the Schrodinger equation.

The number-basis coefficients come from a branch-free three-term recurrence
equivalent to the Hermite-polynomial form

    c_n = Phi (-1)^n (g/2f)^(n/2) H_n(varphi / sqrt(2 g f)) / sqrt(n!),

and overlaps close through the Mehler kernel.  The only square root with a
branch choice is f^(-1/2); its sheet is selected by an integer winding
count of arg f, recoverable along a trajectory with branch_windings().
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError, _read
from .motion import MotionFrame

# Default truncation control of every number-basis expansion: the certified
# tail bound and the deepest level tried.
TAIL_TOLERANCE = 1e-10
N_MAX = 4096
# Geometric tail certification window: this many consecutive pair-sum ratios
# must sit below 1 before a truncation is accepted.
_WINDOW = 16
# Block width of the blocked march is about sqrt(levels / _KAPPA): pass 1
# and pass 2 take about 2B numpy steps, the scalar pass levels/B steps, and
# a numpy step costs about _KAPPA / 2 scalar steps.
_KAPPA = 32.0
# Growth factor of the buffers when the predicted depth does not certify.
_GROW = 1.25
# Pairs per certification chunk, which bounds its temporaries.
_CHUNK = 1 << 15
# Newton steps allowed to the depth prediction.
_PREDICT_STEPS = 12


@dataclass(frozen=True)
class SqueezeDisplace:
    """Squeeze/displacement pair (zeta, xi) of a frame; |zeta| < 1 always."""

    xi: complex
    zeta: complex


@dataclass(frozen=True)
class FockDistribution:
    """Truncated number-basis expansion with a certified tail.

    coefficients[n] = c_n for n <= truncation; probabilities are |c_n|^2;
    tail_bound bounds the total probability beyond the stored range.
    """

    coefficients: np.ndarray
    probabilities: np.ndarray
    truncation: int
    tail_bound: float


def parameters(frame: MotionFrame) -> SqueezeDisplace:
    """(xi, zeta) of a frame; |f| >= 1 makes the divisions safe.

    The pair is filled straight through its __dict__, as the frozen
    dataclass's __init__ would fill it, so it equals and hashes like a
    constructed one.  A hand-built frame with f = 0 has neither: DomainError
    names its t.
    """
    f = frame.f
    pair = object.__new__(SqueezeDisplace)
    row = pair.__dict__
    try:
        row["xi"], row["zeta"] = frame.varphi / f, frame.g / f
    except ZeroDivisionError:
        raise DomainError(f"frame at t = {frame.t!r} has f = 0: "
                          "no xi = varphi / f or zeta = g / f") from None
    return pair


def branch_windings(frames) -> list:
    """Winding count of arg f along a trajectory, anchored at the first frame.

    The n-th entry counts signed crossings of the branch cut up to frame n;
    feed it to normalization()/overlap() to keep f^(-1/2) continuous in time.
    The first entry is always 0 (principal branch at the anchor).  Each
    entry is a Python int, the unwrapped turn of arg f in units of 2 pi
    rounded half to even, as round() does.  A frame whose f is not finite
    has no arg f to unwrap: DomainError names its t.
    """
    frames = list(frames)
    fs = np.array([fr.f for fr in frames], dtype=complex)
    finite = np.isfinite(fs)
    if not finite.all():
        frame = frames[int(np.argmin(finite))]
        raise DomainError(f"frame at t = {frame.t!r} has a non-finite f = {frame.f!r}: "
                          "arg f has no winding")
    if fs.size == 0:
        return []
    args = np.angle(fs)
    unwrapped = np.unwrap(args)
    unwrapped += args[0] - unwrapped[0]  # anchor at the principal sheet
    return np.rint((unwrapped - args) / (2.0 * np.pi)).astype(int).tolist()


def _inverse_root(frame: MotionFrame, winding: int) -> complex:
    """f^(-1/2) of a frame on the sheet that winding selects: (-1)^winding
    times the principal value.

    Raises DomainError for a winding that is not an integer (a
    numbers.Integral), for a frame whose f, g or varphi is not finite, and
    for one with |g| >= |f|, which has no normalizable state (|zeta| >= 1).
    normalization, the expansions, overlap and observables.wavefunction
    all take f^(-1/2) from here, before any arithmetic that such a frame
    would break, so they refuse the same windings and frames.
    """
    winding = _read("winding", winding, "an integer")
    f, g, varphi = frame.f, frame.g, frame.varphi
    if not (cmath.isfinite(f) and cmath.isfinite(g) and cmath.isfinite(varphi)):
        raise DomainError(f"frame at t = {frame.t!r} is not finite: "
                          f"f = {f!r}, g = {g!r}, varphi = {varphi!r}")
    if not math.hypot(g.real, g.imag) < math.hypot(f.real, f.imag):
        raise DomainError(f"frame at t = {frame.t!r} has |g| >= |f| (f = {f!r}, g = {g!r}): "
                          "no normalizable state")
    root = 1.0 / np.sqrt(f)
    return -root if winding % 2 else root


def normalization(frame: MotionFrame, winding: int = 0) -> complex:
    """Normalization factor Phi of the state attached to a frame.

    winding selects the sheet of f^(-1/2): each crossing of the branch cut
    of arg f flips the sign, so the factor is (-1)^winding times the
    principal value.  For a frame without trajectory context the principal
    branch (winding 0) is the documented, phase-ambiguous default; every
    modulus derived from Phi is branch-independent.

    Raises DomainError for a winding that is not an integer, for a frame
    whose f, g or varphi is not finite, and for one with |g| >= |f|, which
    has no normalizable state (|zeta| >= 1).
    """
    root = _inverse_root(frame, winding)
    f, g, varphi = frame.f, frame.g, frame.varphi
    exponent = (g.conjugate() / f) * varphi * varphi / 2.0 \
        - (varphi * varphi.conjugate()).real / 2.0 + 1j * frame.phase_phi
    return complex(root * np.exp(exponent))


def fock_coefficients(frame: MotionFrame, tail_tolerance: float = TAIL_TOLERANCE,
                      n_max: int = N_MAX, winding: int = 0) -> FockDistribution:
    """Number-basis coefficients c_0..c_N with a certified geometric tail.

    The reduced coefficients d_n = (-1)^n (g/2f)^(n/2) H_n(varphi/sqrt(2gf)) / sqrt(n!)
    follow the branch-free recurrence

        d_0 = 1,   d_1 = -xi,
        d_{n+1} = -xi d_n / sqrt(n+1) - zeta sqrt(n/(n+1)) d_{n-1},

    which also folds the factorial in as a running ratio, so nothing
    overflows.  Truncation: probabilities are grouped into pairs
    E_k = P_2k + P_{2k+1} (pairing smooths the even/odd oscillation of
    squeezed states); a truncation is accepted once _WINDOW consecutive
    pair ratios E_k/E_{k-1} sit below 1 and the geometric bound
    E_K rho/(1-rho), rho = max(window, |zeta|^2), is <= tail_tolerance.
    The first pair that is exactly 0.0, before any pair certifies, ends the
    expansion at its last nonzero level with tail bound 0: what lies past
    it has underflowed.  An even n_max leaves its last level without a
    pair, so P_{n_max-1} = P_{n_max} = 0.0 ends the expansion at n_max - 2.
    The rule reads the levels in one pass from the first pair, and again
    from the first pair whenever the buffer grows, so where the expansion
    ends depends on the levels alone, never on how they were filled.
    Near-unit |zeta| needs n_max of order 25/(1-|zeta|^2).

    n_max must be an integer (a numbers.Integral) of at least 2, and
    tail_tolerance a real number in (0, 1); anything else raises
    DomainError.  Raises ConvergenceError when no truncation up
    to n_max certifies, and NumericalError when the weight |Phi|^2 is below
    the smallest normal float and a certified level's unweighted
    probability overflowed, so that its probability would be inf or NaN.
    """
    phi, d, p, top, bound = _expand(frame, tail_tolerance, n_max, winding, True)
    coefficients, probabilities = d[:top + 1], p[:top + 1]
    coefficients *= phi
    probabilities *= abs(phi) ** 2
    return FockDistribution(coefficients=coefficients, probabilities=probabilities,
                            truncation=top, tail_bound=bound)


def transition_probabilities(frame: MotionFrame, tail_tolerance: float = TAIL_TOLERANCE,
                             n_max: int = N_MAX) -> np.ndarray:
    """P_n = |c_n|^2 for n up to the certified truncation; branch-independent.

    The same expansion, truncation rule and errors as fock_coefficients,
    whose probabilities it reproduces bit for bit, but without the coefficient
    array: the rule reads probabilities alone, in one pass over the filled
    levels (again after a buffer growth), so nothing is rerun, and a
    level costs 8 bytes instead of 24, which matters for strongly
    squeezed frames where the certified truncation runs into millions.
    The result is a view into the engine's buffer, which may run a few
    percent past the truncation.
    """
    phi, _, p, top, _ = _expand(frame, tail_tolerance, n_max, 0, False)
    probabilities = p[:top + 1]
    probabilities *= abs(phi) ** 2
    return probabilities


def _expand(frame, tail_tolerance, n_max, winding, keep_coefficients):
    """Shared expansion engine; returns (phi, d or None, p_raw, top, bound).

    p_raw holds |d_n|^2 without the |phi|^2 weight; both arrays may run past
    top, and only [:top + 1] is meaningful.  The buffers are allocated once
    at the depth _predict_depth expects and grown by _GROW only when that
    depth does not certify, never past n_max.  _march fills them, and after
    each march _certify applies the truncation rule of fock_coefficients to
    all the filled levels from the first pair, so the first pair that
    certifies or is exactly zero wins.  After a growth it reads from the
    first pair again: no rule state lives between marches.  The
    rule reads p_raw alone, so keep_coefficients changes what is stored,
    never where the expansion ends.
    """
    tail_tolerance = _read("tail_tolerance", tail_tolerance, "in (0, 1)")
    n_max = _read("n_max", n_max, "an integer of at least 2")
    phi = normalization(frame, winding)  # refuses |zeta| >= 1 before any level
    par = parameters(frame)
    xi, zeta = par.xi, par.zeta
    weight = abs(phi) ** 2
    zeta2 = zeta.real * zeta.real + zeta.imag * zeta.imag

    size = min(_predict_depth(xi, zeta, weight, tail_tolerance), n_max) + 1
    p = np.empty(size)
    d = np.empty(size, dtype=complex) if keep_coefficients else None
    edge = (1.0 + 0.0j, -xi)
    p[:2] = [1.0, xi.real * xi.real + xi.imag * xi.imag]
    if keep_coefficients:
        d[:2] = edge
    filled = 1
    # a state too wide for float64 overflows to inf and nan, which the rule
    # never certifies; that ends in ConvergenceError, not in warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            edge = _march(xi, zeta, edge, filled, size - 1, p, d)
            filled = size - 1
            outcome = _certify(p, filled, weight, zeta2, tail_tolerance)
            if outcome is not None:
                break
            if filled == n_max:
                # no pair holds the lone last level of an even n_max
                if n_max % 2 == 0 and p[n_max - 1] == p[n_max] == 0.0:
                    outcome = n_max - 2, 0.0
                    break
                last = (n_max - 1) // 2 * 2  # the last complete pair
                raise ConvergenceError(
                    f"tail not certified below {tail_tolerance:g} within n_max={n_max} "
                    f"(|zeta| = {abs(zeta):.8f}, last pair mass "
                    f"{weight * (p[last] + p[last + 1]):.3e})")
            size = min(int(size * _GROW), n_max + 1)
            p = _grown(p, size)
            if keep_coefficients:
                d = _grown(d, size)
    top, bound = outcome
    # a normal weight bounds every level by 1/weight < 4.5e307; below it the
    # certified levels may have overflowed, and the weight cannot bring them
    # back: the weighted probability is inf, or NaN once the weight is 0
    if weight < sys.float_info.min and not np.isfinite(p[:top + 1]).all():
        raise NumericalError(
            f"at t = {frame.t:g}: the number-basis probabilities leave the floats: "
            f"|Phi|^2 = {weight:.3g} underflows while the unweighted levels overflow",
            t=frame.t)
    return phi, d, p, top, bound


def _predict_depth(xi, zeta, weight, tail_tolerance):
    """Level where the tail should certify, from a saddle-point estimate.

    The generating function sum_n |d_n|^2 s^n = exp(K(u)), s = e^u, is

        K = (s |xi|^2 - s^2 Re(conj(zeta) xi^2)) / (1 - s^2 |zeta|^2)
            - ln(1 - s^2 |zeta|^2) / 2,

    so the saddle point K'(u) = n estimates the pair mass at level n as
    2 weight exp(K - n u) / sqrt(2 pi K''), and the pair ratio there as
    rho = s^-2.  The level where that mass meets the geometric bound's
    condition, tail_tolerance (1 - rho) / rho, is found by a bracketed
    Newton iteration in ell = ln(-ln(1 - s^2 |zeta|^2)), which stays well
    scaled both for coherent (Poisson) tails and for near-unit |zeta|.
    The estimate lands within a few percent of the certified truncation
    (about 1% above it for millions of levels); eight extra levels cover
    the short expansions, and _expand grows the buffers when it still
    falls short.  It never goes below the 2 _WINDOW + 1 levels the streak
    needs, counted past the displacement's peak.

    The estimate only sizes the first buffer.  Where it cannot be formed in
    floating point (|zeta| >= 1, a threshold that underflows to 0, a
    weight/threshold ratio past the floats, or a depth past 2^53 levels)
    it falls back to the floor, and growth finds the depth or n_max.
    """
    z2 = max(zeta.real * zeta.real + zeta.imag * zeta.imag, 1e-300)
    x2 = xi.real * xi.real + xi.imag * xi.imag
    threshold = tail_tolerance * min(1.0, (1.0 - z2) / z2)  # <= 0 for |zeta| >= 1
    if not (math.isfinite(x2) and threshold > 0.0 and 0.0 < weight / threshold < math.inf):
        return 2 * _WINDOW + 1  # no estimate; growth finds the depth or n_max
    cross = (zeta.conjugate() * xi * xi).real
    base = math.log(2.0 * weight / tail_tolerance)  # a pair is two levels
    # start from the larger of a geometric-tail and a Poisson depth
    lam = x2 / (1.0 - math.sqrt(z2)) ** 2
    # the streak can start only past the displacement's peak near |<a>|^2
    floor = 2 * _WINDOW + 1 + int(abs(zeta * xi.conjugate() - xi) ** 2 / (1.0 - z2) ** 2)
    guess = max(2.0 * math.log(weight / threshold) / -math.log(z2),
                lam + 4.0 * math.sqrt(lam) + 8.0, floor)
    # past 1e154 the square overflows, and s^2 >= 1e8 loses to the cap below anyway
    s2 = max(1.0, guess / x2) ** 2 * z2 if 0.0 < x2 and guess / x2 < 1e154 else 1.0
    start = min(s2, guess / (guess + 1.0))
    if not start < 1.0:  # guess past 2^53 levels
        return floor
    ell = math.log(-math.log1p(-start))
    # the tail lies beyond the mean, at s > 1; ell = 4 is past 1e23 levels
    lo, hi = math.log(-math.log1p(-z2)), 4.0
    for _ in range(_PREDICT_STEPS):
        w = math.exp(ell)
        dd = math.exp(-w)          # 1 - s^2 |zeta|^2
        q = -math.expm1(-w)        # s^2 |zeta|^2
        s2 = q / z2
        s = math.sqrt(s2)
        u = 0.5 * math.log(s2)
        sx, sr = s * x2, s2 * cross
        k1n = sx * (1.0 + q) - 2.0 * sr
        k2n = sx * (1.0 + 3.0 * q) - 4.0 * sr
        level = k1n / (dd * dd) + q / dd                     # K'(u)
        k2 = (k2n + 2.0 * q + 4.0 * q * k1n / dd) / (dd * dd)  # K''(u)
        if not k2 > 0.0:
            break
        slack = min(1.0, max((q - z2) / z2, 1e-300))  # (1 - rho) / rho, capped at 1
        gap = base - math.log(slack) + (sx - sr) / dd + 0.5 * w - u * level \
            - 0.5 * math.log(2.0 * math.pi * k2)
        # d gap / d level is about -u: stop once the level is known to
        # within about a level and 0.1%, or to lie below the floor
        if abs(gap) < 0.05 + u * (1.0 + 0.001 * level) or (gap < 0.0 and level <= floor):
            break
        if gap > 0.0:
            lo = ell
        else:
            hi = ell
        k3 = (sx * (1.0 + 9.0 * q) - 8.0 * sr + 4.0 * q
              + (8.0 * q * (k2n + k1n + q) + 24.0 * q * q * k1n / dd) / dd) / (dd * dd)
        # the gap is nearly linear in the level, and the level nearly
        # exponential in ell: take the Newton step in the level, shrinking
        # it at most 64-fold, and map it back through the slope of ln(level)
        target = level + gap / (u + 0.5 * k3 / (k2 * k2))
        ell += math.log(max(target, level / 64.0) / level) * level / (k2 * 0.5 * w * dd / q)
        if not lo < ell < hi:
            ell = 0.5 * (lo + hi)
    return max(floor, int(level) + 8) if math.isfinite(level) else floor


def _grown(a, size):
    out = np.empty(size, dtype=a.dtype)
    out[:a.size] = a
    return out


def _march(xi, zeta, edge, lo, hi, p, d):
    """Fill levels lo+1..hi from edge = (d_{lo-1}, d_lo); returns (d_{hi-1}, d_hi).

    d_{n+1} = a_n d_n + c_n d_{n-1} with a_n = -xi/sqrt(n+1) and
    c_n = -zeta sqrt(n/(n+1)) is linear, so a run of steps maps the pair
    (d_{s-1}, d_s) through a 2x2 transfer.  The M = hi - lo levels are cut
    into `rem` single steps followed by nb blocks of width B ~ sqrt(M/_KAPPA):

    * the scalar pass takes the single steps as the plain recurrence;
    * pass 1 marches the two basis solutions of every block, started from
      (1, 0) and (0, 1), side by side as numpy vectors: the transfers;
    * the scalar pass carries the true pair across the transfers in order
      and writes each block's last level;
    * pass 2 marches every block once more from its true starting pair
      and writes the interior levels.

    B = 1 for short ranges, where everything is the single-step recurrence.

    Both passes step with the coefficient mxi / root1 (mxi = -xi, root1 =
    sqrt(n + 1) per block), formed without numpy's complex division.  That
    loop divides by the real root1, cast to complex with imaginary part +0,
    as ((re + im*0.0) * s, (im - re*0.0) * s) with s = 1.0 / root1: the two
    parts (re + im*0.0, im - re*0.0) are formed once per march, and each
    step writes their products with s into one complex buffer, the same
    bits at about half the cost (tests/test_states.py holds numpy's
    division to this form).  The scalar pass collects the pairs in two
    lists, one per column of `pairs`, which numpy fills without the
    conversion of a tuple per block.
    """
    m = hi - lo
    width = max(1, int(math.sqrt(m / _KAPPA)))
    nb, rem = divmod(m, width) if width > 1 else (0, m)
    sqrt = math.sqrt
    x0, x1 = edge
    values = []
    for n in range(lo, lo + rem):
        root = sqrt(n + 1.0)
        x0, x1 = x1, -(xi * x1) / root - (sqrt(n) / root) * (zeta * x0)
        values.append(x1)
    first = lo + rem
    if rem:
        _store(p, d, slice(lo + 1, first + 1), np.array(values))
    if not nb:
        return x0, x1

    mxi, mzeta = -xi, -zeta
    are, aim = mxi.real + mxi.imag * 0.0, mxi.imag - mxi.real * 0.0
    coef = np.empty(nb, dtype=complex)

    def over(root1):  # mxi / root1, bit for bit
        s = 1.0 / root1
        coef.real = are * s
        coef.imag = aim * s
        return coef

    starts = first + width * np.arange(nb, dtype=float)
    # pass 1: (prev, cur) rows are the basis solutions started at (1, 0), (0, 1)
    root = np.sqrt(starts)
    root1 = np.sqrt(starts + 1.0)
    prev = np.zeros((2, nb), dtype=complex)
    prev[1] = 1.0
    cur = np.array([mzeta * (root / root1), over(root1)])
    for j in range(1, width):
        root = root1
        root1 = np.sqrt(starts + (j + 1.0))
        prev, cur = cur, over(root1) * cur + (mzeta * (root / root1)) * prev
    # scalar pass across the blocks
    heads0, heads1 = [x0], [x1]
    for u0, v0, u1, v1 in zip(prev[0].tolist(), prev[1].tolist(),
                              cur[0].tolist(), cur[1].tolist()):
        x0, x1 = u0 * x0 + v0 * x1, u1 * x0 + v1 * x1
        heads0.append(x0)
        heads1.append(x1)
    pairs = np.empty((nb + 1, 2), dtype=complex)
    pairs[:, 0], pairs[:, 1] = heads0, heads1
    _store(p, d, slice(first + width, hi + 1, width), pairs[1:, 1])
    # pass 2: every block again from its true (d_{s-1}, d_s)
    block = slice(first + 1, hi + 1)
    block_p = p[block].reshape(nb, width)
    block_d = d[block].reshape(nb, width) if d is not None else None
    prev, cur = pairs[:-1, 0], pairs[:-1, 1]
    root1 = np.sqrt(starts)
    for j in range(width - 1):
        root = root1
        root1 = np.sqrt(starts + (j + 1.0))
        prev, cur = cur, over(root1) * cur + (mzeta * (root / root1)) * prev
        block_p[:, j] = cur.real * cur.real + cur.imag * cur.imag
        if block_d is not None:
            block_d[:, j] = cur
    return x0, x1


def _store(p, d, where, values):
    p[where] = values.real * values.real + values.imag * values.imag
    if d is not None:
        d[where] = values


def _certify(p, top, weight, zeta2, tail_tolerance):
    """The truncation rule of fock_coefficients on levels 0..top.

    Pairs E_k = P_2k + P_2k+1 are read from the first in chunks of at most
    _CHUNK; the last pair whose ratio E_k/E_{k-1} was not below 1 and the
    last _WINDOW - 1 ratios carry from one chunk to the next, and nothing
    outlives the call.  Returns None while nothing has happened, (2k + 1,
    bound) when E_k is the first pair to certify, and (top, 0.0) when E_k is
    the first pair that is exactly zero, where top, 2k - 1 or 2k - 2, is the
    last nonzero level.  A zero pair wins a tie with a certified one, and a
    lone last level (an even top) belongs to no pair.

    When the pairs span more than one chunk, a cheaper scan first finds,
    chunk by chunk, the first pair k* that can end the expansion, and the
    rule itself starts at start = max(1, k* - 2 _WINDOW) with the pair before
    start as the last bad one and a window of zeros; start = 1 is the
    plain reading.  The outcome is the same.  A pair ends the expansion
    only when it is zero or certifies, and certifying needs mass =
    weight E_k <= tail_tolerance and mass rho / (1 - rho) <= tail_tolerance
    for some rho in [zeta2, 1).  Rounding is monotone, so in floats
    mass rho >= mass zeta2 and 1 - rho <= 1 - zeta2, and the second test
    implies mass zeta2 / (1 - zeta2) <= tail_tolerance: k* is the first pair that is zero or passes both tests with
    rho = zeta2 (only a zero pair when zeta2 >= 1, where nothing
    certifies), and no pair before k* ends the expansion.  The streak and
    rho at pair k read the pairs k - _WINDOW .. k alone, so from
    start + _WINDOW - 1 <= k* on, both equal the full reading's; below it
    the restart only shortens a streak and never certifies.  Without a k*
    nothing ends the expansion.
    """
    end = (top + 1) // 2         # pairs below `end` are complete
    start = 1
    if end - 1 > _CHUNK:
        for k0 in range(1, end, _CHUNK):
            k1 = min(end, k0 + _CHUNK)
            pair = p[2 * k0:2 * k1:2] + p[2 * k0 + 1:2 * k1:2]
            can = pair == 0.0
            if zeta2 < 1.0:
                mass = weight * pair
                can |= (mass <= tail_tolerance) & (mass * zeta2 / (1.0 - zeta2) <= tail_tolerance)
            i = int(can.argmax())
            if can[i]:
                start = max(1, k0 + i - 2 * _WINDOW)
                break
        else:
            return None
    last_bad = start - 1         # pair 0 has no ratio; below start, none counts
    window = np.zeros(_WINDOW - 1)
    for k0 in range(start, end, _CHUNK):
        k1 = min(end, k0 + _CHUNK)
        sums = p[2 * k0 - 2:2 * k1:2] + p[2 * k0 - 1:2 * k1:2]  # E_{k0-1} .. E_{k1-1}
        pair, before = sums[1:], sums[:-1]
        # p >= 0, so E_k/E_{k-1} < 1 in floating point exactly when
        # E_k < E_{k-1}; a zero or NaN E_{k-1} fails both, as in the rule
        good = pair < before
        # ratios outside a streak never reach a certifying window
        ratio = np.divide(pair, before, out=np.zeros(pair.size), where=good)
        window = np.concatenate([window, ratio])
        index = np.arange(k0, k1)
        bad = np.maximum.accumulate(np.where(good, last_bad, index))
        last_bad = int(bad[-1])
        mass = weight * pair
        ready = (index - bad >= _WINDOW) & (mass <= tail_tolerance)
        # the first zero pair ends the expansion unless a pair before it certifies
        zero = np.flatnonzero(pair == 0.0)
        stop = int(zero[0]) if zero.size else pair.size
        if zeta2 < 1.0 and ready[:stop].any():  # rho >= 1 certifies nothing
            rho = window
            for shift in (1, 2, 4, 8):  # running max over the last 16 = _WINDOW ratios
                rho = np.maximum(rho[shift:], rho[:-shift])
            rho = np.maximum(rho[:stop], zeta2)
            bound = mass[:stop] * rho / (1.0 - rho)
            ok = np.flatnonzero(ready[:stop] & (bound <= tail_tolerance))
            if ok.size:
                i = int(ok[0])
                return 2 * (k0 + i) + 1, float(bound[i])
        if zero.size:
            k = k0 + stop        # E_{k-1} > 0, so P_{2k-2} or P_{2k-1} is the last nonzero
            return (2 * k - 1 if p[2 * k - 1] else 2 * k - 2), 0.0
        window = window[-(_WINDOW - 1):]
    return None


def overlap(frame1: MotionFrame, frame2: MotionFrame,
            winding1: int = 0, winding2: int = 0) -> complex:
    """Inner product <state(frame1) | state(frame2)>.

    Evaluated as conj(Phi_1) Phi_2 times the closed Mehler kernel

        (1 - z^2)^(-1/2) exp( conj(varphi_1) varphi_2 / den
                              - conj(varphi_1)^2 g_2 / (2 conj(f_1) den)
                              - varphi_2^2 conj(g_1) / (2 f_2 den) ),
        z^2 = conj(g_1) g_2 / (conj(f_1) f_2),
        den = conj(f_1) f_2 - conj(g_1) g_2.

    Since |z|^2 = |zeta_1 zeta_2| < 1 forces Re(1 - z^2) > 0, the principal
    square root of (1 - z^2) is the analytic continuation from z = 0, and
    the result equals the number-basis sum conj(c_n(1)) c_n(2) exactly for
    the same winding inputs.  Same-frame overlap is identically 1.
    """
    # first, so that a non-finite frame is refused before the kernel is formed
    norms = normalization(frame1, winding1).conjugate() * normalization(frame2, winding2)
    f1c = frame1.f.conjugate()
    g1c = frame1.g.conjugate()
    f2, g2 = frame2.f, frame2.g
    p1c = frame1.varphi.conjugate()
    p2 = frame2.varphi
    den = f1c * f2 - g1c * g2
    z2 = (g1c * g2) / (f1c * f2)
    kernel = np.exp(p1c * p2 / den
                    - p1c * p1c * g2 / (2.0 * f1c * den)
                    - p2 * p2 * g1c / (2.0 * f2 * den)) / np.sqrt(1.0 - z2)
    return complex(norms * kernel)
