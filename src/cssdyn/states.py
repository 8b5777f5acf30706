"""Coherent squeezed states built on a linear integral of motion.

A frame (f, g, varphi) fixes the normalized state annihilated by the
integral of motion, written without any unitary squeeze/displacement
factorization as

    |xi, zeta> = Phi exp(-xi a† - (zeta/2) a†^2) |0>,
    xi = varphi / f,   zeta = g / f,   |zeta| < 1,

with normalization

    Phi = f^(-1/2) exp( (conj(g)/f) varphi^2 / 2 - |varphi|^2 / 2 + i phase_phi ).

The number-basis coefficients come from a branch-free three-term recurrence
equivalent to the Hermite-polynomial form

    c_n = Phi (-1)^n (g/2f)^(n/2) H_n(varphi / sqrt(2 g f)) / sqrt(n!),

and overlaps close through the Mehler kernel.  The only square root with a
branch choice is f^(-1/2); its sheet is selected by an integer winding
count of arg f, recoverable along a trajectory with branch_windings().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .motion import MotionFrame

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
    """(xi, zeta) of a frame; |f| >= 1 makes the divisions safe."""
    return SqueezeDisplace(xi=frame.varphi / frame.f, zeta=frame.g / frame.f)


def branch_windings(frames) -> list:
    """Winding count of arg f along a trajectory, anchored at the first frame.

    The n-th entry counts signed crossings of the branch cut up to frame n;
    feed it to normalization()/overlap() to keep f^(-1/2) continuous in time.
    The first entry is always 0 (principal branch at the anchor).
    """
    args = np.array([np.angle(fr.f) for fr in frames], dtype=float)
    if args.size == 0:
        return []
    unwrapped = np.unwrap(args)
    unwrapped += args[0] - unwrapped[0]  # anchor at the principal sheet
    return [int(round(w)) for w in (unwrapped - args) / (2.0 * np.pi)]


def _inverse_root(f: complex, winding: int) -> complex:
    """f^(-1/2) on the sheet that winding selects: (-1)^winding times the
    principal value."""
    root = 1.0 / np.sqrt(complex(f))
    return -root if winding % 2 else root


def normalization(frame: MotionFrame, winding: int = 0) -> complex:
    """Normalization factor Phi of the state attached to a frame.

    winding selects the sheet of f^(-1/2): each crossing of the branch cut
    of arg f flips the sign, so the factor is (-1)^winding times the
    principal value.  For a frame without trajectory context the principal
    branch (winding 0) is the documented, phase-ambiguous default; every
    modulus derived from Phi is branch-independent.

    Raises DomainError for a frame whose f, g or varphi is not finite, and
    for one with |g| >= |f|, which has no normalizable state (|zeta| >= 1).
    """
    f, g, varphi = frame.f, frame.g, frame.varphi
    if not all(math.isfinite(x) for v in (f, g, varphi) for x in (v.real, v.imag)):
        raise DomainError(f"frame at t = {frame.t!r} is not finite: "
                          f"f = {f!r}, g = {g!r}, varphi = {varphi!r}")
    if not math.hypot(g.real, g.imag) < math.hypot(f.real, f.imag):
        raise DomainError(f"frame at t = {frame.t!r} has |g| >= |f| (f = {f!r}, g = {g!r}): "
                          "no normalizable state")
    root = _inverse_root(f, winding)
    exponent = (g.conjugate() / f) * varphi * varphi / 2.0 \
        - (varphi * varphi.conjugate()).real / 2.0 + 1j * frame.phase_phi
    return complex(root * np.exp(exponent))


def fock_coefficients(frame: MotionFrame, tail_tolerance: float = 1e-10,
                      n_max: int = 4096, winding: int = 0) -> FockDistribution:
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
    Underflow of two consecutive d_n to exact zero ends the expansion
    exactly.  Near-unit |zeta| needs n_max of order 25/(1-|zeta|^2).

    Raises ConvergenceError when no truncation up to n_max certifies.
    """
    phi, d, p, top, bound = _expand(frame, tail_tolerance, n_max, winding, True)
    coefficients, probabilities = d[:top + 1], p[:top + 1]
    coefficients *= phi
    probabilities *= abs(phi) ** 2
    return FockDistribution(coefficients=coefficients, probabilities=probabilities,
                            truncation=top, tail_bound=bound)


def transition_probabilities(frame: MotionFrame, tail_tolerance: float = 1e-10,
                             n_max: int = 4096) -> np.ndarray:
    """P_n = |c_n|^2 for n up to the certified truncation; branch-independent.

    The same expansion and truncation rule as fock_coefficients, whose
    probabilities it reproduces bit for bit, but without the coefficient
    array: 8 bytes per level instead of 24, which matters for strongly
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
    depth does not certify, never past n_max.  _march fills them, and
    _Certifier applies the truncation rule of fock_coefficients to each
    filled range in order, so the first level that certifies or ends in
    exact zeros wins.

    A probability-only call stores no coefficients, so it cannot tell an
    exact zero d_n from one whose square underflowed.  Should two
    consecutive probabilities vanish before certification it reruns with
    coefficients, which reproduces p_raw bit for bit.
    """
    if not (0.0 < tail_tolerance < 1.0):
        raise DomainError(f"tail_tolerance must lie in (0, 1), got {tail_tolerance!r}")
    if n_max < 2:
        raise DomainError(f"n_max must be at least 2, got {n_max!r}")
    phi = normalization(frame, winding)  # refuses |zeta| >= 1 before any level
    par = parameters(frame)
    xi, zeta = complex(par.xi), complex(par.zeta)
    weight = abs(phi) ** 2
    zeta2 = zeta.real * zeta.real + zeta.imag * zeta.imag

    size = min(_predict_depth(xi, zeta, weight, tail_tolerance), n_max) + 1
    p = np.empty(size)
    d = np.empty(size, dtype=complex) if keep_coefficients else None
    edge = (1.0 + 0.0j, -xi)
    p[:2] = [1.0, xi.real * xi.real + xi.imag * xi.imag]
    if keep_coefficients:
        d[:2] = edge
    certifier = _Certifier(weight, zeta2, tail_tolerance)
    filled = 1
    # a state too wide for float64 overflows to inf and nan, which the rule
    # never certifies; that ends in ConvergenceError, not in warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            edge = _march(xi, zeta, edge, filled, size - 1, p, d)
            filled = size - 1
            outcome = certifier.scan(p, d, filled)
            if outcome is not None:
                break
            if filled == n_max:
                raise ConvergenceError(
                    f"tail not certified below {tail_tolerance:g} within n_max={n_max} "
                    f"(|zeta| = {abs(zeta):.8f}, last pair mass "
                    f"{weight * certifier.prev_pair:.3e})")
            size = min(int(size * _GROW), n_max + 1)
            p = _grown(p, size)
            if keep_coefficients:
                d = _grown(d, size)
    top, bound = outcome
    if bound is None:  # zero pair in p_raw; only the coefficients can decide
        return _expand(frame, tail_tolerance, n_max, winding, True)
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
    """
    z2 = max(zeta.real * zeta.real + zeta.imag * zeta.imag, 1e-300)
    x2 = xi.real * xi.real + xi.imag * xi.imag
    if not (weight > 0.0 and z2 < 1.0 and math.isfinite(x2)):
        return 2 * _WINDOW + 1  # no estimate; growth finds the depth or n_max
    cross = (zeta.conjugate() * xi * xi).real
    threshold = tail_tolerance * min(1.0, (1.0 - z2) / z2)
    base = math.log(2.0 * weight / tail_tolerance)  # a pair is two levels
    # start from the larger of a geometric-tail and a Poisson depth
    lam = x2 / (1.0 - math.sqrt(z2)) ** 2
    # the streak can start only past the displacement's peak near |<a>|^2
    floor = 2 * _WINDOW + 1 + int(abs(zeta * xi.conjugate() - xi) ** 2 / (1.0 - z2) ** 2)
    guess = max(2.0 * math.log(weight / threshold) / -math.log(z2),
                lam + 4.0 * math.sqrt(lam) + 8.0, floor)
    s2 = max(1.0, guess / x2) ** 2 * z2 if x2 > 0.0 else 1.0
    ell = math.log(-math.log1p(-min(s2, guess / (guess + 1.0))))
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
    starts = first + width * np.arange(nb, dtype=float)
    # pass 1: (prev, cur) rows are the basis solutions started at (1, 0), (0, 1)
    root = np.sqrt(starts)
    root1 = np.sqrt(starts + 1.0)
    prev = np.zeros((2, nb), dtype=complex)
    prev[1] = 1.0
    cur = np.array([mzeta * (root / root1), mxi / root1])
    for j in range(1, width):
        root = root1
        root1 = np.sqrt(starts + (j + 1.0))
        prev, cur = cur, (mxi / root1) * cur + (mzeta * (root / root1)) * prev
    # scalar pass across the blocks
    heads = [(x0, x1)]
    for u0, v0, u1, v1 in zip(prev[0].tolist(), prev[1].tolist(),
                              cur[0].tolist(), cur[1].tolist()):
        x0, x1 = u0 * x0 + v0 * x1, u1 * x0 + v1 * x1
        heads.append((x0, x1))
    pairs = np.array(heads)
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
        prev, cur = cur, (mxi / root1) * cur + (mzeta * (root / root1)) * prev
        block_p[:, j] = cur.real * cur.real + cur.imag * cur.imag
        if block_d is not None:
            block_d[:, j] = cur
    return x0, x1


def _store(p, d, where, values):
    p[where] = values.real * values.real + values.imag * values.imag
    if d is not None:
        d[where] = values


class _Certifier:
    """The truncation rule of fock_coefficients, applied range by range.

    Pairs E_k = P_2k + P_2k+1 are scanned in chunks of at most _CHUNK; the
    last pair whose ratio E_k/E_{k-1} was not below 1 and the last
    _WINDOW - 1 ratios carry from one chunk and one call to the next.
    scan() returns None while nothing has happened, (top, bound) at the
    first certified pair, (top, 0.0) when P_m = 0 and d_{m-1} = 0, and
    (m, None) when d is not stored and P_{m-1} = P_m = 0.
    """

    def __init__(self, weight, zeta2, tail_tolerance):
        self.weight = weight
        self.zeta2 = zeta2
        self.tol = tail_tolerance
        self.level = 2           # next level to test for exact zeros
        self.pair = 1            # next pair to test for certification
        self.last_bad = 0        # pair 0 has no ratio
        self.window = np.zeros(_WINDOW - 1)
        self.prev_pair = 0.0

    def scan(self, p, d, top):
        end = (top + 1) // 2     # pairs below `end` are complete
        while self.pair < end or self.level <= top:
            k1 = min(end, self.pair + _CHUNK)
            last = top if k1 == end else 2 * k1 - 1
            zero = self._first_zero(p, d, last)
            hit = self._first_certified(p, k1)
            if zero is not None and (hit is None or zero <= hit[0]):
                return (zero, None) if d is None else (_last_nonzero(p, zero), 0.0)
            if hit is not None:
                return hit
            self.level = last + 1
        self.prev_pair = p[2 * end - 2] + p[2 * end - 1]
        return None

    def _first_zero(self, p, d, last):
        m0 = self.level
        here = p[m0:last + 1]
        if np.count_nonzero(here) == here.size:
            return None
        below = d[m0 - 1:last] == 0 if d is not None else p[m0 - 1:last] == 0.0
        found = np.flatnonzero((here == 0.0) & below)
        return m0 + int(found[0]) if found.size else None

    def _first_certified(self, p, k1):
        k0 = self.pair
        if k1 <= k0:
            return None
        sums = p[2 * k0 - 2:2 * k1:2] + p[2 * k0 - 1:2 * k1:2]  # E_{k0-1} .. E_{k1-1}
        pair, before = sums[1:], sums[:-1]
        # p >= 0, so E_k/E_{k-1} < 1 in floating point exactly when
        # E_k < E_{k-1}; a zero or NaN E_{k-1} fails both, as in the rule
        good = pair < before
        # ratios outside a streak never reach a certifying window
        ratio = np.divide(pair, before, out=np.zeros(pair.size), where=good)
        window = np.concatenate([self.window, ratio])
        self.window = window[-(_WINDOW - 1):]
        index = np.arange(k0, k1)
        last_bad = np.maximum.accumulate(np.where(good, self.last_bad, index))
        self.last_bad = int(last_bad[-1])
        self.pair = k1
        mass = self.weight * pair
        ready = (index - last_bad >= _WINDOW) & (mass <= self.tol)
        if self.zeta2 >= 1.0 or not ready.any():  # rho >= 1 certifies nothing
            return None
        for shift in (1, 2, 4, 8):  # running max over the last 16 = _WINDOW ratios
            window = np.maximum(window[shift:], window[:-shift])
        rho = np.maximum(window, self.zeta2)
        bound = mass * rho / (1.0 - rho)
        ok = np.flatnonzero(ready & (bound <= self.tol))
        if not ok.size:
            return None
        i = int(ok[0])
        return 2 * (k0 + i) + 1, float(bound[i])


def _last_nonzero(p, m):
    """Largest n <= m with p[n] != 0, or 0."""
    hi = m + 1
    while hi > 0:
        lo = max(0, hi - 64)
        found = np.flatnonzero(p[lo:hi])
        if found.size:
            return lo + int(found[-1])
        hi = lo
    return 0


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
