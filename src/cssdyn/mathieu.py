"""Oscillator with harmonically modulated stiffness, reduced to Mathieu form.

H = p^2/(2 m0) + (epsilon0 - eta0 cos(omega0 t)) x^2 / 2

With the oscillator length fixed at l^2 = hbar/(m0 omega0), the sum and
difference combinations X = f + g, Y = f - g of the motion integrals decouple
into a single second-order equation for Y.  In the scaled time tau =
omega0 t / 2 it is the Mathieu equation in standard form,

    Y'' + [a - 2 q cos(2 tau)] Y = 0,
    a = 4 epsilon0 / (m0 omega0^2),   q = 2 eta0 / (m0 omega0^2),

and X = -(i/2) Y'.  Instead of the classical ce/se Mathieu pairs, the two
fundamental solutions with unit initial data are used,

    Yc(0) = 1, Yc'(0) = 0        Ys(0) = 0, Ys'(0) = 1,

whose Wronskian Yc Ys' - Yc' Ys is identically 1; its numerical drift is the
accuracy monitor.

The pair is never solved past tau = pi/2 (Floquet theory, NIST DLMF
§28.2).  The coefficient a - 2q cos(2 tau) is pi-periodic, so the
fundamental matrix Phi = [[Yc, Ys], [Yc', Ys']] advances by whole periods
through the monodromy matrix M = Phi(pi), Phi(k pi + r) = Phi(r) M^k; it
is even, so Phi(-tau) = D Phi(tau) D with D = diag(1, -1), which gives both
M and Phi on [pi/2, pi] from the half period [0, pi/2].  The cost of a grid
is then one half-period solve plus a few 2x2 products, whatever its
length, and the relative error grows like k times the half-period error.
Inside an instability tongue Phi grows like |mu|^k, |mu| > 1 the larger
Floquet multiplier, and the Wronskian check cancels two products of that
size: it fails once about eps |mu|^(2k) passes its 1e-9 bound (beyond
eight periods on the default preset), and an M^k beyond float64 fails it
as nan.

The half period itself, or the part [0, tau_max] of it that a shorter
grid reaches, is a Chebyshev spectral solve of the equation in integral
form (Greengard, SIAM J. Numer. Anal. 28, 1071 (1991); Trefethen,
Spectral Methods in MATLAB, SIAM 2000): the unknowns are Y'' at N + 1
Chebyshev points, Y and Y' are their first and second integrals plus the
initial data, and one dense (N + 1)^2 solve gives both fundamental
solutions at once.  The solution is entire in tau, so its Chebyshev
coefficients fall faster than geometrically.  One resolution rule
fixes the discretization, and the route reads no integration setting:
panels by phase, N by coefficient decay.  A fast coefficient,
sqrt(|a| + 2|q|) times the interval above 64 radians, cuts the interval
into equal panels of at most that phase, each solved from unit data and
carried onto the end of the one before; a = 4e6, q = 0 (epsilon0 = 100,
omega0 = 0.01) takes 50 panels of 65 nodes over pi/2.  More than 4096
panels, sqrt(|a| + 2|q|) above about 1.7e5 over the whole half period,
raise NumericalError.  In each panel N is the first size of a fixed
ladder (33 to 513 points) whose trailing coefficients have fallen to the
rounding floor.  The preset and the tongue around it need N = 32, and
a = 400, q = 10 needs 48; the solve resolves the half period to within a
few rounding errors of its floor (about 1e-15 relative near the preset),
so it runs once and the Wronskian is checked once, with no retry.

The displacement integral varphi is constant here
(gamma = 0), both phase integrals vanish identically (E = V = F = 0 and
beta = 2 delta), and the mean trajectory is

    xbar = sqrt(2 hbar/(m0 omega0)) Re(g conj(varphi0) - conj(f) varphi0)
    pbar = sqrt(2 hbar m0 omega0)   Im(g conj(varphi0) - conj(f) varphi0).

`frames` takes and returns physical time t = 2 tau / omega0, on the grid
that the generic `evolve` takes; `fundamental_solutions` and
`transition_snapshot` take tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from .errors import DomainError, NumericalError, _read, _read_fields
from .hamiltonian import CoefficientSchedule, Harmonic, UnitContext
from .motion import InitialConditions, _check_grid, _frames
from .states import N_MAX, TAIL_TOLERANCE, transition_probabilities

# Wronskian of the fundamental pair must stay this close to 1.
_WRONSKIAN_TOL = 1e-9
_HALF_PERIOD = 0.5 * math.pi
# elementwise form of Phi -> D Phi D with D = diag(1, -1)
_REFLECT = np.array([[1.0, -1.0], [-1.0, 1.0]])
# Chebyshev node counts of a panel, tried in turn; the last is the cap
_SIZES = (32, 48, 64, 96, 128, 192, 256, 384, 512)
# a panel spans at most this many radians of sqrt(|a| + 2|q|) tau
_PANEL_PHASE = 64.0
# a half period that needs more panels is refused; they hold about 3 kB each
_MAX_PANELS = 4096
# interpolation handles this many points at a time
_CHUNK = 4096
# the decay test reads this many trailing Chebyshev coefficients per column
_TAIL = 3
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class DrivenOscillatorConfig:
    """Modulated-stiffness oscillator; defaults are the a=0.04, q=1 preset.

    That preset has hbar = m0 = epsilon0 = 1, omega0 = 10, eta0 = 50 and
    starts from the coherent state f0 = 1, g0 = 0, varphi0 = -i, which puts
    the mean at xbar(0) = 0, pbar(0) = sqrt(20).

    The parameters are read as floats through the package's intake
    (errors._read), so any real number type is admitted, and checked here,
    exactly, so that the schedule needs no sampled check: m0, omega0, hbar
    and m0 omega0^2 are finite positive floats, and |epsilon0| + |eta0| is
    finite, which keeps k = epsilon0 - eta0 cos(omega0 t) finite wherever
    omega0 t is.  A violation raises DomainError.
    """

    m0: float = 1.0
    epsilon0: float = 1.0
    eta0: float = 50.0
    omega0: float = 10.0
    hbar: float = 1.0
    # varphi0 = -i with a real part of +0.0 (-1j has -0.0), as a config reads it
    init: InitialConditions = field(
        default_factory=lambda: InitialConditions(f0=1.0, g0=0.0, varphi0=complex(0.0, -1.0)))

    def __post_init__(self):
        _read_fields(self, {"m0": "positive and finite", "epsilon0": "finite", "eta0": "finite",
                            "omega0": "positive and finite", "hbar": "positive and finite"})
        # bounds |k| for every finite omega0 t, so the preset needs no sampled scan
        if not math.isfinite(abs(self.epsilon0) + abs(self.eta0)):
            raise DomainError(f"epsilon0 = {self.epsilon0!r} and eta0 = {self.eta0!r}: "
                              f"|epsilon0| + |eta0| is not a finite float")
        # a and q divide by m0 omega0^2, computed as mathieu_parameters does
        try:
            scale = self.m0 * self.omega0 ** 2
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise DomainError(f"omega0 = {self.omega0!r} with m0 = {self.m0!r}: m0 omega0^2 "
                              f"= {scale!r} is not a finite positive float")

    @property
    def length(self) -> float:
        return math.sqrt(self.hbar / (self.m0 * self.omega0))

    @property
    def units(self) -> UnitContext:
        return UnitContext(hbar=self.hbar, l=self.length)

    def schedule(self) -> CoefficientSchedule:
        # k(t) = epsilon0 - eta0 cos(omega0 t); everything else static
        return CoefficientSchedule.physical(
            self.units, m=self.m0,
            k=Harmonic(offset=self.epsilon0, amplitude=-self.eta0, omega=self.omega0))


@dataclass(frozen=True)
class MathieuParameters:
    """Standard-form parameters a and q of the Mathieu equation."""

    a: float
    q: float


@dataclass(frozen=True)
class FundamentalBasis:
    """Fundamental Mathieu pair and derivatives sampled on a tau grid."""

    tau: np.ndarray
    yc: np.ndarray
    dyc: np.ndarray
    ys: np.ndarray
    dys: np.ndarray

    def wronskian(self) -> np.ndarray:
        return self.yc * self.dys - self.dyc * self.ys


def mathieu_parameters(cfg: DrivenOscillatorConfig) -> MathieuParameters:
    a = 4.0 * cfg.epsilon0 / (cfg.m0 * cfg.omega0 ** 2)
    q = 2.0 * cfg.eta0 / (cfg.m0 * cfg.omega0 ** 2)
    return MathieuParameters(a=a, q=q)


def fundamental_solutions(params: MathieuParameters, tau_grid) -> FundamentalBasis:
    """Both fundamental solutions on the tau grid, from one half period.

    Every tau is folded to tau = k pi + r with 0 <= r < pi and
    s = min(r, pi - r) <= pi/2.  One Chebyshev solve on [0, end],
    end = min(tau_max, pi/2) (see _half_period), gives
    Phi = [[yc, ys], [yc', ys']] at its nodes, and barycentric
    interpolation reads it off at every s, so the cost does not grow with
    tau.  The coefficient is even, which gives
    Phi(-tau) = D Phi(tau) D with D = diag(1, -1), and pi-periodic, which
    gives Phi(tau + pi) = Phi(tau) M for the monodromy M = Phi(pi).  Hence

        M      = D Phi(pi/2)^-1 D Phi(pi/2)   (adjugate inverse, det Phi = 1)
        Phi(r) = Phi(s)             for r <= pi/2
               = D Phi(s) D M       for r >  pi/2
        Phi(tau) = Phi(r) M^k,

    with the powers of M built by repeated squaring from one needed k to
    the next.  Each factor of M carries the error of the half period
    forward, so the relative error grows like k times it.

    [0, end] is one Chebyshev panel unless sqrt(|a| + 2|q|) end passes 64
    radians, and then equal panels carried one onto the next.  N, the
    Chebyshev degree of a panel, is the first of _SIZES (32 to 512) whose
    coefficients have decayed to the rounding floor (see _panel).  No
    integration setting is read: a solve at the rounding floor is as
    accurate as the spectral route gets, so there is nothing left to ask
    for.  More than 4096 panels, sqrt(|a| + 2|q|) above about 1.7e5 over
    the whole half period, raise NumericalError.  At tau = 0 the sample is
    exactly the identity.
    A grid reaching 2^63 periods (tau about 2.9e19), past what the int64
    period count holds, raises NumericalError at its last tau before any
    solve.

    The Wronskian is checked once, at every sample, against 1 to within
    1e-9.  A breach, or a non-finite sample once the panels or M^k
    overflow, raises NumericalError at the first offending tau; there is
    no retry, since a second solve at the floor would repeat the first.
    """
    taus = _check_grid(tau_grid)
    a, q = params.a, params.q

    k, r = np.divmod(taus, math.pi)
    reflect = r > _HALF_PERIOD
    folded = np.minimum(r, math.pi - r)
    # pi/2 once the grid passes it; below, k = 0 and nothing is reflected
    end = min(float(taus[-1]), _HALF_PERIOD)
    # k never decreases along the increasing grid, so the last is the largest
    if not k[-1] < 2.0 ** 63:
        raise NumericalError(f"tau = {taus[-1]:g} is {k[-1]:.3g} periods of the "
                             f"Mathieu coefficient, past the 2^63 that M^k can count",
                             t=float(taus[-1]))
    k = k.astype(np.int64)

    # a state too unstable for float64 overflows across the panels or in M^k;
    # the Wronskian check then sees a non-finite sample and refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        panels = _half_period(a, q, end)
        (yc, ys), (dyc, dys) = panels[-1][2][:, -1]
        # D Phi(pi/2)^-1 D Phi(pi/2); unused (k = 0, no reflection) below pi/2
        monodromy = np.array([[yc * dys + ys * dyc, 2.0 * ys * dys],
                              [2.0 * yc * dyc, yc * dys + ys * dyc]])
        phi = _interpolate(panels, folded)
        phi[reflect] = (phi[reflect] * _REFLECT) @ monodromy
        phi = phi @ _powers(monodromy, k)
        basis = FundamentalBasis(tau=taus.copy(), yc=phi[:, 0, 0].copy(),
                                 dyc=phi[:, 1, 0].copy(), ys=phi[:, 0, 1].copy(),
                                 dys=phi[:, 1, 1].copy())
        drift = np.abs(basis.wronskian() - 1.0)
    bad = ~(drift <= _WRONSKIAN_TOL)
    if bad.any():
        raise NumericalError(f"Wronskian drift {np.max(drift):.3e} exceeds {_WRONSKIAN_TOL:g}",
                             t=float(taus[np.argmax(bad)]))
    return basis


@lru_cache(maxsize=4)
def _chebyshev(n: int):
    """Chebyshev tools for n + 1 points on [0, 1], built once per n, read-only.

    Returns
    - the nodes x_j = (1 - cos(j pi / n)) / 2, ascending from exactly 0 to
      exactly 1;
    - their barycentric weights;
    - the map from values at the nodes to Chebyshev coefficients;
    - lift = [J2; J1]: (J1 v)_j is the integral from 0 to x_j of the
      interpolant of v, and J2 = J1 J1.  Both have exactly zero rows at
      x = 0; on a panel of width w they scale to w J1 and w^2 J2;
    - base = [1, x], the two unit initial data carried without y''.
    """
    j = np.arange(n + 1)
    theta = (n - j) * (math.pi / n)  # cos(theta_j) ascends from -1 to 1
    nodes = 0.5 * (1.0 + np.cos(theta))
    weights = np.where(j % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    # T_m(cos theta_j) for m = 0..n + 1; coefficient k of v is (2/n) sum_j'' T_k v_j
    cheb = np.cos(np.outer(theta, np.arange(n + 2)))
    to_coeffs = (2.0 / n) * cheb[:, :-1].T * np.abs(weights)
    to_coeffs[[0, -1]] *= 0.5
    # antiderivative of sum c_k T_k: T_0 -> T_1, T_1 -> T_2 / 4,
    # T_k -> T_(k+1) / (2 (k + 1)) - T_(k-1) / (2 (k - 1))
    antider = np.zeros((n + 2, n + 1))
    antider[1, 0], antider[2, 1] = 1.0, 0.25
    k = np.arange(2, n + 1)
    antider[k + 1, k] = 0.5 / (k + 1)
    antider[k - 1, k] = -0.5 / (k - 1)
    # subtracting the row at x = 0 puts the lower limit there, exactly
    j1 = 0.5 * ((cheb - cheb[0]) @ antider @ to_coeffs)
    base = np.stack([np.ones(n + 1), nodes], axis=1)
    out = (nodes, weights, to_coeffs, np.vstack([j1 @ j1, j1]), base)
    for arr in out:
        arr.flags.writeable = False
    return out


def _half_period(a: float, q: float, end: float):
    """The fundamental matrix on [0, end], end <= pi/2, as Chebyshev panels.

    [0, end] is cut into equal panels, as few as keep sqrt(|a| + 2|q|) times
    the width of each below _PANEL_PHASE radians; the preset and the tongue
    around it take one.  More than _MAX_PANELS raises NumericalError.  Each
    panel is solved from unit initial data at its start (see _panel), and
    its values are carried onto the previous panel's end value:
    Phi(t) = Phi_p(t - t_p) Phi(t_p).  Returns one (nodes, weights, values)
    per panel, in order; values has shape (2, n + 1, 2), values[:, j] is
    [[yc, ys], [yc', ys']] at node j, and the first node of the first panel
    holds exactly the identity.
    """
    need = math.sqrt(abs(a) + 2.0 * abs(q)) * end / _PANEL_PHASE
    if not need <= _MAX_PANELS:
        raise NumericalError(f"Mathieu half period at a = {a:g}, q = {q:g} on "
                             f"[0, {end:g}] needs {need:.3g} Chebyshev panels, "
                             f"more than {_MAX_PANELS}", t=0.0)
    count = max(1, math.ceil(need))
    panels = []
    for i in range(count):
        hi = end if i == count - 1 else end * (i + 1) / count
        nodes, weights, values = _panel(a, q, end * i / count, hi)
        if panels:
            values = values @ panels[-1][2][:, -1]
        panels.append((nodes, weights, values))
    return panels


def _panel(a: float, q: float, lo: float, hi: float):
    """Nodes, weights and the unit-data Phi at the nodes of one panel [lo, hi].

    With sigma = y'' at the nodes and w = hi - lo, y = y0 + y0' (t - lo) +
    w^2 J2 sigma and y' = y0' + w J1 sigma, so y'' + c y = 0,
    c = a - 2 q cos 2t, becomes (I + w^2 diag(c) J2) sigma =
    -c (y0 + y0' (t - lo)): one dense solve for both columns (Greengard,
    SIAM J. Numer. Anal. 28, 1071 (1991)).  This integral form stays well
    conditioned as n grows, where collocation with differentiation
    matrices loses about n^4 eps.

    n is the first size of _SIZES whose coefficients have decayed: in every
    column of (y, y') the last _TAIL are at most the largest times the
    rounding floor.  The floor,
    (n + max|c| w^2) eps, is what rounding leaves in the tail of a
    resolved solve: n from the coefficient transform, the rest from a
    system whose norm is up to 1 + max|c| w^2 / 2.
    """
    width = hi - lo
    for n in _SIZES:
        unit, weights, to_coeffs, lift, base = _chebyshev(n)
        nodes = lo + width * unit
        nodes[-1] = hi
        c = a - 2.0 * q * np.cos(2.0 * nodes)
        base = base * (1.0, width)
        system = lift[:n + 1] * (width ** 2 * c)[:, None]
        system.flat[::n + 2] += 1.0
        sigma = np.linalg.solve(system, base * -c[:, None])
        values = (lift @ sigma).reshape(2, n + 1, 2)
        values[0] *= width ** 2
        values[0] += base
        values[1] *= width
        values[1, :, 1] += 1.0
        coeffs = np.abs(to_coeffs @ values)
        floor = (n + np.abs(c).max() * width ** 2) * _EPS
        if (coeffs[:, -_TAIL:].max(1) <= floor * coeffs.max(1)).all():
            return nodes, weights, values
    raise NumericalError(f"Mathieu half period at a = {a:g}, q = {q:g} is not "
                         f"resolved by {_SIZES[-1] + 1} Chebyshev nodes on "
                         f"[{lo:g}, {hi:g}]", t=0.0)


def _interpolate(panels, s):
    """Phi at each s in [0, end], read off the panels; shape (s.size, 2, 2).

    _CHUNK points at a time, each from the panel that holds it, so that the
    temporaries stay O(_CHUNK n) whatever the grid.
    """
    out = np.empty((s.size, 2, 2))
    starts = [nodes[0] for nodes, _, _ in panels]
    for lo in range(0, s.size, _CHUNK):
        chunk, dest = s[lo:lo + _CHUNK], out[lo:lo + _CHUNK]
        owner = np.searchsorted(starts, chunk, side="right") - 1
        for p, panel in enumerate(panels):
            mine = owner == p
            if mine.any():
                dest[mine] = _barycentric(*panel, chunk[mine])
    return out


def _barycentric(nodes, weights, values, s):
    """values (2, n + 1, 2), given at the nodes, interpolated to each s.

    Barycentric formula; a point on a node takes that node's values
    exactly.  Returns shape (s.size, 2, 2).
    """
    diff = s[:, None] - nodes
    on_node = diff == 0.0
    diff[on_node] = 1.0
    ratio = weights / diff
    out = (ratio @ values) / ratio.sum(axis=1)[:, None]
    point, node = np.nonzero(on_node)
    out[:, point] = values[:, node]
    return out.transpose(1, 0, 2)


def _powers(m: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """m^k for each of the nondecreasing nonnegative ks, stacked.

    Forms one power per distinct k, then gathers them.  Steps from one
    distinct k to the next by the binary digits of the gap, so a dense run
    of periods costs one product each and a sparse one about log2 of its
    gap.  Each power is the same products, in the same order, as a loop
    over every k would form: a repeated k adds none there either.
    """
    distinct, where = np.unique(ks, return_inverse=True)
    out = np.empty((distinct.size, 2, 2))
    acc, done, squares = np.eye(2), 0, [m]
    for i, k in enumerate(distinct.tolist()):
        gap, bit = k - done, 0
        while gap:
            if bit == len(squares):
                squares.append(squares[-1] @ squares[-1])
            if gap & 1:
                acc = acc @ squares[bit]
            gap >>= 1
            bit += 1
        out[i] = acc
        done = k
    return out[where]


def frames(cfg: DrivenOscillatorConfig, grid) -> list:
    """Motion frames on a physical-time grid via the fundamental-solution
    reduction.

    This is the specialized route; it takes the grid that evolve takes, but
    no integration setting (see fundamental_solutions), and must agree
    with the generic evolution of cfg.schedule() on it, which is the
    cross-check the test suite runs.  The basis is solved at
    tau = omega0 t / 2; frame i carries grid[i] as its time, exactly, and
    the phase identically zero (beta = 2 delta, gamma = 0).  A grid whose
    omega0 t overflows is refused as non-finite (DomainError).  A
    NumericalError from the basis is raised again in physical time: its
    .t is the grid time whose tau failed, and its message begins with it.
    """
    ts = _check_grid(grid)
    with np.errstate(over="ignore"):  # an overflowing omega0 t is refused below
        taus = cfg.omega0 * ts / 2.0
    try:
        basis = fundamental_solutions(mathieu_parameters(cfg), taus)
    except NumericalError as exc:
        # the basis refuses one of the grid's own taus, which increase with t
        t = float(ts[np.searchsorted(taus, exc.t)])
        raise NumericalError(f"at t = {t:g}: {exc}", t=t) from exc
    f0, g0 = cfg.init.f0, cfg.init.g0
    y_start = f0 - g0
    dy_start = 2j * (f0 + g0)
    yy = y_start * basis.yc + dy_start * basis.ys
    dyy = y_start * basis.dyc + dy_start * basis.dys
    xx = -0.5j * dyy
    f, g = 0.5 * (xx + yy), 0.5 * (xx - yy)
    return _frames(ts.tolist(), f.tolist(), g.tolist(), repeat(cfg.init.varphi0),
                   repeat(0.0), repeat(0.0))


def transition_snapshot(cfg: DrivenOscillatorConfig, tau: float,
                        tail_tolerance: float = TAIL_TOLERANCE, n_max: int = N_MAX,
                        settings=None):
    """Number-basis probabilities P_n of the state at one tau.

    The state is that of frames at t = 2 tau / omega0, whose basis is
    solved at omega0 t / 2: tau to within an ulp.  A tau past 2^63 periods
    (about 2.9e19) raises NumericalError, as in fundamental_solutions; like
    every NumericalError of frames, it carries that t, not tau.  A tau that
    is not a finite nonnegative real number (NaN, a string, None) raises
    DomainError naming tau.

    settings is accepted and never read: the Mathieu route takes no
    integration setting.  The parameter stays only because the fock_deep
    workload of perfbench (FockDeep.run) passes one positionally.
    """
    # just [0.0] when tau is 0, or when t underflows to 0
    grid = np.unique([0.0, 2.0 * _read("tau", tau, "finite and nonnegative") / cfg.omega0])
    frame = frames(cfg, grid)[-1]
    return transition_probabilities(frame, tail_tolerance=tail_tolerance, n_max=n_max)
