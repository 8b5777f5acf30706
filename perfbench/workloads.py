"""The benchmark's workloads: seeded inputs, one task, and a correctness gate.

Each workload builds a pool of tasks from its seed.  The timed loop runs the
pool in a fixed order, whole passes at a time, so every pass does
identical work and per-pass counts repeat exactly for one seed.

    fock_deep         transition_snapshot deep in the first Mathieu
                      instability tongue; certified depths from 1e4 to
                      2.5e6 levels, the same number of levels in every
                      depth octave.  The sequential recurrence in
                      `states` does almost all the work.
    trajectory_sweep  generic `evolve` of seeded time-dependent
                      Hamiltonians, then `observe` on every frame,
                      `hamilton_residual`, a few small number-basis
                      expansions and an overlap grid.  `hamiltonian` and
                      `motion` dominate; `states` runs many tiny expansions.
    cli_runs          `cssdyn.cli.main` on generated INI files: evolve, fock,
                      density and overlap, explicit and preset.

run(item) is the timed task.  check(item, output) runs outside the timed
region and returns (levels, frames, error): the certified number-basis
levels and motion frames the task produced, and None or a description of
the failed check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os

import numpy as np

import cssdyn
import cssdyn.cli
import cssdyn.mathieu
import cssdyn.motion
import cssdyn.observables
import cssdyn.states
from cssdyn import (ComplexParts, Constant, CoefficientSchedule,
                    DrivenOscillatorConfig, Harmonic, InitialConditions,
                    IntegratorSettings, Polynomial, Table, UnitContext)

from tracing import Tracer


class SeededDesign:
    """Parameter draws: a fixed design point moved by a small seeded jitter.

    Every parameter is drawn from one fixed stream (the design), then moved
    by up to JITTER of its range from a stream seeded by --seed.  Branch
    choices and the task order come from the design stream alone, so every
    seed makes the same number of draws in the same places: the mix of
    tasks, and so a pass's cost, stays the same from seed to seed, while
    every input, and every exact work count, depends on the seed.
    """

    DESIGN_SEED = 20210426
    JITTER = 0.02

    def __init__(self, seed):
        self._design = np.random.default_rng(self.DESIGN_SEED)
        self._jitter = np.random.default_rng(seed)

    def uniform(self, lo=0.0, hi=1.0, size=None):
        x = self._design.uniform(lo, hi, size)
        x = x + self.JITTER * (hi - lo) * self._jitter.uniform(-1.0, 1.0, size)
        return np.clip(x, lo, hi) if size is not None else float(min(max(x, lo), hi))

    def integers(self, lo, hi):
        """An integer in [lo, hi)."""
        x = int(self._design.integers(lo, hi))
        width = max(1, int(self.JITTER * (hi - lo)))
        return min(max(x + int(self._jitter.integers(-width, width + 1)), lo), hi - 1)

    def coin(self):
        """A fair branch choice, from the design stream only."""
        return bool(self._design.uniform() < 0.5)

    def shuffled(self, items):
        """The items in the design's fixed order.

        The order stays the same for every seed: the allocator's reuse of
        freed buffers, and so peak memory, depends on it.
        """
        return [items[i] for i in self._design.permutation(len(items))]


# ---------------------------------------------------------------------------
# fock_deep


class FockDeep:
    """Number-basis statistics of strongly squeezed Mathieu states.

    Each task draws (a, q) inside the first instability tongue, a small
    displacement, and a tau chosen so the certified depth lands near its
    target.  The targets run from 1e4 to 2.5e6 levels, one task each,
    evenly spaced in 1/depth: every depth octave then holds the same number
    of levels, so shallow and deep expansions weigh alike in the level
    rate.  This is a neutral spread over the range, not a measured
    distribution of requests.  The depth of a nearly
    undisplaced squeezed state is about 42 |f|^2 levels at tail 1e-10, and
    |f(tau)|^2 is cheap to scan from one period's fundamental solutions
    (Floquet: the monodromy matrix advances the state by whole periods), so
    the depths hold within a few percent whatever the seed.  The deepest
    target sits in the middle of a doubling band of the recurrence's
    growing buffer, which keeps peak memory steady.
    """

    name = "fock_deep"
    DEPTHS = 1.0 / np.linspace(1 / 1e4, 1 / 2.5e6, 40)  # target certified levels, one task each
    LEVELS_PER_F2 = 42.0
    TAIL = 1e-10
    N_MAX = 50_000_000
    # the deep frames need the tight settings the acceptance tests use; at
    # the default rtol the normalization error alone exceeds 2 * TAIL
    SETTINGS = IntegratorSettings(rtol=1e-13, atol=1e-15)
    _PERIOD = np.linspace(0.0, math.pi, 2001)

    def __init__(self, seed, workdir):
        rng = SeededDesign(seed)
        items = []
        for target in self.DEPTHS:
            a = rng.uniform(0.02, 0.12)
            q = rng.uniform(1.0, 1.15)
            varphi0 = rng.uniform(0.0, 0.15) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
            # a = 4 epsilon0 / (m0 omega0^2), q = 2 eta0 / (m0 omega0^2); m0 = 1, omega0 = 10
            cfg = DrivenOscillatorConfig(epsilon0=25.0 * a, eta0=50.0 * q,
                                         init=InitialConditions(1.0, 0.0, complex(varphi0)))
            items.append((cfg, self._tau_for(cfg, target / self.LEVELS_PER_F2)))
        self.warmup_item = items[0]  # the shallowest
        self.items = rng.shuffled(items)

    def _tau_for(self, cfg, f2_target):
        """First tau with |f(tau)|^2 >= f2_target, scanned period by period."""
        b = cssdyn.mathieu.fundamental_solutions(cssdyn.mathieu.mathieu_parameters(cfg),
                                                 self._PERIOD)
        monodromy = np.array([[b.yc[-1], b.ys[-1]], [b.dyc[-1], b.dys[-1]]])
        f0, g0 = cfg.init.f0, cfg.init.g0
        state = np.array([f0 - g0, 2j * (f0 + g0)])  # (Y, Y') at tau = 0
        for period in range(16):
            y = state[0] * b.yc + state[1] * b.ys
            dy = state[0] * b.dyc + state[1] * b.dys
            f2 = np.abs(0.5 * (y - 0.5j * dy)) ** 2  # f = (X + Y)/2, X = -(i/2) Y'
            hit = np.flatnonzero(f2 >= f2_target)
            if hit.size:
                return period * math.pi + float(self._PERIOD[hit[0]])
            state = monodromy @ state
        raise RuntimeError(f"|f|^2 = {f2_target:g} not reached for {cfg}")

    def run(self, item):
        cfg, tau = item
        return cssdyn.mathieu.transition_snapshot(cfg, tau, self.TAIL, self.N_MAX, self.SETTINGS)

    def check(self, item, probs):
        mass = float(np.sum(probs))
        if abs(mass - 1.0) > 2.0 * self.TAIL:
            return probs.size, 2, f"completeness gap {abs(mass - 1.0):.3e} > {2 * self.TAIL:g}"
        if int(np.argmax(probs)) != 0:
            return probs.size, 2, f"peak at n = {int(np.argmax(probs))}, not 0"
        return probs.size, 2, None

    def close(self):
        pass


# ---------------------------------------------------------------------------
# trajectory_sweep


def _harmonic(rng, offset, amp, w):
    return Harmonic(offset=rng.uniform(*offset), amplitude=rng.uniform(*amp),
                    omega=rng.uniform(*w))


def _table(rng, t_max, lo, hi, knots=7):
    return Table(times=tuple(np.linspace(0.0, t_max, knots)),
                 values=tuple(rng.uniform(lo, hi, knots)))


def _schedule(kind, rng, units, t_max):
    """One seeded Hamiltonian of the given family; returns (schedule, constant)."""
    if kind == "harmonic_physical":
        return CoefficientSchedule.physical(
            units, m=rng.uniform(0.8, 1.2), k=_harmonic(rng, (0.8, 1.5), (0.2, 0.6), (1.0, 3.0)),
            Omega=rng.uniform(-0.2, 0.2), F=_harmonic(rng, (-0.2, 0.2), (0.1, 0.5), (0.5, 2.0)),
            E=rng.uniform(-0.5, 0.5)), False
    if kind == "polynomial_physical":
        return CoefficientSchedule.physical(
            units, m=Polynomial((rng.uniform(0.8, 1.2), rng.uniform(0.0, 0.05))),
            k=Polynomial((rng.uniform(0.8, 1.5), rng.uniform(-0.05, 0.05), rng.uniform(0.0, 0.01))),
            V=_harmonic(rng, (-0.2, 0.2), (0.1, 0.3), (0.5, 2.0)),
            F=rng.uniform(-0.3, 0.3)), False
    if kind == "table_physical":
        return CoefficientSchedule.physical(
            units, m=rng.uniform(0.8, 1.2), k=_table(rng, t_max, 0.5, 2.0),
            F=_table(rng, t_max, -0.4, 0.4), Omega=rng.uniform(-0.1, 0.1)), False
    if kind == "harmonic_algebraic":
        # beta - Re(alpha) stays >= 0.5, so the (x, p) form exists for the residual
        return CoefficientSchedule.algebraic(
            units, beta=_harmonic(rng, (1.4, 1.8), (0.1, 0.3), (1.0, 3.0)),
            alpha=ComplexParts(_harmonic(rng, (-0.1, 0.1), (0.2, 0.5), (1.5, 3.5)),
                               Constant(rng.uniform(-0.2, 0.2))),
            gamma=ComplexParts(_table(rng, t_max, -0.3, 0.3),
                               _harmonic(rng, (-0.1, 0.1), (0.1, 0.3), (0.5, 2.0))),
            delta=Polynomial((rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1)))), False
    if kind == "constant_algebraic":
        beta = rng.uniform(1.0, 1.6)
        alpha = rng.uniform(0.2, 0.7) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
        gamma = rng.uniform(0.0, 0.4) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
        return CoefficientSchedule.algebraic(
            units, alpha=complex(alpha), beta=beta, gamma=complex(gamma),
            delta=rng.uniform(-0.5, 0.5)), True
    if kind == "constant_physical":
        return CoefficientSchedule.physical(
            units, m=rng.uniform(0.7, 1.3), k=rng.uniform(-0.3, 1.5),
            Omega=rng.uniform(-0.3, 0.3), F=rng.uniform(-0.3, 0.3),
            V=rng.uniform(-0.3, 0.3), E=rng.uniform(-0.5, 0.5)), True
    raise ValueError(kind)


class TrajectorySweep:
    """Generic evolution plus per-frame observables of seeded Hamiltonians."""

    name = "trajectory_sweep"
    # families cycle through the pool, equal counts each (a neutral mix);
    # two of six have constant coefficients and are also checked against
    # the closed form
    FAMILIES = ("harmonic_physical", "polynomial_physical", "table_physical",
                "harmonic_algebraic", "constant_algebraic", "constant_physical")
    TASKS = 96
    POINTS = (181, 222)  # grid points per task
    SQUEEZE_TARGETS = (0.2, 0.35, 0.5)  # |zeta| of the frames expanded in the number basis
    OVERLAP_FRAMES = 6
    TAIL = 1e-10
    SETTINGS = IntegratorSettings()

    def __init__(self, seed, workdir):
        rng = SeededDesign(seed)
        items = []
        for i in range(self.TASKS):
            kind = self.FAMILIES[i % len(self.FAMILIES)]
            units = UnitContext(hbar=rng.uniform(0.8, 1.2), l=rng.uniform(0.8, 1.2))
            t_max = rng.uniform(3.0, 5.0)
            schedule, constant = _schedule(kind, rng, units, t_max)
            width = cssdyn.motion.from_initial_width(rng.uniform(0.3, 0.6) * units.l,
                                                     rng.uniform(0.0, 2 * math.pi), units)
            varphi0 = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            init = InitialConditions(width.f0, width.g0, varphi0)
            grid = np.linspace(0.0, t_max, rng.integers(*self.POINTS))
            items.append((schedule, init, grid, constant))
        self.warmup_item = items[0]
        self.items = rng.shuffled(items)
        self._closed_form_checked = set()

    def run(self, item):
        schedule, init, grid, _ = item
        frames = cssdyn.motion.evolve(schedule, init, grid, self.SETTINGS)
        units = schedule.units
        records = [cssdyn.observables.observe(fr, schedule.algebraic_at(fr.t), units)
                   for fr in frames]
        residual = cssdyn.observables.hamilton_residual(records, schedule)
        zeta = np.array([abs(fr.g / fr.f) for fr in frames])
        picks = sorted({int(np.argmin(np.abs(zeta - z))) for z in self.SQUEEZE_TARGETS})
        windings = cssdyn.states.branch_windings(frames)
        dists = [cssdyn.states.fock_coefficients(frames[i], self.TAIL, winding=windings[i])
                 for i in picks]
        grid_idx = np.linspace(0, len(frames) - 1, self.OVERLAP_FRAMES).astype(int)
        overlaps = np.array([[cssdyn.states.overlap(frames[i], frames[j], windings[i], windings[j])
                              for j in grid_idx] for i in grid_idx])
        return frames, records, residual, picks, dists, overlaps

    def check(self, item, output):
        schedule, init, grid, constant = item
        frames, records, residual, picks, dists, overlaps = output
        levels = sum(d.truncation + 1 for d in dists)
        n = len(frames)

        defect = max(fr.unitarity_defect for fr in frames)
        if defect > self.SETTINGS.drift_threshold:
            return levels, n, f"unitarity defect {defect:.3e}"
        # sr / (hbar^2/4) = (|f|^2 - |g|^2)^2, so it moves by about twice the defect
        floor = 0.25 * schedule.units.hbar ** 2
        excess = max(abs(rec.sr / floor - 1.0) for rec in records)
        if excess > 2.5 * self.SETTINGS.drift_threshold:
            return levels, n, f"sr invariant off by {excess:.3e}"
        if not all(math.isfinite(r) for r in residual):
            return levels, n, f"non-finite Hamilton residual {residual}"
        # the expansion must hold the state's whole norm up to the certified
        # tail; the norm itself (the closed-form self-overlap) is 1 only up
        # to the frame's integration error
        for i, d in zip(picks, dists):
            norm = cssdyn.states.overlap(frames[i], frames[i]).real
            gap = abs(float(np.sum(d.probabilities)) - norm)
            if gap > 2.0 * self.TAIL:
                return levels, n, f"number-basis completeness gap {gap:.3e}"
        slack = 4.0 * self.SETTINGS.drift_threshold
        if np.max(np.abs(np.diag(overlaps) - 1.0)) > slack:
            return levels, n, "self-overlap differs from 1"
        if np.max(np.abs(overlaps - overlaps.conj().T)) > 1e-12 or np.max(np.abs(overlaps)) > 1 + slack:
            return levels, n, "overlap grid is not a Gram matrix of unit states"
        key = id(item)
        if constant and key not in self._closed_form_checked:
            alg = schedule.algebraic_at(0.0)
            for i in (n // 3, n - 1):
                ref = cssdyn.motion.closed_form(alg, init, grid[i], schedule.units)
                fr = frames[i]
                scale = max(1.0, abs(ref.f))
                gap = max(abs(fr.f - ref.f), abs(fr.g - ref.g), abs(fr.varphi - ref.varphi)) / scale
                phase_gap = max(abs(fr.phase_phi - ref.phase_phi),
                                abs(fr.phase_vartheta - ref.phase_vartheta))
                if gap > 1e-7 or phase_gap > 1e-6 * max(1.0, abs(ref.phase_vartheta)):
                    return levels, n, f"closed form differs by {gap:.3e} (phases {phase_gap:.3e})"
            self._closed_form_checked.add(key)
        return levels, n, None

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cli_runs


def _num(rng, lo, hi):
    return f"{rng.uniform(lo, hi):.6g}"


def _explicit_ini(rng, *, t_max, points, with_table):
    """An explicit [hamiltonian] section plus [initial] and [integration]."""
    lines = ["[hamiltonian]"]
    if rng.coin():
        lines += ["parameterization = physical",
                  f"m = {_num(rng, 0.8, 1.2)}",
                  f"k = harmonic {_num(rng, 0.8, 1.5)} {_num(rng, 0.2, 0.5)} {_num(rng, 1.0, 3.0)}",
                  f"Omega = {_num(rng, -0.2, 0.2)}",
                  f"F = poly {_num(rng, -0.2, 0.2)} {_num(rng, -0.05, 0.05)}"]
        if with_table:
            knots = np.linspace(0.0, t_max, 5)
            lines.append("V = table " + " ".join(f"{t:.6g}:{rng.uniform(-0.3, 0.3):.6g}"
                                                for t in knots))
    else:
        lines += ["parameterization = algebraic",
                  f"hbar = {_num(rng, 0.8, 1.2)}",
                  f"beta = harmonic {_num(rng, 1.4, 1.8)} {_num(rng, 0.1, 0.3)} {_num(rng, 1.0, 3.0)}",
                  f"alpha_re = harmonic {_num(rng, -0.1, 0.1)} {_num(rng, 0.2, 0.5)} {_num(rng, 1.5, 3.5)}",
                  f"alpha_im = {_num(rng, -0.2, 0.2)}",
                  f"gamma_re = {_num(rng, -0.3, 0.3)}",
                  f"delta = poly {_num(rng, -0.5, 0.5)} {_num(rng, -0.1, 0.1)}"]
        if with_table:
            knots = np.linspace(0.0, t_max, 5)
            lines.append("gamma_im = table " + " ".join(f"{t:.6g}:{rng.uniform(-0.3, 0.3):.6g}"
                                                       for t in knots))
    lines += ["", "[initial]"]
    if rng.coin():
        lines += [f"sigma_x0 = {_num(rng, 0.3, 0.6)}", f"theta = {_num(rng, 0.0, 6.28)}"]
    lines += [f"varphi0_re = {_num(rng, -1.0, 1.0)}", f"varphi0_im = {_num(rng, -1.0, 1.0)}",
              "", "[integration]", f"t_max = {t_max:.6g}", f"num_points = {points}"]
    return lines


def _preset_ini(rng, t_max, points):
    # the tongue near the a = 0.04, q = 1 preset: epsilon0 = 25 a, eta0 = 50 q
    return ["[hamiltonian]", "preset = mathieu",
            f"epsilon0 = {_num(rng, 0.5, 2.5)}", f"eta0 = {_num(rng, 48.0, 54.0)}",
            f"varphi0_re = {_num(rng, -1.0, 1.0)}", f"varphi0_im = {_num(rng, -1.0, 1.0)}",
            "", "[integration]", f"t_max = {t_max:.6g}", f"num_points = {points}"]


class CliRuns:
    """One `cssdyn.cli.main` call per task on generated configuration files.

    Every (command, style) pair gets the same number of tasks: a neutral
    mix, not measured usage.  `validate` is left out: at the default
    integrator settings its normalization check compares the number-basis
    mass with 1, so the frame's integration error alone can fail it
    (about 1 generated configuration in 200), and a workload must not fail.

    Correctness: exit code 0, the row count each command promises, and
    byte-identical output.  The first execution of each command is rerun
    once, untimed and traced, which both proves the rerun byte-identical
    and counts the levels and frames it produced; later executions must
    reproduce the same bytes.
    """

    name = "cli_runs"
    COMMANDS = ("evolve", "fock", "density", "overlap")
    STYLES = ("explicit", "preset")
    TASKS_PER_PAIR = 10
    OUTPUT = ["", "[output]", "tail_tolerance = 1e-10", "n_max = 10000000"]

    def __init__(self, seed, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = SeededDesign(seed)
        items = []
        for command in self.COMMANDS:
            for style in self.STYLES:
                for _ in range(self.TASKS_PER_PAIR):
                    items.append(self._make(rng, command, style, len(items)))
        self.warmup_item = items[0]
        self.items = rng.shuffled(items)
        self._reference = {}

    def _write(self, name, lines):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines + self.OUTPUT) + "\n")
        return path

    def _make(self, rng, command, style, index):
        t_max = rng.uniform(3.0, 5.0) if style == "explicit" else rng.uniform(0.8, 1.4)
        points = rng.integers(151, 301)
        if style == "preset":
            ini = _preset_ini(rng, t_max, points)
        else:
            ini = _explicit_ini(rng, t_max=t_max, points=points, with_table=True)
        config = self._write(f"task{index:03d}.ini", ini)
        out = os.path.join(self.workdir, f"task{index:03d}.csv")
        argv = [command, "--config", config, "--out", out]
        rows = None
        if command == "evolve":
            rows = points
        elif command == "fock":
            times = sorted(rng.uniform(0.0, 0.95 * t_max, 2))
            argv += ["--times", ",".join(["0"] + [f"{t:.4g}" for t in times])]
        elif command == "density":
            x_points = rng.integers(257, 1025)
            argv += ["--time", f"{rng.uniform(0.2, 0.95 * t_max):.4g}", "--x-points", str(x_points)]
            rows = x_points
        elif command == "overlap":
            if style == "preset":
                # two presets share the default hbar, m0 and omega0, so their units
                other = _preset_ini(rng, t_max, points)
            else:
                other = _explicit_ini(rng, t_max=t_max, points=points, with_table=False)
                # both states must share hbar and l: copy the first file's hbar
                hbar = next((ln for ln in ini if ln.startswith("hbar")), None)
                other = [ln for ln in other if not ln.startswith("hbar")]
                if hbar:
                    other.insert(2, hbar)
            argv += ["--config2", self._write(f"task{index:03d}b.ini", other),
                     "--time", f"{rng.uniform(0.2, 0.95 * t_max):.4g}"]
            rows = 1
        return (index, argv, out, rows)

    def run(self, item):
        _, argv, _, _ = item
        with contextlib.redirect_stdout(io.StringIO()):
            return cssdyn.cli.main(argv)

    def check(self, item, code):
        index, argv, out, rows = item
        if code != 0:
            return 0, 0, f"{argv[0]} exited with {code}"
        with open(out, "rb") as fh:
            data = fh.read()
        ref = self._reference.get(index)
        if ref is None:
            ref = self._rerun(item, data)
            if isinstance(ref, str):
                return 0, 0, ref
            self._reference[index] = ref
        digest, levels, frames = ref
        if hashlib.sha256(data).digest() != digest:
            return levels, frames, f"{argv[0]} output changed between executions"
        return levels, frames, None

    def _rerun(self, item, data):
        """Untimed traced rerun: byte-identity, row count, and the work done."""
        index, argv, out, rows = item
        rerun_out = out + ".rerun"
        tracer = Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cssdyn.cli.main(argv[:4] + [rerun_out] + argv[5:])
        finally:
            tracer.uninstall()
        with open(rerun_out, "rb") as fh:
            again = fh.read()
        os.remove(rerun_out)
        if code != 0 or again != data:
            return f"{argv[0]} rerun is not byte-identical (exit {code})"
        lines = data.decode("utf-8").splitlines()
        if argv[0] == "fock":
            rows = int(tracer.counts["states.max_levels"])
        if len(lines) != rows + 1:
            return f"{argv[0]} wrote {len(lines) - 1} rows, expected {rows}"
        if argv[0] == "overlap" and abs(complex(*map(float, lines[1].split(",")[:2]))) > 1 + 1e-9:
            return "overlap modulus exceeds 1"
        frames = tracer.counts["motion.frames"] + tracer.counts["mathieu.frames"]
        return hashlib.sha256(data).digest(), int(tracer.counts["states.levels"]), int(frames)

    def close(self):
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


WORKLOADS = {cls.name: cls for cls in (FockDeep, TrajectorySweep, CliRuns)}
