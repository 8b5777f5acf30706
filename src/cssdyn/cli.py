"""Command line front end.

Subcommands: evolve, fock, density, overlap, validate.  Every command reads
a run configuration (see config.py) and writes one CSV file with %.17g
floats and LF line endings, so repeated runs are byte-identical.

Exit codes: 0 success / all checks passed; 1 a validate check failed;
2 configuration problem; 3 numerical failure (tolerance breach, tail not
certified).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .config import RunConfig, _linspace, _unquote, load_config, read_number
from .errors import ConfigError, DomainError, NumericalError
from .hamiltonian import validate
from .mathieu import frames as oscillator_frames
from .motion import evolve
from .observables import hamilton_residual, observe, wavefunction
from .states import branch_windings, overlap, parameters, transition_probabilities

_EVOLVE_COLUMNS = ("t,re_f,im_f,re_g,im_g,re_phi,im_phi,xi_re,xi_im,zeta_re,"
                   "zeta_im,xbar,pbar,sigma_x,sigma_p,sigma_xp,heisenberg,sr,energy")
_EVOLVE_ROW = ",".join(["%.17g"] * 19) + "\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:  # includes ConvergenceError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: it holds no
    per-call state, since each parse_args call fills a new namespace."""
    parser = argparse.ArgumentParser(
        prog="cssdyn",
        description="Evolve coherent squeezed states of time-dependent "
                    "quadratic Hamiltonians and tabulate their observables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="frames and observables over the time grid")
    _common(p)
    p.set_defaults(run=cmd_evolve)

    p = sub.add_parser("fock", help="number-basis probabilities at chosen times")
    _common(p)
    p.add_argument("--times", required=True,
                   help="comma-separated times, e.g. 0,1,2.5")
    p.set_defaults(run=cmd_fock)

    p = sub.add_parser("density", help="position wavefunction at one time")
    _common(p)
    p.add_argument("--time", required=True)
    p.add_argument("--x-points", help="override [output] x_points")
    p.add_argument("--x-span-sigmas", help="override [output] x_span_sigmas")
    p.set_defaults(run=cmd_density)

    p = sub.add_parser("overlap", help="inner product of two evolved states")
    _common(p)
    p.add_argument("--config2", required=True,
                   help="run configuration of the second state")
    p.add_argument("--time", required=True)
    p.set_defaults(run=cmd_overlap)

    p = sub.add_parser("validate", help="run numerical consistency checks")
    _common(p)
    p.set_defaults(run=cmd_validate)
    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--out", default=None,
                   help="output CSV path (default: [output] out, else <command>.csv)")


def _write_csv(args, rc: RunConfig, header: str, lines) -> str:
    """Write the header and the already formatted lines, LF-terminated, to
    --out, else [output] out, else <command>.csv; returns that path."""
    path = args.out or rc.out or f"{args.command}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)
    return path


def _observed(rc: RunConfig, frame):
    """The observables of a frame under the configured Hamiltonian."""
    return observe(frame, rc.schedule.algebraic_at(frame.t), rc.schedule.units)


def _check_schedule(rc: RunConfig, horizon: float) -> None:
    """Refuse with ConfigError a schedule that validate finds unusable over
    [0, horizon], the interval the command integrates."""
    problems = validate(rc.schedule, horizon)
    if problems:
        raise ConfigError(f"schedule invalid over [0, {horizon:.6g}]: " + "; ".join(problems))


def _frames_on(rc: RunConfig, grid):
    """Evolution frames on a time grid: a preset's through its
    fundamental-solution path, which takes the same grid, reads no
    [integration] setting, and whose parameters the preset checked when it
    was built; any other schedule's through evolve with rc.settings, once
    it passes its check over [0, grid[-1]]."""
    if rc.preset is not None:
        return oscillator_frames(rc.preset, grid)
    _check_schedule(rc, float(grid[-1]))
    return evolve(rc.schedule, rc.init, grid, rc.settings)


def _option(args, rc: RunConfig, key: str):
    """[output] key, or its command-line override read as the file reads it."""
    raw = getattr(args, key)
    return getattr(rc, key) if raw is None else read_number(key, raw, "--" + key.replace("_", "-"))


def _single_frame(rc: RunConfig, t: float):
    """Frame at one time plus the f-branch winding accumulated since t=0.

    The winding needs the whole path, so the grid is dense even though only
    the endpoint is reported.
    """
    grid = (np.array([0.0]) if t == 0 else
            _linspace(0.0, t, rc.num_points, "[integration] num_points"))
    frames = _frames_on(rc, grid)
    return frames[-1], branch_windings(frames)[-1]


def cmd_evolve(args) -> int:
    rc = load_config(args.config)
    rows = []
    for fr in _frames_on(rc, rc.time_grid()):
        rec = _observed(rc, fr)
        if not math.isfinite(rec.energy):
            raise NumericalError(f"at t = {fr.t:g}: the mean energy <H> = {rec.energy!r} "
                                 "leaves the floats", t=fr.t)
        sd = parameters(fr)
        rows.append(_EVOLVE_ROW % (
            fr.t, fr.f.real, fr.f.imag, fr.g.real, fr.g.imag,
            fr.varphi.real, fr.varphi.imag, sd.xi.real, sd.xi.imag,
            sd.zeta.real, sd.zeta.imag, rec.xbar, rec.pbar, rec.sigma_x,
            rec.sigma_p, rec.sigma_xp, rec.heisenberg, rec.sr, rec.energy))
    path = _write_csv(args, rc, _EVOLVE_COLUMNS, rows)
    print(f"wrote {len(rows)} frames to {path}")
    return 0


def cmd_fock(args) -> int:
    rc = load_config(args.config)
    tokens = [tok.strip() for tok in args.times.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError("--times must list at least one time")
    # one column per distinct time, named by its first token without quotes
    names = {}
    for tok in tokens:
        names.setdefault(read_number("time", tok, "--times"), _unquote(tok))
    grid = sorted(set(names) | {0.0})  # a run starts at t = 0
    by_time = dict(zip(grid, _frames_on(rc, np.array(grid))))
    columns = [transition_probabilities(by_time[t], rc.tail_tolerance, rc.n_max) for t in names]
    depth = max(col.size for col in columns)
    row = "%d" + ",%.17g" * len(columns) + "\n"
    rows = [row % (n, *(col[n] if n < col.size else 0.0 for col in columns))
            for n in range(depth)]
    path = _write_csv(args, rc, "n," + ",".join("P_" + name for name in names.values()), rows)
    print(f"wrote {depth} levels x {len(columns)} times to {path}")
    return 0


def cmd_density(args) -> int:
    rc = load_config(args.config)
    t = read_number("time", args.time, "--time")
    points, span = _option(args, rc, "x_points"), _option(args, rc, "x_span_sigmas")
    points_named = "[output] x_points" if args.x_points is None else "--x-points"
    frame, winding = _single_frame(rc, t)
    rec = _observed(rc, frame)
    lo, hi = rec.xbar - span * rec.sigma_x, rec.xbar + span * rec.sigma_x
    if not math.isfinite(hi - lo):  # linspace would write nan and inf
        raise ConfigError(f"x_span_sigmas = {span!r} times sigma_x = {rec.sigma_x:.6g} "
                          "puts the density grid past the floats")
    xs = _linspace(lo, hi, points, points_named)
    psi = wavefunction(frame, xs, rc.schedule.units, winding=winding)
    rows = ["%.17g,%.17g,%.17g,%.17g\n" % (x, p.real, p.imag, abs(p) ** 2)
            for x, p in zip(xs, psi)]
    path = _write_csv(args, rc, "x,re_psi,im_psi,rho", rows)
    print(f"wrote {points} points at t={frame.t:.17g} to {path}")
    return 0


def cmd_overlap(args) -> int:
    rc1 = load_config(args.config)
    rc2 = load_config(args.config2)
    if rc1.schedule.units != rc2.schedule.units:
        raise ConfigError("both configurations must share hbar and l")
    t = read_number("time", args.time, "--time")
    frame1, winding1 = _single_frame(rc1, t)
    frame2, winding2 = _single_frame(rc2, t)
    value = overlap(frame1, frame2, winding1=winding1, winding2=winding2)
    path = _write_csv(args, rc1, "re_overlap,im_overlap,abs_overlap",
                      ["%.17g,%.17g,%.17g\n" % (value.real, value.imag, abs(value))])
    print(f"overlap at t={t:.17g}: {abs(value):.12f} -> {path}")
    return 0


def cmd_validate(args) -> int:
    """Self-checks on the configured run; exit 1 when any fails.

    The generic integrator runs in monitoring mode here (no retry, no
    abort), so a tolerance breach surfaces as a failed check instead of an
    exception.  A preset routes through the generic schedule on purpose:
    this command judges the one pipeline the config describes.
    """
    rc = load_config(args.config)
    if rc.num_points < 3:
        # the Hamilton residual takes central differences over the grid
        raise ConfigError(f"validate needs [integration] num_points of at least 3, "
                          f"got {rc.num_points}")
    units = rc.schedule.units
    # one run on the halved step serves both grids: every other point of
    # linspace(0, t_max, 2n - 1) is linspace(0, t_max, n) bit for bit (halving
    # a normal float's step is exact), and the stepper's steps do not depend
    # on the times it reports
    fine = _linspace(0.0, rc.t_max, 2 * rc.time_grid().size - 1, "[integration] num_points")
    _check_schedule(rc, rc.t_max)
    fine_frames = evolve(rc.schedule, rc.init, fine, rc.settings, enforce_drift=False)
    fine_records = [_observed(rc, fr) for fr in fine_frames]
    frames, records = fine_frames[::2], fine_records[::2]
    checks = []

    drift = max(fr.unitarity_defect for fr in frames)
    checks.append(("unitarity", drift, rc.settings.drift_threshold,
                   drift < rc.settings.drift_threshold))

    floor = 0.25 * units.hbar ** 2
    excess = max(abs(rec.sr / floor - 1.0) for rec in records)
    checks.append(("sr_minimization", excess, 1e-8, excess < 1e-8))

    res = max(hamilton_residual(records, rc.schedule))
    res_fine = max(hamilton_residual(fine_records, rc.schedule))
    if res <= 1e-10:  # already at the noise floor; the ratio is meaningless
        ratio, ok = math.inf, True
    else:
        ratio = res / res_fine if res_fine > 0 else math.inf
        ok = ratio >= 3.5
    checks.append(("hamilton_convergence", ratio, 3.5, ok))

    # the number-basis mass must match the state's norm up to the certified
    # tail; the norm (the closed-form self-overlap) is 1 only up to the
    # frame's integration error.  A frame the expansion refuses (its |g| has
    # rounded up to |f|) has no such mass: its defect is inf
    def mass_defect(fr):
        try:
            mass = float(np.sum(transition_probabilities(fr, rc.tail_tolerance, rc.n_max)))
            return abs(mass - overlap(fr, fr).real)
        except DomainError:
            return math.inf

    defect = max(mass_defect(frames[i]) for i in (0, len(frames) // 2, len(frames) - 1))
    checks.append(("normalization", defect, 2.0 * rc.tail_tolerance,
                   defect < 2.0 * rc.tail_tolerance))

    rows = []
    failed = 0
    for name, measured, threshold, ok in checks:
        status = "PASS" if ok else "FAIL"
        failed += 0 if ok else 1
        print(f"{status} {name}: measured={measured:.6e} threshold={threshold:.6e}")
        rows.append("%s,%.17g,%.17g,%s\n" % (name, measured, threshold, status))
    path = _write_csv(args, rc, "check,measured,threshold,status", rows)
    print(f"{len(checks) - failed}/{len(checks)} checks passed -> {path}")
    return 1 if failed else 0
