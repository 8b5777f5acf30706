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
import math
import sys

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, DomainError, NumericalError
from .mathieu import frames as oscillator_frames
from .motion import evolve
from .observables import hamilton_residual, observe, wavefunction
from .states import branch_windings, overlap, parameters, transition_probabilities

_EVOLVE_COLUMNS = ("t,re_f,im_f,re_g,im_g,re_phi,im_phi,xi_re,xi_im,zeta_re,"
                   "zeta_im,xbar,pbar,sigma_x,sigma_p,sigma_xp,heisenberg,sr,energy")


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


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--x-points", type=int, default=None,
                   help="override [output] x_points")
    p.add_argument("--x-span-sigmas", type=float, default=None,
                   help="override [output] x_span_sigmas")
    p.set_defaults(run=cmd_density)

    p = sub.add_parser("overlap", help="inner product of two evolved states")
    _common(p)
    p.add_argument("--config2", required=True,
                   help="run configuration of the second state")
    p.add_argument("--time", type=float, required=True)
    p.set_defaults(run=cmd_overlap)

    p = sub.add_parser("validate", help="run numerical consistency checks")
    _common(p)
    p.set_defaults(run=cmd_validate)
    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--out", default=None,
                   help="output CSV path (default: [output] out, else <command>.csv)")


def _out_path(args, rc: RunConfig) -> str:
    return args.out or rc.out or f"{args.command}.csv"


def _fmt(value: float) -> str:
    return "%.17g" % value


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _frames_on(rc: RunConfig, grid):
    """Evolution frames on a time grid, routed through the preset's
    fundamental-solution path when one is configured."""
    if rc.preset is not None:
        tau = rc.preset.omega0 * np.asarray(grid, dtype=float) / 2.0
        return oscillator_frames(rc.preset, tau, rc.settings)
    return evolve(rc.schedule, rc.init, grid, rc.settings)


def _parse_times(raw: str):
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError("--times must list at least one time")
    values = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            raise ConfigError(f"--times entry {tok!r} is not a number") from None
        if not math.isfinite(value) or value < 0:
            raise ConfigError(f"--times entry {tok!r} must be finite and >= 0")
        values.append(value)
    return tokens, values


def _frames_at(rc: RunConfig, times):
    """Map {time: frame} for arbitrary nonnegative times (0 is always run)."""
    grid = sorted(set(times) | {0.0})
    frames = _frames_on(rc, np.array(grid))
    return dict(zip(grid, frames))


def _single_frame(rc: RunConfig, t: float):
    """Frame at one time plus the f-branch winding accumulated since t=0.

    The winding needs the whole path, so the grid is dense even though only
    the endpoint is reported.
    """
    if t < 0 or not math.isfinite(t):
        raise ConfigError(f"--time must be finite and >= 0, got {t!r}")
    grid = np.array([0.0]) if t == 0 else np.linspace(0.0, t, rc.num_points)
    frames = _frames_on(rc, grid)
    return frames[-1], branch_windings(frames)[-1]


def cmd_evolve(args) -> int:
    rc = load_config(args.config)
    units = rc.schedule.units
    rows = []
    for fr in _frames_on(rc, rc.time_grid()):
        rec = observe(fr, rc.schedule.algebraic_at(fr.t), units)
        sd = parameters(fr)
        rows.append([_fmt(v) for v in (
            fr.t, fr.f.real, fr.f.imag, fr.g.real, fr.g.imag,
            fr.varphi.real, fr.varphi.imag, sd.xi.real, sd.xi.imag,
            sd.zeta.real, sd.zeta.imag, rec.xbar, rec.pbar, rec.sigma_x,
            rec.sigma_p, rec.sigma_xp, rec.heisenberg, rec.sr, rec.energy)])
    path = _out_path(args, rc)
    _write_csv(path, _EVOLVE_COLUMNS.split(","), rows)
    print(f"wrote {len(rows)} frames to {path}")
    return 0


def cmd_fock(args) -> int:
    rc = load_config(args.config)
    tokens, values = _parse_times(args.times)
    by_time = _frames_at(rc, values)
    columns = {}
    for tok, value in zip(tokens, values):
        if tok not in columns:
            columns[tok] = transition_probabilities(
                by_time[value], rc.tail_tolerance, rc.n_max)
    depth = max(col.size for col in columns.values())
    header = ["n"] + [f"P_{tok}" for tok in columns]
    rows = []
    for n in range(depth):
        row = [str(n)]
        for col in columns.values():
            row.append(_fmt(col[n] if n < col.size else 0.0))
        rows.append(row)
    path = _out_path(args, rc)
    _write_csv(path, header, rows)
    print(f"wrote {depth} levels x {len(columns)} times to {path}")
    return 0


def cmd_density(args) -> int:
    rc = load_config(args.config)
    units = rc.schedule.units
    frame, winding = _single_frame(rc, args.time)
    rec = observe(frame, rc.schedule.algebraic_at(frame.t), units)
    points = args.x_points if args.x_points is not None else rc.x_points
    span = args.x_span_sigmas if args.x_span_sigmas is not None else rc.x_span_sigmas
    if points < 2:
        raise ConfigError(f"x points must be at least 2, got {points}")
    if span <= 0:
        raise ConfigError(f"x span must be positive, got {span}")
    xs = np.linspace(rec.xbar - span * rec.sigma_x,
                     rec.xbar + span * rec.sigma_x, points)
    psi = wavefunction(frame, xs, units, winding=winding)
    rows = [[_fmt(x), _fmt(p.real), _fmt(p.imag), _fmt(abs(p) ** 2)]
            for x, p in zip(xs, psi)]
    path = _out_path(args, rc)
    _write_csv(path, ["x", "re_psi", "im_psi", "rho"], rows)
    print(f"wrote {points} points at t={_fmt(frame.t)} to {path}")
    return 0


def cmd_overlap(args) -> int:
    rc1 = load_config(args.config)
    rc2 = load_config(args.config2)
    if rc1.schedule.units != rc2.schedule.units:
        raise ConfigError("both configurations must share hbar and l")
    frame1, winding1 = _single_frame(rc1, args.time)
    frame2, winding2 = _single_frame(rc2, args.time)
    value = overlap(frame1, frame2, winding1=winding1, winding2=winding2)
    path = _out_path(args, rc1)
    _write_csv(path, ["re_overlap", "im_overlap", "abs_overlap"],
               [[_fmt(value.real), _fmt(value.imag), _fmt(abs(value))]])
    print(f"overlap at t={_fmt(args.time)}: {abs(value):.12f} -> {path}")
    return 0


def cmd_validate(args) -> int:
    """Self-checks on the configured run; exit 1 when any fails.

    The generic integrator runs in monitoring mode here (no retry, no
    abort), so a tolerance breach surfaces as a failed check instead of an
    exception.  A preset routes through the generic schedule on purpose:
    this command judges the one pipeline the config describes.
    """
    rc = load_config(args.config)
    units = rc.schedule.units
    grid = rc.time_grid()
    frames = evolve(rc.schedule, rc.init, grid, rc.settings, enforce_drift=False)
    records = [observe(fr, rc.schedule.algebraic_at(fr.t), units) for fr in frames]
    checks = []

    drift = max(fr.unitarity_defect for fr in frames)
    checks.append(("unitarity", drift, rc.settings.drift_threshold,
                   drift < rc.settings.drift_threshold))

    floor = 0.25 * units.hbar ** 2
    excess = max(abs(rec.sr / floor - 1.0) for rec in records)
    checks.append(("sr_minimization", excess, 1e-8, excess < 1e-8))

    fine = np.linspace(0.0, rc.t_max, 2 * (rc.num_points - 1) + 1)
    fine_records = [observe(fr, rc.schedule.algebraic_at(fr.t), units)
                    for fr in evolve(rc.schedule, rc.init, fine, rc.settings,
                                     enforce_drift=False)]
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
    # frame's integration error
    picks = [frames[i] for i in (0, len(frames) // 2, len(frames) - 1)]
    masses = [float(np.sum(transition_probabilities(fr, rc.tail_tolerance, rc.n_max)))
              for fr in picks]
    defect = max(abs(m - overlap(fr, fr).real) for m, fr in zip(masses, picks))
    checks.append(("normalization", defect, 2.0 * rc.tail_tolerance,
                   defect < 2.0 * rc.tail_tolerance))

    rows = []
    failed = 0
    for name, measured, threshold, ok in checks:
        status = "PASS" if ok else "FAIL"
        failed += 0 if ok else 1
        print(f"{status} {name}: measured={measured:.6e} threshold={threshold:.6e}")
        rows.append([name, _fmt(measured), _fmt(threshold), status])
    path = _out_path(args, rc)
    _write_csv(path, ["check", "measured", "threshold", "status"], rows)
    print(f"{len(checks) - failed}/{len(checks)} checks passed -> {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
