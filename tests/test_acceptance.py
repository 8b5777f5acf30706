"""Release gate: ten numbered checks, one verdict line apiece.

Each test measures its quantities first and appends a PASS/FAIL line to
REPORT (printed in the terminal summary), so a red run still shows every
measured margin.
"""

import functools
import math
import subprocess
import sys

import numpy as np
import pytest

from cssdyn import (AlgebraicCoefficients, CoefficientSchedule,
                    DrivenOscillatorConfig, Harmonic, InitialConditions,
                    IntegratorSettings, MotionFrame, UnitContext, closed_form,
                    evolve, fock_coefficients, fock_wavefunction, frames,
                    fundamental_solutions, hamilton_residual,
                    mathieu_parameters, observe, overlap,
                    transition_probabilities, uncertainty, wavefunction)

from helpers import constant_draws, hyperboloid_frame, mean_path, poisson_reference

REPORT = []

PRESET = DrivenOscillatorConfig()  # hbar = m0 = eps0 = 1, w0 = 10, eta0 = 50
UNITS = UnitContext()


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                ok, detail = fn()
            except Exception as exc:
                REPORT.append(f"FAIL criterion {num} ({label}): crashed: {exc!r}")
                raise
            line = f"{'PASS' if ok else 'FAIL'} criterion {num} ({label}): {detail}"
            REPORT.append(line)
            assert ok, line
        return run
    return wrap


def preset_run(t_max=4.0, points=801):
    return frames(PRESET, np.linspace(0.0, t_max, points))


@criterion(1, "unitarity on the driven preset")
def test_unitarity_over_the_unstable_window():
    defect = max(fr.unitarity_defect for fr in preset_run())
    return defect < 1e-8, f"max | |f|^2-|g|^2 - 1 | = {defect:.3e} < 1e-08"


@criterion(2, "uncertainty product stays minimized")
def test_schroedinger_robertson_floor():
    floor = 0.25 * PRESET.hbar ** 2
    excess = max(abs(uncertainty(fr, PRESET.units)[1] - floor)
                 for fr in preset_run())
    return excess < 1e-8 * floor, \
        f"max |sr - hbar^2/4| = {excess:.3e} < {1e-8 * floor:.1e}"


@criterion(3, "constant coefficients against the closed form")
def test_random_constant_hamiltonians():
    # growth reaches e^10, which puts the absolute invariant floor near
    # |f|^2 eps ~ 1e-7; the drift monitor is scaled accordingly
    settings = IntegratorSettings(rtol=3e-14, atol=1e-16, drift_threshold=1e-6)
    grid = np.array([0.0, 0.5, 1.0, 5.0])
    worst = 0.0
    for alg in constant_draws():
        sched = CoefficientSchedule.algebraic(
            UNITS, alpha=alg.alpha, beta=alg.beta, gamma=alg.gamma,
            delta=alg.delta)
        for fr in evolve(sched, InitialConditions(), grid, settings)[1:]:
            ref = closed_form(alg, InitialConditions(), fr.t)
            worst = max(worst, abs(fr.f - ref.f), abs(fr.g - ref.g),
                        abs(fr.varphi - ref.varphi))
    return worst < 1e-8, f"100 draws, worst componentwise error {worst:.3e} < 1e-08"


@criterion(4, "independent pipelines agree")
def test_mathieu_route_against_generic_route():
    grid = np.linspace(0.0, 4.0, 801)
    tight = IntegratorSettings(rtol=1e-12, atol=1e-14)
    via_mathieu = frames(PRESET, grid)
    via_schedule = evolve(PRESET.schedule(), PRESET.init, grid, tight)
    worst = max(max(abs(a.f - b.f), abs(a.g - b.g), abs(a.varphi - b.varphi))
                for a, b in zip(via_mathieu, via_schedule))
    basis = fundamental_solutions(mathieu_parameters(PRESET), np.linspace(0.0, 20.0, 801))
    wdef = float(np.max(np.abs(basis.wronskian() - 1.0)))
    ok = worst < 1e-7 and wdef < 1e-9
    return ok, f"componentwise gap {worst:.3e} < 1e-07, wronskian defect {wdef:.3e} < 1e-09"


@criterion(5, "phase-space anchors and the closed orbit")
def test_trajectory_anchors_and_period():
    pts = mean_path(PRESET, np.linspace(0.0, 0.4, 21))
    _, x0, p0 = pts[0]
    p_gap = abs(p0 - math.sqrt(20.0))
    quiet = DrivenOscillatorConfig(eta0=0.0)
    orbit = mean_path(quiet, np.linspace(0.0, 2.0 * math.pi, 401))
    closure = math.hypot(orbit[-1][1] - orbit[0][1], orbit[-1][2] - orbit[0][2])
    ok = x0 == 0.0 and p_gap < 1e-12 and closure < 1e-6
    return ok, (f"xbar(0) = {x0!r}, |pbar(0) - sqrt(20)| = {p_gap:.1e}, "
                f"orbit closure after one period {closure:.3e} < 1e-06")


@criterion(6, "number statistics across the instability")
def test_photon_distributions():
    coherent = MotionFrame(t=0.0, f=1.0, g=0.0, varphi=-1j)
    dist = fock_coefficients(coherent, tail_tolerance=1e-16)
    poisson_gap = float(np.max(np.abs(
        dist.probabilities - poisson_reference(1.0, dist.probabilities.size))))

    squeezed = MotionFrame(t=0.0, f=math.cosh(1.0), g=-math.sinh(1.0), varphi=0.0)
    sq = fock_coefficients(squeezed, tail_tolerance=1e-16).probabilities
    sech_gap = abs(sq[0] - 1.0 / math.cosh(1.0))
    odd_mass = float(np.max(sq[1::2])) if sq.size > 1 else 0.0

    # the t = 4 (tau = 20) frame sits deep in the unstable tongue: |zeta| ~
    # 1 - 1e-6, ~31M certified terms; the tail tolerance is chosen so the
    # end-to-end mass defect stays under the gate with measured margin
    snaps = frames(PRESET, np.array([0.0, 2.0, 4.0]))
    mass_gap, argmax_ok = 0.0, True
    for fr in snaps:
        p = transition_probabilities(fr, tail_tolerance=2e-11, n_max=40_000_000)
        mass_gap = max(mass_gap, abs(float(np.sum(p)) - 1.0))
        argmax_ok = argmax_ok and int(np.argmax(p)) == 0

    ok = (poisson_gap < 1e-10 and sech_gap < 1e-10 and odd_mass == 0.0
          and mass_gap < 2e-10 and argmax_ok)
    return ok, (f"poisson gap {poisson_gap:.1e}, sech gap {sech_gap:.1e}, "
                f"odd mass {odd_mass:.1e}, completeness gap {mass_gap:.3e} "
                f"< 2e-10, peak at n=0: {argmax_ok}")


@criterion(7, "gaussian form equals its number-basis series")
def test_position_representation_equivalence():
    rng = np.random.default_rng(20240406)
    worst = 0.0
    for _ in range(20):
        fr = hyperboloid_frame(rng, zeta_max=0.8, displacement=1.0)
        rec = observe(fr, AlgebraicCoefficients(), UNITS)
        xs = np.linspace(rec.xbar - 5.0 * rec.sigma_x,
                         rec.xbar + 5.0 * rec.sigma_x, 161)
        direct = wavefunction(fr, xs, UNITS)
        c = fock_coefficients(fr, tail_tolerance=1e-20, n_max=4096).coefficients
        series = np.zeros_like(direct)
        for n, cn in enumerate(c):
            series += cn * fock_wavefunction(n, xs, UNITS)
        worst = max(worst, float(np.max(np.abs(direct - series))))
    return worst < 1e-8, f"20 frames, worst pointwise gap {worst:.3e} < 1e-08"


@criterion(8, "mean motion obeys the classical equations")
def test_hamilton_residual_convergence():
    def ratios(sched, init, t_max, h):
        out = []
        for step in (h, h / 2.0):
            n = int(round(t_max / step))
            grid = np.linspace(0.0, n * step, n + 1)
            records = [observe(fr, sched.algebraic_at(fr.t), sched.units)
                       for fr in evolve(sched, init, grid)]
            out.append(hamilton_residual(records, sched))
        (rx, rp), (rx2, rp2) = out
        return rx / rx2, rp / rp2

    static = CoefficientSchedule.physical(UNITS, m=1.0, k=1.0)
    r1 = ratios(static, InitialConditions(varphi0=-1j), 2.0, 1e-3)
    driven = CoefficientSchedule.physical(
        PRESET.units, m=1.0, k=Harmonic(1.0, -50.0, 10.0))
    r2 = ratios(driven, PRESET.init, 2.0,
                2.0 * math.pi / (1000.0 * PRESET.omega0))
    smallest = min(r1 + r2)
    return smallest >= 3.5, (
        f"halving ratios static ({r1[0]:.2f}, {r1[1]:.2f}), "
        f"driven ({r2[0]:.2f}, {r2[1]:.2f}), all >= 3.5")


@criterion(9, "overlaps close against brute force")
def test_overlap_contract():
    rng = np.random.default_rng(20240407)
    self_gap, cross_gap = 0.0, 0.0
    for _ in range(20):
        fr1 = hyperboloid_frame(rng, zeta_max=0.85, displacement=1.2)
        fr2 = hyperboloid_frame(rng, zeta_max=0.85, displacement=1.2)
        self_gap = max(self_gap, abs(abs(overlap(fr1, fr1)) - 1.0),
                       abs(abs(overlap(fr2, fr2)) - 1.0))
        c1 = fock_coefficients(fr1, tail_tolerance=1e-20, n_max=8192).coefficients
        c2 = fock_coefficients(fr2, tail_tolerance=1e-20, n_max=8192).coefficients
        n = min(c1.size, c2.size)
        brute = abs(np.sum(np.conj(c1[:n]) * c2[:n]))
        cross_gap = max(cross_gap, abs(abs(overlap(fr1, fr2)) - brute))
    ok = self_gap < 1e-10 and cross_gap < 1e-8
    return ok, (f"20 pairs, self gap {self_gap:.1e} < 1e-10, "
                f"brute-force gap {cross_gap:.3e} < 1e-08")


GOOD_CONFIG = """\
[hamiltonian]
preset = mathieu

[integration]
t_max = 2.0
num_points = 201
rtol = 1e-12
atol = 1e-14

[output]
n_max = 65536
"""

RIGGED_CONFIG = """\
[hamiltonian]
parameterization = physical
m = 1.0
k = 1.0

[initial]
varphi0_re = -1.0

[integration]
t_max = 2.0
num_points = 101
rtol = 1e-2
atol = 1e-2
"""

NO_MASS_CONFIG = """\
[hamiltonian]
parameterization = physical
k = 1.0

[integration]
t_max = 1.0
"""


def test_cli_determinism_and_exit_codes(tmp_path):
    label = "command line determinism and exit codes"
    try:
        def run(*args):
            return subprocess.run([sys.executable, "-m", "cssdyn", *args],
                                  capture_output=True, text=True)

        good = tmp_path / "good.ini"
        good.write_text(GOOD_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code_ok = run("evolve", "--config", str(good), "--out", str(out1)).returncode
        run("evolve", "--config", str(good), "--out", str(out2))
        identical = out1.read_bytes() == out2.read_bytes()

        rigged = tmp_path / "rigged.ini"
        rigged.write_text(RIGGED_CONFIG)
        code_failed_check = run("validate", "--config", str(rigged),
                                "--out", str(tmp_path / "r.csv")).returncode

        bad = tmp_path / "bad.ini"
        bad.write_text(NO_MASS_CONFIG)
        code_config = run("evolve", "--config", str(bad)).returncode

        starved = tmp_path / "starved.ini"
        starved.write_text(GOOD_CONFIG.replace("n_max = 65536", "n_max = 100"))
        code_numeric = run("fock", "--config", str(starved), "--times", "2",
                           "--out", str(tmp_path / "s.csv")).returncode

        codes = (code_ok, code_failed_check, code_config, code_numeric)
        ok = identical and codes == (0, 1, 2, 3)
        detail = f"reruns byte-identical: {identical}, exit codes {codes} == (0, 1, 2, 3)"
    except Exception as exc:
        REPORT.append(f"FAIL criterion 10 ({label}): crashed: {exc!r}")
        raise
    line = f"{'PASS' if ok else 'FAIL'} criterion 10 ({label}): {detail}"
    REPORT.append(line)
    assert ok, line
