"""End-to-end command runs: CSV shape, determinism, exit codes."""

import math
import subprocess
import sys

import numpy as np
import pytest

from cssdyn import evolve, transition_probabilities
from cssdyn.config import load_config

PRESET_CONFIG = """\
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

OSCILLATOR_CONFIG = """\
[hamiltonian]
parameterization = physical
m = 1.0
k = 1.0

[initial]
varphi0_re = -1.0

[integration]
t_max = 2.0
num_points = 101
"""


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "cssdyn", *args],
                          capture_output=True, text=True, cwd=cwd)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def test_help_screens():
    assert run_cli("--help").returncode == 0
    assert run_cli("evolve", "--help").returncode == 0


def test_missing_arguments_fail_like_argparse():
    proc = run_cli("evolve")
    assert proc.returncode == 2


def test_evolve_writes_full_table(tmp_path):
    cfg = write(tmp_path, "run.ini", PRESET_CONFIG)
    out = tmp_path / "evolve.csv"
    proc = run_cli("evolve", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header, data = read_csv(out)
    assert header[:7] == ["t", "re_f", "im_f", "re_g", "im_g", "re_phi", "im_phi"]
    assert header[-3:] == ["heisenberg", "sr", "energy"]
    assert data.shape == (201, 19)
    assert data[0, 0] == 0.0
    assert data[-1, 0] == 2.0
    # starts coherent: f=1, g=0, phi=-i, pbar=sqrt(20)
    assert data[0, 1] == 1.0 and data[0, 3] == 0.0 and data[0, 6] == -1.0
    assert data[0, 12] == pytest.approx(math.sqrt(20.0), abs=1e-12)
    # the invariant columns stay honest along the run
    f2 = data[:, 1] ** 2 + data[:, 2] ** 2
    g2 = data[:, 3] ** 2 + data[:, 4] ** 2
    assert np.max(np.abs(f2 - g2 - 1.0)) < 1e-8
    assert np.max(np.abs(data[:, 17] / 0.25 - 1.0)) < 1e-8


def test_evolve_reruns_are_byte_identical(tmp_path):
    cfg = write(tmp_path, "run.ini", PRESET_CONFIG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("evolve", "--config", cfg, "--out", str(out1)).returncode == 0
    assert run_cli("evolve", "--config", cfg, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fock_table(tmp_path):
    cfg = write(tmp_path, "run.ini", PRESET_CONFIG)
    out = tmp_path / "fock.csv"
    proc = run_cli("fock", "--config", cfg, "--times", "0,2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header, data = read_csv(out)
    assert header == ["n", "P_0", "P_2"]
    assert np.all(data[:, 0] == np.arange(data.shape[0]))
    assert data[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)
    for col in (1, 2):
        p = data[:, col]
        assert np.all(p >= 0.0)
        assert abs(np.sum(p) - 1.0) < 2e-10


def test_density_profile(tmp_path):
    cfg = write(tmp_path, "run.ini", PRESET_CONFIG)
    out = tmp_path / "density.csv"
    proc = run_cli("density", "--config", cfg, "--time", "0.5",
                   "--x-points", "801", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header, data = read_csv(out)
    assert header == ["x", "re_psi", "im_psi", "rho"]
    assert data.shape[0] == 801
    xs, re, im, rho = data.T
    assert np.max(np.abs(rho - (re ** 2 + im ** 2))) < 1e-12
    assert abs(np.trapezoid(rho, xs) - 1.0) < 1e-6


def test_overlap_with_itself(tmp_path):
    cfg = write(tmp_path, "run.ini", PRESET_CONFIG)
    out = tmp_path / "overlap.csv"
    proc = run_cli("overlap", "--config", cfg, "--config2", cfg,
                   "--time", "1.0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header, data = read_csv(out)
    assert header == ["re_overlap", "im_overlap", "abs_overlap"]
    assert data[0, 2] == pytest.approx(1.0, abs=1e-10)


def test_overlap_needs_shared_units(tmp_path):
    cfg1 = write(tmp_path, "a.ini", OSCILLATOR_CONFIG)
    cfg2 = write(tmp_path, "b.ini",
                 OSCILLATOR_CONFIG.replace("m = 1.0", "m = 1.0\nhbar = 2.0"))
    proc = run_cli("overlap", "--config", cfg1, "--config2", cfg2,
                   "--time", "1.0", "--out", str(tmp_path / "o.csv"))
    assert proc.returncode == 2
    assert "hbar" in proc.stderr


def test_validate_passes_on_sound_configuration(tmp_path):
    cfg = write(tmp_path, "run.ini", PRESET_CONFIG)
    out = tmp_path / "report.csv"
    proc = run_cli("validate", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "check,measured,threshold,status"
    assert len(lines) == 5
    assert all(line.endswith("PASS") for line in lines[1:])
    assert proc.stdout.count("PASS") >= 4


def test_validate_flags_crude_tolerances(tmp_path):
    rigged = OSCILLATOR_CONFIG + "rtol = 1e-2\natol = 1e-2\n"
    cfg = write(tmp_path, "run.ini", rigged)
    out = tmp_path / "report.csv"
    proc = run_cli("validate", "--config", cfg, "--out", str(out))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert any(line.endswith("FAIL")
               for line in out.read_text().splitlines()[1:])


# A generated preset run whose last frame carries a number-basis mass
# 2.6e-10 away from 1 at the default rtol: more than 2 * tail_tolerance,
# through integration error alone.
NORM_DRIFT_CONFIG = """\
[hamiltonian]
preset = mathieu
epsilon0 = 1.7977
eta0 = 51.5098
varphi0_re = -0.869403
varphi0_im = -0.895647

[integration]
t_max = 1.3682
num_points = 160

[output]
tail_tolerance = 1e-10
n_max = 10000000
"""


def test_validate_compares_mass_with_the_frame_norm(tmp_path):
    cfg = write(tmp_path, "run.ini", NORM_DRIFT_CONFIG)
    rc = load_config(cfg)
    last = evolve(rc.schedule, rc.init, rc.time_grid(), rc.settings,
                  enforce_drift=False)[-1]
    mass = float(np.sum(transition_probabilities(last, rc.tail_tolerance, rc.n_max)))
    assert abs(mass - 1.0) > 2.0 * rc.tail_tolerance
    out = tmp_path / "report.csv"
    proc = run_cli("validate", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS normalization" in proc.stdout


# A generated explicit run whose V follows a table: its kinks make the
# central difference first order across them (halving ratio 0.97 when every
# stencil counts).
TABLE_CONFIG = """\
[hamiltonian]
parameterization = physical
m = 0.922738
k = harmonic 1.37928 0.48274 1.38028
Omega = -0.061649
F = poly 0.0358997 0.00922052
V = table 0:-0.130939 1.15462:-0.176698 2.30925:-0.166521 3.46387:0.214412 4.61849:-0.201283

[initial]
varphi0_re = -0.285065
varphi0_im = -0.760058

[integration]
t_max = 4.61849
num_points = 191

[output]
tail_tolerance = 1e-10
n_max = 10000000
"""


def test_validate_passes_on_table_configuration(tmp_path):
    cfg = write(tmp_path, "run.ini", TABLE_CONFIG)
    out = tmp_path / "report.csv"
    proc = run_cli("validate", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ratio = next(line for line in out.read_text().splitlines()
                 if line.startswith("hamilton_convergence,"))
    assert 3.5 <= float(ratio.split(",")[1]) <= 4.5
    assert load_config(cfg).schedule.knots() == (0.0, 1.15462, 2.30925, 3.46387, 4.61849)


def test_configuration_problems_exit_two(tmp_path):
    missing = run_cli("evolve", "--config", str(tmp_path / "nope.ini"))
    assert missing.returncode == 2

    no_mass = write(tmp_path, "nomass.ini",
                    "[hamiltonian]\nparameterization = physical\nk = 1.0\n"
                    "\n[integration]\nt_max = 1.0\n")
    assert run_cli("evolve", "--config", no_mass).returncode == 2

    stray = write(tmp_path, "stray.ini",
                  PRESET_CONFIG + "\n[plotting]\ncolor = red\n")
    assert run_cli("evolve", "--config", stray).returncode == 2

    no_horizon = write(tmp_path, "nohorizon.ini",
                       "[hamiltonian]\npreset = mathieu\n")
    assert run_cli("evolve", "--config", no_horizon).returncode == 2

    cfg = write(tmp_path, "run.ini", PRESET_CONFIG)
    bad_times = run_cli("fock", "--config", cfg, "--times", "0,abc")
    assert bad_times.returncode == 2

    # |f0|^2 - |g0|^2 overflows to inf - inf: off the hyperboloid, not a crash
    huge = write(tmp_path, "huge.ini", OSCILLATOR_CONFIG.replace(
        "varphi0_re = -1.0", "f0_re = 1e200\ng0_re = 1e200"))
    proc = run_cli("evolve", "--config", huge, "--out", str(tmp_path / "h.csv"))
    assert proc.returncode == 2, proc.stderr
    assert "f0" in proc.stderr


def test_numerical_failures_exit_three(tmp_path):
    drifty = write(tmp_path, "drifty.ini", """\
[hamiltonian]
parameterization = algebraic
alpha_re = 2.0

[integration]
t_max = 6.0
num_points = 31
rtol = 1e-3
atol = 1e-3
drift_threshold = 1e-15
""")
    proc = run_cli("evolve", "--config", drifty,
                   "--out", str(tmp_path / "d.csv"))
    assert proc.returncode == 3
    assert "drift" in proc.stderr

    # |f| passes 1e154 while finite: a drift breach, not an OverflowError
    overflowing = write(tmp_path, "overflowing.ini", """\
[hamiltonian]
parameterization = algebraic
alpha_im = 461.0

[integration]
t_max = 1.0
num_points = 11
""")
    proc = run_cli("evolve", "--config", overflowing, "--out", str(tmp_path / "o.csv"))
    assert proc.returncode == 3, proc.stderr
    assert "drift" in proc.stderr

    starved = write(tmp_path, "starved.ini",
                    PRESET_CONFIG.replace("n_max = 65536", "n_max = 100"))
    proc = run_cli("fock", "--config", starved, "--times", "2",
                   "--out", str(tmp_path / "f.csv"))
    assert proc.returncode == 3
    assert "tail" in proc.stderr
