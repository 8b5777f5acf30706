"""End-to-end command runs: CSV shape, determinism, exit codes."""

import contextlib
import io
import math
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from cssdyn import (evolve, from_initial_width, hamilton_residual, observe, overlap,
                    transition_probabilities)
from cssdyn import cli
from cssdyn.cli import main
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


def run_cli(*args):
    """cli.main run in this process: its exit code (argparse's SystemExit
    included) and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


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


def test_parser_is_built_once_and_serves_every_call(tmp_path):
    # two calls in a row through the one parser: same exit codes, same output
    assert cli._build_parser() is cli._build_parser()
    cfg = write(tmp_path, "run.ini", OSCILLATOR_CONFIG)
    runs = []
    for _ in range(2):
        out = tmp_path / "f.csv"
        fock = run_cli("fock", "--config", cfg, "--times", "0.5,1", "--out", str(out))
        refused = run_cli("fock", "--config", cfg, "--times", ",", "--out", str(out))
        usage = run_cli("density", "--config", cfg)
        runs.append([(p.returncode, p.stdout, p.stderr) for p in (fock, refused, usage)]
                    + [out.read_bytes()])
    assert runs[0] == runs[1]
    assert [code for code, _, _ in runs[0][:3]] == [0, 2, 2]


# every command, on a preset and on an explicit schedule, in a fresh interpreter
NO_SCIPY = ("import sys\n"
            "from cssdyn.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")


@pytest.mark.parametrize("command", ["evolve", "validate", "fock", "density", "overlap"])
@pytest.mark.parametrize("preset", [True, False], ids=["preset", "explicit"])
def test_commands_import_no_scipy(tmp_path, command, preset):
    text = ("[hamiltonian]\npreset = mathieu\n\n[integration]\nt_max = 0.5\nnum_points = 11\n"
            if preset else OSCILLATOR_CONFIG)
    cfg = write(tmp_path, "run.ini", text)
    extra = {"fock": ["--times", "0.5"], "density": ["--time", "0.5"],
             "overlap": ["--config2", cfg, "--time", "0.5"]}.get(command, [])
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, command, "--config", cfg, *extra,
                           "--out", str(tmp_path / "o.csv")],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"


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


def test_fock_columns_are_distinct_times(tmp_path):
    # 5e-1 is the time 0.5 again; a quoted time is named without its quotes
    cfg = write(tmp_path, "run.ini", PRESET_CONFIG)
    out, plain = tmp_path / "fock.csv", tmp_path / "plain.csv"
    proc = run_cli("fock", "--config", cfg, "--times", "0.5,5e-1,'0.25'", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == "n,P_0.5,P_0.25"
    assert run_cli("fock", "--config", cfg, "--times", "0.5,0.25",
                   "--out", str(plain)).returncode == 0
    assert out.read_bytes() == plain.read_bytes()


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


INFINITE_MASS_CONFIG = """\
[hamiltonian]
parameterization = algebraic
alpha_re = harmonic 1.0 0.5 2.0
alpha_im = 0.3
beta = harmonic 1.0 0.5 2.0
gamma_re = 0.3
gamma_im = -0.2

[initial]
varphi0_re = 0.5

[integration]
t_max = 3.0
num_points = 201
"""


def test_validate_passes_at_infinite_mass(tmp_path):
    # Re(beta - alpha) = 0 at every time: evolve runs, and so must its checks
    cfg = write(tmp_path, "run.ini", INFINITE_MASS_CONFIG)
    out = tmp_path / "report.csv"
    proc = run_cli("validate", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS") == 4
    rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()}
    assert 3.5 <= float(rows["hamilton_convergence"][1]) <= 4.5


@pytest.mark.parametrize("mass, t_max", [("poly 1 -1", "2.1"), ("harmonic 0.2 1 1", "5")])
def test_mass_crossing_zero_between_samples_exits_two(tmp_path, mass, t_max):
    cfg = write(tmp_path, "run.ini", OSCILLATOR_CONFIG.replace(
        "m = 1.0", f"m = {mass}").replace("t_max = 2.0", f"t_max = {t_max}"))
    proc = run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "e.csv"))
    assert proc.returncode == 2, proc.stderr
    assert "m: changes sign between t=" in proc.stderr


def test_mass_with_two_zeros_between_samples_exits_two(tmp_path, capsys):
    # roots 0.497 and 0.498 lie between two samples of [0, 1]; the run used
    # to fail on its step size (exit 3) near the first one
    cfg = write(tmp_path, "run.ini", "[hamiltonian]\nparameterization = physical\n"
                "m = poly 0.247506 -0.995 1\nk = 1\n[integration]\nt_max = 1\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 2
    assert "m: reaches zero near t=0.497" in capsys.readouterr().err


def test_degree_nine_mass_with_two_zeros_between_samples_exits_two(tmp_path, capsys):
    # the same two roots times 1 + 1e-3 t^7: the decision used to stop at
    # degree 8, and the run failed on its step size (exit 3)
    cfg = write(tmp_path, "run.ini", "[hamiltonian]\nparameterization = physical\n"
                "m = poly 0.247506 -0.995 1 0 0 0 0 0.000247506 -0.000995 0.001\n"
                "k = 1\n[integration]\nt_max = 1\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 2
    assert "m: reaches zero near t=0.497, between two samples" in capsys.readouterr().err


def test_mass_whose_l4_m_underflows_exits_two(tmp_path, capsys):
    # l^4 m = 1e-20 * 1e-320 underflows to 0: evolve ended in a
    # ZeroDivisionError traceback with exit 1
    cfg = write(tmp_path, "run.ini", "[hamiltonian]\nparameterization = physical\n"
                "l = 1e-5\nm = 1e-320\nk = 1\n[integration]\nt_max = 1\n")
    out = tmp_path / "e.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert "l^4 m underflows to 0 for mass 1e-320 and l = 1e-05" in capsys.readouterr().err
    assert not out.exists()


def test_mean_energy_past_the_floats_exits_three(tmp_path, capsys):
    # |u| near 1.4e308 takes beta |u|^2 past the floats: evolve wrote inf in
    # every energy cell with exit 0
    cfg = write(tmp_path, "run.ini", "[hamiltonian]\nparameterization = physical\n"
                "m = 1\nk = 1\n[initial]\nvarphi0_im = 1e308\n"
                "[integration]\nt_max = 1\nnum_points = 3\n")
    out = tmp_path / "e.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
    assert "at t = 0: the mean energy <H> = inf" in capsys.readouterr().err
    assert not out.exists()


def test_weight_underflow_with_overflowing_levels_exits_three(tmp_path, capsys):
    # |Phi|^2 = exp(-|varphi|^2) underflows to 0 at varphi = 28 while the
    # unweighted levels overflow: fock wrote 661 nan levels with exit 0
    cfg = write(tmp_path, "run.ini", "[hamiltonian]\nparameterization = physical\n"
                "m = 1\nk = 1\n[initial]\nvarphi0_re = 28\n")
    out = tmp_path / "f.csv"
    assert main(["fock", "--config", cfg, "--times", "0.5", "--out", str(out)]) == 3
    assert "number-basis probabilities leave the floats" in capsys.readouterr().err
    assert not out.exists()


def test_density_phase_past_the_floats_exits_three(tmp_path, capsys):
    # pbar near -1.4e308 takes (pbar/(2 hbar))(2x - xbar) past the floats: the
    # command wrote nan rows with exit 0
    cfg = write(tmp_path, "run.ini", "[hamiltonian]\nparameterization = physical\n"
                "m = 1\nk = 1\n[initial]\nvarphi0_im = 1e308\n")
    out = tmp_path / "d.csv"
    assert main(["density", "--config", cfg, "--time", "0", "--x-points", "3",
                 "--out", str(out)]) == 3
    assert "wavefunction phase" in capsys.readouterr().err
    assert not out.exists()


# the mass crosses zero at t = 1, and no t_max bounds the run
CROSSING_MASS_CONFIG = """\
[hamiltonian]
parameterization = physical
m = poly 1 -1
k = 1
"""


@pytest.mark.parametrize("command, option", [
    ("fock", "--times"), ("density", "--time"), ("overlap", "--time")])
def test_commands_check_the_schedule_over_the_interval_they_integrate(
        tmp_path, command, option):
    cfg = write(tmp_path, "run.ini", CROSSING_MASS_CONFIG)
    second = ["--config2", cfg] if command == "overlap" else []
    proc = run_cli(command, "--config", cfg, *second, option, "2.1",
                   "--out", str(tmp_path / "o.csv"))
    assert proc.returncode == 2, proc.stderr
    assert "schedule invalid over [0, 2.1]: m: changes sign between t=" in proc.stderr


def test_validate_checks_the_schedule_over_t_max(tmp_path):
    cfg = write(tmp_path, "run.ini", CROSSING_MASS_CONFIG + "\n[integration]\nt_max = 2.1\n")
    proc = run_cli("validate", "--config", cfg, "--out", str(tmp_path / "v.csv"))
    assert proc.returncode == 2, proc.stderr
    assert "m: changes sign between t=" in proc.stderr


def test_unused_part_of_t_max_is_not_checked(tmp_path):
    # k is tabulated on [0, 2] only: fock at t = 1 never reads past 2, evolve
    # integrates to t_max = 5 and does
    cfg = write(tmp_path, "run.ini", OSCILLATOR_CONFIG.replace(
        "k = 1.0", "k = table 0:1 2:1.5").replace("t_max = 2.0", "t_max = 5"))
    proc = run_cli("fock", "--config", cfg, "--times", "1", "--out", str(tmp_path / "f.csv"))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "e.csv"))
    assert proc.returncode == 2
    assert "schedule invalid over [0, 5]: k: evaluation failed" in proc.stderr


def test_validate_flags_crude_tolerances(tmp_path):
    rigged = OSCILLATOR_CONFIG + "rtol = 1e-2\natol = 1e-2\n"
    cfg = write(tmp_path, "run.ini", rigged)
    out = tmp_path / "report.csv"
    proc = run_cli("validate", "--config", cfg, "--out", str(out))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert any(line.endswith("FAIL")
               for line in out.read_text().splitlines()[1:])


def test_validate_passes_a_residual_at_the_noise_floor(tmp_path):
    # no displacement keeps the mean at 0, so the Hamilton residual sits at
    # the noise floor on both grids and their ratio is not read
    text = OSCILLATOR_CONFIG.replace("[initial]\nvarphi0_re = -1.0\n\n", "")
    cfg = write(tmp_path, "run.ini", text)
    out = tmp_path / "report.csv"
    proc = run_cli("validate", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stdout
    assert "hamilton_convergence,inf,3.5,PASS" in out.read_text().splitlines()


def test_preset_reads_no_integration_setting(tmp_path):
    # the Mathieu route solves at the rounding floor whatever [integration]
    # asks of the generic integrator, so these keys change no output byte
    plain = PRESET_CONFIG.replace("rtol = 1e-12\natol = 1e-14\n", "")
    keyed = plain.replace("num_points = 201\n",
                          "num_points = 201\nmax_step = 0.01\nrtol = 1e-5\natol = 1e-5\n")
    assert keyed != plain
    outputs = []
    for name, text in (("plain", plain), ("keyed", keyed)):
        cfg = write(tmp_path, name + ".ini", text)
        runs = {"evolve": [], "fock": ["--times", "0.5,2"], "density": ["--time", "1.5"],
                "overlap": ["--config2", cfg, "--time", "1.5"]}
        written = []
        for command, extra in runs.items():
            out = tmp_path / f"{name}-{command}.csv"
            assert run_cli(command, "--config", cfg, *extra, "--out", str(out)).returncode == 0
            written.append(out.read_bytes())
        outputs.append(written)
    assert outputs[0] == outputs[1]


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


# Re(alpha) = 100 with beta = 0: |f| and |g| grow as cosh and sinh of 100 t,
# so by t = 0.25 |g| has rounded up to |f| and the middle frame has no
# number-basis expansion
RUNAWAY_CONFIG = """\
[hamiltonian]
parameterization = algebraic
alpha_re = 100
beta = 0

[integration]
t_max = 0.5
num_points = 21
"""


def test_validate_fails_normalization_on_a_frame_without_expansion(tmp_path):
    # the expansion's refusal ended the command with exit 2 and no report
    out = tmp_path / "report.csv"
    proc = run_cli("validate", "--config", write(tmp_path, "run.ini", RUNAWAY_CONFIG),
                   "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["unitarity", "sr_minimization",
                                        "hamilton_convergence", "normalization"]
    assert rows[0][3] == rows[3][3] == "FAIL"
    assert rows[3][1] == "inf"
    assert "FAIL normalization: measured=inf" in proc.stdout


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


def validate_oracle(rc):
    """validate's four measured values, from one evolve per grid."""
    def records(frames):
        return [observe(fr, rc.schedule.algebraic_at(fr.t), rc.schedule.units) for fr in frames]

    def run(n):
        return evolve(rc.schedule, rc.init, np.linspace(0.0, rc.t_max, n), rc.settings,
                      enforce_drift=False)

    frames, fine = run(rc.num_points), run(2 * (rc.num_points - 1) + 1)
    drift = max(fr.unitarity_defect for fr in frames)
    excess = max(abs(rec.sr / (0.25 * rc.schedule.units.hbar ** 2) - 1.0)
                 for rec in records(frames))
    res = max(hamilton_residual(records(frames), rc.schedule))
    res_fine = max(hamilton_residual(records(fine), rc.schedule))
    ratio = math.inf if res <= 1e-10 or res_fine == 0 else res / res_fine
    picks = [frames[i] for i in (0, len(frames) // 2, len(frames) - 1)]
    defect = max(abs(float(np.sum(transition_probabilities(fr, rc.tail_tolerance, rc.n_max)))
                     - overlap(fr, fr).real) for fr in picks)
    return [drift, excess, ratio, defect]


@pytest.mark.parametrize("text", [OSCILLATOR_CONFIG, TABLE_CONFIG, PRESET_CONFIG],
                         ids=["oscillator", "table", "preset"])
def test_validate_measures_what_two_evolves_measure(tmp_path, capsys, text):
    # validate evolves the halved grid once and reads the configured grid
    # off every other frame; the figures must be those of two runs, bit for bit
    cfg = write(tmp_path, "run.ini", text)
    out = tmp_path / "report.csv"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0, capsys.readouterr()
    measured = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert measured == validate_oracle(load_config(cfg))


def test_every_other_point_of_the_halved_grid_is_the_grid():
    rng = np.random.default_rng(11)
    t_maxes = [1e-300, 1e-9, 0.1, 1.0, 2.0, 3.0, math.pi, 4.61849, 1e3, 1e300,
               *10.0 ** rng.uniform(-6.0, 6.0, size=40)]
    for t_max in t_maxes:
        for n in (2, 3, 7, 101, 191, 1000, 1001, 4097, *rng.integers(2, 5000, size=5)):
            fine = np.linspace(0.0, t_max, 2 * (n - 1) + 1)
            assert np.array_equal(fine[::2], np.linspace(0.0, t_max, n)), (t_max, n)


def test_harmonic_overflow_exits_two(tmp_path, capsys):
    # omega * t overflows before t_max: a configuration problem, not a traceback
    cfg = write(tmp_path, "run.ini", OSCILLATOR_CONFIG.replace(
        "k = 1.0", "k = harmonic 1.0 0.5 1e308"))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 2
    assert "k: evaluation failed" in capsys.readouterr().err


def test_validate_with_two_points_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", OSCILLATOR_CONFIG.replace(
        "num_points = 101", "num_points = 2"))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 2
    err = capsys.readouterr().err
    assert "[integration] num_points" in err and "at least 3" in err


@pytest.mark.parametrize("text", [
    "[hamiltonian]\npreset = mathieu\nvarphi0_re = 0.5\n",
    "[hamiltonian]\npreset = mathieu\n\n[initial]\nvarphi0_re = 0.5\n",
], ids=["hamiltonian", "initial"])
def test_preset_varphi0_part_keeps_the_other_default_part(tmp_path, text):
    cfg = write(tmp_path, "run.ini", text)
    rc = load_config(cfg)
    assert rc.init.varphi0 == rc.preset.init.varphi0 == 0.5 - 1j


def test_preset_varphi0_in_both_sections_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", PRESET_CONFIG.replace(
        "preset = mathieu\n", "preset = mathieu\nvarphi0_im = 2\n\n[initial]\nvarphi0_re = 0.5\n"))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 2
    assert "varphi0" in capsys.readouterr().err


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


def test_a_run_that_cannot_progress_exits_three_in_seconds(tmp_path):
    # F oscillates at 1e300 rad/s, which no step resolves, so the steps stay
    # near 1e-12: evolve's evaluation budget ends the run, in a fresh
    # interpreter under a time bound
    cfg = write(tmp_path, "stuck.ini", """\
[hamiltonian]
parameterization = physical
m = 1
k = 1
F = harmonic 3 1.408 -1e300

[integration]
t_max = 0.5
""")
    proc = subprocess.run([sys.executable, "-m", "cssdyn", "evolve", "--config", cfg,
                           "--out", str(tmp_path / "s.csv")],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert "budget of 600000 coefficient evaluations" in proc.stderr


def test_preset_evolve_writes_the_grid_times(tmp_path):
    # the Mathieu route takes the physical grid itself: no t -> tau -> t trip
    cfg = write(tmp_path, "run.ini",
                "[hamiltonian]\npreset = mathieu\n\n[integration]\nt_max = 1.0\nnum_points = 101\n")
    out = tmp_path / "e.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    column = [line.split(",", 1)[0] for line in out.read_text().splitlines()[1:]]
    assert column == ["%.17g" % t for t in np.linspace(0.0, 1.0, 101)]


def test_preset_past_int64_periods_exits_three(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", "[hamiltonian]\npreset = mathieu\n")
    assert main(["fock", "--config", cfg, "--times", "1e20",
                 "--out", str(tmp_path / "f.csv")]) == 3
    err = capsys.readouterr().err
    assert "2^63" in err
    # the failure names the time as it was given, then its tau
    assert err.startswith("numerical failure: at t = 1e+20: tau = 5e+20 ")


# each command's sampled schedule scans: overlap checks both configurations
SCANS = {"evolve": 1, "fock": 1, "density": 1, "overlap": 2, "validate": 1}


@pytest.mark.parametrize("command", list(SCANS))
@pytest.mark.parametrize("preset", [True, False], ids=["preset", "explicit"])
def test_only_explicit_schedules_are_scanned(tmp_path, monkeypatch, command, preset):
    # a preset checks its own parameters when it is built; only validate,
    # which integrates the generic schedule, still scans it
    scanned = []
    scan = cli.validate
    monkeypatch.setattr(cli, "validate", lambda *args: scanned.append(args) or scan(*args))
    text = ("[hamiltonian]\npreset = mathieu\n\n[integration]\nt_max = 0.5\nnum_points = 11\n"
            if preset else OSCILLATOR_CONFIG)
    cfg = write(tmp_path, "run.ini", text)
    extra = {"fock": ["--times", "0.5"], "density": ["--time", "0.5"],
             "overlap": ["--config2", cfg, "--time", "0.5"]}.get(command, [])
    assert main([command, "--config", cfg, *extra, "--out", str(tmp_path / "o.csv")]) == 0
    assert len(scanned) == (0 if preset and command != "validate" else SCANS[command])


@pytest.mark.parametrize("text, named", [
    ("preset = mathieu\nepsilon0 = 1e308\neta0 = -1e308\n", "epsilon0 = 1e+308 and eta0 = -1e+308"),
    ("preset = mathieu\nomega0 = 1e154\n", "grid must be finite"),
], ids=["stiffness", "omega0_t"])
def test_preset_refusals_exit_two(tmp_path, capsys, text, named):
    # without a sampled scan: |k| is bounded by the preset's parameters, and an
    # overflowing omega0 t is refused by the route
    cfg = write(tmp_path, "run.ini", PRESET_CONFIG.replace("preset = mathieu\n", text))
    assert main(["fock", "--config", cfg, "--times", "1e300",
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert named in capsys.readouterr().err


def test_numbers_take_their_defaults(tmp_path):
    rc = load_config(write(tmp_path, "run.ini", "[hamiltonian]\npreset = mathieu\n"))
    assert (rc.t_max, rc.num_points, rc.tail_tolerance, rc.n_max, rc.x_points,
            rc.x_span_sigmas, rc.out) == (None, 1001, 1e-10, 4096, 1025, 8.0, None)


@pytest.mark.parametrize("section, key, value", [
    ("integration", "t_max", "0"),
    ("integration", "num_points", "1"),
    ("output", "tail_tolerance", "0"),
    ("output", "tail_tolerance", "1"),
    ("output", "n_max", "1"),
    ("output", "x_points", "1"),
    ("output", "x_span_sigmas", "0"),
])
def test_number_just_outside_its_bound_exits_two(tmp_path, capsys, section, key, value):
    if section == "integration":
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", OSCILLATOR_CONFIG, flags=re.M)
    else:
        text = OSCILLATOR_CONFIG + f"\n[output]\n{key} = {value}\n"
    cfg = write(tmp_path, "run.ini", text)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 2
    assert f"[{section}] {key}" in capsys.readouterr().err


# counts numpy refuses before it allocates anything, which used to end in its
# ValueError traceback
_MANY = OSCILLATOR_CONFIG.replace("num_points = 101", "num_points = 1e300")


@pytest.mark.parametrize("command, text, extra, named", [
    ("evolve", _MANY, [], "[integration] num_points"),
    ("validate", _MANY, [], "[integration] num_points"),
    ("density", _MANY, ["--time", "0.5"], "[integration] num_points"),
    ("overlap", _MANY, ["--config2", "run.ini", "--time", "0.5"], "[integration] num_points"),
    ("density", OSCILLATOR_CONFIG + "[output]\nx_points = 1e300\n", ["--time", "0.5"],
     "[output] x_points"),
    ("density", OSCILLATOR_CONFIG, ["--time", "0.5", "--x-points", "1e300"], "--x-points"),
], ids=["evolve", "validate", "density", "overlap", "x_points", "--x-points"])
def test_more_points_than_numpy_holds_exits_two(tmp_path, monkeypatch, capsys, command, text,
                                                extra, named):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "run.ini", text)
    assert main([command, "--config", "run.ini", *extra, "--out", "o.csv"]) == 2
    assert f"{named} = 1e+300 is more points than numpy can hold" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--x-points", "1"), ("--x-span-sigmas", "0"), ("--x-span-sigmas", "inf"),
])
def test_density_override_outside_its_bound_exits_two(tmp_path, capsys, option, value):
    # the overrides are held to the bounds of [output] x_points / x_span_sigmas
    cfg = write(tmp_path, "run.ini", OSCILLATOR_CONFIG)
    assert main(["density", "--config", cfg, "--time", "0.5", option, value,
                 "--out", str(tmp_path / "d.csv")]) == 2
    assert option in capsys.readouterr().err


def test_density_grid_past_the_floats_exits_two(tmp_path, capsys):
    # 2 x 1.7e308 x sigma_x overflows: linspace would write nan and inf
    cfg = write(tmp_path, "run.ini", OSCILLATOR_CONFIG + "[output]\nx_span_sigmas = 1.7e308\n")
    assert main(["density", "--config", cfg, "--time", "0.5",
                 "--out", str(tmp_path / "d.csv")]) == 2
    assert "x_span_sigmas = 1.7e+308" in capsys.readouterr().err


def test_density_is_zero_where_the_grid_runs_far_past_the_state(tmp_path):
    # x = +-3.5e307 and +-7e307, where (x - xbar)^2 overflows: rho is exactly 0
    # there, where those rows were nan
    cfg = write(tmp_path, "run.ini", OSCILLATOR_CONFIG + "[output]\nx_span_sigmas = 1e308\n")
    out = tmp_path / "d.csv"
    assert main(["density", "--config", cfg, "--time", "0.5", "--x-points", "5",
                 "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert np.all(np.isfinite(data))
    assert np.array_equal(data[[0, 1, 3, 4], 1:], np.zeros((4, 3)))
    assert data[2, 3] > 0.0


@pytest.mark.parametrize("command, extra, section", [
    ("fock", ["--times", "0.5"], "[initial]\nvarphi0_re = 1e-100\n"),
    ("validate", [], "[initial]\nvarphi0_re = 1e-100\n"),
    ("fock", ["--times", "0.5"], "[output]\ntail_tolerance = 1e-310\n"),
], ids=["fock-tiny-displacement", "validate-tiny-displacement", "fock-tiny-tolerance"])
def test_expansions_past_the_depth_estimate_exit_zero(tmp_path, command, extra, section):
    # the depth estimate left the floats here, and the command ended in a traceback
    text = OSCILLATOR_CONFIG.replace("[initial]\nvarphi0_re = -1.0\n", "") + section
    cfg = write(tmp_path, "run.ini", text)
    assert main([command, "--config", cfg, *extra, "--out", str(tmp_path / "o.csv")]) == 0


@pytest.mark.parametrize("command, option, value", [
    ("density", "--time", "-1"),
    ("density", "--time", "abc"),
    ("overlap", "--time", "inf"),
    ("fock", "--times", "0,-1"),
    ("fock", "--times", "0,nan"),
    ("fock", "--times", ","),
])
def test_time_outside_its_bound_exits_two(tmp_path, capsys, command, option, value):
    cfg = write(tmp_path, "run.ini", OSCILLATOR_CONFIG)
    second = ["--config2", cfg] if command == "overlap" else []
    assert main([command, "--config", cfg, *second, option, value,
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (OSCILLATOR_CONFIG.replace("m = 1.0", "m = 1.0\nhbar = -1"), "hbar must be"),
    (OSCILLATOR_CONFIG + "rtol = 0\n", "rtol must be positive"),
    (OSCILLATOR_CONFIG.replace("varphi0_re = -1.0", "f0_re = 1.0\ng0_re = 0.5"),
     "|f0|^2 - |g0|^2 must equal 1"),
], ids=["hbar", "rtol", "hyperboloid"])
def test_library_refusal_at_load_exits_two(tmp_path, capsys, text, message):
    cfg = write(tmp_path, "run.ini", text)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 2
    assert message in capsys.readouterr().err


def test_preset_scale_off_the_floats_exits_two(tmp_path, capsys):
    # omega0 ** 2 overflows: refused at load, not a traceback from the route
    cfg = write(tmp_path, "run.ini", PRESET_CONFIG.replace(
        "preset = mathieu\n", "preset = mathieu\nomega0 = 1e200\n"))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 2
    assert "omega0" in capsys.readouterr().err


def test_overflowing_first_derivative_exits_three(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", OSCILLATOR_CONFIG.replace("k = 1.0", "k = 1e300"))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 3
    assert "first step" in capsys.readouterr().err


def test_default_section_is_an_unknown_section(tmp_path, capsys):
    # configparser would copy [DEFAULT] into every section; the grammar has
    # exactly its four sections, so the header is refused under its own name
    cfg = write(tmp_path, "run.ini", "[DEFAULT]\nt_max = 1.0\n\n" + PRESET_CONFIG)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 2
    err = capsys.readouterr().err
    assert "DEFAULT" in err and "[hamiltonian]" not in err


@pytest.mark.parametrize("text, section", [
    (OSCILLATOR_CONFIG + "time = 1.0\n", "integration"),
    (OSCILLATOR_CONFIG + "\n[output]\ntime = 1.0\n", "output"),
], ids=["integration", "output"])
def test_no_file_sets_the_command_line_time(tmp_path, capsys, text, section):
    cfg = write(tmp_path, "run.ini", text)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 2
    assert f"[{section}]: unknown keys ['time']" in capsys.readouterr().err


@pytest.mark.parametrize("value, rows", [("801.0", 801), ("8e2", 800)])
def test_x_points_flag_reads_numbers_as_the_file_does(tmp_path, value, rows):
    by_flag, by_key = tmp_path / "flag.csv", tmp_path / "key.csv"
    cfg = write(tmp_path, "run.ini", OSCILLATOR_CONFIG)
    assert main(["density", "--config", cfg, "--time", "0.5", "--x-points", value,
                 "--out", str(by_flag)]) == 0
    assert len(by_flag.read_text().splitlines()) == rows + 1
    keyed = write(tmp_path, "keyed.ini", OSCILLATOR_CONFIG + f"\n[output]\nx_points = {value}\n")
    assert main(["density", "--config", keyed, "--time", "0.5", "--out", str(by_key)]) == 0
    assert by_flag.read_bytes() == by_key.read_bytes()


@pytest.mark.parametrize("key, accepted", [
    ("x_points", {"801.0", "8e2"}), ("x_span_sigmas", {"801.0", "8e2", "1"}),
], ids=["x_points", "x_span_sigmas"])
@pytest.mark.parametrize("value", ["801.0", "8e2", "1", "0", "inf", "abc"])
def test_flag_and_key_accept_and_refuse_alike(tmp_path, capsys, key, accepted, value):
    option = "--" + key.replace("_", "-")
    cfg = write(tmp_path, "run.ini", OSCILLATOR_CONFIG)
    keyed = write(tmp_path, "keyed.ini", OSCILLATOR_CONFIG + f"\n[output]\n{key} = {value}\n")
    density = ["density", "--time", "0.5", "--out", str(tmp_path / "d.csv")]
    flag_code = main([*density, "--config", cfg, option, value])
    flag_err = capsys.readouterr().err
    key_code = main([*density, "--config", keyed])
    key_err = capsys.readouterr().err
    assert flag_code == key_code == (0 if value in accepted else 2)
    if value not in accepted:
        assert option in flag_err and f"[output] {key}" in key_err


WIDTH_CONFIG = OSCILLATOR_CONFIG.replace(
    "varphi0_re = -1.0", "sigma_x0 = 0.4\ntheta = 0.3\nvarphi0_re = -1.0\nvarphi0_im = 0.25")


def test_width_style_start(tmp_path):
    rc = load_config(write(tmp_path, "run.ini", WIDTH_CONFIG))
    base = from_initial_width(0.4, 0.3, rc.schedule.units)
    assert (rc.init.f0, rc.init.g0, rc.init.varphi0) == (base.f0, base.g0, -1.0 + 0.25j)


def test_width_past_l_over_sqrt2_runs(tmp_path):
    # sigma_x0 = 1 > l/sqrt(2) with l = 1: a valid minimum-uncertainty start
    # (exit 0; it was refused with exit 2 before)
    cfg = write(tmp_path, "run.ini", WIDTH_CONFIG.replace("sigma_x0 = 0.4", "sigma_x0 = 1.0"))
    out = tmp_path / "e.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    header, data = read_csv(out)
    first = dict(zip(header, data[0]))
    assert first["sigma_x"] == pytest.approx(1.0, rel=1e-15)
    assert first["sigma_p"] == pytest.approx(0.5, rel=1e-15)
    assert abs(first["sigma_xp"]) < 1e-16


@pytest.mark.parametrize("text, message", [
    (WIDTH_CONFIG.replace("sigma_x0 = 0.4\n", ""), "sigma_x0"),
    (WIDTH_CONFIG.replace("theta = 0.3\n", "f0_re = 1.0\n"), "not both"),
    (WIDTH_CONFIG.replace("sigma_x0 = 0.4", "sigma_x0 = 1e-200"), "sigma_x0 = 1e-200"),
], ids=["theta-alone", "width-and-f0", "width-squared-underflows"])
def test_width_style_misuse_exits_two(tmp_path, capsys, text, message):
    cfg = write(tmp_path, "run.ini", text)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    (OSCILLATOR_CONFIG.replace("num_points = 101", "num_points = 10.5"),
     "[integration] num_points"),
    (OSCILLATOR_CONFIG.replace("k = 1.0", "k ="), "[hamiltonian] k"),
    (OSCILLATOR_CONFIG.replace("k = 1.0", "k = harmonic 1 2"), "[hamiltonian] k"),
    (OSCILLATOR_CONFIG.replace("k = 1.0", "k = poly"), "[hamiltonian] k"),
    (OSCILLATOR_CONFIG.replace("k = 1.0", "k = table 0:1"), "[hamiltonian] k"),
    (OSCILLATOR_CONFIG.replace("k = 1.0", "k = table 0:1 2"), "[hamiltonian] k"),
    (OSCILLATOR_CONFIG.replace("k = 1.0", "k = table 0:1 0:2"), "[hamiltonian] k"),
    (OSCILLATOR_CONFIG.replace("k = 1.0", "k = sine 1 2"), "[hamiltonian] k"),
    ("k = 1.0\n" + OSCILLATOR_CONFIG, "run.ini"),
    ("[integration]\nt_max = 1.0\n", "[hamiltonian]"),
    ("[hamiltonian]\npreset = duffing\n", "preset"),
    ("[hamiltonian]\nhbar = 1.0\n", "[hamiltonian]"),
    (OSCILLATOR_CONFIG.replace("= physical", "= quantum"), "parameterization"),
], ids=["integer", "empty_profile", "harmonic_arguments", "poly_arguments",
        "table_arguments", "table_sample", "table_times", "profile_kind", "malformed",
        "no_hamiltonian", "preset_name", "no_parameterization", "parameterization"])
def test_grammar_refusals_exit_two_naming_the_source(tmp_path, capsys, text, named):
    cfg = write(tmp_path, "run.ini", text)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 2
    assert named in capsys.readouterr().err
