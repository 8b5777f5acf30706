"""Run configuration: sectioned key-value files mapped to library objects.

Sections and keys (INI syntax, keys are case-sensitive, # starts a comment):

    [hamiltonian]
      preset = mathieu            modulated-stiffness oscillator; keys m0,
                                  epsilon0, eta0, omega0, varphi0_re,
                                  varphi0_im, hbar (all optional, defaults
                                  are the a = 0.04, q = 1 configuration)
    or
      parameterization = algebraic | physical
      hbar = 1.0                  units
      l = 1.0
      <coefficient> = <profile>   real coefficients directly (beta, delta,
                                  m, k, Omega, F, V, E); complex ones as
                                  <name>_re / <name>_im profile pairs
                                  (alpha_re, alpha_im, gamma_re, gamma_im)

    [initial]                     either explicit f0/g0 components or a
      f0_re, f0_im, g0_re, g0_im  width pair sigma_x0 / theta; varphi0_re,
      sigma_x0, theta             varphi0_im are accepted in both styles
      varphi0_re, varphi0_im

    [integration]
      t_max, num_points           evolution grid linspace(0, t_max, num_points)
      rtol, atol, max_step, drift_threshold     IntegratorSettings' fields,
                                  read by evolve (a preset's frames read none)

    [output]
      out                         default output path (CLI --out overrides)
      tail_tolerance, n_max       number-basis truncation control
      x_points, x_span_sigmas     density grid: points across xbar +/- span*sigma_x

The numbers of [integration] and [output] other than the integrator's have
their section, default and bound in the _NUMBERS table below; each bound is
one of the library's intake (errors._BOUNDS), whose name says whether the
number is an integer, so a key is held to the rule and the message of the
argument it becomes.  The table also reads the command line's numbers with
the same grammar: density's --x-points and --x-span-sigmas by their keys'
entries, and --time and each --times entry by a time entry (finite and
nonnegative) that no file can set.

No other section exists: [DEFAULT] is not special here, so it is refused as
an unknown section rather than merged into the others.

A <name>_re / <name>_im pair with one part left out keeps that part of its
default: 0 for f0, g0 and an explicit run's varphi0, and the preset's
varphi0 = -i in either section.  A preset takes varphi0 from [hamiltonian]
or from [initial], not from both.

A profile value is one of

    <number>                              constant
    harmonic <offset> <amplitude> <omega> offset + amplitude cos(omega t)
    poly <c0> <c1> ...                    polynomial, ascending powers
    table <t0>:<v0> <t1>:<v1> ...         piecewise linear, no extrapolation

load_config raises ConfigError for a problem of the file itself: a
missing or unknown section or key, a malformed number or profile, a value
outside its bound.  A value the library refuses (hbar <= 0, rtol <= 0,
f0/g0 off the hyperboloid, ...) raises the library's DomainError, whose
message names the field.  The command line exits 2 on either.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, _read
from .hamiltonian import (_COMPLEX_KEYS, _KEYS, CoefficientSchedule, ComplexParts,
                          Constant, Harmonic, Polynomial, Table, UnitContext)
from .mathieu import DrivenOscillatorConfig
from .motion import InitialConditions, IntegratorSettings, from_initial_width
from .states import N_MAX, TAIL_TOLERANCE

# the preset's numbers are DrivenOscillatorConfig's fields, its start aside
_PRESET_NUMBERS = tuple(f.name for f in fields(DrivenOscillatorConfig) if f.name != "init")
# the integrator's keys and the units' are IntegratorSettings' and UnitContext's fields
_SETTINGS = tuple(f.name for f in fields(IntegratorSettings))
_UNITS = tuple(f.name for f in fields(UnitContext))
# [initial] takes f0/g0 components or a width pair, and varphi0 with either
_FRAME_KEYS = {"f0_re", "f0_im", "g0_re", "g0_im"}
_WIDTH_KEYS = {"sigma_x0", "theta"}
_VARPHI0_KEYS = {"varphi0_re", "varphi0_im"}


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI command needs, already read and checked, except the
    schedule over time: a command checks that over the interval it integrates."""

    schedule: CoefficientSchedule
    init: InitialConditions
    settings: IntegratorSettings
    preset: Optional[DrivenOscillatorConfig]
    t_max: Optional[float]
    num_points: int
    out: Optional[str]
    tail_tolerance: float
    n_max: int
    x_points: int
    x_span_sigmas: float

    def time_grid(self) -> np.ndarray:
        if self.t_max is None:
            raise ConfigError("this command needs t_max in [integration]")
        return _linspace(0.0, self.t_max, self.num_points, "[integration] num_points")


def _linspace(start: float, stop: float, points: int, where: str) -> np.ndarray:
    """np.linspace(start, stop, points); ConfigError naming where when numpy
    cannot hold that many points (it refuses a count such as 1e300 before
    allocating anything)."""
    try:
        return np.linspace(start, stop, points)
    except (ValueError, MemoryError):
        raise ConfigError(f"{where} = {points:.6g} is more points than numpy can hold") from None


def _unquote(raw: str) -> str:
    s = raw.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        return s[1:-1]
    return s


def _number(raw: str, where: str) -> float:
    try:
        v = float(_unquote(raw))
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{where}: value must be finite, got {raw!r}")
    return v


# The other numbers of [integration] and [output], in the order they are
# checked, and the command line's times: key -> (section, default, bound of
# errors._read).  A key left out takes the default; t_max has none, and only
# the commands that need its grid ask for it.  No file sets time, which has
# no section.
_NUMBERS = {
    "t_max": ("integration", None, "positive and finite"),
    "num_points": ("integration", 1001, "an integer of at least 2"),
    "tail_tolerance": ("output", TAIL_TOLERANCE, "in (0, 1)"),
    "n_max": ("output", N_MAX, "an integer of at least 2"),
    "x_points": ("output", 1025, "an integer of at least 2"),
    "x_span_sigmas": ("output", 8.0, "positive and finite"),
    "time": (None, None, "finite and nonnegative"),
}


def read_number(key: str, raw: str, where: str):
    """raw read as a number and held to key's bound in _NUMBERS by the
    library's intake; else ConfigError naming where.  A number written as an
    integral float (801.0, 8e2) is an integer.  The file's numbers, the
    command line's overrides of [output] numbers and its times all pass here."""
    bound = _NUMBERS[key][2]
    value = _number(raw, where)
    try:
        return _read(where, int(value) if "integer" in bound and value.is_integer() else value,
                     bound)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def _profile(raw: str, where: str):
    tokens = _unquote(raw).split()
    if not tokens:
        raise ConfigError(f"{where}: empty profile")
    head = tokens[0].lower()
    if head == "harmonic":
        if len(tokens) != 4:
            raise ConfigError(f"{where}: harmonic needs offset, amplitude, omega")
        return Harmonic(offset=_number(tokens[1], where),
                        amplitude=_number(tokens[2], where),
                        omega=_number(tokens[3], where))
    if head == "poly":
        if len(tokens) < 2:
            raise ConfigError(f"{where}: poly needs at least one coefficient")
        return Polynomial(coeffs=tuple(_number(tok, where) for tok in tokens[1:]))
    if head == "table":
        if len(tokens) < 3:
            raise ConfigError(f"{where}: table needs at least two t:v samples")
        times, values = [], []
        for tok in tokens[1:]:
            if ":" not in tok:
                raise ConfigError(f"{where}: table sample {tok!r} is not t:v")
            tpart, vpart = tok.split(":", 1)
            times.append(_number(tpart, where))
            values.append(_number(vpart, where))
        try:
            return Table(times=tuple(times), values=tuple(values))
        except DomainError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if len(tokens) != 1:
        raise ConfigError(f"{where}: unknown profile kind {tokens[0]!r}")
    return Constant(_number(tokens[0], where))


def _complex(section: str, values, name: str, default: complex) -> complex:
    """The <name>_re / <name>_im pair of a section; a part not given keeps
    the default's."""
    real, imag = (_number(values[key], f"[{section}] {key}") if key in values else part
                  for key, part in ((name + "_re", default.real),
                                    (name + "_im", default.imag)))
    return complex(real, imag)


def _numbers(section: str, values, keys) -> dict:
    """The numbers a section gives for keys, by key; a key left out is absent,
    so the class they are passed to keeps its own default."""
    return {key: _number(values[key], f"[{section}] {key}") for key in keys if key in values}


def _check_keys(section: str, present, allowed) -> None:
    unknown = set(present) - set(allowed)
    if unknown:
        raise ConfigError(f"[{section}]: unknown keys {sorted(unknown)}")


def load_config(path: str) -> RunConfig:
    """The run configuration of the file at path (see the module docstring).

    The schedule is read but not sampled over time: no interval is known
    here, so each command on an explicit schedule runs hamiltonian.validate
    over the interval it integrates.  A preset checks its own parameters
    when it is built.
    """
    # no section name is empty, so [DEFAULT] is an ordinary, unknown section
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None,
                                   default_section="")
    cp.optionxform = str  # keys are case-sensitive (Omega vs omega0)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from None

    known_sections = {"hamiltonian", "initial", "integration", "output"}
    unknown = set(cp.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    if "hamiltonian" not in cp:
        raise ConfigError("missing required section [hamiltonian]")

    ham = cp["hamiltonian"]
    sections = {name: cp[name] if name in cp else {}
                for name in ("initial", "integration", "output")}
    for name, keys in (("initial", _FRAME_KEYS | _WIDTH_KEYS | _VARPHI0_KEYS),
                       ("integration", _SETTINGS),
                       ("output", ("out",))):
        _check_keys(name, sections[name].keys(),
                    {*keys, *(key for key, entry in _NUMBERS.items() if entry[0] == name)})

    if "preset" in ham:
        preset, schedule, init = _load_preset(ham, sections["initial"])
    else:
        preset = None
        schedule, init = _load_explicit(ham, sections["initial"])

    settings = IntegratorSettings(**_numbers("integration", sections["integration"], _SETTINGS))
    numbers = {key: read_number(key, sections[section][key], f"[{section}] {key}")
               if key in sections[section] else default
               for key, (section, default, _) in _NUMBERS.items() if section}
    outp = sections["output"]
    out = _unquote(outp["out"]) if "out" in outp else None

    return RunConfig(schedule=schedule, init=init, settings=settings, preset=preset,
                     out=out, **numbers)


def _load_preset(ham, ini):
    _check_keys("hamiltonian", ham.keys(),
                {"preset", *_VARPHI0_KEYS, *_PRESET_NUMBERS})
    name = _unquote(ham["preset"])
    if name != "mathieu":
        raise ConfigError(f"unknown preset {name!r} (available: mathieu)")
    if _VARPHI0_KEYS & set(ham.keys()) and _VARPHI0_KEYS & set(ini.keys()):
        raise ConfigError("preset: give varphi0 in [hamiltonian] or in [initial], not both")
    base = DrivenOscillatorConfig(**_numbers("hamiltonian", ham, _PRESET_NUMBERS))
    varphi0 = _complex("hamiltonian", ham, "varphi0", base.init.varphi0)
    preset = replace(base, init=_load_initial(ini, base.units, varphi0))
    return preset, preset.schedule(), preset.init


def _load_explicit(ham, ini):
    if "parameterization" not in ham:
        raise ConfigError("[hamiltonian] needs either preset or parameterization")
    kind = _unquote(ham["parameterization"])
    units = UnitContext(**_numbers("hamiltonian", ham, _UNITS))

    def real_profile(key):
        return _profile(ham[key], f"[hamiltonian] {key}") if key in ham else Constant(0.0)

    if kind not in _KEYS:
        raise ConfigError(f"parameterization must be algebraic or physical, got {kind!r}")
    # a complex coefficient is read as a <name>_re / <name>_im pair of real profiles
    names = {key: (key + "_re", key + "_im") if key in _COMPLEX_KEYS else (key,)
             for key in _KEYS[kind]}
    _check_keys("hamiltonian", ham.keys(),
                {"parameterization", *_UNITS, *(n for pair in names.values() for n in pair)})
    if kind == "physical" and "m" not in ham:
        raise ConfigError("[hamiltonian] physical parameterization needs m")
    profiles = {key: ComplexParts(*map(real_profile, pair)) if key in _COMPLEX_KEYS
                else real_profile(key) for key, pair in names.items()}
    schedule = getattr(CoefficientSchedule, kind)(units, **profiles)
    return schedule, _load_initial(ini, units, 0j)


def _load_initial(ini, units, default_varphi):
    explicit = _FRAME_KEYS & set(ini.keys())
    width = _WIDTH_KEYS & set(ini.keys())
    if explicit and width:
        raise ConfigError("[initial]: give either f0/g0 components or sigma_x0/theta, not both")

    varphi0 = _complex("initial", ini, "varphi0", default_varphi)

    if width:
        if "sigma_x0" not in ini:
            raise ConfigError("[initial]: width style needs sigma_x0")
        given = _numbers("initial", ini, sorted(_WIDTH_KEYS))
        base = from_initial_width(given["sigma_x0"], given.get("theta", 0.0), units)
        return InitialConditions(base.f0, base.g0, varphi0)
    if explicit:
        return InitialConditions(_complex("initial", ini, "f0", 0j),
                                 _complex("initial", ini, "g0", 0j), varphi0)
    # no f0/g0 given: start from the coherent vacuum frame
    return InitialConditions(1.0, 0.0, varphi0)
