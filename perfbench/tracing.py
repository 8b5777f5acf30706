"""Per-layer tracing of the cssdyn package, applied from outside the package.

Tracer.install() replaces each layer's entry points by timing wrappers at
every module attribute that holds them, so a call is caught whichever name
the caller resolves it through (cssdyn.cli.evolve as well as
cssdyn.motion.evolve, cssdyn.cli.oscillator_frames as well as
cssdyn.mathieu.frames, and cssdyn.states.transition_probabilities, which
transition_snapshot imports at call time).  The schedule evaluations
CoefficientSchedule.algebraic_at / physical_at are wrapped on the class.

Every call becomes a span [name, layer, start, end, parent, task, error] kept in
memory; reduce() turns the spans into per-layer self times (a span's
duration minus the part its child spans cover) and counts.  Counts that
need a call's result (levels, frames, records, points, CSV bytes) are
added by small hooks right after the span closes.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("hamiltonian", "motion", "mathieu", "states", "observables",
          "config", "cli")

# bytes the recurrence stores per certified level: transition_probabilities
# keeps |d_n|^2 (float64); fock_coefficients keeps d_n (complex128) as well
_BYTES_PROBABILITIES = 8
_BYTES_COEFFICIENTS = 24

_EXPANSIONS = ("transition_probabilities", "fock_coefficients")
_SCHEDULE_EVALS = ("algebraic_at", "physical_at")


def _note_probabilities(counts, args, kwargs, result):
    n = len(result)
    counts["states.levels"] += n
    counts["states.bytes_computed"] += _BYTES_PROBABILITIES * n
    counts["states.max_levels"] = max(counts["states.max_levels"], n)


def _note_coefficients(counts, args, kwargs, result):
    n = result.truncation + 1
    counts["states.levels"] += n
    counts["states.bytes_computed"] += _BYTES_COEFFICIENTS * n
    counts["states.max_levels"] = max(counts["states.max_levels"], n)


def _note_evolve(counts, args, kwargs, result):
    counts["motion.frames"] += len(result)
    worst = max(fr.unitarity_defect for fr in result)
    counts["motion.max_unitarity_defect"] = max(
        counts["motion.max_unitarity_defect"], worst)


def _note_mathieu_frames(counts, args, kwargs, result):
    counts["mathieu.frames"] += len(result)


def _note_observe(counts, args, kwargs, result):
    counts["observables.records"] += 1


def _note_wavefunction(counts, args, kwargs, result):
    counts["observables.wavefunction_points"] += len(result)


def _note_main(counts, args, kwargs, result):
    if result != 0:
        counts["cli.nonzero_exits"] += 1
    argv = list(args[0]) if args else list(kwargs.get("argv") or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            counts["cli.csv_bytes"] += os.path.getsize(path)


# (layer, home module, function, result hook)
ENTRY_POINTS = (
    ("hamiltonian", "cssdyn.hamiltonian", "validate", None),
    ("motion", "cssdyn.motion", "evolve", _note_evolve),
    ("mathieu", "cssdyn.mathieu", "transition_snapshot", None),
    ("mathieu", "cssdyn.mathieu", "frames", _note_mathieu_frames),
    ("mathieu", "cssdyn.mathieu", "fundamental_solutions", None),
    ("states", "cssdyn.states", "transition_probabilities", _note_probabilities),
    ("states", "cssdyn.states", "fock_coefficients", _note_coefficients),
    ("states", "cssdyn.states", "overlap", None),
    ("states", "cssdyn.states", "branch_windings", None),
    ("states", "cssdyn.states", "parameters", None),
    ("observables", "cssdyn.observables", "observe", _note_observe),
    ("observables", "cssdyn.observables", "hamilton_residual", None),
    ("observables", "cssdyn.observables", "wavefunction", _note_wavefunction),
    ("config", "cssdyn.config", "load_config", None),
    ("cli", "cssdyn.cli", "main", _note_main),
)

# (layer, home module, class, method)
METHODS = (
    ("hamiltonian", "cssdyn.hamiltonian", "CoefficientSchedule", "algebraic_at"),
    ("hamiltonian", "cssdyn.hamiltonian", "CoefficientSchedule", "physical_at"),
)


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.task = -1
        self._stack = []
        self._patches = []

    def _wrap(self, layer, name, fn, note):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.task, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[3] = clock()
                rec[6] = type(exc).__name__
                stack.pop()
                raise
            rec[3] = clock()
            stack.pop()
            if note is not None:
                note(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cssdyn" or key.startswith("cssdyn."))]
        for layer, home, name, note in ENTRY_POINTS:
            original = getattr(importlib.import_module(home), name)
            wrapper = self._wrap(layer, name, original, note)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for layer, home, cls_name, name in METHODS:
            cls = getattr(importlib.import_module(home), cls_name)
            original = cls.__dict__[name]
            self._patches.append((cls, name, original))
            setattr(cls, name, self._wrap(layer, name, original, None))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def task_span(self, task_id):
        """Root span of one benchmark task; its self time is benchmark code."""
        self.task = task_id
        rec = ["task", "task", 0.0, 0.0, -1, task_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def dump(self, path):
        """Write every span as JSON, times relative to the first span start."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [[n, layer, round(t0 - origin, 9), round(t1 - origin, 9), parent, task, err]
                for n, layer, t0, t1, parent, task, err in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start_s", "end_s", "parent",
                                  "task", "error"], "spans": rows}, fh)


def reduce(tracer, passes):
    """Per-pass layer metrics from the recorded spans and counts.

    Counts and self times are divided by the number of passes; every pass
    runs the same tasks, so per-pass counts repeat exactly for one seed.
    """
    spans, counts = tracer.spans, tracer.counts
    child = [0.0] * len(spans)
    for n, layer, t0, t1, parent, task, err in spans:
        if parent >= 0:
            child[parent] += t1 - t0

    self_s = Counter()
    expansion_self = overlap_self = residual_self = 0.0
    calls_in = Counter()
    entries = Counter()
    evals = evals_in_evolve = 0
    convergence_errors = 0
    task_total = 0.0
    for i, (n, layer, t0, t1, parent, task, err) in enumerate(spans):
        own = (t1 - t0) - child[i]
        self_s[layer] += own
        parent_layer = spans[parent][1] if parent >= 0 else None
        if layer == "task":
            task_total += t1 - t0
            continue
        if parent_layer != layer:
            calls_in[n] += 1
            entries[layer] += 1
        if n in _EXPANSIONS:
            expansion_self += own
            if err == "ConvergenceError":
                convergence_errors += 1
        elif n == "overlap":
            overlap_self += own
        elif n == "hamilton_residual":
            residual_self += own
        elif n in _SCHEDULE_EVALS and parent_layer != "hamiltonian":
            evals += 1
            if spans[parent][0] == "evolve":
                evals_in_evolve += 1

    p = float(passes)
    levels = counts["states.levels"]
    expansions = calls_in["transition_probabilities"] + calls_in["fock_coefficients"]
    evolve_frames = counts["motion.frames"]
    out = {
        "hamiltonian.coeff_evals": (evals / p, "count"),
        "hamiltonian.self_s": (self_s["hamiltonian"] / p, "s"),
        "motion.evolve_calls": (calls_in["evolve"] / p, "count"),
        "motion.frames": (evolve_frames / p, "count"),
        "motion.coeff_evals_per_frame": (
            evals_in_evolve / evolve_frames if evolve_frames else 0.0, "ratio"),
        "motion.self_s": (self_s["motion"] / p, "s"),
        "motion.max_unitarity_defect": (float(counts["motion.max_unitarity_defect"]), "ratio"),
        "mathieu.calls": (entries["mathieu"] / p, "count"),
        "mathieu.self_s": (self_s["mathieu"] / p, "s"),
        "states.expansions": (expansions / p, "count"),
        "states.levels": (levels / p, "count"),
        "states.levels_per_expansion": (levels / expansions if expansions else 0.0, "count"),
        "states.self_s": (self_s["states"] / p, "s"),
        "states.levels_per_s": (levels / expansion_self if expansion_self else 0.0, "1/s"),
        "states.bytes_computed": (counts["states.bytes_computed"] / p, "B"),
        "states.overlaps": (calls_in["overlap"] / p, "count"),
        "states.overlap_self_s": (overlap_self / p, "s"),
        "states.convergence_errors": (convergence_errors / p, "count"),
        "observables.records": (counts["observables.records"] / p, "count"),
        "observables.self_s": (self_s["observables"] / p, "s"),
        "observables.wavefunction_points": (counts["observables.wavefunction_points"] / p, "count"),
        "observables.residual_self_s": (residual_self / p, "s"),
        "config.loads": (calls_in["load_config"] / p, "count"),
        "config.self_s": (self_s["config"] / p, "s"),
        "cli.commands": (calls_in["main"] / p, "count"),
        "cli.self_s": (self_s["cli"] / p, "s"),
        "cli.csv_bytes": (counts["cli.csv_bytes"] / p, "B"),
        "cli.nonzero_exits": (counts["cli.nonzero_exits"] / p, "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = (self_s[layer] / task_total if task_total else 0.0, "ratio")
    out["bench.share"] = (self_s["task"] / task_total if task_total else 0.0, "ratio")
    return out
