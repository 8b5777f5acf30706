"""Runs one workload in this (fresh) process and prints its result as JSON.

Started by run.py, never directly: run.py caps the BLAS/OpenMP threads in
the environment before this process imports numpy.

    worker.py --workload NAME --seed N --seconds S --mode setup|run|trace

setup  import the package, generate the inputs, run one warm-up task, and
       report how long that took.
run    setup, then the timed closed loop with tracing off: one caller, the
       next task starts when the previous one returns, whole passes over
       the task pool (at least three) until the next pass would end after
       S seconds.
trace  setup, then passes in which every task runs three times back to
       back: untimed, untraced and traced, within the same budget; reports per-layer metrics and the
       tracing overhead, and writes the spans as JSON.

Set-up and the timed tasks of `run` are reported on the reference clock
(clock.py): wall time scaled by a fixed kernel's speed, measured right
before and after every timed task and right after set-up.

Every task's output goes through the workload's correctness gate outside
the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

_T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
import cssdyn  # noqa: E402  (timed as part of set-up)

if not os.path.abspath(cssdyn.__file__).startswith(SRC + os.sep):
    sys.exit(f"cssdyn imported from {cssdyn.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUNS_DIR = os.path.join(HERE, "_runs")


class Runner:
    """Executes tasks, applies the gate, and keeps per-task records."""

    def __init__(self, workload):
        self.wl = workload
        self.levels = 0
        self.frames = 0
        self.attempted = 0
        self.failures = []
        self.ref_s = None

    def execute(self, task_id, item, tracer=None, reference=False):
        """Run one task; return its timed duration in seconds.

        With `reference`, the reference kernel runs right before and right
        after the task, and `ref_s` holds the mean of the two times.
        """
        error = None
        if tracer is not None:
            tracer.install()
        ref_before = clock.probe() if reference else None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = self.wl.run(item)
            else:
                with tracer.task_span(task_id):
                    output = self.wl.run(item)
        except Exception as exc:  # a raising task is a failed task, the loop goes on
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if reference:
            self.ref_s = 0.5 * (ref_before + clock.probe())
        if tracer is not None:
            tracer.uninstall()
        self.attempted += 1
        if error is None:
            try:
                levels, frames, error = self.wl.check(item, output)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            else:
                if tracer is None:
                    self.levels += levels
                    self.frames += frames
        if error is not None:
            self.failures.append(f"task {task_id}: {error}")
        return elapsed

    def run_pass(self):
        """One untraced pass over the pool: (latency, reference time) per task."""
        out = []
        for i, item in enumerate(self.wl.items):
            elapsed = self.execute(i, item, reference=True)
            out.append((elapsed, self.ref_s))
        return out


def setup(name, seed):
    workdir = os.path.join(RUNS_DIR, f"{name}-{os.getpid()}")
    wl = workloads.WORKLOADS[name](seed, workdir)
    runner = Runner(wl)
    generated_s = time.perf_counter() - _T0
    setup_s = generated_s + runner.execute(-1, wl.warmup_item)  # the warm-up's gate is not set-up
    runner.levels = runner.frames = 0
    ref_s = statistics.median(clock.probe() for _ in range(11))
    return runner, setup_s * clock.REF_S / ref_s, setup_s


MIN_PASSES = 3  # the timed loop runs at least this many passes


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it."""
    return 100.0 * (1.0 - 10.0 / samples)


def measure(runner, seconds):
    """Whole passes until the next would end after `seconds`.

    Every pass does the same work.  A task's latency is the median over
    the passes of its time on the reference clock.  The latency
    percentiles are over the pool's tasks; the rates are one pass's work
    over the sum of the task latencies.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (1.0 + 1.0 / len(passes)) > seconds:
            break
    lat = [statistics.median(t * clock.REF_S / ref for t, ref in runs)
           for runs in zip(*passes)]
    pct = tail_percentile(len(lat))
    pass_s = sum(lat)
    n = len(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "task_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "task_tail_ms": (1e3 * float(np.percentile(lat, pct)), "ms"),
        "tasks_per_s": (len(lat) / pass_s, "1/s"),
        "levels_per_s": (runner.levels / n / pass_s, "1/s"),
        "frames_per_s": (runner.frames / n / pass_s, "1/s"),
        "failed_ratio": (len(runner.failures) / runner.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = [t for runs in passes for t, _ in runs]
    refs = [ref for runs in passes for _, ref in runs]
    info = {"passes": n, "samples": len(lat), "tail_percentile": pct,
            "elapsed_s": elapsed, "wall_task_s": sum(wall) / n,
            "wall_p50_ms": 1e3 * statistics.median(wall),
            "ref_median_ms": 1e3 * statistics.median(refs), "ref_scaled_ms": 1e3 * clock.REF_S}
    return metrics, info


def trace(runner, seconds, name):
    tracer = tracing.Tracer()
    plain = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        # each task runs three times in a row: an untimed run leaves the
        # allocator as warm for the untraced run as for the traced one, and
        # running back to back keeps both on the same machine state
        for i, item in enumerate(runner.wl.items):
            runner.execute(i, item)
            plain += runner.execute(i, item)
            traced += runner.execute(i, item, tracer)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            break
    metrics = tracing.reduce(tracer, passes)
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    path = os.path.join(RUNS_DIR, f"trace-{name}.json")  # overwritten by the next traced run
    tracer.dump(path)
    info = {"passes": passes, "untraced_s": plain, "traced_s": traced, "spans": path}
    return metrics, info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    runner, setup_s, setup_wall_s = setup(args.workload, args.seed)
    try:
        if args.mode == "setup":
            metrics, info = {}, {}
        elif args.mode == "run":
            metrics, info = measure(runner, args.seconds)
        else:
            metrics, info = trace(runner, args.seconds, args.workload)
    finally:
        runner.wl.close()
    print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s,
                      "attempted": runner.attempted,
                      "failures": runner.failures, "info": info,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
