"""cssdyn benchmark: one command, every workload, every metric with its unit.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selfcheck [--seed N]

Run from the root of a source checkout; the package is imported from its
src/ directory, nothing is installed.  Each workload runs in a fresh
process (worker.py) with BLAS/OpenMP capped at one thread, as a closed
loop with one caller.  With --trace 0 it prints the end-to-end metrics,
timed on the reference clock of clock.py (wall time scaled by a fixed
kernel's speed, so host speed drift cancels); set-up time is the median
of several fresh processes.  With --trace 1 it
prints the per-layer metrics of a traced run and the tracing overhead.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every task passed its correctness gate.

--selfcheck runs the traced run three times per workload, twice at one
seed and once at the next, and requires the per-pass counts states.levels,
hamiltonian.coeff_evals, motion.frames and cli.csv_bytes to repeat exactly
at one seed and to differ at the other (a count that is zero on a workload
at both seeds is exempt from differing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("fock_deep", "trajectory_sweep", "cli_runs")
END_TO_END = ("setup_s", "task_p50_ms", "task_tail_ms", "tasks_per_s",
              "levels_per_s", "frames_per_s", "peak_rss_mb")
SETUP_REPEATS = 5  # fresh processes whose set-up time is measured, main run included
SELFCHECK_COUNTS = ("states.levels", "hamiltonian.coeff_evals", "motion.frames",
                    "cli.csv_bytes")
DEADLINE_S = 170.0

THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}


class BenchError(Exception):
    pass


def worker(workload, seed, seconds, mode, deadline):
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, **THREAD_CAPS)
    env.pop("PYTHONPATH", None)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--mode", mode],
            capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: no result within {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} {mode}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, traced, deadline):
    if traced:
        res = worker(workload, seed, seconds, "trace", deadline)
        return res, res["metrics"]
    runs = [worker(workload, seed, seconds, "setup", deadline)
            for _ in range(SETUP_REPEATS - 1)]
    res = worker(workload, seed, seconds, "run", deadline)
    runs.append(res)
    metrics = dict(res["metrics"])
    metrics["setup_s"] = {"value": statistics.median(r["setup_s"] for r in runs), "unit": "s"}
    res["info"]["setup_wall_s"] = statistics.median(r["setup_wall_s"] for r in runs)
    return res, metrics


def report(workload, res, metrics, traced):
    info = res["info"]
    print(f"== {workload} ({'traced' if traced else 'untraced'}), "
          f"{res['attempted']} tasks attempted, {len(res['failures'])} failed")
    for failure in res["failures"][:20]:
        print(f"   FAILED {failure}")
    if not traced:
        print(f"   {info['samples']} tasks, each timed in {info['passes']} passes "
              f"({info['elapsed_s']:.2f} s); reference kernel median "
              f"{info['ref_median_ms']:.4f} ms wall, scaled to {info['ref_scaled_ms']:g} ms")
        print(f"   wall clock: one pass {info['wall_task_s']:.3f} s, task p50 "
              f"{info['wall_p50_ms']:.3f} ms; set-up {info['setup_wall_s']:.3f} s median")
        print(f"   latencies below are on the reference clock, each task's median; "
              f"task_tail_ms is p{info['tail_percentile']:.1f} of {info['samples']} tasks")
    else:
        print(f"   {info['passes']} passes, each task warm, untraced, traced; "
              f"{info['untraced_s']:.2f} s untraced, {info['traced_s']:.2f} s traced; "
              f"spans in {os.path.relpath(info['spans'])}")
    for name, m in metrics.items():
        print(f"   {name:34s} {m['value']:16.6g} {m['unit']}")


def bench(args):
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    out = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        res, metrics = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        report(name, res, metrics, args.trace)
        attempted += res["attempted"]
        failed += len(res["failures"])
        keep = [k for k in metrics if k != "failed_ratio"] if args.trace \
            else END_TO_END
        prefix = "" if len(names) == 1 else f"{name}."
        out.update({prefix + k: metrics[k] for k in keep})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


def selfcheck(args):
    problems = []
    for name in WORKLOADS:
        deadline = time.monotonic() + DEADLINE_S
        runs = [worker(name, seed, 1, "trace", deadline)
                for seed in (args.seed, args.seed, args.seed + 1)]
        for res in runs:
            problems += [f"{name}: {f}" for f in res["failures"]]
        for key in SELFCHECK_COUNTS:
            a, b, c = (r["metrics"][key]["value"] for r in runs)
            same = "repeats" if a == b else "DIFFERS"
            moved = "differs" if a != c else ("zero" if a == 0 else "SAME")
            print(f"{name:17s} {key:24s} seed {args.seed}: {a:g} / {b:g} ({same}), "
                  f"seed {args.seed + 1}: {c:g} ({moved})")
            if a != b:
                problems.append(f"{name}: {key} does not repeat at seed {args.seed}")
            if a == c and a != 0:
                problems.append(f"{name}: {key} does not depend on the seed")
    for p in problems:
        print(f"FAILED {p}")
    print("self-check " + ("passed" if not problems else "failed"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    try:
        return selfcheck(args) if args.selfcheck else bench(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
