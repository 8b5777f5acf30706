"""sha256 sums of everything the benchmark's output-producing workloads make.

Runs every fock_deep, trajectory_sweep and cli_runs task of
perfbench/workloads.py once with the cssdyn package found in SRC (a
directory that holds cssdyn/, such as a checkout's src), and prints one
line per output:

    <workload> <seed> <task> <output> <sha256>

For a fock_deep task the output is its probabilities (bits), named with
their count.  For a trajectory_sweep task the outputs are its frames (all
six fields, by repr), its observable records, the Hamilton residual and
the picked frames, the number-basis expansions (coefficient and
probability bits, truncation, tail bound) and the overlap grid (bits).
For a cli_runs task they are the CSV the command wrote and its exit code.  Two sources give the same
outputs, bit for bit, when their printouts are equal:

    python tools/same_outputs.py OLD/src > old.txt
    python tools/same_outputs.py src > new.txt
    cmp old.txt new.txt

perfbench is only imported, never written; the cli_runs files go to a
temporary directory that is removed afterwards.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def _fock(workloads, seed: int):
    deep = workloads.FockDeep(seed, None)
    for task, item in enumerate(deep.items):
        probs = deep.run(item)
        yield task, f"probabilities[{probs.size}]", _sha(probs.tobytes())


def _sweep(workloads, seed: int):
    sweep = workloads.TrajectorySweep(seed, None)
    for task, item in enumerate(sweep.items):
        frames, records, residual, picks, dists, overlaps = sweep.run(item)
        yield task, "frames", _sha([dataclasses.astuple(fr) for fr in frames])
        yield task, "records", _sha(records)
        yield task, "residual", _sha(residual, picks)
        yield task, "expansions", _sha(*(part for d in dists for part in (
            d.coefficients.tobytes(), d.probabilities.tobytes(), d.truncation, d.tail_bound)))
        yield task, "overlaps", _sha(overlaps.tobytes())


def _cli(workloads, seed: int):
    with tempfile.TemporaryDirectory() as scratch:
        runs = workloads.CliRuns(seed, os.path.join(scratch, "cli"))
        for item in sorted(runs.items, key=lambda item: item[0]):
            index, argv, out, _ = item
            code = runs.run(item)
            csv = Path(out).read_bytes() if os.path.exists(out) else b""
            yield index, f"{argv[0]}.csv", _sha(csv)
            yield index, f"{argv[0]}.exit", _sha(code)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory holding the cssdyn package to run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[9901, 9902])
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src),
                    str(Path(__file__).resolve().parent.parent / "perfbench")]
    import cssdyn
    import workloads
    print(f"cssdyn from {os.path.dirname(cssdyn.__file__)}", file=sys.stderr)
    for seed in args.seeds:
        for name, outputs in (("fock_deep", _fock), ("trajectory_sweep", _sweep),
                              ("cli_runs", _cli)):
            for task, output, digest in outputs(workloads, seed):
                print(name, seed, task, output, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
