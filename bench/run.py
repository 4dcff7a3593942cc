"""Benchmark entry point.

    python3 bench/run.py --workload desk --seed 1 --seconds 55 --trace 0

Runs one workload of BENCHMARK.json from the sources under ./src, checks
every report it writes, prints a table of metrics and, as the last line of
standard output, one JSON object {correct, attempted, failed, metrics}.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer table.
--workload all runs every workload, each in its own process, one after the
other. Results, machine details and traced spans go to .bench_out/.
Exit code 0 when every check passed, 1 when one failed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Allow BLAS at most one thread per usable core (must precede numpy)."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))


def run_all(args, names) -> int:
    """Each workload in its own process; a combined summary line last."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            last = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] &= proc.returncode == 0 and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "alamp" / "__init__.py").is_file():
        print(f"error: no alamp sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, names)

    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    OUT.mkdir(exist_ok=True)
    result = harness.measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), spec, str(OUT))
    harness.print_result(result)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
