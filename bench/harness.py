"""Measure one workload: set-up, timed grid passes, output checks, results.

An untraced run sets up once, then repeats rounds of one set-up and one
grid pass until the next round would end past `seconds`, at least
MIN_PASSES rounds; setup_s is the median set-up and wall_s the median pass.
Interleaving spreads the short set-ups over the whole run, so a burst of
load from other tenants of the machine moves their median less.

A traced run sets up once, runs one pass with tracemalloc on for the
peak_mb figures, then alternates untraced and traced passes; its other
per-layer figures are medians over the traced passes, and
trace.overhead_s is the traced minus the untraced median pass time.

In both, every report of every pass is checked and compared byte for byte
with the first pass's report of the same cell, so a traced run also proves
that the wrappers change no result.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import time

import numpy as np

import tracing
import workloads

MIN_PASSES = 2
# Seeds the benchmark was tuned on; a claim should also hold on a seed
# outside this range (the results record which kind a run used).
DEV_SEEDS = range(0, 20)


class Grid:
    """Runs grid passes of one workload and keeps the failure tally."""

    def __init__(self, workload, inputs, ready, workdir):
        self.workload, self.inputs, self.ready = workload, inputs, ready
        self.workdir = workdir
        self.reference = {}   # report name -> bytes of its first pass
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, tracer=None, unit=None, peaks=False) -> float:
        """One pass over the grid; returns its wall seconds."""
        self.passes += 1
        out_dir = os.path.join(self.workdir, f"pass{self.passes}")
        os.makedirs(out_dir)
        traced = tracer.installed(unit, peaks) if tracer else contextlib.nullcontext()
        with traced:
            start = time.perf_counter()
            errors = self.workload.run_pass(self.inputs, self.ready, out_dir)
            wall = time.perf_counter() - start
        for cell in self.inputs.cells:
            path = os.path.join(out_dir, cell.report)
            problems = errors.get(cell.report) or workloads.check_report(path, cell)
            data = pathlib.Path(path).read_bytes() if os.path.exists(path) else None
            if self.reference.setdefault(cell.report, data) != data:
                problems = problems + ["report bytes differ from the first pass"]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{unit or 'untraced'} {cell.report}: {'; '.join(problems)}")
        shutil.rmtree(out_dir)
        return wall


def _untraced(workload, seed, seconds, workdir):
    inputs = workload.generate(seed, workdir)
    grid = Grid(workload, inputs, None, workdir)
    setups, walls = [], []

    def set_up():
        grid.ready = None  # one copy of the data at a time, as in a user's process
        setup_start = time.perf_counter()
        grid.ready = workload.setup(inputs)
        setups.append(time.perf_counter() - setup_start)

    start = time.perf_counter()
    set_up()
    last_round = 0.0
    while len(walls) < MIN_PASSES or time.perf_counter() - start + last_round <= seconds:
        round_start = time.perf_counter()
        set_up()
        walls.append(grid.run_pass())
        last_round = time.perf_counter() - round_start
    figures = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    return grid, figures, {"wall_s": walls, "setup_s": setups}


def _traced(workload, seed, seconds, workdir, names, spans_path):
    tracer = tracing.Tracer()
    with tracer.installed("prelude"):
        inputs = workload.generate(seed, workdir)
        ready = workload.setup(inputs)
    grid = Grid(workload, inputs, ready, workdir)
    start = time.perf_counter()
    grid.run_pass(tracer, "memory", peaks=True)
    plain, traced = [], []
    while not traced or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        plain.append(grid.run_pass())
        traced.append(grid.run_pass(tracer, f"pass{len(traced)}"))
    tables = [tracing.layer_metrics(tracer, {"prelude", f"pass{k}"}) for k in range(len(traced))]
    figures = tracing.median_metrics(tables, [n for n in names if n != "trace.overhead_s"])
    figures["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    tracer.write_spans(spans_path)
    return grid, figures, {"wall_s": plain, "traced_wall_s": traced}


def machine_record(seed: int) -> dict:
    """What the timings depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "seed": seed,
        "seed_used_while_writing": seed in DEV_SEEDS,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes():
    """Size of the last-level cache seen by CPU 0, in bytes (0 if unknown)."""
    best_level, best_size = 0, 0
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level"), encoding="utf-8") as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        size = int(size.rstrip("KM")) * scale
        if level > best_level or (level == best_level and size > best_size):
            best_level, best_size = level, size
    return best_size


def measure(workload, seed: int, seconds: float, trace: bool, spec: dict, out_root: str) -> dict:
    """Run one workload and return its result record.

    `spec` is BENCHMARK.json: its end_to_end (untraced) or per_layer
    (traced) entries name the metrics and their units.
    """
    metric_specs = spec["per_layer" if trace else "end_to_end"]
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    workdir = os.path.join(out_root, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if trace:
            grid, figures, samples = _traced(workload, seed, seconds, workdir,
                                             [m["name"] for m in metric_specs],
                                             os.path.join(out_root, f"{tag}-spans.jsonl"))
        else:
            grid, figures, samples = _untraced(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": workload.name,
        "trace": int(trace),
        "seconds": seconds,
        "machine": machine_record(seed),
        "samples": samples,
        "attempted": grid.attempted,
        "failed": grid.failed,
        "fail_share": grid.failed / grid.attempted,
        "problems": grid.problems[:20],
        "metrics": {m["name"]: {"value": float(figures[m["name"]]), "unit": m["unit"]}
                    for m in metric_specs},
    }
    with open(os.path.join(out_root, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_result(result: dict) -> None:
    """Human-readable table, then the one-line JSON summary last."""
    head = f"{result['workload']} seed {result['machine']['seed']} trace {result['trace']}"
    counts = ", ".join(f"{len(v)} {k}" for k, v in result["samples"].items())
    print(f"# {head}: medians over {counts} samples; {result['attempted']} grid cells run")
    for name, m in result["metrics"].items():
        print(f"{name:<44}{m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_share':<44}{result['fail_share']:>16.6g} share  "
          f"({result['failed']}/{result['attempted']} runs failed)")
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    print("# machine " + json.dumps(result["machine"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
