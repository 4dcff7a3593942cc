"""Tests of the benchmark itself, on smoke-sized versions of its workloads.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import os
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from alamp import classifier, engine, metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE = {
    "desk": dataclasses.replace(workloads.WORKLOADS["desk"], n_classes=4, per_class=40,
                                dim=6, budget=16, iterations=2),
    "pool": dataclasses.replace(workloads.WORKLOADS["pool"], n_classes=4, per_class=60,
                                dim=16, rank=4, batch=6, iterations=2),
}


def test_smoke_workloads_cover_every_benchmark_workload():
    assert sorted(SMOKE) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(workloads.WORKLOADS) == sorted(SMOKE)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_workload_completes_with_every_metric(name, trace, tmp_path):
    result = harness.measure(SMOKE[name], seed=3, seconds=0.01, trace=trace, spec=SPEC,
                             out_root=str(tmp_path))
    assert result["failed"] == 0, result["problems"]
    cells = len(SMOKE[name].generate(3, str(tmp_path)).cells)
    assert result["attempted"] >= harness.MIN_PASSES * cells
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in expected] == list(result["metrics"])
    values = [m["value"] for m in result["metrics"].values()]
    assert all(np.isfinite(values))
    if not trace:
        assert all(v > 0 for v in values)
    else:
        assert result["metrics"]["classifier.train.calls"]["value"] > 0
        assert (tmp_path / f"{name}-seed3-trace1-spans.jsonl").stat().st_size > 0


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_and_untraced_reports_are_byte_identical(name, tmp_path):
    workload = SMOKE[name]
    inputs = workload.generate(5, str(tmp_path))
    ready = workload.setup(inputs)
    original_train = classifier.train
    outputs = {}
    for mode in ("plain", "traced", "peaks"):
        out_dir = tmp_path / mode
        out_dir.mkdir()
        if mode == "plain":
            assert workload.run_pass(inputs, ready, str(out_dir)) == {}
        else:
            tracer = tracing.Tracer()
            with tracer.installed(mode, peaks=mode == "peaks"):
                assert workload.run_pass(inputs, ready, str(out_dir)) == {}
            table = tracing.layer_metrics(tracer, {mode})
            assert table["engine.init_pool.calls"] == len(inputs.cells)
            assert table["classifier.gradients.calls"] == 500 * table["classifier.train.calls"]
        outputs[mode] = {c.report: (out_dir / c.report).read_bytes() for c in inputs.cells}
    assert classifier.train is original_train
    assert outputs["plain"] == outputs["traced"] == outputs["peaks"]


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    made = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        workdir = tmp_path / tag
        workdir.mkdir()
        inputs = SMOKE[name].generate(seed, str(workdir))
        files = {k: pathlib.Path(p).read_bytes() for k, p in inputs.files.items()}
        features = inputs.full.features.tobytes() if inputs.full is not None else b""
        made[tag] = (files, features, [c.pool_labels.tobytes() for c in inputs.cells])
    assert made["a"] == made["b"]
    assert made["a"] != made["c"]


def test_lowrank_relu_has_embedding_statistics():
    data = workloads.lowrank_relu(5, 40, 64, 4, 1.0, seed=0)
    assert data.features.shape == (200, 64)
    assert data.features.min() == 0.0
    centred = data.features - data.features.mean(axis=0)
    singular = np.linalg.svd(centred, compute_uv=False)
    # a ReLU of a rank-4 latent: a few directions carry most of the variance
    assert (singular[:4] ** 2).sum() > 0.8 * (singular ** 2).sum()


def _valid_report(tmp_path):
    workload = SMOKE["pool"]
    inputs = workload.generate(2, str(tmp_path))
    train, test = workload.setup(inputs)
    cell = inputs.cells[0]
    plan = engine.BudgetPlan(cell.budget, cell.iterations)
    report = engine.run_experiment(train, test, cell.af, plan, cell.seed)
    path = tmp_path / cell.report
    metrics.write_report(report, path)
    return path, cell


@pytest.mark.parametrize("breakage", [
    lambda p: p["records"][1]["selected"].__setitem__(0, p["records"][0]["selected"][0]),
    lambda p: p["records"][1]["selected"].__setitem__(1, p["records"][1]["selected"][0]),
    lambda p: p["records"][1]["selected"].__setitem__(0, 10 ** 6),
    lambda p: p["records"][0].__setitem__("acc", 1.5),
    lambda p: p["records"][1].__setitem__("labeled", 7),
    lambda p: p["records"][1]["class_counts"].__setitem__(0, p["records"][1]["class_counts"][0] + 1),
    lambda p: p["records"].pop(),
    lambda p: p["meta"].__setitem__("seed", 99),
])
def test_check_report_rejects_broken_reports(breakage, tmp_path):
    path, cell = _valid_report(tmp_path)
    assert workloads.check_report(str(path), cell) == []
    payload = json.loads(path.read_text(encoding="utf-8"))
    breakage(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert workloads.check_report(str(path), cell) != []


def test_self_time_subtracts_child_spans():
    spans = [
        ["outer", 0.0, 10.0, -1, "u"],
        ["inner", 1.0, 4.0, 0, "u"],
        ["inner", 5.0, 6.0, 0, "u"],
        ["leaf", 2.0, 3.0, 1, "u"],
        ["outer", 20.0, 21.0, -1, "other"],
    ]
    table = tracing.span_table(spans, {"u"})
    assert table["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert table["inner"] == {"calls": 2, "busy_s": 4.0, "self_s": 3.0}
    assert table["leaf"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


def test_bare_benchmark_directory_exits_nonzero_without_result(tmp_path):
    """Without the program's sources the command must fail and print nothing."""
    import shutil
    import subprocess

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout == ""
