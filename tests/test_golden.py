"""Golden report fixtures: two configurations, each run once for every
strategy, must reproduce the committed reports in tests/golden/ byte for byte.

- criterion5: the criterion-5 configuration, Gaussian blobs in 16 dims, whose
  fits take the fixed step 0.1 / (1 + reg) in the weights.
- relu: embedding-like ReLU features in 128 dims, with 30 to 90 labeled rows,
  so every fit descends in the labeled rows' span, at a step the curvature
  bound caps.

A change that alters numerics on purpose regenerates the fixtures with
`PYTHONPATH=src python tests/test_golden.py` and says why in CHANGES.md.
"""

import pathlib

import pytest

from alamp.dataset import make_synthetic, train_test_split
from alamp.engine import AF_NAMES, BudgetPlan, run_experiment
from alamp.metrics import write_report
from test_engine import relu_dataset

GOLDEN = pathlib.Path(__file__).parent / "golden"


def criterion5_pools():
    return train_test_split(make_synthetic(10, 60, 16, 0.8, 0), 0.2, 1)


def relu_pools():
    return train_test_split(relu_dataset(10, 40, 128, 8, 1.0, 0), 0.2, 1)


RUNS = {"criterion5": (criterion5_pools, BudgetPlan(120, 3)),
        "relu": (relu_pools, BudgetPlan(90, 3))}


def write_golden_report(run, af, out_dir):
    pools, plan = RUNS[run]
    train, test = pools()
    path = pathlib.Path(out_dir) / f"{run}_{af}.json"
    write_report(run_experiment(train, test, af, plan, 5), path)
    return path


@pytest.mark.parametrize("af", AF_NAMES)
def test_report_matches_golden_fixture(af, tmp_path):
    got = write_golden_report("criterion5", af, tmp_path)
    assert got.read_bytes() == (GOLDEN / got.name).read_bytes()


@pytest.mark.parametrize("af", AF_NAMES)
def test_relu_report_matches_golden_fixture(af, tmp_path):
    got = write_golden_report("relu", af, tmp_path)
    assert got.read_bytes() == (GOLDEN / got.name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for run in RUNS:
        for af in AF_NAMES:
            print(write_golden_report(run, af, GOLDEN))
