"""Golden report fixture: the criterion-5 configuration, run once for every
strategy, must reproduce the committed reports in tests/golden/ byte for byte.

A change that alters numerics on purpose regenerates the fixture with
`PYTHONPATH=src python tests/test_golden.py` and says why in CHANGES.md.
"""

import pathlib

import pytest

from alamp.dataset import make_synthetic, train_test_split
from alamp.engine import AF_NAMES, BudgetPlan, run_experiment
from alamp.metrics import write_report

GOLDEN = pathlib.Path(__file__).parent / "golden"


def write_golden_report(af, out_dir):
    full = make_synthetic(10, 60, 16, 0.8, 0)
    train, test = train_test_split(full, 0.2, 1)
    path = pathlib.Path(out_dir) / f"criterion5_{af}.json"
    write_report(run_experiment(train, test, af, BudgetPlan(120, 3), 5), path)
    return path


@pytest.mark.parametrize("af", AF_NAMES)
def test_report_matches_golden_fixture(af, tmp_path):
    got = write_golden_report(af, tmp_path)
    assert got.read_bytes() == (GOLDEN / got.name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for af in AF_NAMES:
        print(write_golden_report(af, GOLDEN))
