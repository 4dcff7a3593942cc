"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

The behavioral checks (criterion 7) run full experiments and dominate the
runtime (a few minutes); everything else is fast.
"""

import json
import os
import time

import numpy as np
import pytest

from alamp import classifier, engine, metrics
from alamp.acquisition import alamp_scores, margin_scores
from alamp.classifier import gradients, objective, predict, predict_proba
from alamp.dataset import (
    imbalance_ratio,
    induce_imbalance,
    load_dataset,
    make_synthetic,
    train_test_split,
)
from alamp.engine import BudgetPlan, init_pool, run_experiment, step
from alamp.metrics import average_accuracy, write_report
from test_acquisition import coreset_rows, diversify
from test_classifier import run_at_blas_threads
from test_engine import relu_dataset

PASS_LINE = "ACCEPTANCE {num} ({name}): PASS"


def report_pass(num, name):
    print(PASS_LINE.format(num=num, name=name))


def test_criterion_1_formula_fidelity():
    start = time.time()
    pm = np.array([[0.6, 0.3, 0.1]])
    assert abs(margin_scores(pm)[0] - 0.3) <= 1e-12

    assert abs(alamp_scores([0.8], [0.2])[0] - 0.6) <= 1e-12
    assert abs(alamp_scores([0.45], [0.45])[0]) <= 1e-12

    # equal absolute shift: the pair with lower certainty sum ranks first
    scores = alamp_scores([0.4, 0.8], [0.2, 0.6])
    assert abs(scores[0] - 1.0 / 3.0) <= 1e-12
    assert abs(scores[1] - 1.0 / 7.0) <= 1e-12
    assert scores[0] > scores[1]

    assert time.time() - start < 1.0
    report_pass(1, "formula fidelity")


def test_criterion_2_oracle_equivalences():
    start = time.time()

    def exhaustive(features, labeled, unlabeled):
        best_id, best = None, -1.0
        for u in sorted(unlabeled):
            nearest = min(np.linalg.norm(features[u] - features[l]) for l in labeled)
            if nearest > best:
                best_id, best = u, nearest
        return best_id

    rng_master = np.random.default_rng(2024)
    for _ in range(100):
        seed = int(rng_master.integers(0, 2 ** 31))
        rng = np.random.default_rng(seed)
        n_l = int(rng.integers(1, 51))
        n_u = int(rng.integers(1, 201))
        dim = int(rng.integers(1, 17))
        feats = rng.normal(size=(n_l + n_u, dim))
        labeled = list(range(n_l))
        unlabeled = list(range(n_l, n_l + n_u))
        got = coreset_rows(feats, labeled, unlabeled, 1)[0]
        assert got == exhaustive(feats, labeled, unlabeled)
    assert time.time() - start < 10.0

    # hand-simulated diversification traces, including all-one-class passes
    fixtures = [
        ([0, 1, 2, 3], {0: 0, 1: 0, 2: 1, 3: 1}, 2, [0, 2]),
        ([4, 5, 6, 7], {4: 0, 5: 0, 6: 0, 7: 0}, 3, [4, 5, 6]),
        ([0, 1, 2], {0: 0, 1: 1, 2: 2}, 3, [0, 1, 2]),
        ([0, 1, 2, 3], {0: 0, 1: 0, 2: 0, 3: 1}, 3, [0, 3, 1]),
        ([5, 4, 3, 2, 1], {5: 1, 4: 1, 3: 1, 2: 2, 1: 2}, 4, [5, 2, 4, 1]),
        ([7, 8, 9], {7: 0, 8: 1, 9: 0}, 2, [7, 8]),
        ([1, 2, 3, 4, 5, 6], {1: 0, 2: 1, 3: 0, 4: 1, 5: 2, 6: 2}, 5,
         [1, 2, 5, 3, 4]),
        ([10, 11], {10: 3, 11: 3}, 2, [10, 11]),
        ([2, 4, 6, 8], {2: 0, 4: 1, 6: 2, 8: 0}, 4, [2, 4, 6, 8]),
        ([9, 8, 7, 6], {9: 1, 8: 1, 7: 1, 6: 1}, 2, [9, 8]),
    ]
    for ordered, pseudo, batch, expected in fixtures:
        assert list(diversify(ordered, pseudo, batch)) == expected
    report_pass(2, "oracle equivalences")


def test_criterion_3_numerical_soundness():
    # gradient check on 20 random small instances
    for trial in range(20):
        rng = np.random.default_rng(trial)
        n, dim, n_classes = 5, 3, 3
        z = rng.normal(size=(n, dim))
        labels = rng.integers(0, n_classes, size=n)
        targets = np.full((n, n_classes), -1.0)
        targets[np.arange(n), labels] = 1.0
        sw = rng.uniform(0.5, 2.0, size=n)
        weights = rng.normal(scale=0.5, size=(n_classes, dim))
        biases = rng.normal(scale=0.5, size=n_classes)
        reg = 0.1
        gw, gb = gradients(weights, biases, z, targets, sw, reg)

        eps = 1e-6
        fw = np.zeros_like(weights)
        for idx in np.ndindex(weights.shape):
            wp, wm = weights.copy(), weights.copy()
            wp[idx] += eps
            wm[idx] -= eps
            fw[idx] = (objective(wp, biases, z, targets, sw, reg)
                       - objective(wm, biases, z, targets, sw, reg)) / (2 * eps)
        fb = np.zeros_like(biases)
        for i in range(len(biases)):
            bp, bm = biases.copy(), biases.copy()
            bp[i] += eps
            bm[i] -= eps
            fb[i] = (objective(weights, bp, z, targets, sw, reg)
                     - objective(weights, bm, z, targets, sw, reg)) / (2 * eps)
        denom = max(np.abs(fw).max(), np.abs(fb).max(), 1e-8)
        assert np.abs(gw - fw).max() / denom <= 1e-5
        assert np.abs(gb - fb).max() / denom <= 1e-5

    # probability rows and argmax consistency on 10^4 random rows
    rng = np.random.default_rng(99)
    n_classes = 7
    model = classifier.Model(weights=np.eye(n_classes), biases=np.zeros(n_classes),
                             reg_param=1.0)
    x = rng.normal(scale=10.0, size=(10_000, n_classes))
    probs = predict_proba(model, x).probs
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert np.array_equal(predict(model, x), np.argmax(probs, axis=1))
    report_pass(3, "numerical soundness")


def check_protocol_invariants(train, plan):
    state, model, _ = init_pool(train, plan, 0)
    seen = set(train.sample_ids[state.labeled].tolist())
    labeled_counts = [len(state.labeled)]
    records = 1
    for _ in range(plan.iterations - 1):
        state, model, record = step(state, model, "margin", train, 0, plan.batch)
        records += 1
        labeled_counts.append(len(state.labeled))
        # labeled rows are distinct rows of the pool; the rest is unlabeled
        assert ((0 <= state.labeled) & (state.labeled < train.n_samples)).all()
        labeled_ids = train.sample_ids[state.labeled].tolist()
        assert len(set(labeled_ids)) == len(labeled_ids)
        assert seen.isdisjoint(record.selected_ids)  # no relabeling
        seen.update(record.selected_ids)
        assert set(labeled_ids) == seen
    assert records == plan.iterations
    assert labeled_counts == list(range(plan.batch, plan.total_budget + 1, plan.batch))

    # alamp's first selection equals margin's under a shared seed
    state0, model0, _ = init_pool(train, plan, 3)
    _, _, rec_alamp = step(state0, model0, "alamp", train, 3, plan.batch)
    _, _, rec_margin = step(state0, model0, "margin", train, 3, plan.batch)
    assert rec_alamp.selected_ids == rec_margin.selected_ids


def test_criterion_4_protocol_invariants():
    full = make_synthetic(5, 1000, 8, 0.6, 0)
    train, test = train_test_split(full, 0.2, 1)
    plan = BudgetPlan(3200, 16)
    assert plan.batch == 200
    check_protocol_invariants(train, plan)
    report_pass(4, "protocol invariants")


def test_criterion_4_protocol_invariants_relu():
    # embedding-like features: a 2,400-row pool of ReLU features in 128 dims,
    # batch 100 over 6 iterations (about 2.3 s on a 2-vCPU x86 box)
    train, _ = train_test_split(relu_dataset(10, 300, 128, 8, 1.0, 0), 0.2, 1)
    check_protocol_invariants(train, BudgetPlan(600, 6))
    report_pass(4, "protocol invariants, ReLU features")


# Each script runs with the tests directory, which holds the generator, as
# argv[1], and writes its report to argv[2].
DETERMINISM_SCRIPT = """
import sys
import alamp
from alamp.engine import BudgetPlan, run_experiment
from alamp.metrics import write_report
full = alamp.make_synthetic(10, 60, 16, 0.8, 0)
train, test = alamp.train_test_split(full, 0.2, 1)
rep = run_experiment(train, test, "alamp-div", BudgetPlan(120, 3), 5)
write_report(rep, sys.argv[2])
"""

# The ReLU golden's configuration (tests/test_golden.py).
RELU_DETERMINISM_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import alamp
from alamp.engine import BudgetPlan, run_experiment
from alamp.metrics import write_report
from test_engine import relu_dataset
train, test = alamp.train_test_split(relu_dataset(10, 40, 128, 8, 1.0, 0), 0.2, 1)
rep = run_experiment(train, test, "alamp-div", BudgetPlan(90, 3), 5)
write_report(rep, sys.argv[2])
"""


def check_determinism(tmp_path, script):
    outputs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"report_{tag}.json"
        run_at_blas_threads(threads, script, str(out))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "repeat with same seed differs"
    assert outputs[0] == outputs[2], "thread count changes the report"


def test_criterion_5_determinism(tmp_path):
    check_determinism(tmp_path, DETERMINISM_SCRIPT)
    report_pass(5, "determinism")


def test_criterion_5_determinism_relu(tmp_path):
    check_determinism(tmp_path, RELU_DETERMINISM_SCRIPT)
    report_pass(5, "determinism, ReLU features")


def test_criterion_6_imbalance_tooling():
    # Table-2-style aggregate: counts with mean 227.28 and population std
    # 180.31 must give ratio 0.793
    counts = np.array([227.28 - 180.31, 227.28 + 180.31])
    assert abs(imbalance_ratio(counts) - 0.793) <= 1e-3

    data100 = make_synthetic(100, 40, 2, 0.5, 7)
    out = induce_imbalance(data100, 0.740, 1, 0)
    assert abs(imbalance_ratio(out.class_counts()) - 0.740) <= 0.02

    data101 = make_synthetic(101, 40, 2, 0.5, 8)
    out = induce_imbalance(data101, 0.793, 1, 0)
    assert abs(imbalance_ratio(out.class_counts()) - 0.793) <= 0.02
    report_pass(6, "imbalance tooling")


@pytest.fixture(scope="module")
def desk_scale():
    """Shared corpus for the behavioral criterion: 20 classes, dim 64,
    200 train samples per class, cluster_std calibrated so the initial model
    lands in the [0.3, 0.6] accuracy band."""
    full = make_synthetic(20, 250, 64, 1.6, 0)
    train, test = train_test_split(full, 0.2, 1)
    return train, test


def test_criterion_7_desk_scale_behavior(desk_scale):
    start = time.time()
    train, test = desk_scale
    plan = BudgetPlan(600, 6)
    seeds = range(5)
    afs = list(engine.AF_NAMES)

    first, last, avg = {}, {}, {}
    for af in afs:
        reports = [run_experiment(train, test, af, plan, s) for s in seeds]
        first[af] = float(np.mean([r.records[0].accuracy for r in reports]))
        last[af] = float(np.mean([r.records[-1].accuracy for r in reports]))
        avg[af] = float(np.mean([average_accuracy(r) for r in reports]))

    assert 0.3 <= first["random"] <= 0.6, "iteration-0 accuracy out of band"

    # (a) every AF improves over its initial model
    for af in afs:
        assert last[af] > first[af], f"{af} did not improve"

    # (b) margin and alamp within 0.5 points of random's average accuracy
    print(f"\n  {'af':<12}{'avg_acc':>9}{'gain_vs_random_pts':>20}")
    for af in afs:
        print(f"  {af:<12}{avg[af]:>9.4f}{100 * (avg[af] - avg['random']):>20.2f}")
    assert avg["margin"] >= avg["random"] - 0.005
    assert avg["alamp"] >= avg["random"] - 0.005

    # (c) diversification curbs imbalance propagation into the labeled pool
    imb_train = induce_imbalance(train, 0.74, 5, 0)
    assert abs(imbalance_ratio(imb_train.class_counts()) - 0.74) <= 0.02
    final_ir = {}
    for af in ("random", "alamp-div"):
        reports = [run_experiment(imb_train, test, af, plan, s) for s in seeds]
        final_ir[af] = float(np.mean([r.records[-1].ir for r in reports]))
    print(f"  final labeled-pool ir: random {final_ir['random']:.4f}, "
          f"alamp-div {final_ir['alamp-div']:.4f}")
    assert final_ir["alamp-div"] <= final_ir["random"]

    assert time.time() - start < 300.0, "behavioral check exceeded 5 minutes"
    report_pass(7, "desk-scale behavior")


@pytest.mark.skipif(
    not (os.environ.get("ALAMP_CIFAR100_TRAIN") and os.environ.get("ALAMP_CIFAR100_TEST")),
    reason="conditional criterion: needs real pretrained-embedding CSVs "
           "(set ALAMP_CIFAR100_TRAIN / ALAMP_CIFAR100_TEST); excluded from CI",
)
def test_criterion_8_real_embeddings_ordering():
    train = load_dataset(os.environ["ALAMP_CIFAR100_TRAIN"])
    test = load_dataset(os.environ["ALAMP_CIFAR100_TEST"])
    plan = BudgetPlan(3200, 16)
    seeds = range(5)
    avg = {}
    for af in ("random", "margin", "alamp", "alamp-div"):
        reports = [run_experiment(train, test, af, plan, s) for s in seeds]
        avg[af] = float(np.mean([average_accuracy(r) for r in reports]))
    assert avg["alamp-div"] >= avg["alamp"] >= avg["margin"] >= avg["random"]
    report_pass(8, "real-embedding ordering")
