import math
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from alamp import classifier
from alamp.classifier import (
    DEFAULT_REG_GRID,
    GD_ITERATIONS,
    ClassifierError,
    _descend,
    _curvature_form,
    _problem,
    _row_blocks,
    _step_sizes,
    _stratified_folds,
    class_weights,
    decision_values,
    fit,
    gradients,
    objective,
    predict,
    predict_proba,
    select_reg_param,
    train,
    accuracy,
)
from alamp.dataset import (Dataset, induce_imbalance, make_synthetic, standardize,
                           train_test_split)
from test_engine import relu_dataset


class TestClassWeights:
    def test_balanced_identity(self):
        assert np.allclose(class_weights([10, 10]), [1.0, 1.0])

    def test_imbalanced(self):
        # 40 / (2 * 30) and 40 / (2 * 10)
        w = class_weights([30, 10])
        assert w[0] == pytest.approx(2.0 / 3.0, abs=1e-4)
        assert w[1] == pytest.approx(2.0)

    def test_single_class(self):
        assert np.allclose(class_weights([5]), [1.0])

    def test_absent_class_gets_count_one_weight(self):
        w = class_weights([4, 0])
        assert w[1] == pytest.approx(4.0 / 2.0)
        assert np.all(np.isfinite(w))


class TestTrain:
    def test_separable_1d(self):
        x = np.array([[-1.0], [-1.1], [1.0], [1.1]])
        y = np.array([0, 0, 1, 1])
        model = train(x, y, class_weights([2, 2]), 0.01)
        dv = decision_values(model, x)
        assert np.all(np.argmax(dv, axis=1) == y)

    def test_bit_identical_retrain(self):
        d = make_synthetic(3, 15, 4, 0.3, 2)
        cw = class_weights(d.class_counts())
        a = train(d.features, d.labels, cw, 0.1)
        b = train(d.features, d.labels, cw, 0.1)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_well_separated_blobs_fit_exactly(self):
        d = make_synthetic(4, 20, 3, 0.05, 1)
        cw = class_weights(d.class_counts())
        model = train(d.features, d.labels, cw, 0.01)
        assert accuracy(model, d) == 1.0

    def test_single_class_rejected(self):
        x = np.ones((3, 2))
        with pytest.raises(ClassifierError):
            train(x, np.zeros(3, dtype=int), [1.0], 0.1)

    def test_non_finite_rejected(self):
        x = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ClassifierError):
            train(x, np.array([0, 1]), [1.0, 1.0], 0.1)

    # a label the class-weight vector has no entry for: one below 0 used to
    # train as the last class, one at or above its length to index past it
    @pytest.mark.parametrize("labels", [[-1, 0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 7]])
    def test_label_outside_class_weights_rejected(self, labels):
        x = np.random.default_rng(0).normal(size=(len(labels), 2))
        with pytest.raises(ClassifierError, match=r"labels must lie in \[0, 3\)"):
            train(x, np.array(labels), np.ones(3), 0.1)

    def test_relu_embeddings_train_finite(self):
        # the fixed step 0.1 / (1 + reg) diverged here at reg 1e-3, 1e-2 and
        # 0.1, and its best finite fit (reg 10) was 0.755 accurate on its rows
        d = relu_dataset(10, 100, 512, 8, 1.0, 0)
        features, labels = d.features, d.labels
        cw = class_weights(np.bincount(labels))
        with np.errstate(all="raise"):
            reg = select_reg_param(features, labels)
            model = train(features, labels, cw, reg)
        assert np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.biases))
        assert np.mean(predict(model, features) == labels) > 0.755


class TestGradient:
    def finite_difference(self, weights, biases, z, targets, sw, reg, eps=1e-6):
        gw = np.zeros_like(weights)
        for idx in np.ndindex(weights.shape):
            wp, wm = weights.copy(), weights.copy()
            wp[idx] += eps
            wm[idx] -= eps
            gw[idx] = (objective(wp, biases, z, targets, sw, reg)
                       - objective(wm, biases, z, targets, sw, reg)) / (2 * eps)
        gb = np.zeros_like(biases)
        for i in range(len(biases)):
            bp, bm = biases.copy(), biases.copy()
            bp[i] += eps
            bm[i] -= eps
            gb[i] = (objective(weights, bp, z, targets, sw, reg)
                     - objective(weights, bm, z, targets, sw, reg)) / (2 * eps)
        return gw, gb

    @pytest.mark.parametrize("trial", range(20))
    def test_analytic_matches_central_differences(self, trial):
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
        fw, fb = self.finite_difference(weights, biases, z, targets, sw, reg)
        denom = max(np.abs(fw).max(), np.abs(fb).max(), 1e-8)
        assert np.abs(gw - fw).max() / denom <= 1e-5
        assert np.abs(gb - fb).max() / denom <= 1e-5


class TestSelectRegParam:
    def test_singleton_grid(self):
        d = make_synthetic(3, 10, 2, 0.3, 0)
        assert select_reg_param(d.features, d.labels, [0.5]) == 0.5

    def test_tie_breaks_to_smallest(self):
        # duplicate candidate values force an exact tie
        d = make_synthetic(3, 10, 2, 0.05, 0)
        got = select_reg_param(d.features, d.labels, [1e-3, 1e-3])
        assert got == 1e-3

    def test_extreme_overregularization_loses(self):
        d = make_synthetic(4, 30, 3, 0.05, 1)
        # independent check: run both candidates directly through CV-style
        # holdout and confirm the weak regularizer generalizes better
        cw = class_weights(d.class_counts())
        weak = train(d.features[::2], d.labels[::2], cw, 1e-4)
        strong = train(d.features[::2], d.labels[::2], cw, 1e4)
        acc_weak = np.mean(predict(weak, d.features[1::2]) == d.labels[1::2])
        acc_strong = np.mean(predict(strong, d.features[1::2]) == d.labels[1::2])
        assert acc_weak > acc_strong
        assert select_reg_param(d.features, d.labels, [1e-4, 1e4]) == 1e-4

    def test_folds_reduced_for_small_classes(self):
        d = make_synthetic(3, 2, 2, 0.05, 0)  # 2 per class < default 3 folds
        got = select_reg_param(d.features, d.labels, [0.1, 1.0], folds=3)
        assert got in (0.1, 1.0)

    def test_deterministic(self):
        d = make_synthetic(4, 12, 3, 0.5, 3)
        a = select_reg_param(d.features, d.labels, seed=5)
        b = select_reg_param(d.features, d.labels, seed=5)
        assert a == b

    def test_class_below_two_samples_rejected(self):
        x = np.random.default_rng(0).normal(size=(3, 2))
        with pytest.raises(ClassifierError):
            select_reg_param(x, np.array([0, 0, 1]), [0.1])

    @pytest.mark.parametrize("labels", [[-1, -1, 0, 0, 1, 1], [-1, 0, 0, 1, 1]])
    def test_negative_label_rejected(self, labels):
        x = np.random.default_rng(0).normal(size=(len(labels), 2))
        with pytest.raises(ClassifierError, match="labels must lie in"):
            select_reg_param(x, np.array(labels), [0.1])

    def test_non_finite_candidate_not_selectable(self, monkeypatch):
        d = make_synthetic(4, 12, 3, 0.5, 3)
        grid = [1e-3, 1e-2, 1e-1, 1.0]
        chosen = select_reg_param(d.features, d.labels, grid)
        runner_up = select_reg_param(d.features, d.labels, [r for r in grid if r != chosen])
        descend = classifier._descend

        def nan_weights_at(bad):
            def patched(problems, regs):
                models = descend(problems, regs)
                for weights, _ in models:
                    weights[np.isin(regs, bad)] = np.nan
                return models
            return patched

        monkeypatch.setattr(classifier, "_descend", nan_weights_at([chosen]))
        assert select_reg_param(d.features, d.labels, grid) == runner_up
        monkeypatch.setattr(classifier, "_descend", nan_weights_at(grid))
        with pytest.raises(ClassifierError, match="every candidate"):
            select_reg_param(d.features, d.labels, grid)


def labeled_pool(labels):
    """A space of the given labels, and all of its rows."""
    features = np.random.default_rng(0).normal(size=(len(labels), 2))
    space = Dataset(features=features, labels=labels, n_classes=max(labels) + 1,
                    sample_ids=np.arange(len(labels)))
    return space, np.arange(len(labels))


class TestFit:
    @pytest.fixture
    def cv_calls(self, monkeypatch):
        calls, select = [], classifier.select_reg_param

        def recording_select(*args, **kwargs):
            calls.append((args, kwargs))
            return select(*args, **kwargs)

        monkeypatch.setattr(classifier, "select_reg_param", recording_select)
        return calls

    def test_no_two_stratifiable_classes_falls_back(self, cv_calls):
        # only class 2 has the 2 samples a stratified fold needs
        model = fit(*labeled_pool([0, 1, 2, 2]), True, 3)
        assert cv_calls == []
        assert model.reg_param == 0.1
        assert model.n_classes == 3

    def test_cv_skips_classes_below_two_samples(self, cv_calls):
        pool, rows = labeled_pool([0, 0, 1, 1, 2])
        model = fit(pool, rows, True, 7)
        [(args, kwargs)] = cv_calls
        assert np.array_equal(args[0], pool.features[:4])
        assert args[1].tolist() == [0, 0, 1, 1]
        assert kwargs["seed"] == 7
        # the final model covers every class of the pool, its singleton included
        assert model.n_classes == 3
        chosen = select_reg_param(*args, **kwargs)
        assert model.reg_param == chosen
        expected = train(pool.features, pool.labels, class_weights([2, 2, 1]), chosen)
        assert np.array_equal(model.weights, expected.weights)
        assert np.array_equal(model.biases, expected.biases)

    def test_non_finite_final_model_raises(self, monkeypatch, cv_calls):
        descend = classifier._descend

        def final_fit_diverges(problems, regs):
            models = descend(problems, regs)
            if len(regs) == 1:  # the final fit; CV trains the whole grid
                for _, biases in models:
                    biases[:] = np.nan
            return models

        monkeypatch.setattr(classifier, "_descend", final_fit_diverges)
        with pytest.raises(ClassifierError, match="diverged"):
            fit(*labeled_pool([0, 0, 1, 1, 2, 2]), True, 0)
        assert len(cv_calls) == 1

    def test_trains_the_rows_in_the_order_given(self, cv_calls):
        # rows of a larger space, out of id order: CV and the final fit see
        # exactly those rows, in that order
        space, _ = labeled_pool([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2])
        rows = np.array([7, 0, 9, 4, 2, 10, 3, 5])
        model = fit(space, rows, True, 5)
        [(args, kwargs)] = cv_calls
        assert np.array_equal(args[0], space.features[rows])
        assert np.array_equal(args[1], space.labels[rows])
        expected = train(space.features[rows], space.labels[rows],
                         class_weights(np.bincount(space.labels[rows])), model.reg_param)
        assert model.weights.tobytes() == expected.weights.tobytes()
        assert model.biases.tobytes() == expected.biases.tobytes()


def skewed_blobs(n_classes, per_class, dim, seed):
    """Gaussian blobs whose class sizes fall linearly from per_class to a third
    of it, so cost-sensitive sample weights differ from 1."""
    d = make_synthetic(n_classes, per_class, dim, 1.6, seed)
    sizes = np.linspace(per_class, per_class // 3, n_classes).astype(int)
    keep = np.concatenate([np.flatnonzero(d.labels == c)[:sizes[c]]
                           for c in range(n_classes)])
    return d.features[keep], d.labels[keep]


def kernel_gram(z):
    """The Gram matrix `_descend` derives its step from: with fewer rows than
    dims it descends in the rows' span, else it takes the (d+1)^2 form."""
    return z @ z.T if len(z) < z.shape[1] else None


def reference_descent(z, targets, sample_w, reg):
    """One candidate by the reference formula: GD_ITERATIONS `gradients` steps
    in the weights, at the step the kernel takes."""
    weights = np.zeros((targets.shape[1], z.shape[1]))
    biases = np.zeros(targets.shape[1])
    [lr] = _step_sizes(z, sample_w, (reg,), kernel_gram(z))
    for _ in range(GD_ITERATIONS):
        grad_w, grad_b = gradients(weights, biases, z, targets, sample_w, reg)
        weights -= lr * grad_w
        biases -= lr * grad_b
    return weights, biases


def forbidden_eigvalsh(form):
    raise AssertionError(f"eigvalsh called on a {form.shape} form")


def count_eigvalsh(monkeypatch):
    """The shapes of the forms `np.linalg.eigvalsh` is called on, as a list
    that fills while the patch is in place."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda form: calls.append(form.shape) or eigvalsh(form))
    return calls


def blob_rows(n, dim, scale=1.0, seed=0):
    """n blob rows in `dim` dims times `scale`, and sample weights in [0.5, 2)."""
    rng = np.random.default_rng(seed)
    features = make_synthetic(4, 60, dim, 1.6, seed).features
    return scale * features[rng.permutation(len(features))[:n]], rng.uniform(0.5, 2.0, n)


def constant_column():
    z, sample_w = blob_rows(200, 16)
    z[:, 3] = 2.5
    return z, sample_w


def relu_rows(per_class, dim):
    d = relu_dataset(4, per_class, dim, 8, 1.0, 3)
    features, labels = d.features, d.labels
    return features, class_weights(np.bincount(labels))[labels]


# Inputs of `_step_sizes`, each with the form `_descend` would take (rows form
# below `dim` rows, else the (dim+1)^2 form), and whether the power bound
# alone certifies the fixed step there. Where it does not, the cap binds,
# except at "blobs x 1.05", whose λmax lies below the cap and its bound above
# it. At "blobs x 1.1" λmax lies just above the cap of the three smallest
# regs. One row has a rank-1 form, whose bound is λmax itself: 7.5 keeps the
# fixed step, 7.51 passes the cap 7.5 + 6.5 reg of reg 1e-3.
STEP_RULE_CASES = {
    "blobs, dims form": (lambda: blob_rows(200, 16), True),
    "blobs x 0.45, rows form": (lambda: blob_rows(30, 64, 0.45), True),
    "blobs x 1.05, dims form": (lambda: blob_rows(200, 16, 1.05), False),
    "blobs x 1.1, dims form": (lambda: blob_rows(200, 16, 1.1), False),
    "blobs x 3, dims form": (lambda: blob_rows(200, 16, 3.0), False),
    "relu, rows form": (lambda: relu_rows(10, 512), False),
    "relu, dims form": (lambda: relu_rows(60, 32), False),
    "constant column": (constant_column, False),
    "1 row": (lambda: blob_rows(1, 8), True),
    "2 rows": (lambda: blob_rows(2, 8), False),
    "3 rows": (lambda: blob_rows(3, 8), False),
    "1 row, λmax 7.5": (lambda: (np.array([[np.sqrt(6.5), 0.0]]), np.ones(1)), True),
    "1 row, λmax 7.51": (lambda: (np.array([[np.sqrt(6.51), 0.0]]), np.ones(1)), False),
    "blobs x 1e-150, dims form": (lambda: blob_rows(200, 16, 1e-150), True),
    "blobs x 1e-150, rows form": (lambda: blob_rows(30, 64, 1e-150), True),
    "blobs x 1e150, dims form": (lambda: blob_rows(200, 16, 1e150), False),
    "blobs x 1e150, rows form": (lambda: blob_rows(30, 64, 1e150), False),
}


def per_reg_select_reg_param(features, labels, grid, folds=3, seed=0):
    """The per-candidate CV loop, one `train` per candidate and fold."""
    grid = sorted(float(c) for c in grid)
    counts = np.unique(labels, return_counts=True)[1]
    folds = min(folds, max(2, int(counts.min())))
    n_classes = int(labels.max()) + 1
    assignment = _stratified_folds(labels, folds, seed)
    best_reg, best_acc = None, -1.0
    for reg in grid:
        fold_accs = []
        for f in range(folds):
            tr = assignment != f
            cw = class_weights(np.bincount(labels[tr], minlength=n_classes))
            model = train(features[tr], labels[tr], cw, reg)
            fold_accs.append(float(np.mean(predict(model, features[~tr]) == labels[~tr])))
        if float(np.mean(fold_accs)) > best_acc:
            best_reg, best_acc = reg, float(np.mean(fold_accs))
    return best_reg


def zero_models(problems, regs):
    """A zero (weights, biases) pair of each problem, as `_descend` returns."""
    return [(np.zeros((len(regs), targets.shape[1], z.shape[1])),
             np.zeros((len(regs), targets.shape[1]))) for z, targets, _ in problems]


def cv_size(labels, grid=DEFAULT_REG_GRID):
    """The size `select_reg_param` compares with THREADED_CV_SIZE."""
    return len(grid) * (int(labels.max()) + 1) * len(labels)


def descent_problem(features, labels, cw=None):
    """The features, targets and sample weights a fit hands `_descend`."""
    if cw is None:
        cw = class_weights(np.bincount(labels))
    return (np.asarray(features, dtype=np.float64), *_problem(labels, cw))


def assert_close(got, want, rtol):
    """Equal within rtol of the largest entry of `want`."""
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def descend_one(z, targets, sample_w, regs):
    """`_descend` of one problem: its (weights, biases)."""
    [model] = _descend([(z, targets, sample_w)], regs)
    return model


def assert_lone_fits_equal_joint(z, targets, sample_w, regs, weights, biases):
    """Each jointly trained candidate is the lone `_descend` of its reg, bit
    for bit."""
    for g, reg in enumerate(regs):
        lone_w, lone_b = descend_one(z, targets, sample_w, (reg,))
        assert weights[g].tobytes() == lone_w[0].tobytes()
        assert biases[g].tobytes() == lone_b[0].tobytes()


class TestGridDescent:
    """The joint grid descent: each candidate equals its lone fit bit for
    bit, and the reference descent within rounding (1e-12 of the largest
    entry in the weights, 1e-9 in the rows' span)."""

    @pytest.mark.parametrize("per_class", [24, 48])  # n = 311 and n = 631
    def test_grid_matches_reference_per_reg(self, per_class):
        features, labels = skewed_blobs(20, per_class, 64, 0)
        assert (len(labels) <= 400) == (per_class == 24)
        z, targets, sample_w = descent_problem(features, labels)
        weights, biases = descend_one(z, targets, sample_w, DEFAULT_REG_GRID)
        assert weights.shape == (len(DEFAULT_REG_GRID), 20, 64)
        assert_lone_fits_equal_joint(z, targets, sample_w, DEFAULT_REG_GRID, weights, biases)
        for g, reg in enumerate(DEFAULT_REG_GRID):
            ref_w, ref_b = reference_descent(z, targets, sample_w, reg)
            assert_close(weights[g], ref_w, 1e-12)
            assert_close(biases[g], ref_b, 1e-12)

    # an odd grid with fewer samples than classes, below 7 dims (row space)
    # and above, and a grid of one at n=2
    @pytest.mark.parametrize("n, n_classes, regs", [(5, 8, (1e-2, 1.0, 10.0)),
                                                    (2, 3, (0.1,)),
                                                    (9, 10, (1e-2, 1.0, 10.0))])
    def test_small_shapes_match_reference_per_reg(self, n, n_classes, regs):
        rng = np.random.default_rng(n)
        features = rng.normal(size=(n, 7))
        labels = np.arange(n) % n_classes
        cw = class_weights(np.bincount(labels, minlength=n_classes))
        z, targets, sample_w = descent_problem(features, labels, cw)
        weights, biases = descend_one(z, targets, sample_w, regs)
        assert weights.shape == (len(regs), n_classes, 7)
        assert_lone_fits_equal_joint(z, targets, sample_w, regs, weights, biases)
        rtol = 1e-9 if n < 7 else 1e-12  # the same steps in the rows' span, rounded differently
        for g, reg in enumerate(regs):
            ref_w, ref_b = reference_descent(z, targets, sample_w, reg)
            assert_close(weights[g], ref_w, rtol)
            assert_close(biases[g], ref_b, rtol)

    def test_train_is_the_one_candidate_grid(self):
        features, labels = skewed_blobs(5, 20, 8, 2)
        cw = class_weights(np.bincount(labels))
        z, targets, sample_w = descent_problem(features, labels, cw)
        model = train(features, labels, cw, 0.1)
        weights, biases = descend_one(z, targets, sample_w, DEFAULT_REG_GRID)
        g = DEFAULT_REG_GRID.index(0.1)
        assert model.weights.tobytes() == weights[g].tobytes()
        assert model.biases.tobytes() == biases[g].tobytes()
        ref_w, ref_b = reference_descent(z, targets, sample_w, 0.1)
        assert_close(model.weights, ref_w, 1e-12)
        assert_close(model.biases, ref_b, 1e-12)

    def test_diverging_candidates_leave_finite_neighbours_exact(self):
        # at the fixed step 0.1 / (1 + reg) the three smallest regularizations
        # diverged here; the curvature bound keeps all five finite, each equal
        # to its lone fit and close to the reference
        d = relu_dataset(10, 100, 512, 8, 1.0, 0)
        features, labels = d.features, d.labels
        z, targets, sample_w = descent_problem(features, labels)
        weights, biases = descend_one(z, targets, sample_w, DEFAULT_REG_GRID)
        assert np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))
        assert_lone_fits_equal_joint(z, targets, sample_w, DEFAULT_REG_GRID, weights, biases)
        for g, reg in enumerate(DEFAULT_REG_GRID):
            ref_w, ref_b = reference_descent(z, targets, sample_w, reg)
            assert_close(weights[g], ref_w, 1e-12)
            assert_close(biases[g], ref_b, 1e-12)

    # n = 13, 27 and 60 ReLU rows in 512 dims, the row counts of pool-workload CV folds
    @pytest.mark.parametrize("n", [13, 27, 60])
    def test_row_space_lone_fit_equals_joint_candidate(self, n):
        d = relu_dataset(10, 6, 512, 8, 1.0, 2)
        features, labels = d.features, d.labels
        rows = np.argsort(np.arange(60) % 6, kind="stable")[:n]  # classes interleaved
        features, labels = features[rows], labels[rows]
        cw = class_weights(np.bincount(labels, minlength=10))
        z, targets, sample_w = descent_problem(features, labels, cw)
        weights, biases = descend_one(z, targets, sample_w, DEFAULT_REG_GRID)
        for g, reg in enumerate(DEFAULT_REG_GRID):
            model = train(features, labels, cw, reg)
            assert model.weights.tobytes() == weights[g].tobytes()
            assert model.biases.tobytes() == biases[g].tobytes()

    # n = 6, 27 and 60 rows in 512 dims, where the kernel runs in the rows' span
    @pytest.mark.parametrize("n_classes, per_class", [(3, 2), (9, 3), (10, 6)])
    @pytest.mark.parametrize("relu", [False, True])
    def test_row_space_matches_primal_descent(self, relu, n_classes, per_class):
        if relu:
            d = relu_dataset(n_classes, per_class, 512, 8, 1.0, 1)
            features, labels = d.features, d.labels
        else:
            d = make_synthetic(n_classes, per_class, 512, 1.6, 1)
            features, labels = d.features, d.labels
        z, targets, sample_w = descent_problem(features, labels)
        weights, biases = descend_one(z, targets, sample_w, DEFAULT_REG_GRID)
        for g, reg in enumerate(DEFAULT_REG_GRID):
            # the reference steps in the weights, as the primal kernel does
            ref_w, ref_b = reference_descent(z, targets, sample_w, reg)
            assert_close(weights[g], ref_w, 1e-9)
            assert_close(biases[g], ref_b, 1e-9)

    # in 64 dims, with fewer rows than dims, as many, and more
    @pytest.mark.parametrize("n", [6, 60, 64, 200])
    def test_curvature_forms_agree(self, n):
        rng = np.random.default_rng(n)
        z = np.maximum(rng.normal(size=(n, 8)) @ rng.normal(size=(8, 64)), 0.0)
        sample_w = rng.uniform(0.5, 2.0, size=n)
        by_dims = _curvature_form(z, sample_w)
        by_rows = _curvature_form(z, sample_w, z @ z.T)
        assert by_dims.shape == (65, 65) and by_rows.shape == (n, n)
        scaled = np.hstack([z, np.ones((n, 1))]) * np.sqrt(sample_w)[:, None]
        assert np.allclose(by_dims, scaled.T @ scaled / n, rtol=1e-12, atol=0.0)
        assert np.allclose(by_rows, scaled @ scaled.T / n, rtol=1e-12, atol=0.0)
        lam = np.linalg.eigvalsh(by_dims)[-1]
        assert np.linalg.eigvalsh(by_rows)[-1] == pytest.approx(lam, rel=1e-12)

    # the scale puts λmax below every threshold 7.5 + 6.5 reg at which the
    # bound binds, between them, and above all of them
    @pytest.mark.parametrize("scale, capped", [(1.0, 0), (2.0, 3), (4.0, 4), (10.0, 5)])
    def test_step_sizes_follow_the_rule(self, scale, capped):
        rng = np.random.default_rng(0)
        z = scale * rng.normal(size=(200, 64))
        sample_w = rng.uniform(0.5, 2.0, size=200)
        grid = np.array(DEFAULT_REG_GRID)
        fixed = 0.1 / (1.0 + grid)
        lam = np.linalg.eigvalsh(_curvature_form(z, sample_w))[-1]
        lr = _step_sizes(z, sample_w, grid)
        assert np.array_equal(lr, np.minimum(fixed, 1.5 / (2.0 * lam + 2.0 * grid)))
        assert np.count_nonzero(lr < fixed) == capped

    @pytest.mark.parametrize("seed", [0, 1, 1000])
    def test_step_rule_keeps_fixed_step_on_desk_subsets(self, seed, monkeypatch):
        # criterion 7's data in its runs' feature spaces, the balanced pool and
        # the pool skewed to ir 0.74, whose class weights are the largest and
        # whose first fit's CV folds (45-55 rows) take desk's n x n forms: the
        # curvature bound never binds, so desk-scale fits take the fixed step
        # 0.1 / (1 + reg), and the power bound certifies that without an
        # `eigvalsh`
        train, test = train_test_split(make_synthetic(20, 250, 64, 1.6, seed), 0.2, seed + 1)
        # whole fits too: on the balanced pool, CV's folds of 30 and 400 rows,
        # then the final fit; on the skewed pool, desk's first and last sizes
        pools = ((standardize(train, test)[0], (45, 600)),
                 (standardize(induce_imbalance(train, 0.74, 5, seed), test)[0], (100, 300)))
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden_eigvalsh)
        rng = np.random.default_rng(seed)
        grid = np.array(DEFAULT_REG_GRID)
        for pool, fit_sizes in pools:
            for n in (45, 100, 200, 400, 600):
                rows = rng.choice(pool.n_samples, n, replace=False)
                labels = pool.labels[rows]
                cw = class_weights(np.bincount(labels, minlength=20))
                z, _, sample_w = descent_problem(pool.features[rows], labels, cw)
                lr = _step_sizes(z, sample_w, grid, kernel_gram(z))
                assert np.array_equal(lr, 0.1 / (1.0 + grid))
            for n in fit_sizes:
                model = fit(pool, np.sort(rng.choice(pool.n_samples, n, replace=False)),
                            True, seed)
                assert np.all(np.isfinite(model.weights))

    def test_step_rule_takes_eigvalsh_where_the_cap_binds(self, monkeypatch):
        # ReLU rows in 512 dims: the curvature bound binds, so the step needs
        # the exact λmax
        d = relu_dataset(10, 6, 512, 8, 1.0, 0)
        features, labels = d.features, d.labels
        z, _, sample_w = descent_problem(features, labels)
        grid = np.array(DEFAULT_REG_GRID)
        calls = count_eigvalsh(monkeypatch)
        lr = _step_sizes(z, sample_w, grid, kernel_gram(z))
        assert calls == [(60, 60)]
        assert np.all(lr < 0.1 / (1.0 + grid))
        calls.clear()
        train(features, labels, class_weights(np.bincount(labels)), 1.0)
        assert calls == [(60, 60)]

    @pytest.mark.parametrize("case", sorted(STEP_RULE_CASES))
    def test_power_bound_returns_the_exact_rule(self, case, monkeypatch):
        # bit for bit the step `eigvalsh` gives, where the power bound
        # certifies the fixed step and where it cannot, with no floating-point
        # flag raised at extreme scales
        make, certified = STEP_RULE_CASES[case]
        z, sample_w = make()
        grid = np.array(DEFAULT_REG_GRID)
        fixed = 0.1 / (1.0 + grid)
        gram = kernel_gram(z)
        bounds = []
        power_bound = classifier._power_bound
        monkeypatch.setattr(classifier, "_power_bound",
                            lambda *args: bounds.append(args) or power_bound(*args))
        with np.errstate(all="raise"):
            lam = np.linalg.eigvalsh(_curvature_form(z, sample_w, gram))[-1]
            calls = count_eigvalsh(monkeypatch)
            got = _step_sizes(z, sample_w, grid, gram)
            want = np.minimum(fixed, 1.5 / (2.0 * lam + 2.0 * grid))
        assert got.tobytes() == want.tobytes()
        assert len(calls) == (0 if certified else 1)
        assert len(bounds) == 1
        assert np.array_equal(got, fixed) == (certified or case.startswith("blobs x 1.05"))

    @pytest.mark.parametrize("folds", [2, 3])
    @pytest.mark.parametrize("per_class", [6, 9, 36])
    def test_select_reg_param_matches_per_reg_loop(self, folds, per_class):
        features, labels = skewed_blobs(20, per_class, 64, 4)
        # 71 rows train their folds in one loop, 111 and 471 rows on fold threads
        assert (cv_size(labels) >= classifier.THREADED_CV_SIZE) == (per_class != 6)
        for seed in (0, 7):
            got = select_reg_param(features, labels, DEFAULT_REG_GRID, folds, seed)
            assert got == per_reg_select_reg_param(features, labels,
                                                   DEFAULT_REG_GRID, folds, seed)

    def test_select_reg_param_on_diverging_fixture_matches_per_reg_loop(self):
        d = relu_dataset(10, 40, 512, 8, 1.0, 1)
        features, labels = d.features, d.labels
        with np.errstate(all="ignore"):
            got = select_reg_param(features, labels)
            assert got == per_reg_select_reg_param(features, labels, DEFAULT_REG_GRID)

    @pytest.mark.parametrize("per_class", [12, 40])
    def test_caller_errstate_reaches_every_fold(self, monkeypatch, per_class):
        # threaded folds run in copies of the caller's context, where np.errstate lives
        descend = classifier._descend

        def dividing_descend(problems, regs):
            for _ in problems:
                np.ones(1) / np.zeros(1)  # a division by zero in every fold
            return descend(problems, regs)

        monkeypatch.setattr(classifier, "_descend", dividing_descend)
        d = relu_dataset(10, per_class, 512, 8, 1.0, 0)
        features, labels = d.features, d.labels
        # 120 rows train their folds in one loop, 400 rows on fold threads
        assert (cv_size(labels) >= classifier.THREADED_CV_SIZE) == (per_class == 40)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            select_reg_param(features, labels)
        divisions = []
        with np.errstate(divide="call", call=lambda kind, flag: divisions.append(kind)):
            select_reg_param(features, labels)
        assert divisions == ["divide by zero"] * 3

    def test_folds_train_at_once(self, monkeypatch):
        d = relu_dataset(10, 40, 512, 8, 1.0, 0)
        features, labels = d.features, d.labels
        assert cv_size(labels) >= classifier.THREADED_CV_SIZE
        barrier = threading.Barrier(3, timeout=20)
        threads = set()

        def descend(problems, regs):
            threads.add(threading.get_ident())
            barrier.wait()  # passes only once all three folds are in flight
            return zero_models(problems, regs)

        monkeypatch.setattr(classifier, "_descend", descend)
        select_reg_param(features, labels)
        assert len(threads) == 3

    def test_small_fit_trains_every_fold_in_one_descend_call_on_the_calling_thread(
            self, monkeypatch):
        d = relu_dataset(10, 12, 512, 8, 1.0, 0)
        features, labels = d.features, d.labels
        assert cv_size(labels) < classifier.THREADED_CV_SIZE
        assignment = _stratified_folds(labels, 3, 0)
        calls = []

        def descend(problems, regs):
            calls.append((threading.get_ident(), problems))
            return zero_models(problems, regs)

        monkeypatch.setattr(classifier, "_descend", descend)
        select_reg_param(features, labels)
        assert [ident for ident, _ in calls] == [threading.get_ident()]
        [(_, problems)] = calls
        assert len(problems) == 3
        for f, (z, _, _) in enumerate(problems):
            assert np.array_equal(z, features[assignment != f])

        def failing_descend(problems, regs):
            calls.append(problems)
            raise ClassifierError("fold failed")

        calls.clear()
        monkeypatch.setattr(classifier, "_descend", failing_descend)
        with pytest.raises(ClassifierError, match="fold failed"):
            select_reg_param(features, labels)
        assert len(calls) == 1  # the one call that trains every fold

    def test_non_finite_features_rejected(self):
        d = make_synthetic(3, 10, 4, 0.5, 0)
        features = d.features.copy()
        features[0, 0] = np.nan
        with pytest.raises(ClassifierError, match="non-finite"):
            select_reg_param(features, d.labels)

    def test_non_positive_candidate_rejected(self):
        # CV raises the error a lone fit raises, unwrapped
        d = make_synthetic(3, 10, 4, 0.5, 0)
        with pytest.raises(ClassifierError) as serial:
            train(d.features, d.labels, np.ones(3), 0.0)
        with pytest.raises(ClassifierError, match="positive") as cv:
            select_reg_param(d.features, d.labels, [0.0, 1.0])
        assert type(cv.value) is type(serial.value)
        assert cv.value.args == serial.value.args


# Uneven folds' descent problems: all in the rows' span (512 dims), all on
# the weights (16 dims), and straddling 64 dims, as CV folds of 58, 68 and 72
# rows do. In each group the shortest problem is padded by at least 2 rows.
STACKED_FOLD_CASES = {"rows": (512, (40, 37, 33)),
                      "weights": (16, (120, 117, 100)),
                      "mixed": (64, (68, 58, 72))}


def stacked_fold_problems(case):
    dim, sizes = STACKED_FOLD_CASES[case]
    d = relu_dataset(10, 12, dim, 8, 1.0, 5)
    rng = np.random.default_rng(dim)
    problems = []
    for n in sizes:
        rows = np.sort(rng.choice(len(d.labels), n, replace=False))
        cw = class_weights(np.bincount(d.labels[rows], minlength=10))
        problems.append(descent_problem(d.features[rows], d.labels[rows], cw))
    return problems


def assert_stacked_equal_lone(case):
    """Each problem's model in one stacked `_descend` is its one-problem
    descent, bit for bit; the stacked descent raises no floating-point flag."""
    problems = stacked_fold_problems(case)
    with np.errstate(all="raise"):
        models = _descend(problems, DEFAULT_REG_GRID)
    assert len(models) == len(problems)
    for problem, (weights, biases) in zip(problems, models):
        lone_w, lone_b = descend_one(*problem, DEFAULT_REG_GRID)
        assert weights.shape == lone_w.shape and biases.shape == lone_b.shape
        assert weights.tobytes() == lone_w.tobytes()
        assert biases.tobytes() == lone_b.tobytes()


def desk_fold_models():
    """The bytes of CV's fold models on 300 desk-shaped rows (20 classes,
    64 dims), after checking that each stacked fold is its lone descent.
    Its 200-row folds take the largest per-candidate GEMMs of desk CV,
    20 x 200 x 65 multiply-adds with the bias column, just below the 2^18 at
    which OpenBLAS would split a product over threads."""
    d = make_synthetic(20, 15, 64, 1.6, 3)
    assignment = _stratified_folds(d.labels, 3, 0)
    problems = []
    for f in range(3):
        tr = assignment != f
        cw = class_weights(np.bincount(d.labels[tr], minlength=20))
        problems.append(descent_problem(d.features[tr], d.labels[tr], cw))
    assert [len(z) for z, _, _ in problems] == [200] * 3
    models = _descend(problems, DEFAULT_REG_GRID)
    for problem, (weights, biases) in zip(problems, models):
        lone_w, lone_b = descend_one(*problem, DEFAULT_REG_GRID)
        assert weights.tobytes() == lone_w.tobytes() and biases.tobytes() == lone_b.tobytes()
    return b"".join(w.tobytes() + b.tobytes() for w, b in models)


def run_at_blas_threads(threads, script, *args):
    """Standard output of `script`, run with this test directory and `args`
    as its arguments, at `threads` BLAS threads in a new interpreter."""
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    done = subprocess.run([sys.executable, "-c", script, str(pathlib.Path(__file__).parent),
                           *args], check=True, env=env, timeout=300, capture_output=True,
                          text=True)
    return done.stdout


STACKED_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from test_classifier import STACKED_FOLD_CASES, assert_stacked_equal_lone
for case in STACKED_FOLD_CASES:
    assert_stacked_equal_lone(case)
print("stacked folds equal lone descents")
"""

DESK_FOLDS_SCRIPT = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from test_classifier import desk_fold_models
print(hashlib.sha256(desk_fold_models()).hexdigest())
"""


class TestStackedFolds:
    """CV's folds descend in one `_descend` call, each bit-identical to its
    lone descent: padding never enters a product's inner dimension or a sum,
    and each GEMM differs from the lone one only in its leading dimensions."""

    @pytest.mark.parametrize("case", sorted(STACKED_FOLD_CASES))
    def test_each_fold_equals_its_lone_descent(self, case):
        dim, sizes = STACKED_FOLD_CASES[case]
        groups = [[n for n in sizes if (n < dim) == row_space] for row_space in (True, False)]
        assert all(max(g) - min(g) >= 2 for g in groups if len(g) > 1)
        assert (min(sizes) < dim <= max(sizes)) == (case == "mixed")
        assert_stacked_equal_lone(case)

    def test_folds_equal_lone_descents_at_1_and_2_blas_threads(self):
        for threads in ("1", "2"):
            stdout = run_at_blas_threads(threads, STACKED_SCRIPT)
            assert stdout.strip() == "stacked folds equal lone descents"

    def test_desk_folds_equal_at_1_and_2_blas_threads(self):
        digests = [run_at_blas_threads(threads, DESK_FOLDS_SCRIPT) for threads in ("1", "2")]
        assert len(digests[0].strip()) == 64
        assert digests[0] == digests[1]


def model_with_decisions(dv_rows):
    """Identity-feature model whose decision values equal the input rows."""
    dv_rows = np.asarray(dv_rows, dtype=np.float64)
    n_classes = dv_rows.shape[1]
    # weights = identity on a feature space of dim n_classes, no scaling
    from alamp.classifier import Model
    return Model(weights=np.eye(n_classes), biases=np.zeros(n_classes), reg_param=1.0)


# rows of a desk-width score (64 dims, 20 classes) that one block holds
DESK_BLOCK = classifier._BLOCK_MACS // (64 * 20)


def random_model_and_rows(n, dim, n_classes, seed=0):
    rng = np.random.default_rng(seed)
    model = classifier.Model(weights=rng.normal(size=(n_classes, dim)),
                             biases=rng.normal(size=n_classes), reg_param=1.0)
    return model, rng.normal(size=(n, dim))


SCORE_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from test_classifier import random_model_and_rows
from alamp.classifier import decision_values
model, features = random_model_and_rows(4000, 64, 20)
with open(sys.argv[2], "wb") as fh:
    fh.write(decision_values(model, features).tobytes())
"""


class TestDecisionValues:
    def test_scores_the_features_as_given(self):
        # no scaler of the model's own: the features are the space it was fit in
        d = make_synthetic(3, 20, 4, 0.5, 0)
        model = train(d.features, d.labels, class_weights(d.class_counts()), 0.1)
        assert np.array_equal(decision_values(model, d.features),
                              d.features @ model.weights.T + model.biases)

    # 0 and 1 rows, one block of a desk-width score (64 dims, 20 classes), and
    # its neighbours: the one below stays whole, the one above splits in two
    @pytest.mark.parametrize("n", [0, 1, DESK_BLOCK - 1, DESK_BLOCK, DESK_BLOCK + 1])
    def test_row_blocks_match_one_product(self, n):
        model, features = random_model_and_rows(n, 64, 20)
        dv = decision_values(model, features)
        want = features @ model.weights.T + model.biases
        assert dv.shape == (n, 20)
        if n:
            assert_close(dv, want, 1e-12)
            assert np.array_equal(np.argmax(dv, axis=1), np.argmax(want, axis=1))

    def test_scores_match_at_1_and_2_blas_threads(self, tmp_path):
        # 4,000 x 64 x 20 in one product is past the size at which OpenBLAS
        # splits it over threads; its row blocks are not
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}.bin"
            run_at_blas_threads(threads, SCORE_SCRIPT, str(out))
            outputs[threads] = out.read_bytes()
        assert len(outputs["1"]) == 4000 * 20 * 8
        assert outputs["1"] == outputs["2"]


class TestRowBlocks:
    @pytest.mark.parametrize("width", [1, 64 * 20, 65 * 65, 512 * 10, 512 * 100])
    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 129, 1000, 18000])
    def test_blocks_cover_the_rows_in_order(self, n, width):
        blocks = _row_blocks(n, width)
        most = max(classifier._MIN_BLOCK_ROWS, classifier._BLOCK_MACS // width)
        assert np.array_equal(np.concatenate([np.arange(n)[b] for b in blocks]), np.arange(n))
        sizes = [b.stop - b.start for b in blocks]
        assert len(blocks) == max(1, -(-n // most))
        assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
        assert min(sizes) > 1 or n <= 1  # no one-row tail for gemv



class TestPredictProba:
    def test_equal_decisions_give_uniform_row(self):
        m = model_with_decisions(np.zeros((1, 4)))
        probs = predict_proba(m, np.zeros((1, 4))).probs
        assert np.allclose(probs, 0.25)

    def test_hand_softmax(self):
        m = model_with_decisions(np.zeros((1, 2)))
        probs = predict_proba(m, np.array([[math.log(2.0), 0.0]])).probs
        assert probs[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert probs[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        m = model_with_decisions(np.zeros((1, 5)))
        x = rng.normal(scale=20.0, size=(200, 5))
        probs = predict_proba(m, x).probs
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_dim_mismatch(self):
        m = model_with_decisions(np.zeros((1, 3)))
        with pytest.raises(ClassifierError):
            predict_proba(m, np.zeros((1, 2)))


class TestPredict:
    def test_argmax(self):
        m = model_with_decisions(np.zeros((1, 2)))
        assert predict(m, np.array([[0.9, 0.1]]))[0] == 0

    def test_exact_tie_to_lowest(self):
        m = model_with_decisions(np.zeros((1, 2)))
        assert predict(m, np.array([[0.5, 0.5]]))[0] == 0

    def test_agrees_with_proba_argmax(self):
        rng = np.random.default_rng(1)
        m = model_with_decisions(np.zeros((1, 6)))
        x = rng.normal(size=(500, 6))
        p = predict_proba(m, x).probs
        assert np.array_equal(predict(m, x), np.argmax(p, axis=1))


class TestAccuracy:
    def test_endpoints_and_half(self):
        d = make_synthetic(2, 2, 2, 0.01, 0)
        cw = class_weights(d.class_counts())
        model = train(d.features, d.labels, cw, 0.01)
        assert accuracy(model, d) == 1.0
        from alamp.dataset import Dataset
        flipped = Dataset(features=d.features, labels=1 - d.labels,
                          n_classes=2, sample_ids=d.sample_ids)
        assert accuracy(model, flipped) == 0.0
        half = Dataset(features=d.features,
                       labels=np.array([d.labels[0], 1 - d.labels[1],
                                        d.labels[2], 1 - d.labels[3]]),
                       n_classes=2, sample_ids=d.sample_ids)
        assert accuracy(model, half) == 0.5
