import math
import threading

import numpy as np
import pytest

from alamp import classifier
from alamp.classifier import (
    DEFAULT_REG_GRID,
    GD_ITERATIONS,
    ClassifierError,
    _descend,
    _problem,
    _stratified_folds,
    class_weights,
    decision_values,
    fit,
    gradients,
    objective,
    predict,
    predict_proba,
    select_reg_param,
    standardize,
    train,
    accuracy,
)
from alamp.dataset import Dataset, make_synthetic


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


def labeled_pool(labels):
    features = np.random.default_rng(0).normal(size=(len(labels), 2))
    return Dataset(features=features, labels=labels, n_classes=max(labels) + 1,
                   sample_ids=np.arange(len(labels)))


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
        model = fit(labeled_pool([0, 1, 2, 2]), True, 3)
        assert cv_calls == []
        assert model.reg_param == 0.1
        assert model.n_classes == 3

    def test_cv_skips_classes_below_two_samples(self, cv_calls):
        pool = labeled_pool([0, 0, 1, 1, 2])
        model = fit(pool, True, 7)
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


def lowrank_relu(n_classes, per_class, dim, rank, seed):
    """Embedding-like features: ReLU of a random map of a rank-`rank` latent."""
    rng = np.random.default_rng(seed)
    latent = np.repeat(rng.normal(size=(n_classes, rank)), per_class, axis=0)
    latent += rng.normal(size=latent.shape)
    features = np.maximum(latent @ rng.normal(0.0, rank ** -0.5, size=(rank, dim)), 0.0)
    return features, np.repeat(np.arange(n_classes), per_class)


def skewed_blobs(n_classes, per_class, dim, seed):
    """Gaussian blobs whose class sizes fall linearly from per_class to a third
    of it, so cost-sensitive sample weights differ from 1."""
    d = make_synthetic(n_classes, per_class, dim, 1.6, seed)
    sizes = np.linspace(per_class, per_class // 3, n_classes).astype(int)
    keep = np.concatenate([np.flatnonzero(d.labels == c)[:sizes[c]]
                           for c in range(n_classes)])
    return d.features[keep], d.labels[keep]


def reference_descent(z, targets, sample_w, reg):
    """One candidate by the reference formula: GD_ITERATIONS `gradients` steps."""
    weights = np.zeros((targets.shape[1], z.shape[1]))
    biases = np.zeros(targets.shape[1])
    lr = 0.1 / (1.0 + reg)
    for _ in range(GD_ITERATIONS):
        grad_w, grad_b = gradients(weights, biases, z, targets, sample_w, reg)
        weights -= lr * grad_w
        biases -= lr * grad_b
    return weights, biases


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


def descent_problem(features, labels):
    cw = class_weights(np.bincount(labels))
    return _problem(np.asarray(features, dtype=np.float64), labels, cw)[:3]


class TestGridDescent:
    """The joint grid descent equals separate reference descents bit for bit."""

    @pytest.mark.parametrize("per_class", [24, 48])  # n = 311 and n = 631
    def test_grid_matches_reference_per_reg(self, per_class):
        features, labels = skewed_blobs(20, per_class, 64, 0)
        assert (len(labels) <= 400) == (per_class == 24)
        z, targets, sample_w = descent_problem(features, labels)
        weights, biases = _descend(z, targets, sample_w, DEFAULT_REG_GRID)
        assert weights.shape == (len(DEFAULT_REG_GRID), 20, 64)
        for g, reg in enumerate(DEFAULT_REG_GRID):
            ref_w, ref_b = reference_descent(z, targets, sample_w, reg)
            assert weights[g].tobytes() == ref_w.tobytes()
            assert biases[g].tobytes() == ref_b.tobytes()

    # an odd grid with fewer samples than classes, and a grid of one at n=2
    @pytest.mark.parametrize("n, n_classes, regs", [(5, 8, (1e-2, 1.0, 10.0)),
                                                    (2, 3, (0.1,))])
    def test_small_shapes_match_reference_per_reg(self, n, n_classes, regs):
        rng = np.random.default_rng(n)
        features = rng.normal(size=(n, 7))
        labels = np.arange(n) % n_classes
        cw = class_weights(np.bincount(labels, minlength=n_classes))
        z, targets, sample_w = _problem(features, labels, cw)[:3]
        weights, biases = _descend(z, targets, sample_w, regs)
        assert weights.shape == (len(regs), n_classes, 7)
        for g, reg in enumerate(regs):
            ref_w, ref_b = reference_descent(z, targets, sample_w, reg)
            assert weights[g].tobytes() == ref_w.tobytes()
            assert biases[g].tobytes() == ref_b.tobytes()

    def test_train_is_the_one_candidate_grid(self):
        features, labels = skewed_blobs(5, 20, 8, 2)
        cw = class_weights(np.bincount(labels))
        z, targets, sample_w = _problem(features, labels, cw)[:3]
        model = train(features, labels, cw, 0.1)
        ref_w, ref_b = reference_descent(z, targets, sample_w, 0.1)
        assert model.weights.tobytes() == ref_w.tobytes()
        assert model.biases.tobytes() == ref_b.tobytes()

    def test_diverging_candidates_leave_finite_neighbours_exact(self):
        features, labels = lowrank_relu(10, 100, 512, 8, 0)
        z, targets, sample_w = descent_problem(features, labels)
        with np.errstate(all="ignore"):
            weights, biases = _descend(z, targets, sample_w, DEFAULT_REG_GRID)
            finite = []
            for g, reg in enumerate(DEFAULT_REG_GRID):
                ref_w, ref_b = reference_descent(z, targets, sample_w, reg)
                ok = bool(np.all(np.isfinite(ref_w)) and np.all(np.isfinite(ref_b)))
                finite.append(ok)
                assert ok == bool(np.all(np.isfinite(weights[g])) and np.all(np.isfinite(biases[g])))
                if ok:
                    assert weights[g].tobytes() == ref_w.tobytes()
                    assert biases[g].tobytes() == ref_b.tobytes()
        # the fixture is one where the small regularizations diverge
        assert finite == [False, False, False, True, True]

    @pytest.mark.parametrize("folds", [2, 3])
    @pytest.mark.parametrize("per_class", [9, 36])
    def test_select_reg_param_matches_per_reg_loop(self, folds, per_class):
        features, labels = skewed_blobs(20, per_class, 64, 4)
        for seed in (0, 7):
            got = select_reg_param(features, labels, DEFAULT_REG_GRID, folds, seed)
            assert got == per_reg_select_reg_param(features, labels,
                                                   DEFAULT_REG_GRID, folds, seed)

    def test_select_reg_param_on_diverging_fixture_matches_per_reg_loop(self):
        features, labels = lowrank_relu(10, 40, 512, 8, 1)
        with np.errstate(all="ignore"):
            got = select_reg_param(features, labels)
            assert got == per_reg_select_reg_param(features, labels, DEFAULT_REG_GRID)

    def test_caller_errstate_reaches_every_fold(self):
        # the folds train on worker threads; np.errstate is per context
        features, labels = lowrank_relu(10, 100, 512, 8, 0)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            select_reg_param(features, labels)

    def test_folds_train_at_once(self, monkeypatch):
        features, labels = lowrank_relu(10, 12, 512, 8, 0)
        barrier = threading.Barrier(3, timeout=20)
        threads = set()

        def descend(z, targets, sample_w, regs):
            threads.add(threading.get_ident())
            barrier.wait()  # passes only once all three folds are in flight
            shape = (len(regs), targets.shape[1])
            return np.zeros(shape + (z.shape[1],)), np.zeros(shape)

        monkeypatch.setattr(classifier, "_descend", descend)
        select_reg_param(features, labels)
        assert len(threads) == 3

    def test_non_finite_features_rejected(self):
        d = make_synthetic(3, 10, 4, 0.5, 0)
        features = d.features.copy()
        features[0, 0] = np.nan
        with pytest.raises(ClassifierError, match="non-finite"):
            select_reg_param(features, d.labels)

    def test_non_positive_candidate_rejected(self):
        # the fold threads raise the error a serial loop raises, unwrapped
        d = make_synthetic(3, 10, 4, 0.5, 0)
        with pytest.raises(ClassifierError) as serial:
            train(d.features, d.labels, np.ones(3), 0.0)
        with pytest.raises(ClassifierError, match="positive") as cv:
            select_reg_param(d.features, d.labels, [0.0, 1.0])
        assert type(cv.value) is type(serial.value)
        assert cv.value.args == serial.value.args


def model_with_decisions(dv_rows):
    """Identity-feature model whose decision values equal the input rows."""
    dv_rows = np.asarray(dv_rows, dtype=np.float64)
    n_classes = dv_rows.shape[1]
    # weights = identity on a feature space of dim n_classes, no scaling
    from alamp.classifier import Model
    return Model(weights=np.eye(n_classes), biases=np.zeros(n_classes),
                 reg_param=1.0, feature_mean=np.zeros(n_classes), feature_scale=np.ones(n_classes))


class TestStandardize:
    def test_applies_the_training_scaler(self):
        d = make_synthetic(3, 20, 4, 0.5, 0)
        model = train(d.features, d.labels, class_weights(d.class_counts()), 0.1)
        z = standardize(model, d.features)
        # the training pool comes out centred with unit spread
        assert np.allclose(z.mean(axis=0), 0.0)
        assert np.allclose(z.std(axis=0), 1.0)
        assert np.array_equal(decision_values(model, d.features),
                              z @ model.weights.T + model.biases)


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
