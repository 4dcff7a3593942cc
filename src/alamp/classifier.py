"""Deterministic multi-class linear classifier over fixed embeddings.

One-vs-rest linear models trained with full-batch gradient descent on a
cost-weighted squared-hinge loss plus L2 penalty. Zero initialization and a
fixed iteration budget make training bit-reproducible: the same inputs always
yield the same model, regardless of seed or thread count.

One descent kernel trains a whole regularization grid jointly, the candidates
stacked on a leading axis of the parameters. Its margins are one sample-major
(n, G, C) buffer, so the elementwise passes run over contiguous rows of all G
candidates' C classes, and each candidate's matrix products reach the buffer
through transposed views with the shapes a lone fit has. Every model it yields
is therefore bit-identical to training that candidate on its own; `train` is
the kernel with a grid of one, and `gradients`/`objective` remain the
reference formula it is tested against.

`fit` turns a labeled pool into a model: CV picks the regularization, then
the whole pool is trained; the final fit and every CV fold weight their
classes by one rule, `_weights` (cost-sensitive, or unit weights).

Cross-validation trains its folds concurrently, one thread per fold: the
folds are independent, and numpy releases the interpreter lock inside their
products and array loops. Fold accuracies are reduced in fold order, so the
chosen regularization is the one a serial loop picks.

Features are standardized per dimension using statistics of the training
(labeled) pool; the scaler is stored on the model, and `standardize` applies
it to every pool the model scores. Given the rows to score, it gathers only
those and scales them in place, so scoring a pool holds one pool-sized array.
"""

from __future__ import annotations

import contextvars
import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "Model",
    "ProbMatrix",
    "ClassifierError",
    "DEFAULT_REG_GRID",
    "class_weights",
    "objective",
    "gradients",
    "train",
    "select_reg_param",
    "fit",
    "standardize",
    "decision_values",
    "predict_proba",
    "predict",
    "accuracy",
]

GD_ITERATIONS = 500
DEFAULT_REG_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0)
FALLBACK_REG = 0.1  # when too few classes can be stratified for CV


class ClassifierError(ValueError):
    """Raised for invalid training or prediction inputs."""


@dataclasses.dataclass(frozen=True)
class Model:
    """Per-class linear decision functions d_c(x) = w_c . z + b_c.

    z is the standardized feature vector: (x - feature_mean) / feature_scale.
    """

    weights: np.ndarray        # (n_classes, dim)
    biases: np.ndarray         # (n_classes,)
    reg_param: float
    feature_mean: np.ndarray   # (dim,)
    feature_scale: np.ndarray  # (dim,), 1.0 for constant dimensions

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


@dataclasses.dataclass(frozen=True)
class ProbMatrix:
    """Class-probability rows, one per scored sample, in the order scored."""

    probs: np.ndarray  # (n_scored, n_classes), rows sum to 1


def class_weights(counts) -> np.ndarray:
    """Cost-sensitive weights w_c = n_samples / (n_classes * count_c).

    Classes with zero count get the weight they would have at count 1, so the
    weight vector stays finite when the labeled pool misses a class.
    """
    counts = np.asarray(counts, dtype=np.float64)
    n_classes = len(counts)
    n_samples = counts.sum()
    effective = np.where(counts > 0, counts, 1.0)
    return n_samples / (n_classes * effective)


def _weights(counts, cost_sensitive: bool) -> np.ndarray:
    """Class weights of a fit or CV fold with these per-class counts."""
    return class_weights(counts) if cost_sensitive else np.ones(len(counts))


def _standardizer(features: np.ndarray):
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    return mean, scale


def objective(weights, biases, z, targets, sample_w, reg_param):
    """Weighted squared-hinge + L2 objective (biases unregularized)."""
    margins = z @ weights.T + biases
    viol = np.maximum(0.0, 1.0 - targets * margins)
    data_term = (sample_w[:, None] * viol ** 2).sum() / len(z)
    return data_term + reg_param * (weights ** 2).sum()


def gradients(weights, biases, z, targets, sample_w, reg_param):
    """Analytic gradient of `objective` w.r.t. weights and biases."""
    margins = z @ weights.T + biases
    viol = np.maximum(0.0, 1.0 - targets * margins)
    grad_margin = (-2.0 / len(z)) * (sample_w[:, None] * targets * viol)
    grad_w = grad_margin.T @ z + 2.0 * reg_param * weights
    grad_b = grad_margin.sum(axis=0)
    return grad_w, grad_b


def _check_fit(features, labels, regs) -> None:
    if not all(reg > 0 for reg in regs):
        raise ClassifierError("reg_param must be positive")
    if not np.all(np.isfinite(features)):
        raise ClassifierError("non-finite features")
    if len(np.unique(labels)) < 2:
        raise ClassifierError("need at least 2 distinct labels to train")


def _descend(z, targets, sample_w, regs):
    """GD_ITERATIONS full-batch steps from zero for every reg in `regs` at once.

    Candidates sit on a leading axis of the parameters: weights (G, C, d),
    biases (G, C). The margins are sample-major, one (n, G, C) buffer, so the
    bias add, the elementwise passes and the bias-gradient sum over n run
    over contiguous rows of G*C values. Each step does what `gradients` and
    the update in `train` spell out, in the same order of floating-point
    operations, and the two matmuls reach the buffer through transposed views:
    one GEMM per candidate of the shape a lone fit uses, only with a wider
    leading dimension, so each candidate's result is bit-identical to
    descending on it alone.
    """
    regs = np.asarray(regs, dtype=np.float64)
    lr_b = (0.1 / (1.0 + regs))[:, None]
    lr_w = lr_b[:, :, None]
    two_reg = (2.0 * regs)[:, None, None]
    n, dim = z.shape
    n_regs, n_classes = len(regs), targets.shape[1]
    shape = (n, n_regs, n_classes)
    tiled_targets = np.broadcast_to(targets[:, None, :], shape).copy()
    weighted_targets = np.broadcast_to((sample_w[:, None] * targets)[:, None, :], shape).copy()
    scale = -2.0 / n

    weights = np.zeros((n_regs, n_classes, dim))
    biases = np.zeros((n_regs, n_classes))
    margins = np.empty(shape)
    grad_w = np.empty_like(weights)
    penalty = np.empty_like(weights)
    grad_b = np.empty_like(biases)
    weights_t = weights.transpose(0, 2, 1)      # (G, d, C)
    margins_out = margins.transpose(1, 0, 2)    # (G, n, C)
    margins_t = margins.transpose(1, 2, 0)      # (G, C, n)
    for _ in range(GD_ITERATIONS):
        np.matmul(z, weights_t, out=margins_out)
        margins += biases
        # margins becomes the gradient w.r.t. the margins, in place
        np.multiply(tiled_targets, margins, out=margins)
        np.subtract(1.0, margins, out=margins)
        np.maximum(0.0, margins, out=margins)
        margins *= weighted_targets
        margins *= scale
        np.matmul(margins_t, z, out=grad_w)
        np.multiply(two_reg, weights, out=penalty)
        grad_w += penalty
        margins.sum(axis=0, out=grad_b)
        grad_w *= lr_w
        weights -= grad_w
        grad_b *= lr_b
        biases -= grad_b
    return weights, biases


def _problem(features, labels, cw):
    """Standardized features, +-1 targets and per-sample weights of a fit."""
    mean, scale = _standardizer(features)
    z = features - mean
    z /= scale
    targets = np.full((len(labels), len(cw)), -1.0)
    targets[np.arange(len(labels)), labels] = 1.0
    return z, targets, cw[labels], mean, scale


def train(features, labels, class_weights_vec, reg_param: float) -> Model:
    """Fit one-vs-rest linear models by full-batch gradient descent.

    Deterministic: zero-initialized, fixed learning rate 0.1 / (1 + reg_param),
    500 iterations. Runs the grid kernel that `select_reg_param` uses with a
    grid of one, so a lone fit and a jointly trained candidate agree bit for
    bit.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    cw = np.asarray(class_weights_vec, dtype=np.float64)
    _check_fit(features, labels, (reg_param,))
    z, targets, sample_w, mean, scale = _problem(features, labels, cw)
    weights, biases = _descend(z, targets, sample_w, (reg_param,))
    return Model(weights=weights[0], biases=biases[0], reg_param=float(reg_param),
                 feature_mean=mean, feature_scale=scale)


def _stratified_folds(labels: np.ndarray, folds: int, seed: int):
    """Round-robin per-class assignment of shuffled indices to folds."""
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(labels), dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def select_reg_param(features, labels, candidate_grid=DEFAULT_REG_GRID,
                     folds: int = 3, seed: int = 0,
                     cost_sensitive: bool = True) -> float:
    """Pick the regularization strength by stratified k-fold CV accuracy.

    Each fold weights its training part by `_weights`, as `fit` does.

    Each fold is standardized once and the whole grid is trained on it
    jointly by the descent kernel; every candidate's model is bit-identical
    to a separate `train` call. The folds train concurrently, one thread
    each, in copies of the caller's context (so `np.errstate` and
    `np.seterrcall` apply inside them). Their accuracies are reduced in fold
    order, and a failure raises the error of the lowest failing fold, as a
    serial loop would. Ties go to the smallest candidate.
    Folds are reduced to the smallest class count when a class is too small.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    grid = sorted(float(c) for c in candidate_grid)
    if not grid:
        raise ClassifierError("empty candidate grid")
    if folds < 2:
        raise ClassifierError("folds must be >= 2")
    present, counts = np.unique(labels, return_counts=True)
    if len(present) < 2:
        raise ClassifierError("need at least 2 classes for cross-validation")
    min_count = int(counts.min())
    if min_count < 2:
        raise ClassifierError("every class needs at least 2 samples for CV")
    folds = min(folds, min_count)
    # checks every fold: the training parts cover every row, each with every class
    _check_fit(features, labels, grid)
    n_classes = int(labels.max()) + 1
    assignment = _stratified_folds(labels, folds, seed)

    def fold_accuracies(f):
        tr = assignment != f
        va = ~tr
        cw = _weights(np.bincount(labels[tr], minlength=n_classes), cost_sensitive)
        z, targets, sample_w, mean, scale = _problem(features[tr], labels[tr], cw)
        weights, biases = _descend(z, targets, sample_w, grid)
        z_va = features[va] - mean
        z_va /= scale
        preds = np.argmax(z_va @ weights.transpose(0, 2, 1) + biases[:, None, :], axis=2)
        return np.mean(preds == labels[va], axis=1)

    with ThreadPoolExecutor(max_workers=folds) as executor:
        futures = [executor.submit(contextvars.copy_context().run, fold_accuracies, f)
                   for f in range(folds)]
    # result() re-raises a fold's error: read in fold order, the lowest wins
    fold_accs = np.stack([future.result() for future in futures], axis=1)
    # argmax takes the first maximum: ties go to the smallest candidate
    return grid[int(np.argmax(fold_accs.mean(axis=1)))]


def fit(pool, cost_sensitive: bool, seed: int) -> Model:
    """Train from scratch on a labeled `Dataset`, with freshly CV'd regularization.

    Classes with fewer than 2 samples cannot be stratified, so CV runs on the
    remaining classes; if fewer than 2 classes qualify, FALLBACK_REG is used.
    """
    counts = pool.class_counts()
    cv_ok = counts[pool.labels] >= 2
    if np.count_nonzero(counts >= 2) >= 2:
        reg = select_reg_param(pool.features[cv_ok], pool.labels[cv_ok], DEFAULT_REG_GRID,
                               folds=3, seed=seed, cost_sensitive=cost_sensitive)
    else:
        reg = FALLBACK_REG
    return train(pool.features, pool.labels, _weights(counts, cost_sensitive), reg)


def standardize(model: Model, features, rows=None) -> np.ndarray:
    """Features scaled as the model saw them in training, in one new array.

    With `rows` (integer row indices), only those rows are gathered, and they
    are scaled in place: the same bits as `standardize(model, features[rows])`
    without a second pool-sized copy.
    """
    if rows is None:
        z = features - model.feature_mean
    else:
        z = np.take(features, rows, axis=0)
        z -= model.feature_mean
    z /= model.feature_scale
    return z


def decision_values(model: Model, features, rows=None) -> np.ndarray:
    """Per-class decision values of `features`, or of its `rows` only."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != model.dim:
        raise ClassifierError(
            f"feature dim {features.shape[1]} does not match model dim {model.dim}")
    dv = standardize(model, features, rows) @ model.weights.T
    dv += model.biases
    return dv


def predict_proba(model: Model, features, rows=None) -> ProbMatrix:
    """Softmax over decision values, of `features` or of its `rows` only; rows
    sum to 1 within 1e-6. The softmax runs in place on the decision values."""
    probs = decision_values(model, features, rows)
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return ProbMatrix(probs=probs)


def predict(model: Model, features) -> np.ndarray:
    """Argmax of decision values per row, ties to the lowest class id."""
    return np.argmax(decision_values(model, features), axis=1)


def accuracy(model: Model, test) -> float:
    """Fraction of test samples predicted correctly."""
    if test.n_samples == 0:
        raise ClassifierError("empty test set")
    return float(np.mean(predict(model, test.features) == test.labels))
