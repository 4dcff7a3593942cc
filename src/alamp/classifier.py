"""Deterministic multi-class linear classifier over fixed embeddings.

One-vs-rest linear models trained with full-batch gradient descent on a
cost-weighted squared-hinge loss plus L2 penalty. Zero initialization and a
fixed iteration budget make training bit-reproducible: the same inputs always
yield the same model, whatever the seed, and whatever the BLAS thread count
while no product is large enough for OpenBLAS to split it over threads.

Each descent takes 500 steps of size min(0.1 / (1 + reg), 1.5 / L), where
L = 2 λmax(Z'ᵀ diag(w) Z' / n) + 2 reg bounds the objective's curvature (Z'
is the features with a bias column, w the per-sample weights).
So no step diverges, on ReLU embeddings too, and where the fixed step
0.1 / (1 + reg) was already stable it is kept bit for bit. The curvature form
is n x n, built from the Gram matrix, when the descent runs in the rows' span
(below), else (d+1) x (d+1). Two products of the form with itself bound λmax
from above; where that bound keeps the fixed step, no `eigvalsh` runs, and
elsewhere one per descent gives λmax.

One descent kernel trains a whole regularization grid jointly, the candidates
stacked on a leading axis of the parameters, and several problems (CV's
folds) at once, on the axis before it. Its margins are one class-major
(P, G, C, n) buffer: one matrix product per problem and candidate fills it,
of the shape a lone fit has, and the step size, the sample weights and the
L2 decay are folded into the elementwise hinge pass. The bias is a column of
the parameters over a constant feature, a column of ones left out of the
decay (so the bias stays unregularized): the products add it to the margins
and yield its gradient, and no step spends a pass on the bias alone. Every
model it yields is bit-identical to training that candidate on its own; `train`
is the kernel with one problem and a grid of one. `gradients`/`objective`
remain the reference formula, which the kernel matches within rounding, its
operations being ordered differently. With fewer rows than dims, descent
from zero never leaves the rows' span, so the kernel descends on n
coefficients per class through the n x n Gram matrix instead of on d
weights, and forms the weights once at the end; the two forms agree in
exact arithmetic.

A model that is not finite is never used: CV does not select such a
candidate, and `train` raises `ClassifierError` for one.

`fit` turns labeled rows of a run's space into a model: CV picks the
regularization, then the rows are trained; the final fit and every CV fold
weight their classes by one rule, `_weights` (cost-sensitive, or unit weights).

Cross-validation builds its folds' descent problems once. A small fit's
folds then train in one stacked descent on the calling thread (`_descend`
takes a list of problems), a larger one's concurrently, one `_descend` per
fold in its own thread. The folds are independent, and numpy releases the
interpreter lock inside their products and array loops; but in a small fit
each numpy call takes a few µs, so fold threads mostly hand the lock back
and forth, and one descent, whose elementwise passes each run once over
every fold, does far fewer calls. The size is candidates x classes x CV
rows, and threads start at THREADED_CV_SIZE. On a 2-vCPU machine, at 1 and
2 BLAS threads, a sweep of both paths put the crossover near 12k on blobs
in 64 dims and near 10k on ReLU rows in 512 dims; the threshold sits a
little below both. Either way each fold's model is the bits of its lone
descent, and every fold is scored on the calling thread, in fold order, so
the chosen regularization is the one a serial loop picks.

Models fit and score the features they are given, with no scaler of their
own: a run's features are standardized once, by `dataset.standardize`.
Scoring a pool multiplies it by the weights in row blocks and copies no pool
rows.

At desk scale (64 dims, 20 classes) no product that runs in CV or just
before it is large enough for OpenBLAS to split it over threads: not the
step rule's bound, nor the (d+1) x (d+1) form and the scoring products, which
run in row blocks (`_row_blocks`), nor the descent's per-candidate GEMMs,
the largest of which, a 200-row fold's with its bias column, takes
20 x 200 x 65 = 260,000 multiply-adds. A
split product leaves OpenBLAS's worker thread spinning for a while
afterwards, on a core the fold threads need. A product that runs in serial
blocks also gives the same bits at any thread count.
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
    "decision_values",
    "predict_proba",
    "predict",
    "accuracy",
]

GD_ITERATIONS = 500
DEFAULT_REG_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0)
FALLBACK_REG = 0.1  # when too few classes can be stratified for CV
# candidates x classes x CV rows from which CV folds train one thread each
THREADED_CV_SIZE = 2 ** 13
# multiply-adds per product of a row-blocked BLAS call (`_row_blocks`): below
# the size at which OpenBLAS splits a product over threads
_BLOCK_MACS = 2 ** 18
_MIN_BLOCK_ROWS = 64


class ClassifierError(ValueError):
    """Raised for invalid training or prediction inputs."""


@dataclasses.dataclass(frozen=True)
class Model:
    """Per-class linear decision functions d_c(x) = w_c . x + b_c, over the
    feature space the model was trained in."""

    weights: np.ndarray  # (n_classes, dim)
    biases: np.ndarray   # (n_classes,)
    reg_param: float

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


def _check_fit(features, labels, regs, n_classes) -> None:
    if not all(reg > 0 for reg in regs):
        raise ClassifierError("reg_param must be positive")
    if not np.all(np.isfinite(features)):
        raise ClassifierError("non-finite features")
    if len(np.unique(labels)) < 2:
        raise ClassifierError("need at least 2 distinct labels to train")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ClassifierError(f"labels must lie in [0, {n_classes})")


def _row_blocks(n, macs_per_row):
    """The fewest near-equal slices of n rows, in order, each within
    _BLOCK_MACS multiply-adds at `macs_per_row` a row, or within
    _MIN_BLOCK_ROWS rows where a row costs more than _BLOCK_MACS /
    _MIN_BLOCK_ROWS, so that wide products are not cut into thousands of
    calls. Near-equal blocks leave no one-row tail, which numpy would hand to
    gemv instead of gemm."""
    rows = max(_MIN_BLOCK_ROWS, _BLOCK_MACS // max(macs_per_row, 1))
    count = max(1, -(-n // rows))
    bounds = np.arange(count + 1) * n // count
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _curvature_form(z, sample_w, gram=None) -> np.ndarray:
    """Z'ᵀ diag(w) Z' / n, Z' being `z` with a bias column; given the Gram
    matrix Z Zᵀ, the n x n form (Z Zᵀ + 1 1ᵀ) ∘ √w √wᵀ / n instead, which has
    the same nonzero eigenvalues.

    The (d+1) x (d+1) form is summed over `_row_blocks`, in row order, one
    `syrk` each, so that up to 64 dims no product is large enough for
    OpenBLAS to split over threads."""
    n, dim = z.shape
    root_w = np.sqrt(sample_w)
    if gram is None:
        scaled = np.hstack([z, np.ones((n, 1))])
        scaled *= root_w[:, None]
        form = np.zeros((dim + 1, dim + 1))
        for rows in _row_blocks(n, (dim + 1) ** 2):
            block = scaled[rows]
            form += block.T @ block
    else:
        form = gram + 1.0
        form *= root_w[:, None]
        form *= root_w
    form /= n
    return form


def _power_bound(form, trace):
    """(tr F⁸)^(1/8) of the positive semidefinite form F, from two products of
    F / tr F with itself: the trace scaling keeps their entries within 1, so
    nothing overflows, and what underflows is far below the bound's rounding."""
    with np.errstate(under="ignore"):
        power = form / trace
        power = power @ power
        power = power @ power
        return trace * np.sqrt(np.sqrt(np.sqrt((power * power).sum())))


def _step_sizes(z, sample_w, regs, gram=None) -> np.ndarray:
    """Step of each candidate: min(0.1 / (1 + reg), 1.5 / L).

    L = 2 λmax + 2 reg bounds the curvature of the objective, λmax being the
    largest eigenvalue of the form F of `_curvature_form`. A step below 2 / L
    cannot diverge; 1.5 / L leaves the fixed step 0.1 / (1 + reg) in place
    wherever it was already stable.

    F is positive semidefinite, so λmax <= ‖F⁴‖_F^(1/4) = (tr F⁸)^(1/8)
    (`_power_bound`). When that bound, raised by 1e-6 to cover rounding here
    and in `eigvalsh`, already keeps the fixed step for every candidate, the
    fixed step is returned: the exact rule would return the same bits, its
    λmax being no larger. Otherwise λmax is taken with one `eigvalsh`.
    """
    regs = np.asarray(regs, dtype=np.float64)
    fixed = 0.1 / (1.0 + regs)
    form = _curvature_form(z, sample_w, gram)
    bound = _power_bound(form, np.trace(form))
    if np.all(fixed <= 1.5 / (2.0 * (bound * (1.0 + 1e-6)) + 2.0 * regs)):
        return fixed
    lam = float(np.linalg.eigvalsh(form)[-1])
    return np.minimum(fixed, 1.5 / (2.0 * lam + 2.0 * regs))


def _descend(problems, regs):
    """GD_ITERATIONS full-batch steps from zero for every problem and every
    reg in `regs` at once.

    Each problem is (z, targets, sample_w), with the same dims and classes,
    and yields one (weights (G, C, d), biases (G, C)) pair of fresh arrays,
    in order. A problem with fewer rows than dims descends in the rows'
    span, the others on the weights (below); each group is stacked on a
    leading axis of buffers padded to its longest problem, and candidates sit
    on the next axis: margins class-major in one (P, G, C, n) buffer, so the
    elementwise passes run along contiguous rows.

    The bias is the parameters' last column, over a constant feature (as in
    LIBLINEAR): the products see a column of ones, so the margins' product
    adds the bias inside its sum, and the bias gradient falls out where the
    weights' gradient does. The decay is 1 at that column, so the bias stays
    unregularized. No step adds, sums or updates the bias on its own.

    Each candidate takes the step lr that `_step_sizes` gives it on its
    problem. A step folds everything but the matrix products into the hinge:
    with coef = -2 lr w y / n and decay = 1 - 2 lr reg, the margins M become
    coef * max(0, 1 - y M), which is lr times the gradient w.r.t. the
    margins, and the update is params *= decay, then params -= that gradient
    carried to the params. The targets, coef and decay are tiled to their
    buffers' full shapes once, so no step broadcasts. This is the step
    `gradients` spells out, with its operations ordered differently, so it
    agrees with that formula within rounding, not bit for bit.

    Each matrix product is one GEMM per problem and candidate, on unpadded
    views, of the (M, N, K) a lone fit uses: only the leading dimensions
    differ, and OpenBLAS's kernels give the same bits for that (the tests
    check it under several). Padding never enters a product's inner
    dimension or a sum. Each elementwise pass runs once over a whole buffer
    and treats every entry alone; padded entries have targets and coef 0, so
    they stay 0. The rows' span's bias sums run per problem on unpadded
    views, since numpy's pairwise sum depends on n. So every problem's and
    candidate's model is bit-identical to descending on it alone.

    With at least as many rows as dims, the descent runs on the weights
    W' = [W | b] (G, C, d+1): the margins are W' Z'ᵀ, Z' = [Z | 1], Z'ᵀ
    copied contiguous once, and the gradient is M Z', whose last column is
    the bias gradient. With fewer rows than dims, it runs in the rows' span
    instead: descent from zero keeps W = A Z, so it descends on the
    coefficients A' = [A | b] (G, C, n+1). The margins are A' K', where
    K' = [K ; 1ᵀ] and K = Z Zᵀ is the Gram matrix, and the gradient w.r.t. A
    is M itself: no d-wide product and no gradient GEMM. The margins buffer
    has one column more; each problem's sum of M over n, the bias gradient,
    lands in the column after its rows, so one subtraction of the margins
    updates A and b. The weights are formed once, at the end. In exact
    arithmetic both forms take the same steps.
    """
    regs = np.asarray(regs, dtype=np.float64)
    models = [None] * len(problems)
    for row_space in (True, False):
        group = [p for p, (z, _, _) in enumerate(problems) if (len(z) < z.shape[1]) == row_space]
        if group:
            stacked = _descend_stack([problems[p] for p in group], regs, row_space)
            for p, model in zip(group, stacked):
                models[p] = model
    return models


def _descend_stack(problems, regs, row_space):
    """`_descend` of problems that all take the same form."""
    n_problems, n_regs = len(problems), len(regs)
    n_classes, dim = problems[0][1].shape[1], problems[0][0].shape[1]
    sizes = [len(z) for z, _, _ in problems]
    # in the rows' span a problem's bias sits in the column after its rows
    shape = (n_problems, n_regs, n_classes, max(sizes) + row_space)
    targets_t = np.zeros(shape)
    coef = np.zeros(shape)
    params = np.zeros(shape if row_space else shape[:3] + (dim + 1,))  # A' or W'
    decay = np.ones_like(params)
    bases, grad_bases = [], []
    for p, (z, targets, sample_w) in enumerate(problems):
        n = len(z)
        gram = z @ z.T if row_space else None
        lr = _step_sizes(z, sample_w, regs, gram)
        targets_t[p, :, :, :n] = targets.T
        coef[p, :, :, :n] = (lr * (-2.0 / n))[:, None, None] * (sample_w * targets.T)
        decay[p, :, :, :n if row_space else dim] = (1.0 - 2.0 * lr * regs)[:, None, None]
        if row_space:
            bases.append(np.vstack([gram, np.ones((1, n))]))    # K' (n+1, n)
        else:
            z_ones = np.hstack([z, np.ones((n, 1))])            # Z' (n, d+1)
            bases.append(np.ascontiguousarray(z_ones.T))
            grad_bases.append(z_ones)

    margins = np.zeros(shape)
    # each problem's unpadded views and operands, paired once, so that a step
    # adds no Python work beyond its calls (fold threads share one lock)
    cuts = [margins[p, :, :, :n] for p, n in enumerate(sizes)]
    if row_space:
        params_cuts = [params[p, :, :, :n + 1] for p, n in enumerate(sizes)]
        # each problem's bias gradient goes to the column after its rows
        sums = [(cut, margins[p, :, :, n]) for p, (cut, n) in enumerate(zip(cuts, sizes))]
    else:
        params_cuts = list(params)
        step = np.empty_like(params)
        grads = list(zip(cuts, grad_bases, step))
    products = list(zip(params_cuts, bases, cuts))
    for _ in range(GD_ITERATIONS):
        for params_p, basis, cut in products:
            np.matmul(params_p, basis, out=cut)
        # margins becomes lr times the gradient w.r.t. the margins, in place
        margins *= targets_t
        np.subtract(1.0, margins, out=margins)
        np.maximum(0.0, margins, out=margins)
        margins *= coef
        params *= decay
        if row_space:
            for cut, total in sums:
                np.add.reduce(cut, axis=2, out=total)
            params -= margins
        else:
            for cut, basis, grad in grads:
                np.matmul(cut, basis, out=grad)
            params -= step
    if row_space:
        return [(a[..., :-1] @ z, a[..., -1].copy()) for a, (z, _, _) in zip(params_cuts, problems)]
    return [(w[..., :-1].copy(), w[..., -1].copy()) for w in params]


def _problem(labels, cw):
    """+-1 targets and per-sample weights of a fit."""
    targets = np.full((len(labels), len(cw)), -1.0)
    targets[np.arange(len(labels)), labels] = 1.0
    return targets, cw[labels]


def train(features, labels, class_weights_vec, reg_param: float) -> Model:
    """Fit one-vs-rest linear models by full-batch gradient descent.

    Deterministic: zero-initialized, 500 iterations at the step
    min(0.1 / (1 + reg_param), 1.5 / L), L bounding the objective's
    curvature (see `_step_sizes`). With fewer labeled rows than dims the
    descent runs in the rows' span (see `_descend`). Runs the grid kernel
    that `select_reg_param` uses with a grid of one, so a lone fit and a
    jointly trained candidate agree bit for bit; both agree with descending
    on `gradients` within rounding.

    Labels must lie in [0, len(class_weights_vec)). Raises ClassifierError
    if the trained model is not finite.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    cw = np.asarray(class_weights_vec, dtype=np.float64)
    _check_fit(features, labels, (reg_param,), len(cw))
    targets, sample_w = _problem(labels, cw)
    [(weights, biases)] = _descend([(features, targets, sample_w)], (reg_param,))
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
        raise ClassifierError(f"training diverged at reg_param {reg_param}")
    return Model(weights=weights[0], biases=biases[0], reg_param=float(reg_param))


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

    The whole grid is trained on each fold jointly by the descent kernel;
    every candidate's model is bit-identical to a separate `train` call.
    Below THREADED_CV_SIZE (candidates x classes x CV rows) every fold
    trains in one `_descend` call on the calling thread, which raises the
    first error it meets. From that size on they train concurrently, one
    `_descend` call per fold in its own thread, in copies of the caller's
    context (so `np.errstate` and `np.seterrcall` apply inside them), and a
    failure raises the error of the lowest failing fold once every fold has
    ended. Either way every fold is scored on the calling thread, in fold
    order, and the accuracies are reduced in that order. A candidate whose
    model is not finite in some fold cannot be selected, and if none is
    left, ClassifierError is raised. Ties go to the smallest candidate.
    Folds are reduced to the smallest class count when a class is too small.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    grid = sorted(float(c) for c in candidate_grid)
    if not grid:
        raise ClassifierError("empty candidate grid")
    if folds < 2:
        raise ClassifierError("folds must be >= 2")
    n_classes = int(labels.max(initial=0)) + 1
    # checks every fold: the training parts cover every row, each with every class
    _check_fit(features, labels, grid, n_classes)
    counts = np.unique(labels, return_counts=True)[1]
    min_count = int(counts.min())
    if min_count < 2:
        raise ClassifierError("every class needs at least 2 samples for CV")
    folds = min(folds, min_count)
    assignment = _stratified_folds(labels, folds, seed)

    problems = []
    for f in range(folds):
        tr = assignment != f
        cw = _weights(np.bincount(labels[tr], minlength=n_classes), cost_sensitive)
        problems.append((features[tr], *_problem(labels[tr], cw)))
    if len(grid) * n_classes * len(labels) < THREADED_CV_SIZE:
        models = _descend(problems, grid)
    else:
        with ThreadPoolExecutor(max_workers=folds) as executor:
            futures = [executor.submit(contextvars.copy_context().run, _descend, [problem], grid)
                       for problem in problems]
        # result() re-raises a fold's error: read in fold order, the lowest wins
        models = [future.result()[0] for future in futures]

    fold_accs = []
    for f, (weights, biases) in enumerate(models):
        va = assignment == f
        finite = np.isfinite(weights).all(axis=(1, 2)) & np.isfinite(biases).all(axis=1)
        preds = np.argmax(features[va] @ weights.transpose(0, 2, 1) + biases[:, None, :], axis=2)
        fold_accs.append(np.where(finite, np.mean(preds == labels[va], axis=1), np.nan))
    fold_accs = np.stack(fold_accs, axis=1)
    # a candidate that is not finite in some fold has a NaN mean: never selected
    mean_accs = np.nan_to_num(fold_accs.mean(axis=1), nan=-1.0)
    if mean_accs.max() < 0:
        raise ClassifierError("every candidate regularization diverged")
    # argmax takes the first maximum: ties go to the smallest candidate
    return grid[int(np.argmax(mean_accs))]


def fit(space, rows, cost_sensitive: bool, seed: int) -> Model:
    """Train from scratch on `rows` of `space`, in order, with freshly CV'd regularization.

    Classes with fewer than 2 samples cannot be stratified, so CV runs on the
    remaining classes; if fewer than 2 classes qualify, FALLBACK_REG is used.
    """
    features, labels = space.features[rows], space.labels[rows]
    counts = np.bincount(labels, minlength=space.n_classes)
    cv_ok = counts[labels] >= 2
    if np.count_nonzero(counts >= 2) >= 2:
        reg = select_reg_param(features[cv_ok], labels[cv_ok], DEFAULT_REG_GRID,
                               folds=3, seed=seed, cost_sensitive=cost_sensitive)
    else:
        reg = FALLBACK_REG
    return train(features, labels, _weights(counts, cost_sensitive), reg)


def decision_values(model: Model, features) -> np.ndarray:
    """Per-class decision values of each row of `features`.

    The product with the weights runs over `_row_blocks`, one GEMM each.
    Up to 512 dims x 10 classes no call is large enough for OpenBLAS to
    split over threads, so there the values do not depend on the thread
    count. They agree with one whole product within rounding, not always
    bit for bit."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != model.dim:
        raise ClassifierError(
            f"feature dim {features.shape[1]} does not match model dim {model.dim}")
    dv = np.empty((len(features), model.n_classes))
    for rows in _row_blocks(len(features), model.dim * model.n_classes):
        np.matmul(features[rows], model.weights.T, out=dv[rows])
    dv += model.biases
    return dv


def predict_proba(model: Model, features) -> ProbMatrix:
    """Softmax over the decision values of each row of `features`; rows sum
    to 1 within 1e-6. The softmax runs in place on the decision values."""
    probs = decision_values(model, features)
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
