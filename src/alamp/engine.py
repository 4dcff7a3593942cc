"""Iterative pool-based active learning protocol.

A run standardizes its feature space once, starts from a random seed batch,
then alternates selection (per the chosen acquisition function), simulated
labeling (labels come from the training dataset itself), and from-scratch
retraining by `classifier.fit`, all in rows of that space: ids appear only
in the records. A step scores the space only if its rule reads scores
(random and coreset do not), and keeps every row's margin and pseudo class
for the next step's alamp score and alamp-div.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import acquisition, classifier
from .classifier import Model
from .dataset import Dataset, standardize
from .metrics import IterationRecord, Report, RunMeta

__all__ = [
    "AF_NAMES",
    "BudgetPlan",
    "PoolState",
    "EngineError",
    "init_pool",
    "step",
    "run_strategies",
    "run_experiment",
]

AF_NAMES = ("random", "margin", "coreset", "alamp", "alamp-div", "rand-div", "marg-div")

# With no previous model to compare with, the cross-iteration score has no
# shift to rank by: alamp selects as margin and alamp-div as marg-div.
FIRST_STEP_RULE = {"alamp": "margin", "alamp-div": "marg-div"}


class EngineError(ValueError):
    """Raised for invalid protocol configurations or exhausted pools."""


@dataclasses.dataclass(frozen=True)
class BudgetPlan:
    """Total annotation budget split evenly over t iterations."""

    total_budget: int
    iterations: int

    def __post_init__(self):
        if self.iterations < 1:
            raise EngineError("iterations must be >= 1")
        if self.total_budget % self.iterations != 0:
            raise EngineError(
                f"budget {self.total_budget} not divisible by {self.iterations} iterations")
        if self.total_budget // self.iterations < 1:
            raise EngineError("batch size must be >= 1")

    @property
    def batch(self) -> int:
        return self.total_budget // self.iterations


@dataclasses.dataclass(frozen=True)
class PoolState:
    """Labeled rows of the run's space, plus the margins and pseudo classes
    of the model that picked the last batch, one per row of the space: None
    after a `random` or `coreset` step, which scores nothing, so an alamp
    step from there selects as margin. `step` checks it against the space."""

    labeled: np.ndarray  # rows of the space, in labeling order
    iteration: int
    prev_margins: np.ndarray | None = None
    prev_pseudo: np.ndarray | None = None


def _step_seed(seed: int, k: int) -> int:
    """Deterministic per-iteration child seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _record(k: int, train: Dataset, labeled: np.ndarray, picks: np.ndarray) -> IterationRecord:
    """Record of iteration k, which picked the rows `picks` of `train` and
    labeled `labeled`; the caller, which owns the test set, fills in accuracy."""
    counts = np.bincount(train.labels[labeled], minlength=train.n_classes)
    return IterationRecord(iteration=k, accuracy=float("nan"),
                           class_counts=tuple(counts.tolist()),
                           selected_ids=tuple(train.sample_ids[picks].tolist()))


def init_pool(train: Dataset, plan: BudgetPlan, seed: int,
              cost_sensitive: bool = True):
    """Random seed batch of size b/t plus the initial model trained on it.

    Redraws with an incremented seed (up to 10 attempts) when the draw covers
    fewer than 2 classes. Returns the pool state, the model and iteration 0's
    record, shaped as `step` returns them.
    """
    if plan.total_budget >= train.n_samples:
        raise EngineError("budget must be smaller than the unlabeled pool")
    for attempt in range(10):
        labeled = acquisition.random_select(np.arange(train.n_samples), plan.batch,
                                            seed + attempt)
        if len(np.unique(train.labels[labeled])) >= 2:
            break
    else:
        raise EngineError("initial batch covered fewer than 2 classes in 10 draws")
    model = classifier.fit(train, labeled, cost_sensitive, _step_seed(seed, 0))
    return PoolState(labeled=labeled, iteration=0), model, _record(0, train, labeled, labeled)


def _unlabeled_rows(state: PoolState, n: int) -> np.ndarray:
    """The ascending rows of an n-row space that `state` has not labeled,
    after checking the state against the space."""
    labeled = np.asarray(state.labeled)
    if np.any(labeled < 0) or np.any(labeled >= n):
        raise EngineError(f"labeled rows must lie in [0, {n})")
    mask = np.ones(n, dtype=bool)
    mask[labeled] = False
    unlabeled = np.flatnonzero(mask)
    if len(unlabeled) != n - len(labeled):
        raise EngineError("labeled rows must be distinct")
    if (state.prev_margins is None) != (state.prev_pseudo is None):
        raise EngineError("prev_margins and prev_pseudo must be set together")
    for name in ("prev_margins", "prev_pseudo"):
        value = getattr(state, name)
        if value is not None and np.shape(value) != (n,):
            raise EngineError(f"{name} must hold one entry per row of the space")
    return unlabeled


def _select(state: PoolState, unlabeled: np.ndarray, model: Model, af: str,
            train: Dataset, batch: int, seed: int):
    """Pick the next batch of rows of `train` per the acquisition function;
    also returns the current model's margins and pseudo classes over the
    whole space, or None for both if the rule reads no scores.

    Random and the scored rules pick positions in `unlabeled`, the ascending
    unlabeled rows, and coreset picks rows; a tie broken to the lowest
    position goes to the lowest row, and so to the lowest id.
    """
    if state.prev_margins is None:
        af = FIRST_STEP_RULE.get(af, af)
    if af == "random":
        return acquisition.random_select(unlabeled, batch, seed), None, None
    if af == "coreset":
        return acquisition.coreset_select(train.features, state.labeled, batch), None, None

    # alamp and alamp-div rank by the shift from the previous model's
    # margins, and alamp-div spreads over its pseudo classes.
    probs = classifier.predict_proba(model, train.features).probs
    margins = acquisition.margin_scores(probs)
    pseudo = acquisition.pseudo_classes(probs)
    if af == "rand-div":
        order = np.random.default_rng(seed).permutation(len(unlabeled))
    elif af in ("alamp", "alamp-div"):
        shift = acquisition.alamp_scores(state.prev_margins[unlabeled], margins[unlabeled])
        order = np.argsort(-shift, kind="stable")
    else:
        order = np.argsort(margins[unlabeled], kind="stable")
    if af in ("margin", "alamp"):
        picks = order[:batch]
    else:
        classes = (state.prev_pseudo if af == "alamp-div" else pseudo)[unlabeled]
        picks = order[acquisition.diversify(classes[order], batch)]
    return unlabeled[picks], margins, pseudo


def step(state: PoolState, model: Model, af: str, train: Dataset, seed: int,
         batch: int, cost_sensitive: bool = True):
    """One protocol iteration: score if the rule reads scores, select, label, retrain.

    `train` is the run's feature space, whose labeled rows are retrained on
    in labeling order. Returns the new pool state, the retrained model, and a
    record of the selection (the caller, which owns the test set, fills in
    test accuracy). Raises `EngineError` if `state` does not fit the space.
    """
    if af not in AF_NAMES:
        raise EngineError(f"unknown acquisition function {af!r}")
    if batch < 1:
        raise EngineError("batch size must be >= 1")
    unlabeled = _unlabeled_rows(state, train.n_samples)
    if len(unlabeled) < batch:
        raise EngineError("unlabeled pool exhausted")
    k = state.iteration + 1
    step_seed = _step_seed(seed, k)
    picks, margins, pseudo = _select(state, unlabeled, model, af, train, batch, step_seed)
    labeled = np.concatenate([state.labeled, picks])
    new_state = PoolState(labeled=labeled, iteration=k, prev_margins=margins,
                          prev_pseudo=pseudo)
    return (new_state, classifier.fit(train, labeled, cost_sensitive, step_seed),
            _record(k, train, labeled, picks))


def run_strategies(train: Dataset, test: Dataset, afs, plan: BudgetPlan,
                   seed: int, cost_sensitive: bool = True,
                   dataset_name: str = "dataset") -> list:
    """Full AL cycle for each strategy in `afs`, one report each, in order.

    Every strategy runs in one feature space, built once by `standardize`.
    The seed batch and initial model depend only on the data, plan, seed and
    cost sensitivity, so they are built once and every strategy steps from
    that shared start. So is the first step of each selection rule: with no
    previous model, strategies that `FIRST_STEP_RULE` maps to the same rule
    select the same batch and fit the same model, so that step is computed
    once and kept for any later strategy in `afs` that uses the same rule.
    Each report is byte-identical to a run on its own.
    """
    afs = list(afs)
    for af in afs:
        if af not in AF_NAMES:
            raise EngineError(f"unknown acquisition function {af!r}")
    if train.dim != test.dim or train.n_classes != test.n_classes:
        raise EngineError("train/test dimensionality or class count mismatch")
    train, test = standardize(train, test)

    def tested(result):
        state, model, record = result
        return state, model, dataclasses.replace(record, accuracy=classifier.accuracy(model, test))

    state0, model0, record0 = tested(init_pool(train, plan, seed, cost_sensitive))
    first_steps = {}  # selection rule -> its first step
    reports = []
    for af in afs:
        rule = FIRST_STEP_RULE.get(af, af)
        state, model, records = state0, model0, [record0]
        for k in range(1, plan.iterations):
            if k == 1 and rule in first_steps:
                result = first_steps[rule]
            else:
                result = tested(step(state, model, af, train, seed, plan.batch,
                                     cost_sensitive))
                if k == 1:
                    first_steps[rule] = result
            state, model, record = result
            records.append(record)
        meta = RunMeta(af=af, seed=seed, total_budget=plan.total_budget,
                       iterations=plan.iterations, dataset=dataset_name,
                       cost_sensitive=cost_sensitive)
        reports.append(Report(meta=meta, records=tuple(records)))
    return reports


def run_experiment(train: Dataset, test: Dataset, af: str, plan: BudgetPlan,
                   seed: int, cost_sensitive: bool = True,
                   dataset_name: str = "dataset") -> Report:
    """Full AL cycle: seed batch then t-1 selection/retrain iterations."""
    return run_strategies(train, test, (af,), plan, seed, cost_sensitive, dataset_name)[0]
