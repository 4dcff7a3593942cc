"""Iterative pool-based active learning protocol.

A run starts from a random seed batch, then alternates selection (per the
chosen acquisition function), simulated labeling (labels come from the
training dataset itself), and from-scratch retraining by `classifier.fit`. A
step scores the pool only if its rule reads scores (random and coreset do
not), and keeps that model's margins and pseudo classes for the next step's
cross-iteration score and its diversified variant.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import acquisition, classifier
from .classifier import Model
from .dataset import Dataset, imbalance_ratio
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
    """Labeled/unlabeled partition, plus the margins and pseudo classes of the
    model that picked the last batch, aligned with `unlabeled_ids`: None after
    a `random` or `coreset` step, which scores nothing, so an alamp step from
    there selects as margin."""

    labeled_ids: np.ndarray    # in labeling order
    unlabeled_ids: np.ndarray  # strictly ascending
    iteration: int
    prev_margins: np.ndarray | None = None
    prev_pseudo: np.ndarray | None = None

    def __post_init__(self):
        # selection breaks ties by position in the unlabeled pool, which is
        # the id order only while the pool is ascending
        ids = np.asarray(self.unlabeled_ids)
        if np.any(ids[1:] <= ids[:-1]):
            raise EngineError("unlabeled_ids must be strictly ascending")
        if (self.prev_margins is None) != (self.prev_pseudo is None):
            raise EngineError("prev_margins and prev_pseudo must be set together")
        for name in ("prev_margins", "prev_pseudo"):
            value = getattr(self, name)
            if value is not None and np.shape(value) != (len(ids),):
                raise EngineError(f"{name} must hold one entry per unlabeled id")


def _step_seed(seed: int, k: int) -> int:
    """Deterministic per-iteration child seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _record(k: int, pool: Dataset, selected: np.ndarray) -> IterationRecord:
    """Record of iteration k whose labeled pool is `pool`; the caller, which
    owns the test set, fills in accuracy."""
    counts = pool.class_counts()
    return IterationRecord(iteration=k, labeled_count=pool.n_samples, accuracy=float("nan"),
                           class_counts=tuple(counts.tolist()), ir=imbalance_ratio(counts),
                           selected_ids=tuple(selected.tolist()))


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
        labeled = acquisition.random_select(train.sample_ids, plan.batch,
                                            seed + attempt)
        pool = train.subset(labeled)
        if len(np.unique(pool.labels)) >= 2:
            break
    else:
        raise EngineError("initial batch covered fewer than 2 classes in 10 draws")
    unlabeled = np.setdiff1d(train.sample_ids, labeled)
    model = classifier.fit(pool, cost_sensitive, _step_seed(seed, 0))
    state = PoolState(labeled_ids=labeled, unlabeled_ids=unlabeled, iteration=0)
    return state, model, _record(0, pool, labeled)


def _select(state: PoolState, model: Model, af: str, train: Dataset, batch: int,
            seed: int):
    """Pick the next batch of sample ids per the acquisition function; also
    returns the current model's margins and pseudo classes, or None for both
    if the rule reads no scores.

    Every per-sample array here, the state's included, is aligned with
    `state.unlabeled_ids`. The coreset and scored rules pick positions in it
    and map them to ids on return (random draws ids). The pool is ascending,
    so a tie broken to the lowest position goes to the lowest id.
    """
    unlabeled = state.unlabeled_ids
    if state.prev_margins is None:
        af = FIRST_STEP_RULE.get(af, af)
    if af == "random":
        return acquisition.random_select(unlabeled, batch, seed), None, None

    rows = train.rows_for(unlabeled)
    if af == "coreset":
        # Euclidean distances on the model-standardized features
        picks = acquisition.coreset_select(
            classifier.standardize(model, train.features, rows),
            classifier.standardize(model, train.features, train.rows_for(state.labeled_ids)),
            batch)
        return unlabeled[picks], None, None

    # alamp and alamp-div rank by the shift from the previous model's
    # margins, and alamp-div spreads over its pseudo classes.
    probs = classifier.predict_proba(model, train.features, rows=rows)
    margins, pseudo = acquisition.margin_scores(probs), acquisition.pseudo_classes(probs)
    if af == "rand-div":
        order = np.random.default_rng(seed).permutation(len(unlabeled))
    elif af in ("alamp", "alamp-div"):
        order = np.argsort(-acquisition.alamp_scores(state.prev_margins, margins), kind="stable")
    else:
        order = np.argsort(margins, kind="stable")
    if af in ("margin", "alamp"):
        picks = order[:batch]
    else:
        classes = state.prev_pseudo if af == "alamp-div" else pseudo
        picks = order[acquisition.diversify(classes[order], batch)]
    return unlabeled[picks], margins, pseudo


def step(state: PoolState, model: Model, af: str, train: Dataset, seed: int,
         batch: int, cost_sensitive: bool = True):
    """One protocol iteration: score if the rule reads scores, select, label, retrain.

    Returns the new pool state, the retrained model, and a record of the
    selection (test accuracy is filled in by the caller, which owns the test
    set).
    """
    if af not in AF_NAMES:
        raise EngineError(f"unknown acquisition function {af!r}")
    if batch < 1:
        raise EngineError("batch size must be >= 1")
    if len(state.unlabeled_ids) < batch:
        raise EngineError("unlabeled pool exhausted")
    k = state.iteration + 1
    step_seed = _step_seed(seed, k)
    selected, margins, pseudo = _select(state, model, af, train, batch, step_seed)

    keep = ~np.isin(state.unlabeled_ids, selected)
    if margins is not None:
        margins, pseudo = margins[keep], pseudo[keep]
    new_labeled = np.concatenate([state.labeled_ids, selected])
    new_state = PoolState(labeled_ids=new_labeled, unlabeled_ids=state.unlabeled_ids[keep],
                          iteration=k, prev_margins=margins, prev_pseudo=pseudo)
    pool = train.subset(new_labeled)
    return new_state, classifier.fit(pool, cost_sensitive, step_seed), _record(k, pool, selected)


def run_strategies(train: Dataset, test: Dataset, afs, plan: BudgetPlan,
                   seed: int, cost_sensitive: bool = True,
                   dataset_name: str = "dataset") -> list:
    """Full AL cycle for each strategy in `afs`, one report each, in order.

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
