"""Pool-based active learning simulation over fixed feature embeddings.

Acquisition strategies: random, margin uncertainty, greedy k-center coreset,
the cross-iteration certainty-shift score (alamp), and pseudo-class
diversified variants (alamp-div, rand-div, marg-div), driven by a
deterministic linear one-vs-rest classifier.

The acquisition functions take and return arrays aligned with sample ids:
`margin_scores(probs)` and `alamp_scores(prev, curr)` give a `ScoredPool`
whose `scores[i]` belongs to `sample_ids[i]`, `pseudo_classes(probs)` gives
the class of each `probs.sample_ids` entry, and `diversify(ordered_ids, ids,
classes, batch)` reads the pseudo class of `ids[i]` from `classes[i]`.
"""

from .acquisition import (
    ScoredPool,
    alamp_scores,
    coreset_select,
    diversify,
    margin_scores,
    pseudo_classes,
    random_select,
)
from .classifier import (
    Model,
    ProbMatrix,
    accuracy,
    class_weights,
    predict,
    predict_proba,
    select_reg_param,
    train,
)
from .dataset import (
    Dataset,
    DatasetError,
    imbalance_ratio,
    induce_imbalance,
    load_dataset,
    make_synthetic,
    train_test_split,
    write_dataset,
)
from .engine import (
    AF_NAMES,
    BudgetPlan,
    PoolState,
    init_pool,
    run_experiment,
    run_strategies,
    step,
)
from .metrics import (
    IterationRecord,
    Report,
    RunMeta,
    aggregate,
    average_accuracy,
    imbalance_profile,
    read_report,
    samples_to_accuracy,
    write_report,
)

__version__ = "0.1.0"
