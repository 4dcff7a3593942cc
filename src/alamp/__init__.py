"""Pool-based active learning simulation over fixed feature embeddings.

Acquisition strategies: random, margin uncertainty, greedy k-center coreset,
the cross-iteration certainty-shift score (alamp), and pseudo-class
diversified variants (alamp-div, rand-div, marg-div), driven by a
deterministic linear one-vs-rest classifier. A run fits, scores and takes
coreset distances in one feature space, built once by `standardize`.

The acquisition functions take and return numpy arrays aligned by position:
`margin_scores(probs)` and `pseudo_classes(probs)` give one value per row of
an (n, C) probability array, `alamp_scores(prev, curr)` combines two aligned
margin arrays, and `diversify(ranked_classes, batch)` and
`coreset_select(features, labeled, batch)` return positions in the ranking
and rows of the space. The engine and the dataset derivations work in rows,
and map rows to ids only in the records and datasets they return.
"""

from .acquisition import (
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
    standardize,
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
