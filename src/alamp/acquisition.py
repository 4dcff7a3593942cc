"""Acquisition functions: score and select unlabeled samples for annotation.

Implements random selection, margin uncertainty sampling, greedy k-center
coreset selection, the cross-iteration certainty-shift score (alamp), and the
pseudo-class diversification pass used by the *-div strategies.

Per-sample values are arrays aligned with an id array: `scores[i]` of a
`ScoredPool` and `probs[i]` of a `ProbMatrix` belong to `sample_ids[i]`,
`pseudo_classes` gives one class per `ProbMatrix` row, and `diversify` reads
the pseudo class of `ids[i]` from `classes[i]`; ids are matched by value.

Orderings break ties by ascending sample id, so results are reproducible
across platforms and thread counts. `coreset_select` takes feature matrices,
not ids, and breaks ties by the lowest position in its pool; the engine passes
the unlabeled pool in ascending id order, so those ties go by id too.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .classifier import ProbMatrix
from .dataset import positions

__all__ = [
    "ScoredPool",
    "AcquisitionError",
    "margin_scores",
    "alamp_scores",
    "random_select",
    "coreset_select",
    "diversify",
    "pseudo_classes",
]


class AcquisitionError(ValueError):
    """Raised for invalid acquisition inputs."""


@dataclasses.dataclass(frozen=True)
class ScoredPool:
    """Scores for an unlabeled pool plus the induced selection order.

    `order` is a permutation of sample_ids sorted per the acquisition
    function's direction; equal scores appear in ascending id order.
    """

    sample_ids: np.ndarray
    scores: np.ndarray
    order: np.ndarray

    def top(self, batch: int) -> np.ndarray:
        return self.order[:batch]


# Rows per block of the distance computations in `coreset_select`.
_BLOCK = 2048


def _pool(ids: np.ndarray, scores: np.ndarray, descending: bool) -> ScoredPool:
    key = -scores if descending else scores
    return ScoredPool(sample_ids=ids, scores=scores, order=ids[np.lexsort((ids, key))])


def _positions(ids, wanted, what: str) -> np.ndarray:
    try:
        return positions(ids, wanted)
    except KeyError as exc:
        raise AcquisitionError(f"sample {exc.args[0]} has no {what}") from None


def margin_scores(probs: ProbMatrix) -> ScoredPool:
    """Top-2 probability gap per sample, ordered ascending (uncertain first)."""
    p = probs.probs
    if p.shape[1] < 2:
        raise AcquisitionError("margin needs at least 2 classes")
    top2 = np.partition(p, p.shape[1] - 2, axis=1)[:, -2:]
    scores = top2[:, 1] - top2[:, 0]
    return _pool(probs.sample_ids, scores, descending=False)


def alamp_scores(prev: ScoredPool, curr: ScoredPool) -> ScoredPool:
    """Relative certainty shift between the previous and current model's
    margin pools (`margin_scores`), ordered descending.

    score(x) = (m_prev - m_curr) / (m_prev + m_curr); 0 when both margins are
    zero. Samples whose prediction moved from certain to uncertain rank first.
    Every id of `curr` is scored, and each must have a margin in `prev` (the
    unlabeled pool only shrinks); ids of `prev` outside `curr` are ignored.
    """
    prev_m = prev.scores[_positions(prev.sample_ids, curr.sample_ids,
                                    "previous-iteration margin")]
    total = prev_m + curr.scores
    scores = np.where(total > 0, (prev_m - curr.scores) / np.where(total > 0, total, 1.0), 0.0)
    return _pool(curr.sample_ids, scores, descending=True)


def random_select(pool_ids, batch: int, seed: int) -> np.ndarray:
    """Uniform sample without replacement, deterministic per seed."""
    pool = np.sort(np.asarray(pool_ids, dtype=np.int64))
    if batch > len(pool):
        raise AcquisitionError(f"batch {batch} exceeds pool size {len(pool)}")
    rng = np.random.default_rng(seed)
    return rng.choice(pool, size=batch, replace=False)


def coreset_select(pool, centres, batch: int) -> np.ndarray:
    """Greedy k-center selection (min-max coverage of the feature space).

    `pool` holds the candidate rows and `centres` the covered (labeled) rows,
    in the same feature space. Repeatedly picks the pool row whose distance
    to its nearest covered row (a centre or an earlier pick) is largest, and
    returns the picks as positions into `pool`; ties go to the lowest
    position.

    Distances are sqrt(|u|^2 + |c|^2 - 2 u.c) to the nearest centre c:
    len(pool) x 2048 temporaries per block of centres, len(pool) per pick,
    and the squared norms of the pool are summed 2048 rows at a time, so no
    temporary is as large as `pool`. A squared distance within the
    expansion's rounding error, 2 (dim + 2) eps (|u|^2 + |c|^2), reads as 0,
    so coincident points tie exactly and the tie rule holds for them too.
    """
    pool = np.asarray(pool, dtype=np.float64)
    centres = np.asarray(centres, dtype=np.float64)
    if len(centres) == 0:
        raise AcquisitionError("coreset needs a non-empty labeled set")
    if batch > len(pool):
        raise AcquisitionError(f"batch {batch} exceeds pool size {len(pool)}")

    u_sq = np.empty(len(pool))
    for start in range(0, len(pool), _BLOCK):
        (pool[start:start + _BLOCK] ** 2).sum(axis=1, out=u_sq[start:start + _BLOCK])
    tol = 2.0 * (pool.shape[1] + 2) * np.finfo(np.float64).eps

    def nearest(block):
        norms = u_sq[:, None] + (block ** 2).sum(axis=1)
        sq = pool @ block.T
        sq *= -2.0
        sq += norms
        norms *= tol
        sq[sq <= norms] = 0.0
        return np.sqrt(sq.min(axis=1))

    min_dist = np.full(len(pool), np.inf)
    for start in range(0, len(centres), _BLOCK):
        min_dist = np.minimum(min_dist, nearest(centres[start:start + _BLOCK]))

    picks = []
    for _ in range(batch):
        pick = int(np.argmax(min_dist))  # argmax returns the first (lowest position) max
        picks.append(pick)
        min_dist = np.minimum(min_dist, nearest(pool[pick:pick + 1]))
        min_dist[pick] = -np.inf
    return np.array(picks, dtype=np.int64)


def diversify(ordered_ids, ids, classes, batch: int) -> np.ndarray:
    """Spread a ranked selection across pseudo classes; the pseudo class of
    ids[i] is classes[i], and every ranked id must be among `ids`.

    Repeated passes over the ranking: within a pass each pseudo class
    contributes at most one new sample. Passes repeat until the batch is
    filled; the result keeps selection order and is truncated to the batch.
    Pass p takes the p-th ranked sample of each class, in ranking order, so
    the selection is a stable sort by (rank within class, position in the
    ranking), cut to the batch.
    """
    ordered = np.asarray(ordered_ids, dtype=np.int64)
    if batch > len(ordered):
        raise AcquisitionError(f"batch {batch} exceeds pool size {len(ordered)}")
    if len(np.unique(ordered)) != len(ordered):
        raise AcquisitionError("ranking repeats a sample id")
    classes = np.asarray(classes)[_positions(ids, ordered, "pseudo class")]
    by_class = np.argsort(classes, kind="stable")
    grouped = classes[by_class]
    rank = np.empty(len(ordered), dtype=np.int64)
    rank[by_class] = np.arange(len(ordered)) - np.searchsorted(grouped, grouped)
    return ordered[np.argsort(rank, kind="stable")[:batch]]


def pseudo_classes(probs: ProbMatrix) -> np.ndarray:
    """Predicted class of each row of `probs`, aligned with `probs.sample_ids`
    (argmax, ties to the lowest class id)."""
    return np.argmax(probs.probs, axis=1)
