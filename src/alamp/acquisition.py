"""Acquisition functions: score and select unlabeled samples for annotation.

Implements random selection, margin uncertainty sampling, greedy k-center
coreset selection (Sener & Savarese's Core-Set baseline, picked by lazy
greedy), the cross-iteration certainty-shift score (alamp), and the
pseudo-class diversification pass used by the *-div strategies.

Every function takes and returns numpy arrays aligned by position:
`margin_scores` and `pseudo_classes` give one value per row of an (n, C)
class-probability array, `alamp_scores` combines two margin arrays of the
same samples in the same order, and `diversify` and `coreset_select` return
positions (in the ranking and in the rows of the feature space). Ties go to
the lowest position; the engine passes rows of a space in ascending id order
and maps rows to ids only in its records, so its ties go to the lowest id,
whatever the platform or thread count.
"""

from __future__ import annotations

import numpy as np

__all__ = [
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


# Centres per block of `coreset_select`'s labeled pass, and rows per block of its norms.
_BLOCK = 2048


def _check_batch(batch: int, size: int) -> None:
    if batch < 1:
        raise AcquisitionError("batch size must be >= 1")
    if batch > size:
        raise AcquisitionError(f"batch {batch} exceeds pool size {size}")


def margin_scores(probs) -> np.ndarray:
    """Top-2 probability gap of each row of the (n, C) array `probs`; the
    smallest is the most uncertain."""
    if probs.shape[1] < 2:
        raise AcquisitionError("margin needs at least 2 classes")
    top2 = np.partition(probs, probs.shape[1] - 2, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0]


def alamp_scores(prev, curr) -> np.ndarray:
    """Relative certainty shift of each sample from its margin under the
    previous model, `prev[i]`, to its margin under the current one, `curr[i]`.

    score = (m_prev - m_curr) / (m_prev + m_curr); 0 when both margins are
    zero. Samples whose prediction moved from certain to uncertain score
    highest.
    """
    prev = np.asarray(prev, dtype=np.float64)
    curr = np.asarray(curr, dtype=np.float64)
    if prev.shape != curr.shape:
        raise AcquisitionError(
            f"previous margins of shape {prev.shape} do not align with current {curr.shape}")
    total = prev + curr
    return np.where(total > 0, (prev - curr) / np.where(total > 0, total, 1.0), 0.0)


def random_select(pool_ids, batch: int, seed: int) -> np.ndarray:
    """Uniform sample without replacement from distinct ids, deterministic
    per seed. The draw picks positions in the sorted pool, so a pool of rows
    and the pool of their ascending ids pick the same samples."""
    pool = np.sort(np.asarray(pool_ids, dtype=np.int64))
    if np.any(pool[1:] == pool[:-1]):
        raise AcquisitionError("pool ids must be distinct")
    _check_batch(batch, len(pool))
    rng = np.random.default_rng(seed)
    return rng.choice(pool, size=batch, replace=False)


def _nearest(features, u_sq, rows, centres) -> np.ndarray:
    """Distance from each of `rows` of `features` to its nearest `centres`
    row (row positions or slices), `u_sq` holding every row's squared norm.

    sqrt(|u|^2 + |c|^2 - 2 u.c), one matrix product; a squared distance
    within the expansion's rounding error, 2 (dim + 2) eps (|u|^2 + |c|^2),
    reads as 0, so coincident points tie exactly."""
    tol = 2.0 * (features.shape[1] + 2) * np.finfo(np.float64).eps
    norms = u_sq[rows, None] + u_sq[centres]
    sq = features[rows] @ features[centres].T
    sq *= -2.0
    sq += norms
    norms *= tol
    sq[sq <= norms] = 0.0
    return np.sqrt(sq.min(axis=1))


def coreset_select(features, labeled, batch: int) -> np.ndarray:
    """Greedy k-center selection (min-max coverage of the feature space).

    Repeatedly picks the row of `features` farthest from its nearest covered
    row (one of the `labeled` row positions, or an earlier pick), and returns
    the picks as row positions; ties go to the lowest position. Labeled rows
    start at -inf, so none is ever picked. Features that are not finite
    (checked on the squared norms, which a NaN or inf row makes non-finite)
    raise AcquisitionError: a NaN distance would steer the picks.

    Distances are read from `features` in place (`_nearest`). The labeled
    rows are measured against the whole space in blocks of 2048 centres
    (len(features) x 2048 temporaries), and the squared norms are summed
    once, 2048 rows at a time, so no temporary is as large as `features`.

    The picks are lazy (Minoux's lazy greedy): each row keeps an upper bound
    on its distance, exact up to the number of picks it was last measured
    against, since a distance to the covered rows only falls as picks are
    added. For each pick the rows with the largest bounds are measured
    against the picks they have not seen, and the best of them (lowest
    position among equals) is taken once it lies strictly above every
    bound left unmeasured; otherwise more rows are measured, up to the whole
    space, which settles exact ties. Every pick is therefore the eager rule's
    argmax, up to the last bits of distances that a product over a few rows
    gives instead of one over the whole space.
    """
    features = np.asarray(features, dtype=np.float64)
    labeled = np.asarray(labeled, dtype=np.int64)
    n = len(features)
    if len(labeled) == 0:
        raise AcquisitionError("coreset needs a non-empty labeled set")
    if labeled.min() < 0 or labeled.max() >= n:
        raise AcquisitionError(f"labeled rows must lie in [0, {n})")
    min_dist = np.full(n, np.inf)
    min_dist[labeled] = -np.inf
    _check_batch(batch, int(np.count_nonzero(min_dist > 0)))

    u_sq = np.empty(n)
    for start in range(0, n, _BLOCK):
        (features[start:start + _BLOCK] ** 2).sum(axis=1, out=u_sq[start:start + _BLOCK])
    if not np.all(np.isfinite(u_sq)):
        raise AcquisitionError("coreset needs finite features")
    for start in range(0, len(labeled), _BLOCK):
        np.minimum(min_dist, _nearest(features, u_sq, slice(None), labeled[start:start + _BLOCK]),
                   out=min_dist)

    picks = np.empty(batch, dtype=np.int64)
    # picks each row's bound has been measured against; covered rows need none
    seen = np.zeros(n, dtype=np.int64)
    seen[labeled] = batch
    for k in range(batch):
        width = 16  # rows measured first; 4x more until the pick is settled
        while True:
            if width < n:
                order = np.argpartition(min_dist, n - width - 1)
                top, rest = np.sort(order[n - width:]), min_dist[order[n - width - 1]]
            else:
                top, rest = np.arange(n), -np.inf
            stale = top[seen[top] < k]
            if len(stale):
                centres = picks[seen[stale].min():k]
                min_dist[stale] = np.minimum(min_dist[stale],
                                             _nearest(features, u_sq, stale, centres))
                seen[stale] = k
            # argmax returns the first (lowest position) max
            pick = int(top[np.argmax(min_dist[top])])
            if min_dist[pick] > rest or width >= n:
                break
            width *= 4
        picks[k] = pick
        min_dist[pick] = -np.inf
        seen[pick] = batch
    return picks


def diversify(ranked_classes, batch: int) -> np.ndarray:
    """Spread a ranked selection across pseudo classes: `ranked_classes[r]` is
    the pseudo class of the sample ranked r, and the result holds ranks.

    Repeated passes over the ranking: within a pass each pseudo class
    contributes at most one new sample. Passes repeat until the batch is
    filled; the result keeps selection order and is truncated to the batch.
    Pass p takes the p-th ranked sample of each class, in ranking order, so
    the selection is a stable sort by (rank within class, position in the
    ranking), cut to the batch.
    """
    classes = np.asarray(ranked_classes)
    _check_batch(batch, len(classes))
    by_class = np.argsort(classes, kind="stable")
    grouped = classes[by_class]
    rank = np.empty(len(classes), dtype=np.int64)
    rank[by_class] = np.arange(len(classes)) - np.searchsorted(grouped, grouped)
    return np.argsort(rank, kind="stable")[:batch]


def pseudo_classes(probs) -> np.ndarray:
    """Predicted class of each row of the (n, C) array `probs` (argmax, ties
    to the lowest class id)."""
    return np.argmax(probs, axis=1)
