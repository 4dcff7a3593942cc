"""Embedding datasets: CSV I/O, synthetic generation, imbalance tooling.

A dataset is a dense feature matrix with one integer class label per row,
its rows in strictly ascending sample-id order, so `rows_for` is one binary
search. Sample ids are stable: every derivation (`subset`, a split, an
imbalanced draw) picks rows, by position or by mask, and keeps their ids, so
selections made on a derived dataset can be traced back to the source rows.
"""

from __future__ import annotations

import dataclasses
from array import array

import numpy as np

__all__ = [
    "Dataset",
    "DatasetError",
    "load_dataset",
    "write_dataset",
    "make_synthetic",
    "train_test_split",
    "standardize",
    "imbalance_ratio",
    "induce_imbalance",
]


class DatasetError(ValueError):
    """Raised for malformed dataset files or invalid dataset parameters."""


@dataclasses.dataclass(frozen=True)
class Dataset:
    """Immutable feature/label container.

    features: (n_samples, dim) float64, all finite
    labels: (n_samples,) int64 in [0, n_classes)
    sample_ids: (n_samples,) int64, strictly ascending, preserved by subsetting
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    sample_ids: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        ids = np.asarray(self.sample_ids, dtype=np.int64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sample_ids", ids)
        if feats.ndim != 2 or feats.shape[1] < 1:
            raise DatasetError("features must be a 2-D matrix with dim >= 1")
        if not np.all(np.isfinite(feats)):
            raise DatasetError("features contain non-finite values")
        if self.n_classes < 2:
            raise DatasetError("n_classes must be >= 2")
        if labels.shape != (feats.shape[0],):
            raise DatasetError("labels must align with feature rows")
        if feats.shape[0] < self.n_classes:
            raise DatasetError("need at least n_classes samples")
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.n_classes:
            raise DatasetError("labels must lie in [0, n_classes)")
        if ids.shape != (feats.shape[0],):
            raise DatasetError("sample_ids must align with feature rows")
        if np.any(ids[1:] <= ids[:-1]):
            raise DatasetError("sample_ids must be strictly ascending")
        feats.setflags(write=False)
        labels.setflags(write=False)
        ids.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def rows_for(self, sample_ids) -> np.ndarray:
        """Row positions of the given sample ids, in request order; the error
        names the first unknown id in request order."""
        wanted = np.asarray(sample_ids, dtype=np.int64).ravel()
        rows = np.searchsorted(self.sample_ids, wanted)
        found = self.sample_ids[np.minimum(rows, self.n_samples - 1)] == wanted
        if not found.all():
            raise DatasetError(f"unknown sample_id {int(wanted[np.argmin(found)])}")
        return rows

    def subset(self, sample_ids) -> "Dataset":
        """New Dataset of the given ids' rows, in id order whatever the order
        of the request; ids are preserved."""
        return self._take(np.sort(self.rows_for(sample_ids)))

    def _take(self, rows) -> "Dataset":
        """The rows at ascending positions or a boolean mask, with their ids."""
        return Dataset(features=self.features[rows], labels=self.labels[rows],
                       n_classes=self.n_classes, sample_ids=self.sample_ids[rows])

    def class_counts(self) -> np.ndarray:
        """Per-class sample counts, length n_classes."""
        return np.bincount(self.labels, minlength=self.n_classes)


def _check_finite(values, linenos, dim) -> None:
    """Raise the error of the first non-finite whole row of `values`, one per lineno."""
    n = len(linenos)
    finite = np.isfinite(np.frombuffer(values, count=n * dim)).reshape(n, dim).all(axis=1)
    if not finite.all():
        raise DatasetError(f"line {linenos[np.argmin(finite)]}: non-finite feature value")


def load_dataset(path) -> Dataset:
    """Parse a dataset CSV: one `label,f1,...,fd` row per sample, no header.

    Sample ids are assigned 0..n_samples-1 in file order. Malformed rows (a
    byte that is not UTF-8 fails its row's parse) are reported with their 1-based
    line number; of several faults, the one on the earliest line is reported. The
    file, or pipe, is read once into growable buffers that become the arrays.
    """
    labels, linenos, values = array("q"), array("q"), array("d")
    dim = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) < 2:
                    raise DatasetError(f"line {lineno}: expected `label,f1,...`, got {line!r}")
                # int() and float() would also read `_` separators and non-ASCII digits
                plain = "_" not in line and line.isascii()
                try:
                    if not (plain or "_" not in parts[0] and parts[0].isascii()):
                        raise ValueError
                    label = int(parts[0])
                except ValueError:
                    raise DatasetError(
                        f"line {lineno}: label {parts[0]!r} is not an integer") from None
                if label < 0:
                    raise DatasetError(f"line {lineno}: label must be non-negative")
                try:
                    if not plain:
                        raise ValueError
                    values.extend(map(float, parts[1:]))
                except ValueError:
                    raise DatasetError(f"line {lineno}: non-numeric feature value") from None
                if not labels:
                    dim = len(parts) - 1
                elif len(parts) - 1 != dim:
                    if not np.isfinite(values[len(labels) * dim:]).all():
                        raise DatasetError(f"line {lineno}: non-finite feature value")
                    raise DatasetError(
                        f"line {lineno}: expected {dim} features, got {len(parts) - 1}")
                try:
                    labels.append(label)
                except OverflowError:
                    raise DatasetError(
                        f"line {lineno}: label {parts[0]!r} out of range") from None
                linenos.append(lineno)
        except DatasetError:
            # a non-finite value on an earlier line is the earlier fault
            _check_finite(values, linenos, dim)
            raise
    if not labels:
        raise DatasetError("no samples")
    _check_finite(values, linenos, dim)
    return Dataset(
        features=np.frombuffer(values).reshape(len(labels), dim),
        labels=np.frombuffer(labels, dtype=np.int64),
        n_classes=max(labels) + 1,
        sample_ids=np.arange(len(labels), dtype=np.int64),
    )


def write_dataset(dataset: Dataset, path) -> None:
    """Write the CSV form of a dataset (row order = dataset order, LF endings).

    Floats are written with repr precision so load_dataset round-trips
    bit-exactly.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for label, row in zip(dataset.labels, dataset.features):
            fh.write(f"{int(label)}," + ",".join(repr(float(v)) for v in row) + "\n")


def make_synthetic(n_classes: int, per_class: int, dim: int, cluster_std: float,
                   seed: int) -> Dataset:
    """Isotropic Gaussian blobs with class centers uniform in [-1, 1]^dim.

    Deterministic for a fixed seed. Labels are 0..n_classes-1, per_class
    samples each, grouped by class.
    """
    if n_classes < 2:
        raise DatasetError("n_classes must be >= 2")
    if per_class < 1:
        raise DatasetError("per_class must be >= 1")
    if dim < 1:
        raise DatasetError("dim must be >= 1")
    if not cluster_std > 0:
        raise DatasetError("cluster_std must be positive")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, size=(n_classes, dim))
    features = np.repeat(centers, per_class, axis=0)
    features = features + rng.normal(0.0, cluster_std, size=features.shape)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    return Dataset(
        features=features,
        labels=labels,
        n_classes=n_classes,
        sample_ids=np.arange(n_classes * per_class, dtype=np.int64),
    )


def train_test_split(dataset: Dataset, test_fraction: float, seed: int):
    """Stratified split into (train, test); deterministic per seed.

    Each class contributes round(test_fraction * count) samples to the test
    side (at least 1, at most count - 1), so every class needs 2 samples.
    """
    if not 0 < test_fraction < 1:
        raise DatasetError("test_fraction must be in (0, 1)")
    counts = dataset.class_counts()
    if counts.min() < 2:
        raise DatasetError(f"class {np.argmin(counts)} has {counts.min()} sample(s), need 2")
    rng = np.random.default_rng(seed)
    test = np.zeros(dataset.n_samples, dtype=bool)
    for cls in range(dataset.n_classes):
        rows = np.flatnonzero(dataset.labels == cls)
        n_test = int(np.clip(round(test_fraction * len(rows)), 1, len(rows) - 1))
        test[rng.choice(rows, size=n_test, replace=False)] = True
    return dataset._take(~test), dataset._take(test)


def standardize(train: Dataset, test: Dataset):
    """A run's feature space: `(train, test)`, same ids and labels, centred and
    scaled per dimension by the training pool's mean and std (scale 1 for a
    constant dimension). The pool is first shifted by its first row, so a
    constant dimension is exactly 0 whatever rounding its mean takes."""
    mean = train.features[0].copy()
    z = train.features - mean
    centre = z.mean(axis=0)
    z -= centre
    mean += centre
    std = np.sqrt(np.einsum("ij,ij->j", z, z) / len(z))
    scale = np.where(std > 0, std, 1.0)
    z /= scale
    return (Dataset(z, train.labels, train.n_classes, train.sample_ids),
            Dataset((test.features - mean) / scale, test.labels, test.n_classes,
                    test.sample_ids))


def imbalance_ratio(counts) -> float:
    """Population std of per-class counts divided by their mean."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0 or np.any(counts < 0):
        raise DatasetError("counts must be non-negative and non-empty")
    mean = counts.mean()
    if mean <= 0:
        raise DatasetError("zero mean: no samples")
    return float(counts.std() / mean)


def _profile_counts(slope: float, cap: int, avail: np.ndarray,
                    min_per_class: int) -> np.ndarray:
    """Linear descending count profile, clipped to [min_per_class, avail]."""
    raw = np.rint(cap - slope * np.arange(len(avail), dtype=np.float64))
    return np.clip(raw, min_per_class, avail).astype(np.int64)


def induce_imbalance(dataset: Dataset, target_ir: float, min_per_class: int,
                     seed: int) -> Dataset:
    """Subsample a (near-)balanced dataset to a target imbalance ratio.

    Per-class counts follow a linear profile over a random class permutation;
    the slope is solved by bisection so the achieved ratio lands within 0.02
    of the target. Samples inside each class are drawn uniformly without
    replacement.
    """
    if min_per_class < 1:
        raise DatasetError("min_per_class must be >= 1")
    if not target_ir >= 0:  # NaN fails every comparison
        raise DatasetError("target_ir must be non-negative")
    rng = np.random.default_rng(seed)
    avail_by_class = dataset.class_counts()
    if np.any(avail_by_class < min_per_class):
        raise DatasetError("some class has fewer than min_per_class samples")
    perm = rng.permutation(dataset.n_classes)
    avail = avail_by_class[perm].astype(np.int64)
    cap = int(avail.min())

    # ir(slope) is monotone non-decreasing: bisect the slope, 50 iterations.
    lo, hi = 0.0, float(cap)
    if imbalance_ratio(_profile_counts(hi, cap, avail, min_per_class)) < target_ir - 0.02:
        raise DatasetError(
            f"target_ir {target_ir} unattainable with min_per_class {min_per_class}")
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if imbalance_ratio(_profile_counts(mid, cap, avail, min_per_class)) < target_ir:
            lo = mid
        else:
            hi = mid
    counts = _profile_counts(hi, cap, avail, min_per_class)
    achieved = imbalance_ratio(counts)
    if abs(achieved - target_ir) > 0.02:
        raise DatasetError(
            f"achieved ir {achieved:.4f} misses target {target_ir} by more than 0.02")

    keep = np.zeros(dataset.n_samples, dtype=bool)
    for pos, cls in enumerate(perm):
        rows = np.flatnonzero(dataset.labels == cls)
        keep[rng.choice(rows, size=int(counts[pos]), replace=False)] = True
    return dataset._take(keep)
