"""Dataset construction: synthetic imbalanced Gaussian blobs, a labeled-CSV
loader, per-feature normalization statistics, and long-tail resampling
along a Pareto-shaped count curve.
"""

from __future__ import annotations

import csv
import json
import logging
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CsvParseError,
    EmptyInputError,
    InsufficientDataError,
    InvalidParameterError,
    NumericOverflowError,
)

log = logging.getLogger(__name__)


@dataclass
class Dataset:
    """Feature matrix with integer class labels; immutable by convention."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    feature_std: np.ndarray = None
    class_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise InvalidParameterError("features and labels must align")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise InvalidParameterError("labels out of range")
        self.class_counts = np.bincount(self.labels, minlength=self.num_classes)
        if self.feature_std is None:
            if self.n >= 2:
                self.feature_std = compute_feature_std(self)
            else:
                self.feature_std = np.ones(self.num_features)
        else:
            self.feature_std = np.asarray(self.feature_std, dtype=np.float64)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def _simplex_centers(num_classes: int, dim: int, separation: float) -> np.ndarray:
    """Class centers on a regular simplex with pairwise distance `separation`.

    Built by projecting the standard-basis vertices onto the complement of
    the all-ones direction. When dim is smaller than num_classes - 1 the
    simplex coordinates are truncated, so pairwise distances are only
    approximately equal.
    """
    k = num_classes
    if k == 1:
        return np.zeros((1, dim))
    centered = np.eye(k) - 1.0 / k
    basis = np.zeros((k, k))
    basis[:, 0] = 1.0
    basis[:, 1:] = np.eye(k)[:, : k - 1]
    q, _ = np.linalg.qr(basis)
    coords = centered @ q[:, 1:]  # [k x (k-1)], pairwise distance sqrt(2)
    coords *= separation / np.sqrt(2.0)
    centers = np.zeros((k, dim))
    m = min(dim, k - 1)
    centers[:, :m] = coords[:, :m]
    return centers


def make_blobs(n_per_class, d: int, separation: float, seed: int) -> Dataset:
    """Isotropic unit-variance Gaussian blobs, one per class, centered on a
    scaled simplex so pairwise class geometry is uniform."""
    counts = np.asarray(n_per_class, dtype=np.intp)
    if counts.size == 0 or np.any(counts < 1):
        raise EmptyInputError("every class needs at least one sample")
    if d < 1 or separation <= 0:
        raise InvalidParameterError("d must be >= 1 and separation positive")

    rng = np.random.default_rng(seed)
    centers = _simplex_centers(len(counts), d, separation)
    features = []
    labels = []
    for cls, count in enumerate(counts):
        features.append(rng.normal(size=(count, d)) + centers[cls])
        labels.append(np.full(count, cls, dtype=np.intp))
    return Dataset(
        features=np.vstack(features),
        labels=np.concatenate(labels),
        num_classes=len(counts),
    )


@dataclass
class ParetoTailSpec:
    """Shape of the long-tail count curve.

    Target count at rank r follows (1 + r) ** -(1 + scale), normalized so
    rank 0 keeps the anchor (the largest class count). scale = 0 is the
    harshest of the reference settings; scale = -1 gives a flat curve.
    """

    scale: float
    rng_seed: int = 0

    def __post_init__(self):
        if not self.scale > -1.0 - 1e-12:  # written so that NaN fails
            raise InvalidParameterError(f"pareto scale must be at least -1, got {self.scale}")


def pareto_tail_counts(class_counts: np.ndarray, spec: ParetoTailSpec) -> np.ndarray:
    """Target counts per descending-count rank, anchor preserved at rank 0."""
    anchor = int(np.max(class_counts))
    ranks = np.arange(len(class_counts), dtype=np.float64)
    curve = (1.0 + ranks) ** -(1.0 + spec.scale)
    return np.maximum(1, np.round(anchor * curve)).astype(np.intp)


def pareto_resample(dataset: Dataset, spec: ParetoTailSpec) -> Dataset:
    """Reshape class counts onto the tail curve.

    Classes are ranked by count descending; surplus classes are uniformly
    subsampled without replacement, deficit classes uniformly oversampled
    with replacement from their own samples, so every class needs at least
    one sample.
    """
    if dataset.n == 0:
        raise EmptyInputError("dataset is empty")
    if dataset.num_classes == 1:
        return dataset
    empty = np.flatnonzero(dataset.class_counts == 0)
    if empty.size:
        raise InsufficientDataError(f"class {int(empty[0])} has no samples to resample from")

    rng = np.random.default_rng(spec.rng_seed)
    order = np.argsort(-dataset.class_counts, kind="stable")  # classes by rank
    targets = pareto_tail_counts(dataset.class_counts, spec)

    chosen = []
    for rank, cls in enumerate(order):
        idx = np.flatnonzero(dataset.labels == cls)
        target = int(targets[rank])
        if target <= len(idx):
            picked = rng.choice(idx, size=target, replace=False)
        else:
            picked = np.concatenate([idx, rng.choice(idx, size=target - len(idx), replace=True)])
        chosen.append(picked)
    chosen = np.concatenate(chosen)

    return Dataset(
        features=dataset.features[chosen],
        labels=dataset.labels[chosen],
        num_classes=dataset.num_classes,
    )


def compute_feature_std(train: Dataset) -> np.ndarray:
    """Per-feature population standard deviation of the training split.

    Constant columns get std 1 so downstream division stays defined.
    """
    if train.n < 2:
        raise InsufficientDataError("need at least 2 samples to compute std")
    with np.errstate(over="ignore"):  # reported below as a typed error
        std = train.features.std(axis=0)
    if not np.isfinite(std).all():
        raise NumericOverflowError("feature std overflows float64; rescale the features")
    zero = std == 0
    if np.any(zero):
        log.warning(
            "constant feature column(s) %s: std replaced by 1", np.flatnonzero(zero).tolist()
        )
        std = std.copy()
        std[zero] = 1.0
    return std


def train_test_split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split; both halves carry the train half's feature std."""
    if not 0 < test_fraction < 1:
        raise InvalidParameterError("test_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    n_test = max(1, int(round(dataset.n * test_fraction)))
    if n_test >= dataset.n:
        raise InsufficientDataError(
            f"{dataset.n} sample(s) cannot fill both a train and a test split"
        )
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    train = Dataset(
        features=dataset.features[train_idx],
        labels=dataset.labels[train_idx],
        num_classes=dataset.num_classes,
    )
    test = Dataset(
        features=dataset.features[test_idx],
        labels=dataset.labels[test_idx],
        num_classes=dataset.num_classes,
        feature_std=train.feature_std,
    )
    return train, test


def load_csv(path, label_column: str) -> Dataset:
    """Read a labeled dataset: header row, one label column, the remaining
    columns finite numeric features. Labels are assigned class indices in
    numeric order when every label is an integer, lexicographic otherwise."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise CsvParseError(f"{path}: file is empty")
            if label_column not in header:
                raise CsvParseError(f"{path}: no column named {label_column!r}")
            if len(header) == 1:
                raise CsvParseError(f"{path}: no feature column besides {label_column!r}")
            label_idx = header.index(label_column)

            values = array("d")  # every feature, row after row
            raw_labels = []
            for row_num, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise CsvParseError(
                        f"{path}: row {row_num}: expected {len(header)} fields, got {len(row)}"
                    )
                label = row.pop(label_idx)
                try:
                    values.extend(map(float, row))
                except ValueError as exc:
                    raise CsvParseError(
                        f"{path}: row {row_num}: non-numeric feature: {exc}"
                    ) from exc
                raw_labels.append(label)
    except (UnicodeDecodeError, csv.Error) as exc:  # bytes that are not UTF-8; an oversized field
        raise CsvParseError(f"{path}: not a readable CSV file: {exc}") from exc

    if not raw_labels:
        raise CsvParseError(f"{path}: no data rows")
    features = np.frombuffer(values, dtype=np.float64).reshape(len(raw_labels), len(header) - 1)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        row_num = int(np.argmin(finite)) + 2
        raise CsvParseError(f"{path}: row {row_num}: non-finite feature")
    try:
        # the tie-break keeps the order deterministic for "3" vs "03"
        classes = sorted(set(raw_labels), key=lambda name: (int(name), name))
    except ValueError:
        classes = sorted(set(raw_labels))
    mapping = {name: i for i, name in enumerate(classes)}
    return Dataset(
        features=features,
        labels=np.array([mapping[v] for v in raw_labels], dtype=np.intp),
        num_classes=len(classes),
    )


def read_json(path):
    """The JSON document in a file; malformed JSON raises a typed error
    naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise InvalidParameterError(f"{path}: not valid JSON: {exc}") from exc


def write_csv(path, header, rows) -> None:
    """The one CSV format boostlab writes: comma-delimited, a header row,
    "\\n" line ends. Floats are written by str, which is their shortest
    round-trip form, and None as an empty field."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Inverse of load_csv for integer-labeled datasets; features are
    written in shortest round-trip form so a round trip is exact."""
    header = [f"feature_{j}" for j in range(dataset.num_features)] + [label_column]
    rows = ([*x.tolist(), y] for x, y in zip(dataset.features, dataset.labels.tolist()))
    write_csv(path, header, rows)
