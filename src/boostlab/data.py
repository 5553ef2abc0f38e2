"""Dataset construction: synthetic imbalanced Gaussian blobs, a labeled-CSV
loader, per-feature normalization statistics, and long-tail resampling
along a Pareto-shaped count curve.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import numbers
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


def is_number(value, kind=numbers.Real) -> bool:
    """Whether value is a `kind` number (numpy's included) and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_int(value, name: str, minimum: int = 0) -> None:
    """InvalidParameterError naming `name` unless value is an int (numpy's
    included, bool not) of at least `minimum`."""
    if not (is_number(value, numbers.Integral) and value >= minimum):
        raise InvalidParameterError(f"{name} must be an int >= {minimum}, got {value!r}")


def check_real(value, name: str, rule: str, valid) -> None:
    """InvalidParameterError naming `name` and value unless value is a real
    number (numpy's included, bool not) that `valid` accepts, as `rule` says."""
    if not (is_number(value) and valid(value)):
        raise InvalidParameterError(f"{name} must be {rule}, got {value!r}")


def float_array(values, name: str) -> np.ndarray:
    """values as a float64 array, or InvalidParameterError naming `name` unless
    they are ints or floats: the array form of check_real's rule, and the one
    place a numeric array is converted. Ragged rows, text, None, bools, complex
    numbers and ints past 64 bits fail; a float64 array comes back as itself.
    What a non-finite value means is left to the caller."""
    try:
        array = np.asarray(values)
    except ValueError as exc:  # rows of unequal length
        raise InvalidParameterError(f"{name} must be numeric, got ragged rows") from exc
    if array.dtype.kind not in "iuf":
        raise InvalidParameterError(f"{name} must be numeric, got dtype {array.dtype}")
    return array.astype(np.float64, copy=False)


def check_finite(array: np.ndarray, name: str) -> None:
    """InvalidParameterError naming `name` if a value of the float array is
    NaN or infinite."""
    if not np.isfinite(array).all():
        raise InvalidParameterError(f"{name} must be finite")


def class_labels(values, num_classes: int, name: str = "labels") -> np.ndarray:
    """values as an intp array of class indices in [0, num_classes), an int >= 1,
    or InvalidParameterError naming `name`. The one place a label is checked."""
    check_int(num_classes, "num_classes", 1)
    try:
        labels = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} must be integers: {exc}") from exc
    if labels.dtype.kind not in "iu" and (  # integer dtypes skip the float checks
        labels.dtype.kind != "f" or not np.isfinite(labels).all() or (labels % 1).any()
    ):
        raise InvalidParameterError(f"{name} must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise InvalidParameterError(f"{name} must lie in [0, {num_classes})")
    return labels.astype(np.intp, copy=False)


@dataclass
class Dataset:
    """Feature matrix with integer class labels; immutable by convention."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    class_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.labels = class_labels(self.labels, self.num_classes)
        self.features = float_array(self.features, "features")
        if self.features.ndim != 2 or self.labels.shape != self.features.shape[:1]:
            raise InvalidParameterError("features and labels must align")
        if self.num_features < 1:
            raise InvalidParameterError("features need at least one column")
        check_finite(self.features, "features")
        self.class_counts = np.bincount(self.labels, minlength=self.num_classes)

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
    counts = np.asarray(n_per_class)
    if counts.ndim != 1 or counts.size and counts.dtype.kind not in "iu":
        raise InvalidParameterError(f"n_per_class must be a list of ints, got {n_per_class!r}")
    if counts.size == 0 or np.any(counts < 1):
        raise EmptyInputError("every class needs at least one sample")
    check_int(d, "d", 1)
    check_real(separation, "separation", "finite and positive", lambda v: 0 < v < math.inf)
    check_int(seed, "seed")

    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(counts)), counts.astype(np.intp))  # class after class
    centers = _simplex_centers(len(counts), d, separation)
    features = rng.normal(size=(len(labels), d)) + centers[labels]
    return Dataset(features=features, labels=labels, num_classes=len(counts))


def pareto_tail_counts(class_counts, scale: float) -> np.ndarray:
    """Target counts per descending-count rank: the count at rank r follows
    (1 + r) ** -(1 + scale), normalized so rank 0 keeps the anchor (the
    largest class count). scale = 0 is the harshest of the reference
    settings; scale = -1 gives a flat curve, and a scale below it (by more
    than rounding) is rejected."""
    counts = np.asarray(class_counts)
    if counts.ndim != 1 or counts.size == 0 or counts.dtype.kind not in "iu" or counts.min() < 0:
        raise InvalidParameterError(
            f"class_counts must be a non-empty vector of ints >= 0, got {class_counts!r}")
    check_real(scale, "scale", "at least -1", lambda v: v > -1.0 - 1e-12)  # so that NaN fails
    ranks = np.arange(len(counts), dtype=np.float64)
    curve = (1.0 + ranks) ** -(1.0 + scale)
    return np.maximum(1, np.round(int(counts.max()) * curve)).astype(np.intp)


def pareto_resample(dataset: Dataset, scale: float, seed: int) -> Dataset:
    """Reshape class counts onto the tail curve of `pareto_tail_counts`.

    Classes are ranked by count descending; surplus classes are uniformly
    subsampled without replacement, deficit classes uniformly oversampled
    with replacement from their own samples, so every class needs at least
    one sample. A bad scale or seed is rejected whatever the dataset.
    """
    targets = pareto_tail_counts(dataset.class_counts, scale)
    check_int(seed, "seed")
    if dataset.n == 0:
        raise EmptyInputError("dataset is empty")
    if dataset.num_classes == 1:
        return dataset
    empty = np.flatnonzero(dataset.class_counts == 0)
    if empty.size:
        raise InsufficientDataError(f"class {int(empty[0])} has no samples to resample from")

    rng = np.random.default_rng(seed)
    order = np.argsort(-dataset.class_counts, kind="stable")  # classes by rank

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

    Constant columns, every column of a one-sample split among them, get
    std 1 so downstream division stays defined.
    """
    if train.n == 0:
        raise InsufficientDataError("need at least 1 sample to compute std")
    with np.errstate(over="ignore"):  # reported below as a typed error
        std = train.features.std(axis=0)
    if not np.isfinite(std).all():
        raise NumericOverflowError("feature std overflows float64; rescale the features")
    zero = std == 0
    if np.any(zero):
        log.warning(
            "constant feature column(s) %s: std replaced by 1", np.flatnonzero(zero).tolist()
        )
        std[zero] = 1.0
    return std


def train_test_split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split into (train, test)."""
    check_real(test_fraction, "test_fraction", "in (0, 1)", lambda v: 0 < v < 1)
    check_int(seed, "seed")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    n_test = max(1, int(round(dataset.n * test_fraction)))
    if n_test >= dataset.n:
        raise InsufficientDataError(
            f"{dataset.n} sample(s) cannot fill both a train and a test split"
        )
    return tuple(
        Dataset(dataset.features[idx], dataset.labels[idx], dataset.num_classes)
        for idx in (perm[n_test:], perm[:n_test])
    )


def load_csv(path, label_column: str) -> Dataset:
    """Read a labeled dataset: header row, one label column, the remaining
    columns finite numeric features. Labels are assigned class indices in
    numeric order when every label is an integer, lexicographic otherwise.
    A leading UTF-8 byte-order mark, as Excel writes, is skipped."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise CsvParseError(f"{path}: file is empty")
            if label_column not in header:
                raise CsvParseError(f"{path}: no column named {label_column!r}")
            if header.count(label_column) > 1:  # the second would be read as a feature
                raise CsvParseError(f"{path}: more than one column named {label_column!r}")
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


CHUNK_FIELDS = 1 << 13  # fields formatted at a time, so memory stays per chunk


def csv_fields(column: np.ndarray) -> list[str]:
    """The text write_csv writes for each value of a numeric column: its
    repr, which is an int's digits and a float's shortest round-trip form."""
    return list(map(repr, column.tolist()))


def write_csv(path, header, blocks) -> None:
    """The one CSV format boostlab writes: comma-delimited, a header row
    quoted as the csv module quotes it, "\\n" line ends. `blocks` yields
    lists of equal-length columns, whose rows are written block after block.
    A column is a numpy array, written by csv_fields, or a list holding each
    field's text (csv_fields' output, or words that need no quoting)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for columns in blocks:
            step = max(1, CHUNK_FIELDS // len(columns))
            for start in range(0, len(columns[0]), step):
                fields = [c[start:start + step] for c in columns]
                fields = [c if isinstance(c, list) else csv_fields(c) for c in fields]
                fh.write("\n".join(map(",".join, zip(*fields, strict=True))))
                fh.write("\n")


def save_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Inverse of load_csv for integer-labeled datasets; features are
    written in shortest round-trip form so a round trip is exact."""
    header = [f"feature_{j}" for j in range(dataset.num_features)] + [label_column]
    write_csv(path, header, [[*dataset.features.T, dataset.labels]])
