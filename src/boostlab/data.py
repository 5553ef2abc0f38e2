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
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    CsvParseError,
    EmptyInputError,
    InputShapeError,
    InsufficientDataError,
    InvalidParameterError,
    NumericOverflowError,
)

log = logging.getLogger(__name__)


def is_number(value, kind=numbers.Real) -> bool:
    """Whether value is a `kind` number (numpy's included) and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check(value, name: str, rule) -> None:
    """InvalidParameterError naming `name` and value unless the test of `rule`,
    a (text, test) pair, accepts value; the test checks the value's type too."""
    if not rule[1](value):
        raise InvalidParameterError(f"{name} must be {rule[0]}, got {value!r}")


# the rules a config key and a function argument share, each written so that NaN fails it
NON_NEGATIVE_INT = ("an int >= 0", lambda v: is_number(v, numbers.Integral) and v >= 0)
POSITIVE_INT = ("an int >= 1", lambda v: is_number(v, numbers.Integral) and v >= 1)
POSITIVE = ("finite and positive", lambda v: is_number(v) and 0 < v < math.inf)
NON_NEGATIVE = ("finite and non-negative", lambda v: is_number(v) and 0 <= v < math.inf)
FRACTION = ("in (0, 1)", lambda v: is_number(v) and 0 < v < 1)
TAIL_SCALE = ("at least -1", lambda v: is_number(v) and v > -1.0 - 1e-12)


def one_of(choices: tuple) -> tuple:
    """The rule of a value that must be one of the strings `choices`."""
    return f"one of {choices}", lambda v: isinstance(v, str) and v in choices


def _check_shape(array: np.ndarray, shape: tuple, name: str) -> None:
    """InputShapeError naming `name` unless the array has `shape`, a tuple of
    lengths in which None (printed `*`) matches any length of one or more,
    and EmptyInputError if such an axis has none: the one shape and emptiness
    rule. A loop, not any(), as it runs several times per training step."""
    if array.ndim == len(shape):
        for want, got in zip(shape, array.shape):
            if want is None:
                if not got:
                    raise EmptyInputError(f"{name} must not be empty, got shape {array.shape}")
            elif want != got:
                break
        else:
            return
    raise InputShapeError(
        f"{name} must have shape {repr(shape).replace('None', '*')}, got {array.shape}")


def float_array(values, name: str, shape: tuple | None = None) -> np.ndarray:
    """values as a finite float64 array, or InvalidParameterError naming `name`
    unless they are ints or floats: the array form of the real-number rules, and
    the one place a numeric array is converted. Ragged rows, text, None, bools,
    complex numbers and ints past 64 bits fail; a float64 array comes back as
    itself. Given `shape`, an array of another shape, or with no entries along
    a `*` axis, fails _check_shape. Last, a NaN or an infinity fails: the one
    finiteness rule, so none spreads through a run."""
    try:
        array = np.asarray(values)
    except ValueError as exc:  # rows of unequal length
        raise InvalidParameterError(f"{name} must be numeric, got ragged rows") from exc
    if array.dtype.kind not in "iuf":
        raise InvalidParameterError(f"{name} must be numeric, got dtype {array.dtype}")
    if shape is not None:
        _check_shape(array, shape, name)
    array = array.astype(np.float64, copy=False)
    if not np.isfinite(array).all():
        raise InvalidParameterError(f"{name} must be finite")
    return array


def class_labels(values, num_classes: int, name: str = "labels", shape=(None,)) -> np.ndarray:
    """values as an intp array of class indices in [0, num_classes), an int >= 1,
    or InvalidParameterError naming `name`; an array not of `shape`, a non-empty
    vector by default, fails _check_shape. The one place a label is checked."""
    check(num_classes, "num_classes", POSITIVE_INT)
    try:
        labels = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} must be integers: {exc}") from exc
    if labels.dtype.kind not in "iu" and (  # integer dtypes skip the float checks
        labels.dtype.kind != "f" or not np.isfinite(labels).all() or (labels % 1).any()
    ):
        raise InvalidParameterError(f"{name} must be integers")
    _check_shape(labels, shape, name)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise InvalidParameterError(f"{name} must lie in [0, {num_classes})")
    return labels.astype(np.intp, copy=False)


def _count_vector(values, name: str, least: int) -> np.ndarray:
    """values as a non-empty vector of ints >= least, or InvalidParameterError
    naming `name` (ragged rows and non-integer dtypes fail); an array not of
    shape (*,) fails _check_shape. The one conversion of a list of counts."""
    try:
        counts = np.asarray(values)
    except ValueError as exc:  # rows of unequal length
        raise InvalidParameterError(f"{name} must be ints >= {least}, got ragged rows") from exc
    _check_shape(counts, (None,), name)
    if counts.dtype.kind not in "iu" or counts.min() < least:
        raise InvalidParameterError(f"{name} must be ints >= {least}, got {values!r}")
    return counts


@dataclass
class Dataset:
    """Feature matrix with integer class labels; immutable by convention."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    class_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.labels = class_labels(self.labels, self.num_classes)
        self.features = float_array(self.features, "features", (self.n, None))
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
    the all-ones direction. At dim >= num_classes - 1 every pairwise
    distance is `separation`. Below that the simplex coordinates are
    truncated to the first dim, so distances differ and classes can share a
    center: (3, 1, 3.0) puts classes 1 and 2 on one point, (4, 2, 3.0)
    classes 2 and 3.
    """
    k = num_classes
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
    scaled simplex: at d >= the class count - 1 every pair of centers is
    `separation` apart; at a smaller d some pairs are closer and some share
    a center (see _simplex_centers)."""
    counts = _count_vector(n_per_class, "n_per_class", 1)
    check(d, "d", POSITIVE_INT)
    check(separation, "separation", POSITIVE)
    check(seed, "seed", NON_NEGATIVE_INT)

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
    counts = _count_vector(class_counts, "class_counts", 0)
    check(scale, "scale", TAIL_SCALE)
    ranks = np.arange(len(counts), dtype=np.float64)
    curve = (1.0 + ranks) ** -(1.0 + scale)
    return np.maximum(1, np.round(int(counts.max()) * curve)).astype(np.intp)


def pareto_resample(dataset: Dataset, scale: float, seed: int) -> Dataset:
    """Reshape class counts onto the tail curve of `pareto_tail_counts`.

    Classes are ranked by count descending; surplus classes are uniformly
    subsampled without replacement, deficit classes uniformly oversampled
    with replacement from their own samples. A class with no samples ranks
    last and stays empty, so every other class keeps its target and draws.
    A bad scale or seed is rejected whatever the dataset.
    """
    targets = pareto_tail_counts(dataset.class_counts, scale)
    check(seed, "seed", NON_NEGATIVE_INT)
    if dataset.num_classes == 1:
        return dataset

    rng = np.random.default_rng(seed)
    order = np.argsort(-dataset.class_counts, kind="stable")  # classes by rank

    chosen = []
    for rank, cls in enumerate(order):
        idx = np.flatnonzero(dataset.labels == cls)
        target = int(targets[rank]) if idx.size else 0  # nothing to draw from
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
    check(test_fraction, "test_fraction", FRACTION)
    check(seed, "seed", NON_NEGATIVE_INT)
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


# for np.loadtxt; encoding None hands converters text, not numpy 1's latin-1 bytes
CSV_DIALECT = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 2, "encoding": None}


def _csv_lines(fh, fields: int, stop: list):
    """fh's remaining lines, in lists of about 64 KiB, up to the first that
    np.loadtxt reads and csv.reader rejects: a blank line, which loadtxt
    skips, or a field of more than csv.field_size_limit() characters, which
    loadtxt parses. A field is measured within its line and without quotes,
    so load_csv measures each label whole. That line's fault, under a header
    of `fields` fields, goes into `stop`."""
    limit = csv.field_size_limit()
    while lines := fh.readlines(1 << 16):
        if "\n" in lines or "\r\n" in lines or "\r" in lines or max(map(len, lines)) > limit:
            for i, line in enumerate(lines):  # only in a chunk that holds such a line
                if line in ("\n", "\r\n", "\r"):
                    stop.append(f"expected {fields} fields, got 0")
                elif len(line) > limit and max(map(len, line.replace('"', "").split(","))) > limit:
                    stop.append(f"field larger than field limit ({limit})")
                if stop:
                    yield lines[:i]
                    return
        yield lines


def _loadtxt_fault(message: str, first: list, fields: int) -> tuple[int, str] | None:
    """The (row, fault) behind np.loadtxt's ValueError `message`, if it is in
    a row, for a body whose first lines are `first` under a header of
    `fields` fields. loadtxt takes the first row's width as given, so a wrong
    one is the fault, as csv.reader met it first. Past it, loadtxt counts
    data records from 0 in a conversion error and from 1 in a column-count
    error, where load_csv counts rows from 2, after the header."""
    width = np.loadtxt(first, dtype=str, max_rows=1, **CSV_DIALECT).shape[1]
    if width != fields:
        return 2, f"expected {fields} fields, got {width}"
    if match := re.fullmatch(r"(could not convert .*) to float64 at row (\d+), column \d+\.",
                             message, re.S):
        return int(match[2]) + 2, f"non-numeric feature: {match[1]}"
    if match := re.match(r"the number of columns changed from \d+ to (\d+) at row (\d+)", message):
        return int(match[2]) + 1, f"expected {fields} fields, got {match[1]}"
    return None


def load_csv(path, label_column: str) -> Dataset:
    """Read a labeled dataset: header row, one label column, the remaining
    columns finite numeric features. Labels are assigned class indices in
    numeric order when every label is an integer, lexicographic otherwise.

    The dialect is csv's default: comma-delimited; a field quoted with `"`
    may hold commas, line ends and doubled quotes; lines end in "\\n" or
    "\\r\\n", the last one optionally. A leading UTF-8 byte-order mark, as
    Excel writes, is skipped. An error names its row, counting records, not
    lines, with the header as row 1; a blank line is a row of no fields. The
    body is read by one np.loadtxt call, which codes labels as they come,
    after a count of the file's line ends sizes its table: a pipe, which
    cannot be read twice, is rejected. Known limit: a quoted field that holds
    a blank line (`"a\n\nb"`) ends the body at that blank line, so the file
    is rejected as a short row (`row 3: expected 2 fields, got 0`)."""
    codes = {}  # label text -> its code, in order of first appearance
    stop = []  # the fault of a line _csv_lines ended the body at
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # rows <= line ends + 1: sized by that, loadtxt allocates its table once
            # instead of growing it, which fragments the heap
            ends = sum(block.count(b"\n") + block.count(b"\r")
                       for block in iter(lambda: fh.buffer.read(1 << 20), b""))
            fh.seek(0)
            header = next(csv.reader(fh), None)
            if header is None:
                raise CsvParseError(f"{path}: file is empty")
            if label_column not in header:
                raise CsvParseError(f"{path}: no column named {label_column!r}")
            if header.count(label_column) > 1:  # the second would be read as a feature
                raise CsvParseError(f"{path}: more than one column named {label_column!r}")
            if len(header) == 1:
                raise CsvParseError(f"{path}: no feature column besides {label_column!r}")
            label_idx = header.index(label_column)

            chunks = _csv_lines(fh, len(header), stop)
            if not (first := next(chunks, [])):  # loadtxt would warn of an empty input
                raise CsvParseError(f"{path}: row 2: {stop[0]}" if stop else f"{path}: no data rows")
            try:
                table = np.loadtxt(
                    chain(first, chain.from_iterable(chunks)), **CSV_DIALECT, max_rows=ends + 1,
                    converters={label_idx: lambda label: codes.setdefault(label, len(codes))})
            except ValueError as exc:
                if (fault := _loadtxt_fault(str(exc), first, len(header))) is None:
                    raise  # bytes that are not UTF-8, among others
                raise CsvParseError(f"{path}: row %d: %s" % fault) from exc
    except (ValueError, csv.Error) as exc:  # ValueError includes UnicodeDecodeError
        raise CsvParseError(f"{path}: not a readable CSV file: {exc}") from exc

    faults = [(len(table) + 2, fault) for fault in stop]  # after every row loadtxt read
    if table.shape[1] != len(header):
        faults.append((2, f"expected {len(header)} fields, got {table.shape[1]}"))
    if oversized := [code for label, code in codes.items() if len(label) > csv.field_size_limit()]:
        row = int(np.isin(table[:, label_idx], oversized).argmax()) + 2  # a label across lines
        faults.append((row, f"field larger than field limit ({csv.field_size_limit()})"))
    if faults:
        raise CsvParseError(f"{path}: row %d: %s" % min(faults))
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise CsvParseError(f"{path}: row {int(np.argmin(finite)) + 2}: non-finite feature")
    try:
        # the tie-break keeps the order deterministic for "3" vs "03"
        classes = sorted(codes, key=lambda name: (int(name), name))
    except ValueError:
        classes = sorted(codes)
    rank = {name: i for i, name in enumerate(classes)}
    class_of_code = np.array([rank[name] for name in codes], dtype=np.intp)
    labels = class_of_code[table[:, label_idx].astype(np.intp)]
    for j in range(label_idx, len(header) - 1):  # the features right of the label, one left
        table[:, j] = table[:, j + 1]
    return Dataset(features=table[:, :-1], labels=labels, num_classes=len(classes))


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
