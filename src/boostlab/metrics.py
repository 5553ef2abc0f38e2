"""Bias and performance measurement.

Per-class accuracy/precision/recall/F1 plus three bias-oriented scores:
the mean absolute deviation of a per-class metric from its class mean,
the population standard deviation of the same, and a score-weighted
correct-classification mass per class (aggregated across classes by
product, so one weak class collapses the total).

Internal values are unit-interval fractions; percent scaling happens
only at export time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError, InputShapeError, InvalidParameterError

PROFILE_SUM_TOL = 1e-9


@dataclass
class PredictionLog:
    """Aligned arrays of truth, prediction, and softmax profile per sample."""

    sample_ids: np.ndarray
    true_labels: np.ndarray
    predicted_labels: np.ndarray
    profiles: np.ndarray  # [n x num_classes]

    def __post_init__(self):
        self.sample_ids = np.asarray(self.sample_ids, dtype=np.intp)
        self.true_labels = np.asarray(self.true_labels, dtype=np.intp)
        self.predicted_labels = np.asarray(self.predicted_labels, dtype=np.intp)
        self.profiles = np.asarray(self.profiles, dtype=np.float64)
        n = len(self.sample_ids)
        if n == 0:
            raise EmptyInputError("prediction log is empty")
        if not (len(self.true_labels) == len(self.predicted_labels) == self.profiles.shape[0] == n):
            raise InputShapeError("log arrays must align")
        nc = self.profiles.shape[1]
        if self.true_labels.min() < 0 or self.true_labels.max() >= nc:
            raise InvalidParameterError("true labels out of range")
        if self.predicted_labels.min() < 0 or self.predicted_labels.max() >= nc:
            raise InvalidParameterError("predicted labels out of range")
        sums = self.profiles.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= PROFILE_SUM_TOL):  # written so that NaN fails
            raise InvalidParameterError("softmax profiles must sum to 1")

    @property
    def n(self) -> int:
        return len(self.sample_ids)

    @property
    def num_classes(self) -> int:
        return self.profiles.shape[1]


@dataclass
class OodPartition:
    """Counts of correctly (ID) and incorrectly (OOD) classified samples,
    keyed by true class."""

    id_counts: np.ndarray
    ood_counts: np.ndarray

    def to_dict(self) -> dict:
        return {
            str(c): {"id": int(self.id_counts[c]), "ood": int(self.ood_counts[c])}
            for c in range(len(self.id_counts))
        }


def recategorize(log: PredictionLog) -> OodPartition:
    """Tag each sample ID when prediction matches truth, OOD otherwise."""
    nc = log.num_classes
    correct = log.true_labels == log.predicted_labels
    id_counts = np.bincount(log.true_labels[correct], minlength=nc)
    ood_counts = np.bincount(log.true_labels[~correct], minlength=nc)
    return OodPartition(id_counts=id_counts, ood_counts=ood_counts)


def sodc_per_class(log: PredictionLog, c: int) -> float:
    """Score-weighted mass of correctly classified class-c samples over all
    samples.

    The denominator is written as the sum of the two complementary
    indicators even though it algebraically reduces to n; the printed
    form is kept on purpose.
    """
    if not 0 <= c < log.num_classes:
        raise InvalidParameterError(f"class {c} out of range")
    is_c = log.true_labels == c
    hit = is_c & (log.predicted_labels == c)
    numerator = log.profiles[hit, c].sum()
    denominator = (is_c.astype(np.float64) + (~is_c).astype(np.float64)).sum()
    return float(numerator / denominator)


def sodc_total(per_class: np.ndarray) -> float:
    """Product across classes; any zero entry annihilates the total."""
    return float(np.prod(np.asarray(per_class, dtype=np.float64)))


def mab(per_class_metric: np.ndarray) -> float:
    """Mean absolute deviation of a per-class metric from its class mean."""
    pm = np.asarray(per_class_metric, dtype=np.float64)
    if pm.size == 0:
        raise EmptyInputError("per-class metric vector is empty")
    return float(np.abs(pm - pm.mean()).mean())


def sdb(per_class_metric: np.ndarray) -> float:
    """Population standard deviation of a per-class metric (divisor = class count)."""
    pm = np.asarray(per_class_metric, dtype=np.float64)
    if pm.size == 0:
        raise EmptyInputError("per-class metric vector is empty")
    return float(np.sqrt(((pm - pm.mean()) ** 2).mean()))


@dataclass
class ClassificationMetrics:
    """One-vs-rest rates per class plus macro and overall aggregates."""

    accuracy: np.ndarray  # within-class hit rate
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    overall_accuracy: float
    zero_precision_classes: list[int] = field(default_factory=list)

    @property
    def macro_precision(self) -> float:
        return float(self.precision.mean())

    @property
    def macro_recall(self) -> float:
        return float(self.recall.mean())

    @property
    def macro_f1(self) -> float:
        return float(self.f1.mean())


def classification_metrics(log: PredictionLog) -> ClassificationMetrics:
    nc = log.num_classes
    confusion = np.zeros((nc, nc), dtype=np.int64)
    np.add.at(confusion, (log.true_labels, log.predicted_labels), 1)

    diag = np.diag(confusion).astype(np.float64)
    true_totals = confusion.sum(axis=1).astype(np.float64)
    pred_totals = confusion.sum(axis=0).astype(np.float64)

    recall = np.divide(diag, true_totals, out=np.zeros(nc), where=true_totals > 0)
    # precision is defined as 0 for classes never predicted; flagged below
    precision = np.divide(diag, pred_totals, out=np.zeros(nc), where=pred_totals > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum, out=np.zeros(nc), where=pr_sum > 0)

    return ClassificationMetrics(
        accuracy=recall.copy(),
        precision=precision,
        recall=recall,
        f1=f1,
        overall_accuracy=float(diag.sum() / log.n),
        zero_precision_classes=[int(c) for c in np.flatnonzero(pred_totals == 0)],
    )


METRIC_NAMES = ("accuracy", "f1", "precision", "recall", "sodc")


@dataclass
class MetricsReport:
    per_class: dict[int, dict[str, float]]
    aggregate: dict[str, float]
    bias: dict[str, dict[str, float]]
    ood_partition: OodPartition
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Export form: every rate percent-scaled."""
        k = 100.0
        return {
            "per_class": {
                str(c): {m: v * k for m, v in vals.items()}
                for c, vals in self.per_class.items()
            },
            "aggregate": {m: v * k for m, v in self.aggregate.items()},
            "bias": {
                m: {"mab": v["mab"] * k, "sdb": v["sdb"] * k}
                for m, v in self.bias.items()
            },
            "sodc": {
                "per_class": {
                    str(c): vals["sodc"] * k for c, vals in self.per_class.items()
                },
                "total": self.aggregate["sodc_total"] * k,
            },
            "ood_partition": self.ood_partition.to_dict(),
            "flags": list(self.flags),
        }


def build_metrics_report(
    log: PredictionLog, sodc_log: PredictionLog | None = None
) -> MetricsReport:
    """Assemble the full report from a classification log and an optional
    separate log supplying the score profiles used for the OOD-mass scores."""
    sodc_log = sodc_log if sodc_log is not None else log
    if sodc_log.num_classes != log.num_classes:
        raise InvalidParameterError("logs disagree on class count")

    cm = classification_metrics(log)
    nc = log.num_classes
    sodc_values = np.array([sodc_per_class(sodc_log, c) for c in range(nc)])
    total = sodc_total(sodc_values)

    vectors = dict(zip(METRIC_NAMES, (cm.accuracy, cm.f1, cm.precision, cm.recall, sodc_values)))
    per_class = {c: {name: float(v[c]) for name, v in vectors.items()} for c in range(nc)}
    bias = {name: {"mab": mab(v), "sdb": sdb(v)} for name, v in vectors.items()}
    flags = [
        f"class {c}: precision reported as 0 (never predicted)"
        for c in cm.zero_precision_classes
    ]
    return MetricsReport(
        per_class=per_class,
        aggregate={
            "accuracy": cm.overall_accuracy,
            "macro_f1": cm.macro_f1,
            "macro_precision": cm.macro_precision,
            "macro_recall": cm.macro_recall,
            "sodc_total": total,
        },
        bias=bias,
        ood_partition=recategorize(log),
        flags=flags,
    )
