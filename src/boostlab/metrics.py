"""Bias and performance measurement.

Per-class accuracy (the within-class hit rate, which is also the class's
recall), precision and F1 plus three bias-oriented scores: the mean
absolute deviation of a per-class metric from its class mean, the
population standard deviation of the same, and a score-weighted
correct-classification mass per class (SODC, aggregated across classes
by product, so one weak class collapses the total). Every rate, the
ID/OOD partition and the flags (classes never predicted, classes with no
samples) come from one confusion matrix. Each number is reported under
one name.

Internal values are unit-interval fractions; percent scaling happens
only at export time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import class_labels, float_array
from .errors import ConfigurationError, InvalidParameterError

PROFILE_SUM_TOL = 1e-9


@dataclass
class PredictionLog:
    """Aligned arrays of truth, prediction, and softmax profile per sample."""

    true_labels: np.ndarray
    predicted_labels: np.ndarray
    profiles: np.ndarray  # [n x num_classes]

    def __post_init__(self):
        self.profiles = float_array(self.profiles, "profiles", (None, None))
        k, shape = self.num_classes, self.profiles.shape[:1]
        self.true_labels = class_labels(self.true_labels, k, "true labels", shape)
        self.predicted_labels = class_labels(self.predicted_labels, k, "predicted labels", shape)
        sums = self.profiles.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= PROFILE_SUM_TOL):
            raise InvalidParameterError("softmax profiles must sum to 1")

    @property
    def n(self) -> int:
        return self.profiles.shape[0]

    @property
    def num_classes(self) -> int:
        return self.profiles.shape[1]


def sodc_per_class(log: PredictionLog) -> np.ndarray:
    """Per class c, the score mass profiles[i, c] of the samples i with
    true = predicted = c, over all n samples.

    The paper prints the denominator as the sum over samples of the two
    complementary indicators [y_i = c] + [y_i != c]; each sample adds
    exactly 1, so it is n for every class.
    """
    correct = log.true_labels == log.predicted_labels
    # np.sum per class, not a weighted bincount: that sums in another order,
    # which changes the last bit of report.json's SODC values
    mass = [log.profiles[correct & (log.true_labels == c), c].sum() for c in range(log.num_classes)]
    return np.array(mass) / log.n


def sodc_total(per_class: np.ndarray) -> float:
    """Product across classes; any zero entry annihilates the total."""
    return float(np.prod(float_array(per_class, "per_class", (None,))))


def mab(per_class_metric: np.ndarray) -> float:
    """Mean absolute deviation of a per-class metric from its class mean."""
    pm = float_array(per_class_metric, "per_class_metric", (None,))
    return float(np.abs(pm - pm.mean()).mean())


def sdb(per_class_metric: np.ndarray) -> float:
    """Population standard deviation of a per-class metric (divisor = class count)."""
    pm = float_array(per_class_metric, "per_class_metric", (None,))
    return float(np.sqrt(((pm - pm.mean()) ** 2).mean()))


METRIC_NAMES = ("accuracy", "f1", "precision", "sodc")


@dataclass
class MetricsReport:
    per_class: dict[int, dict[str, float]]
    aggregate: dict[str, float]
    bias: dict[str, dict[str, float]]
    ood_partition: dict[str, dict[str, int]]  # true class -> {"id": hits, "ood": misses}
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Export form: every rate percent-scaled."""
        k = 100.0
        per_class = {str(c): {m: v * k for m, v in d.items()} for c, d in self.per_class.items()}
        return {
            "per_class": per_class,
            "aggregate": {m: v * k for m, v in self.aggregate.items()},
            "bias": {m: {"mab": v["mab"] * k, "sdb": v["sdb"] * k} for m, v in self.bias.items()},
            "ood_partition": {c: dict(counts) for c, counts in self.ood_partition.items()},
            "flags": list(self.flags),
        }


def build_metrics_report(
    log: PredictionLog, sodc_log: PredictionLog | None = None
) -> MetricsReport:
    """Assemble the full report from a classification log and an optional
    log of the same samples supplying the profiles for the OOD-mass scores."""
    sodc_log = sodc_log if sodc_log is not None else log
    if sodc_log.num_classes != log.num_classes:
        raise ConfigurationError(
            f"log has {log.num_classes} classes but sodc_log has {sodc_log.num_classes}"
        )
    if not np.array_equal(sodc_log.true_labels, log.true_labels):
        raise ConfigurationError("sodc_log must hold the true labels of log's samples")

    nc = log.num_classes
    cells = np.bincount(log.true_labels * nc + log.predicted_labels, minlength=nc * nc)
    confusion = cells.reshape(nc, nc)  # [true x predicted]
    hits = np.diag(confusion)
    true_totals = confusion.sum(axis=1)
    pred_totals = confusion.sum(axis=0)

    # the within-class hit rate: each class's accuracy, whose class mean is macro_recall
    recall = np.divide(hits, true_totals, out=np.zeros(nc), where=true_totals > 0)
    # precision is defined as 0 for classes never predicted; flagged below
    precision = np.divide(hits, pred_totals, out=np.zeros(nc), where=pred_totals > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum, out=np.zeros(nc), where=pr_sum > 0)
    sodc = sodc_per_class(sodc_log)

    vectors = dict(zip(METRIC_NAMES, (recall, f1, precision, sodc)))
    per_class = {c: {name: float(v[c]) for name, v in vectors.items()} for c in range(nc)}
    return MetricsReport(
        per_class=per_class,
        aggregate={
            "accuracy": float(hits.sum() / log.n),
            "macro_f1": float(f1.mean()),
            "macro_precision": float(precision.mean()),
            "macro_recall": float(recall.mean()),
            "sodc_total": sodc_total(sodc),
        },
        bias={name: {"mab": mab(v), "sdb": sdb(v)} for name, v in vectors.items()},
        ood_partition={
            str(c): {"id": int(hits[c]), "ood": int(true_totals[c] - hits[c])} for c in range(nc)
        },
        flags=[
            *(f"class {c}: precision reported as 0 (never predicted)"
              for c in np.flatnonzero(pred_totals == 0)),
            *(f"class {c}: no test samples; its accuracy, F1 and SODC are reported as 0"
              for c in np.flatnonzero(true_totals == 0)),
        ],
    )
