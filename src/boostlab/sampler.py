"""Adaptive batch sampling driven by calibrated confidence scores.

The boost strategy aggregates calibrated per-sample confidences by class,
forms inverted class-weighted sampling weights (the less mass the model
puts on a sample's class, the higher its weight), and draws batches
multinomially with replacement from the distribution `install_distribution`
makes of them. Two baseline strategies are provided for comparison: random
(uniform) and stratified (class-balanced), each re-drawn every epoch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .calibration import calibrate_batch_full
from .data import NON_NEGATIVE_INT, POSITIVE_INT, Dataset, check, check_finite, class_labels
from .data import float_array, one_of
from .errors import ConfigurationError, EmptyInputError, InputShapeError, InvalidParameterError
from .model import ClassifierModel

log = logging.getLogger(__name__)

STRATEGIES = ("boost", "random", "stratified")

PROB_SUM_TOL = 1e-9


@dataclass
class EpochRecord:
    """Everything the sampler knew and did during one epoch.

    The baselines calibrate nothing, so their `scores` and `predicted` are
    None. A baseline's distribution is the same every epoch on one split, so
    its records share one read-only copy of it and only `draw_counts` is new
    per epoch. A boost record's arrays are its own.

    Integer columns are narrow: `predicted` in the smallest unsigned type
    that holds a class index (uint8 up to 256 classes), `draw_counts` int32;
    so a boost record costs 8 + 1 + 8 + 4 = 21 bytes per sample there.
    """

    epoch: int
    scores: np.ndarray | None  # calibrated max-score per sample; None for baselines
    predicted: np.ndarray | None  # predicted class per sample; None for baselines
    probabilities: np.ndarray
    draw_counts: np.ndarray


@dataclass
class SamplerState:
    """The `cdf` of the distribution `install_distribution` set last (which
    `epoch_resample` records; `degenerate` when uniform stood in for the
    weights) and the counters that make every draw reproducible."""

    strategy: str
    rng_seed: int
    history: list[EpochRecord] = field(default_factory=list, init=False)
    draw_count: int = field(default=0, init=False)
    degenerate_draws: int = field(default=0, init=False)
    cdf: np.ndarray | None = field(default=None, init=False, repr=False)
    degenerate: bool = field(default=False, init=False)

    def __post_init__(self):
        check(self.strategy, "strategy", one_of(STRATEGIES))
        check(self.rng_seed, "rng_seed", NON_NEGATIVE_INT)


def aggregate_class_scores(
    max_scores: np.ndarray, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """Arithmetic mean of calibrated max-scores per true class; classes
    with no samples carry the mean of the present classes."""
    max_scores = float_array(max_scores, "max_scores", (None,))
    if max_scores.size == 0:
        raise EmptyInputError("no scores to aggregate")
    check_finite(max_scores, "max_scores")
    labels = class_labels(labels, num_classes, "labels", max_scores.shape)

    sums = np.bincount(labels, weights=max_scores, minlength=num_classes)
    counts = np.bincount(labels, minlength=num_classes)
    present = counts > 0
    means = np.zeros(num_classes)
    means[present] = sums[present] / counts[present]
    if not present.all():
        means[~present] = means[present].mean()
    return means


def boost_probabilities(
    logits: np.ndarray,
    class_index: np.ndarray,
    aggregates: np.ndarray,
) -> np.ndarray:
    """Inverted class-weighted sampling weights, one in [0, 1] per sample.

    Per sample with class c, the raw confidence is
      exp(z_c) * S_c / sum_j exp(z_j) * S_j
    with S the per-class aggregates, each in (0, 1]; the sampling weight
    is 1 - raw. `install_distribution` turns the weights into a
    distribution.
    """
    logits = float_array(logits, "logits", (None, None))
    n, c = logits.shape
    if c == 0:
        raise InputShapeError("logits need at least one column")
    if n == 0:
        raise EmptyInputError("no samples to weight")
    class_index = class_labels(class_index, c, "class_index", (n,))
    s = float_array(aggregates, "aggregates", (c,))
    if not np.all((s > 0) & (s <= 1)):  # written so that NaN fails
        raise InvalidParameterError("aggregate scores must lie in (0, 1]")
    check_finite(logits, "logits")

    with np.errstate(over="ignore"):  # a gap past the float range exps to 0, as it should
        shifted = logits - logits.max(axis=1, keepdims=True)  # overflow guard
    weighted = np.exp(shifted) * s
    raw = weighted[np.arange(n), class_index] / weighted.sum(axis=1)
    return np.clip(1.0 - raw, 0.0, None)


def install_distribution(state: SamplerState, weights: np.ndarray) -> np.ndarray:
    """Make `weights / weights.sum()` the distribution draws come from until
    the next install, and return it. Weights that are not finite, have a
    negative entry, or whose sum is not in (0, inf) (all zero, say) are
    replaced by the uniform distribution, with one warning."""
    given = float_array(weights, "weights", (None,))
    if given.size == 0:
        raise EmptyInputError("a sampling distribution needs at least one sample")
    with np.errstate(over="ignore", invalid="ignore"):  # a sum of inf or NaN is degenerate
        total = given.sum()
    state.degenerate = not (np.isfinite(given).all() and (given >= 0).all() and 0 < total < np.inf)
    if state.degenerate:
        log.warning("degenerate sampling weights; falling back to uniform")
    p = np.full(len(given), 1.0 / len(given)) if state.degenerate else given / total
    # the arithmetic of Generator.choice(p=...), done once per distribution
    # instead of once per draw
    cdf = p.cumsum()
    cdf /= cdf[-1]
    state.cdf = cdf
    return p


def draw_batch(state: SamplerState, batch_size: int) -> np.ndarray:
    """Draw batch_size sample indices i.i.d. with replacement.

    Each call is reproducible from (rng_seed, draw counter) alone; the
    counter runs on across epochs. The stream is the one
    `default_rng([rng_seed, counter]).choice(n, batch_size, p=p / p.sum())`
    gives, bit for bit.
    """
    check(batch_size, "batch_size", POSITIVE_INT)
    if state.cdf is None:
        raise InvalidParameterError("sampler has no probabilities; resample first")
    if state.degenerate:
        state.degenerate_draws += 1

    uniform = np.random.default_rng([state.rng_seed, state.draw_count]).random(batch_size)
    indices = state.cdf.searchsorted(uniform, side="right")
    state.draw_count += 1
    if state.history:
        counts = state.history[-1].draw_counts
        # a 1 of the counts' dtype: a Python 1 takes ufunc.at's casting path, 4x slower
        np.add.at(counts, indices, counts.dtype.type(1))
    return indices


def epoch_resample(
    state: SamplerState,
    model: ClassifierModel,
    dataset: Dataset,
    temperature: float,
    step: np.ndarray,
) -> None:
    """Install `state`'s sampling distribution for the coming epoch and
    append that epoch's record to its history.

    The boost path calibrates the full split; calibration is pure, so the
    trainer's parameters are never touched. History is append-only: one
    record per completed resample.
    """
    if model.num_classes != dataset.num_classes:
        raise ConfigurationError(
            f"model has {model.num_classes} classes but dataset has {dataset.num_classes}"
        )

    n = dataset.n

    if state.strategy == "boost":
        profiles, perturbed_logits = calibrate_batch_full(
            model, dataset.features, temperature, step)
        predicted = profiles.argmax(axis=1).astype(np.min_scalar_type(dataset.num_classes - 1))
        sample_scores = profiles.max(axis=1)
        aggregates = aggregate_class_scores(sample_scores, dataset.labels, dataset.num_classes)
        # the weight uses the true class, so a confidently misclassified
        # sample carries near-maximal weight: that is what makes the sampler
        # target misclassified rare-class data
        p = install_distribution(
            state, boost_probabilities(perturbed_logits, dataset.labels, aggregates))
        recorded = sample_scores, predicted, p
    else:  # random weighs every sample alike, stratified by 1 / the size of its class
        stratified = state.strategy == "stratified"
        p = install_distribution(
            state, 1.0 / dataset.class_counts[dataset.labels] if stratified else np.ones(n))
        # an unchanged distribution is the last record's: one copy per split, not per epoch
        if state.history and np.array_equal(state.history[-1].probabilities, p):
            p = state.history[-1].probabilities
        p.setflags(write=False)
        recorded = None, None, p

    state.history.append(EpochRecord(len(state.history), *recorded, np.zeros(n, dtype=np.int32)))
