"""Confidence calibration: temperature-scaled softmax plus gradient-sign
input perturbation, and the schedule that sets the temperature per epoch.

The (score, perturb, rescore) pipeline sharpens the gap between confident
and ambiguous samples. The perturbation direction follows the sign of the
score gradient; its size per feature is epsilon over the per-feature
standard deviation of the training data.

Temperatures lie in [T_MIN, T_MAX] = [1, 1000]. The multiplicative schedule
multiplies the temperature by a constant factor every temp_interval epochs,
clamped to that range; the inverse-linear one walks from 1000 down to 1.
"""

from __future__ import annotations

import math

import numpy as np

from .data import NON_NEGATIVE_INT, _check_shape, check, float_array, is_number
from .errors import InvalidParameterError, NumericOverflowError
from .model import ClassifierModel, forward_batch, input_gradient_batch, softmax_rows

T_MIN = 1.0
T_MAX = 1000.0
TEMPERATURE = (f"in [{T_MIN:g}, {T_MAX:g}]", lambda v: is_number(v) and T_MIN <= v <= T_MAX)

SCHEDULE_KINDS = ("multiplicative", "inverse-linear")


def perturb(x: np.ndarray, grad: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Subtract the gradient sign, times the per-feature step, from the input
    (first-order descent on the target score). step is epsilon over the
    train split's per-feature std, which build_datasets makes once per run.
    """
    x = float_array(x, "x")
    _check_shape(x, (None,) * x.ndim, "x")
    grad = float_array(grad, "grad", x.shape)
    step = float_array(step, "step")
    if (step < 0).any():
        raise InvalidParameterError("step must be non-negative")
    _check_shape(step, x.shape[-1:], "step")  # after its values: a bad epsilon is named first
    return x - np.sign(grad) * step


def calibrate_batch_full(
    model: ClassifierModel, features: np.ndarray, temperature: float, step: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the calibration pipeline over a [n x d] batch of samples.

    Per sample: forward pass, TS-softmax at `temperature` (in [T_MIN,
    T_MAX]), input gradient of the max-class score, perturbation by `step`,
    and a second forward + TS-softmax pass. Returns the second-pass profiles
    [n x c], the perturbed-pass logits [n x c] (needed by the sampler's
    weighting formula) and the first, clean-pass logits [n x c] (evaluation's
    plain softmax); row i belongs to sample i. The model is never modified.
    A readout that overflows float64 raises NumericOverflowError.
    """
    check(temperature, "temperature", TEMPERATURE)
    features = float_array(features, "features", (None, model.num_features))

    hidden, first_logits = _forward(model, features)
    probs = softmax_rows(first_logits, temperature)
    grads = input_gradient_batch(model, hidden, probs, probs.argmax(axis=1), temperature)
    _, perturbed_logits = _forward(model, perturb(features, grads, step))
    return softmax_rows(perturbed_logits, temperature), perturbed_logits, first_logits


def _forward(model: ClassifierModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """forward_batch, or NumericOverflowError if its readout overflowed float64."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        hidden, logits = forward_batch(model, features)
    if not np.isfinite(logits).all():
        raise NumericOverflowError("the model's logits overflow float64")
    return hidden, logits


def temperature_at(config, epoch: int) -> float:
    """Temperature for a given epoch under an ExperimentConfig's schedule
    (its temp_kind, temp_start, temp_scale and temp_interval, with its
    epochs as the inverse-linear horizon); total over all epoch >= 0."""
    check(epoch, "epoch", NON_NEGATIVE_INT)
    if config.temp_kind == "multiplicative":
        steps = epoch // config.temp_interval
        try:
            value = config.temp_start * config.temp_scale**steps
        except OverflowError:  # scale**steps is past 1.8e308: weigh start in log space
            log_value = math.log(config.temp_start) + steps * math.log(config.temp_scale)
            value = T_MAX if log_value > math.log(T_MAX) else math.exp(log_value)
    else:
        frac = min(epoch, config.epochs) / config.epochs
        value = T_MAX - (T_MAX - T_MIN) * frac
    return float(min(max(value, T_MIN), T_MAX))
