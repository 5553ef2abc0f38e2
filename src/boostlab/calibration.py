"""Confidence calibration: temperature-scaled softmax plus gradient-sign
input perturbation, and the schedule that sets the temperature per epoch.

The (score, perturb, rescore) pipeline sharpens the gap between confident
and ambiguous samples. The perturbation direction follows the sign of the
score gradient scaled elementwise by the inverse per-feature standard
deviation of the training data.

Temperatures lie in [T_MIN, T_MAX] = [1, 1000]. The multiplicative schedule
multiplies the temperature by a constant factor every temp_interval epochs,
clamped to that range; the inverse-linear one walks from 1000 down to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import check_finite, check_int, check_real, float_array
from .errors import EmptyInputError, InputShapeError, InvalidParameterError
from .model import ClassifierModel, forward_batch, input_gradient_batch, softmax_rows

T_MIN = 1.0
T_MAX = 1000.0

SCHEDULE_KINDS = ("multiplicative", "inverse-linear")


@dataclass
class OdinConfig:
    """Knobs of the calibration step. grad_std is the per-feature standard
    deviation of the training split."""

    temperature: float
    epsilon: float
    grad_std: np.ndarray

    def __post_init__(self):
        check_real(self.temperature, "temperature", f"in [{T_MIN:g}, {T_MAX:g}]",
                   lambda v: T_MIN <= v <= T_MAX)
        check_real(self.epsilon, "epsilon", "finite and non-negative", lambda v: 0 <= v < math.inf)
        self.grad_std = float_array(self.grad_std, "grad_std")
        if self.grad_std.ndim != 1 or not ((self.grad_std > 0) & (self.grad_std < np.inf)).all():
            raise InvalidParameterError("grad_std must be a vector of finite, positive entries")
        with np.errstate(all="ignore"):  # perturb's step, which a subnormal std overflows
            step = self.epsilon / self.grad_std
        if not np.isfinite(step).all():
            raise InvalidParameterError(f"epsilon {self.epsilon!r}: epsilon / grad_std overflows "
                                        "float64; lower epsilon or rescale the features")


def perturb(x: np.ndarray, grad: np.ndarray, config: OdinConfig) -> np.ndarray:
    """Subtract epsilon times the std-scaled gradient sign from the input
    (first-order descent on the target score).

    The sign is taken first, then divided by the per-feature std (taking
    the sign after division would make the division a no-op).
    """
    x = float_array(x, "x")
    grad = float_array(grad, "grad")
    if x.shape != grad.shape:
        raise InputShapeError(f"x {x.shape} and grad {grad.shape} must have equal shape")
    check_finite(grad, "grad")
    if config.grad_std.shape != x.shape[-1:]:
        raise InputShapeError(
            f"grad_std of shape {config.grad_std.shape} needs one entry per feature of x {x.shape}"
        )
    return x - config.epsilon * np.sign(grad) / config.grad_std


def calibrate_batch_full(
    model: ClassifierModel, features: np.ndarray, config: OdinConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Run the calibration pipeline over a [n x d] batch of samples.

    Per sample: forward pass, TS-softmax, input gradient of the max-class
    score, perturbation, and a second forward + TS-softmax pass. Returns
    the second-pass profiles [n x c] and the perturbed-pass logits [n x c]
    (needed by the sampler's weighting formula); row i belongs to sample i.
    The model is never modified.
    """
    features = float_array(features, "features")
    if features.size == 0:
        raise EmptyInputError("calibration requires at least one sample")
    if features.ndim != 2:
        raise InputShapeError("features must be a [n x d] matrix")

    hidden, first_logits = forward_batch(model, features)
    probs = softmax_rows(first_logits, config.temperature)
    grads = input_gradient_batch(model, hidden, probs, probs.argmax(axis=1), config.temperature)
    _, perturbed_logits = forward_batch(model, perturb(features, grads, config))
    return softmax_rows(perturbed_logits, config.temperature), perturbed_logits


def temperature_at(config, epoch: int) -> float:
    """Temperature for a given epoch under an ExperimentConfig's schedule
    (its temp_kind, temp_start, temp_scale and temp_interval, with its
    epochs as the inverse-linear horizon); total over all epoch >= 0."""
    check_int(epoch, "epoch")
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
