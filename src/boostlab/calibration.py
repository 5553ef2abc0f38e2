"""Confidence calibration: temperature-scaled softmax plus gradient-sign
input perturbation.

The (score, perturb, rescore) pipeline sharpens the gap between confident
and ambiguous samples. The perturbation direction follows the sign of the
score gradient scaled elementwise by the inverse per-feature standard
deviation of the training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, InputShapeError, InvalidParameterError
from .model import ClassifierModel, forward_batch, input_gradient_batch, softmax_rows
from .scheduler import T_MAX, T_MIN


@dataclass
class OdinConfig:
    """Knobs of the calibration step.

    grad_std is the per-feature standard deviation of the training split;
    when None, an all-ones vector is used as the last-resort fallback.
    """

    temperature: float
    epsilon: float = 0.05
    grad_std: np.ndarray | None = None

    def __post_init__(self):
        if not T_MIN <= self.temperature <= T_MAX:
            raise InvalidParameterError(
                f"temperature must lie in [{T_MIN:g}, {T_MAX:g}], got {self.temperature}"
            )
        if not self.epsilon >= 0:  # written so that NaN fails
            raise InvalidParameterError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.grad_std is not None:
            self.grad_std = np.asarray(self.grad_std, dtype=np.float64)
            if not np.all(self.grad_std > 0):
                raise InvalidParameterError("grad_std entries must be positive")


def ts_softmax(logits: np.ndarray, temperature: float) -> np.ndarray:
    """exp(z_c/T) / sum_j exp(z_j/T) of one logit vector, with its inputs
    validated; the unchecked row-wise form is model.softmax_rows."""
    if temperature <= 0:
        raise InvalidParameterError("temperature must be positive")
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise InvalidParameterError("logits must be finite")
    return softmax_rows(logits, temperature)


def perturb(x: np.ndarray, grad: np.ndarray, config: OdinConfig) -> np.ndarray:
    """Subtract epsilon times the std-scaled gradient sign from the input
    (first-order descent on the target score).

    The sign is taken first, then divided by the per-feature std (taking
    the sign after division would make the division a no-op).
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if x.shape != grad.shape:
        raise InputShapeError(f"x {x.shape} and grad {grad.shape} must have equal shape")
    if not np.all(np.isfinite(grad)):
        raise InputShapeError("gradient must be finite")
    std = config.grad_std if config.grad_std is not None else np.ones(x.shape[-1])
    return x - config.epsilon * np.sign(grad) / std


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
    features = np.asarray(features, dtype=np.float64)
    if features.size == 0:
        raise EmptyInputError("calibration requires at least one sample")
    if features.ndim != 2:
        raise InputShapeError("features must be a [n x d] matrix")

    hidden, first_logits = forward_batch(model, features)
    probs = softmax_rows(first_logits, config.temperature)
    grads = input_gradient_batch(model, hidden, probs, probs.argmax(axis=1), config.temperature)
    _, perturbed_logits = forward_batch(model, perturb(features, grads, config))
    return softmax_rows(perturbed_logits, config.temperature), perturbed_logits
