"""Minimal differentiable multi-class classifier.

One hidden tanh layer followed by a linear readout producing logits. The
model is deliberately small so that every gradient it exposes (parameter
gradients for cross-entropy descent, input gradients of the
temperature-scaled softmax score) can be checked against finite
differences. All operations are pure: they never mutate the model they
are given.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .data import read_json
from .errors import (
    BoostLabError,
    EmptyInputError,
    InputShapeError,
    InvalidParameterError,
    NumericOverflowError,
)


LAYERS = ("weights_hidden", "bias_hidden", "weights_out", "bias_out")


@dataclass
class ClassifierModel:
    """Parameters of a feedforward net: input -> tanh hidden -> logits.

    All parameters live in one float64 vector, layer after layer in LAYERS
    order, each row-major; the four layer arrays are reshaped views into it:
    weights_hidden [hidden x features], bias_hidden [hidden],
    weights_out [classes x hidden], bias_out [classes]. The model owns
    `params`: no other model shares its memory.
    """

    params: np.ndarray
    num_features: int
    num_hidden: int
    num_classes: int
    weights_hidden: np.ndarray = field(init=False, repr=False)
    bias_hidden: np.ndarray = field(init=False, repr=False)
    weights_out: np.ndarray = field(init=False, repr=False)
    bias_out: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=np.float64)
        d, h, c = self.num_features, self.num_hidden, self.num_classes
        size = h * d + h + c * h + c
        if self.params.shape != (size,):
            raise InputShapeError(
                f"a {d}-{h}-{c} model has {size} parameters, got shape {self.params.shape}"
            )
        if not np.isfinite(self.params).all():
            raise InvalidParameterError("model parameters must be finite")
        self.weights_hidden, self.bias_hidden, self.weights_out, self.bias_out = (
            self.layer_views(self.params)
        )

    def layer_views(self, vector: np.ndarray) -> tuple[np.ndarray, ...]:
        """The four layers of a vector laid out like `params`, as views."""
        d, h, c = self.num_features, self.num_hidden, self.num_classes
        a, b, e = h * d, h * d + h, h * d + h + c * h
        return vector[:a].reshape(h, d), vector[a:b], vector[b:e].reshape(c, h), vector[e:]


def init_model(num_features: int, num_hidden: int, num_classes: int, seed: int) -> ClassifierModel:
    """Symmetric small-uniform initialization, reproducible per seed."""
    rng = np.random.default_rng(seed)
    s_h = 1.0 / math.sqrt(num_features)
    s_o = 1.0 / math.sqrt(num_hidden)
    params = np.concatenate([
        rng.uniform(-s_h, s_h, size=num_hidden * num_features),
        rng.uniform(-s_h, s_h, size=num_hidden),
        rng.uniform(-s_o, s_o, size=num_classes * num_hidden),
        rng.uniform(-s_o, s_o, size=num_classes),
    ])
    return ClassifierModel(params, num_features, num_hidden, num_classes)


def forward_batch(model: ClassifierModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and logits for a [n x features] matrix, one row
    per sample. The only place the layer formula is written."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.num_features:
        raise InputShapeError(
            f"expected [n x {model.num_features}] feature matrix, got shape {features.shape}"
        )
    hidden = np.tanh(features @ model.weights_hidden.T + model.bias_hidden)
    return hidden, hidden @ model.weights_out.T + model.bias_out


def hidden_activations(model: ClassifierModel, features: np.ndarray) -> np.ndarray:
    """Hidden-layer activations per sample, used for embedding export."""
    return forward_batch(model, features)[0]


def softmax_rows(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """exp(z_c/T) / sum_j exp(z_j/T) along the last axis, computed with
    max-subtraction. The caller guarantees T > 0 and finite logits."""
    scaled = logits / temperature
    scaled -= scaled.max(axis=-1, keepdims=True)
    e = np.exp(scaled)
    return e / e.sum(axis=-1, keepdims=True)


def input_gradient_batch(
    model: ClassifierModel,
    hidden: np.ndarray,
    probs: np.ndarray,
    class_indices: np.ndarray,
    temperature: float,
) -> np.ndarray:
    """Score gradients for many samples at once from the forward pass the
    caller already has: hidden activations and TS-softmax profiles at the
    same temperature. Row i targets class_indices[i]. With p = softmax(z / T):
    dS_c/dz = (p_c / T) * (e_c - p), dz/dh = W_out, dh/da = 1 - h^2, da/dx = W_hidden."""
    class_indices = np.asarray(class_indices, dtype=np.intp)
    rows = np.arange(hidden.shape[0])
    p_c = probs[rows, class_indices]
    # dS_c/dz, shape [n x classes]
    dscore_dlogit = -probs * (p_c / temperature)[:, np.newaxis]
    dscore_dlogit[rows, class_indices] += p_c / temperature
    grad_hidden = (dscore_dlogit @ model.weights_out) * (1.0 - hidden**2)
    grads = grad_hidden @ model.weights_hidden
    if not np.all(np.isfinite(grads)):
        raise NumericOverflowError("non-finite values in input gradient")
    return grads


def loss_and_gradients(
    model: ClassifierModel, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the plain (T=1) softmax over a batch and its
    gradient w.r.t. `model.params`, from one forward pass. The gradient is
    one vector laid out like `params`; `model.layer_views` splits it."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    hidden, logits = forward_batch(model, features)
    rows = np.arange(features.shape[0])
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)  # shared by the log-softmax and the softmax
    norm = e.sum(axis=1, keepdims=True)
    loss = float(-(shifted - np.log(norm))[rows, labels].mean())

    delta_out = e / norm
    delta_out[rows, labels] -= 1.0
    delta_out /= features.shape[0]
    delta_hidden = (delta_out @ model.weights_out) * (1.0 - hidden**2)
    grad = np.empty_like(model.params)
    g_weights_hidden, g_bias_hidden, g_weights_out, g_bias_out = model.layer_views(grad)
    np.matmul(delta_hidden.T, features, out=g_weights_hidden)
    delta_hidden.sum(axis=0, out=g_bias_hidden)
    np.matmul(delta_out.T, hidden, out=g_weights_out)
    delta_out.sum(axis=0, out=g_bias_out)
    return loss, grad


def train_step(
    model: ClassifierModel,
    features: np.ndarray,
    labels: np.ndarray,
    learning_rate: float,
) -> tuple[ClassifierModel, float]:
    """One gradient-descent step on mean cross-entropy.

    Returns a new model on a new parameter vector; the input model is left
    untouched. The reported loss is evaluated before the update.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if features.size == 0 or labels.size == 0:
        raise EmptyInputError("train_step requires a non-empty batch")
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise InputShapeError("features and labels must align")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise InvalidParameterError("labels out of range")
    if learning_rate < 0:
        raise InvalidParameterError("learning_rate must be non-negative")

    loss, grad = loss_and_gradients(model, features, labels)
    updated = ClassifierModel(
        model.params - learning_rate * grad, model.num_features, model.num_hidden,
        model.num_classes,
    )
    return updated, loss


# --- checkpoint format: flat JSON, layer name -> row-major values ---------


def model_to_dict(model: ClassifierModel) -> dict:
    return {
        "dims": {
            "features": model.num_features,
            "hidden": model.num_hidden,
            "classes": model.num_classes,
        },
        "activation": "tanh",
        "weights_hidden": model.weights_hidden.ravel().tolist(),
        "bias_hidden": model.bias_hidden.tolist(),
        "weights_out": model.weights_out.ravel().tolist(),
        "bias_out": model.bias_out.tolist(),
    }


def model_from_dict(doc) -> ClassifierModel:
    """Inverse of model_to_dict. A missing key, a value of the wrong type
    and a layer of the wrong length each raise a typed error."""
    if not isinstance(doc, dict):
        raise InvalidParameterError("a checkpoint must be a JSON object")
    activation = doc.get("activation", "tanh")
    if activation != "tanh":
        raise InvalidParameterError(
            f"unsupported activation {activation!r}; only 'tanh' is implemented"
        )
    try:
        d, h, c = (operator.index(doc["dims"][k]) for k in ("features", "hidden", "classes"))
        layers = [np.asarray(doc[name], dtype=np.float64) for name in LAYERS]
    except KeyError as exc:
        raise InvalidParameterError(f"checkpoint has no key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"checkpoint value of the wrong type: {exc}") from exc
    if min(d, h, c) < 1:
        raise InvalidParameterError(f"checkpoint dims must be positive, got {doc['dims']}")
    for name, values, size in zip(LAYERS, layers, (h * d, h, c * h, c)):
        if values.shape != (size,):
            raise InputShapeError(f"{name} must hold {size} values, got shape {values.shape}")
    return ClassifierModel(np.concatenate(layers), d, h, c)


def save_model(model: ClassifierModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> ClassifierModel:
    doc = read_json(path)
    try:
        return model_from_dict(doc)
    except BoostLabError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
