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
from dataclasses import dataclass, field

import numpy as np

from .data import NON_NEGATIVE, NON_NEGATIVE_INT, POSITIVE, POSITIVE_INT, check
from .data import _check_shape, class_labels, float_array, read_json
from .errors import BoostLabError, InvalidParameterError, NumericOverflowError


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
        d, h, c = self.num_features, self.num_hidden, self.num_classes
        self.params = float_array(self.params, "params", (h * d + h + c * h + c,))
        self.weights_hidden, self.bias_hidden, self.weights_out, self.bias_out = (
            self.layer_views(self.params)
        )

    def layer_views(self, vector: np.ndarray) -> tuple[np.ndarray, ...]:
        """The four layers of a vector laid out like `params`, as views."""
        d, h, c = self.num_features, self.num_hidden, self.num_classes
        a, b, e = h * d, h * d + h, h * d + h + c * h
        return vector[:a].reshape(h, d), vector[a:b], vector[b:e].reshape(c, h), vector[e:]


def init_model(num_features: int, num_hidden: int, num_classes: int, seed: int) -> ClassifierModel:
    """Each parameter uniform in +-1/sqrt(its layer's fan-in), drawn in LAYERS order from `seed`."""
    check(num_features, "num_features", POSITIVE_INT)
    check(num_hidden, "num_hidden", POSITIVE_INT)
    check(num_classes, "num_classes", POSITIVE_INT)
    check(seed, "seed", NON_NEGATIVE_INT)
    bound = np.repeat([1.0 / math.sqrt(num_features), 1.0 / math.sqrt(num_hidden)],
                      [num_hidden * (num_features + 1), num_classes * (num_hidden + 1)])
    params = np.random.default_rng(seed).uniform(-bound, bound)
    return ClassifierModel(params, num_features, num_hidden, num_classes)


def forward_batch(model: ClassifierModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and logits for a [n x features] matrix of finite
    values, one row per sample. The only place the layer formula is written,
    and so the one place features enter the network and are checked."""
    features = float_array(features, "features", (None, model.num_features))
    hidden = features @ model.weights_hidden.T  # each [n x ...] intermediate is one buffer
    hidden += model.bias_hidden
    np.tanh(hidden, out=hidden)
    logits = hidden @ model.weights_out.T
    logits += model.bias_out
    return hidden, logits


def hidden_activations(model: ClassifierModel, features: np.ndarray) -> np.ndarray:
    """Hidden-layer activations per sample, used for embedding export."""
    return forward_batch(model, features)[0]


def softmax_rows(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """exp(z_c/T) / sum_j exp(z_j/T) along the last axis, computed with
    max-subtraction at a finite, positive T, for logits of any rank with no
    empty axis. A NaN or infinite logit raises InvalidParameterError; a T so
    small that z/T overflows, NumericOverflowError."""
    check(temperature, "temperature", POSITIVE)
    logits = float_array(logits, "logits")
    _check_shape(logits, (None,) * logits.ndim, "logits")
    with np.errstate(over="ignore"):  # an overflowing z/T is reported below
        scaled = logits / temperature
        if not np.isfinite(scaled).all():
            raise NumericOverflowError("logits / temperature overflows float64 at "
                                       f"temperature {temperature!r}")
        scaled -= scaled.max(axis=-1, keepdims=True)  # a gap past the float range exps to 0
    e = np.exp(scaled)
    return e / e.sum(axis=-1, keepdims=True)


def _hidden_delta(model: ClassifierModel, delta_out: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """(delta_out @ W_out) * (1 - hidden**2): a delta at the logits taken back
    through the readout and the tanh, in two [n x hidden] buffers."""
    slope = hidden**2
    np.subtract(1.0, slope, out=slope)
    delta = delta_out @ model.weights_out
    delta *= slope
    return delta


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
    check(temperature, "temperature", POSITIVE)
    hidden = float_array(hidden, "hidden", (None, model.num_hidden))
    rows = np.arange(len(hidden))
    probs = float_array(probs, "probs", (len(rows), model.num_classes))
    class_indices = class_labels(class_indices, model.num_classes, "class_indices", rows.shape)
    p_c = probs[rows, class_indices]
    with np.errstate(all="ignore"):  # a non-finite gradient is reported below
        # dS_c/dz, shape [n x classes]
        dscore_dlogit = -probs * (p_c / temperature)[:, np.newaxis]
        dscore_dlogit[rows, class_indices] += p_c / temperature
        grads = _hidden_delta(model, dscore_dlogit, hidden) @ model.weights_hidden
    if not np.all(np.isfinite(grads)):
        raise NumericOverflowError("non-finite values in input gradient")
    return grads


def loss_and_gradients(
    model: ClassifierModel, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the plain (T=1) softmax over a batch and its
    gradient w.r.t. `model.params`, from one forward pass, which checks the
    features. The gradient is one vector laid out like `params`;
    `model.layer_views` splits it."""
    hidden, logits = forward_batch(model, features)
    n, c = logits.shape
    labels = class_labels(labels, model.num_classes, "labels", (n,))
    # ufunc reductions and one flat index of each row's label entry: the
    # arithmetic of .max / .sum / .mean and [rows, labels], in fewer calls
    picked = np.arange(0, n * c, c) + labels
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(shifted)  # shared by the log-softmax and the softmax
    norm = np.add.reduce(e, axis=1, keepdims=True)
    loss = float(-(np.add.reduce(shifted.ravel()[picked] - np.log(norm.ravel())) / n))

    delta_out = e / norm
    delta_out.ravel()[picked] -= 1.0
    delta_out /= n
    delta_hidden = _hidden_delta(model, delta_out, hidden)
    grad = np.empty_like(model.params)
    g_weights_hidden, g_bias_hidden, g_weights_out, g_bias_out = model.layer_views(grad)
    # the features as given, which forward_batch checked; matmul casts ints as float_array does
    np.matmul(delta_hidden.T, features, out=g_weights_hidden)
    np.add.reduce(delta_hidden, axis=0, out=g_bias_hidden)
    np.matmul(delta_out.T, hidden, out=g_weights_out)
    np.add.reduce(delta_out, axis=0, out=g_bias_out)
    return loss, grad


def train_step(
    model: ClassifierModel,
    features: np.ndarray,
    labels: np.ndarray,
    learning_rate: float,
) -> tuple[ClassifierModel, float]:
    """One gradient-descent step on mean cross-entropy.

    Returns a new model on a new parameter vector; the input model is left
    untouched. The reported loss is evaluated before the update. A step
    that leaves a non-finite parameter raises NumericOverflowError.
    """
    check(learning_rate, "learning_rate", NON_NEGATIVE)

    loss, grad = loss_and_gradients(model, features, labels)
    try:
        updated = ClassifierModel(
            model.params - learning_rate * grad, model.num_features, model.num_hidden,
            model.num_classes,
        )
    except InvalidParameterError as exc:  # a float vector of the right shape is not finite
        raise NumericOverflowError(f"training diverged: a step at learning_rate "
                                   f"{learning_rate!r} left non-finite parameters") from exc
    return updated, loss


# --- checkpoint format: JSON {dims, params}, params as laid out in memory ---


def model_to_dict(model: ClassifierModel) -> dict:
    dims = dict(features=model.num_features, hidden=model.num_hidden, classes=model.num_classes)
    return {"dims": dims, "params": model.params.tolist()}


def model_from_dict(doc) -> ClassifierModel:
    """Inverse of model_to_dict. A missing or unknown key, a value of the wrong
    type and a dim below 1 each raise a typed error; ClassifierModel checks the params."""
    if not isinstance(doc, dict):
        raise InvalidParameterError("a checkpoint must be a JSON object")
    unknown = sorted(set(doc) - {"dims", "params"})
    if unknown:
        raise InvalidParameterError(f"checkpoint has an unknown key {unknown[0]!r}")
    try:
        dims = {k: doc["dims"][k] for k in ("features", "hidden", "classes")}
        params = doc["params"]
    except KeyError as exc:
        raise InvalidParameterError(f"checkpoint has no key {exc}") from exc
    except TypeError as exc:  # dims that are no mapping
        raise InvalidParameterError(f"checkpoint value of the wrong type: {exc}") from exc
    for key, value in dims.items():
        check(value, f"dims[{key!r}]", POSITIVE_INT)
    return ClassifierModel(params, *dims.values())


def save_model(model: ClassifierModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> ClassifierModel:
    doc = read_json(path)
    try:
        return model_from_dict(doc)
    except BoostLabError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
