"""Independent oracles used to freeze expected values.

Everything here is deliberately written without the package's own code
paths: plain Python loops, math.*, and mpmath where extra precision
matters. Tests compare the vectorized implementations against these.
"""

import csv
import io
import math
from itertools import repeat

import mpmath
import numpy as np

mpmath.mp.dps = 50


def oracle_hidden(weights_hidden, bias_hidden, x):
    """The tanh hidden layer of oracle_forward."""
    hidden = []
    for row, b in zip(weights_hidden, bias_hidden):
        hidden.append(math.tanh(sum(w * v for w, v in zip(row, x)) + b))
    return hidden


def oracle_forward(weights_hidden, bias_hidden, weights_out, bias_out, x):
    """Two-layer tanh network evaluated with scalar loops."""
    hidden = oracle_hidden(weights_hidden, bias_hidden, x)
    logits = []
    for row, b in zip(weights_out, bias_out):
        logits.append(sum(w * h for w, h in zip(row, hidden)) + b)
    return logits


def oracle_forward_mp(weights_hidden, bias_hidden, weights_out, bias_out, x):
    """Same chain at 50 decimal digits."""
    hidden = []
    for row, b in zip(weights_hidden, bias_hidden):
        acc = mpmath.mpf(0)
        for w, v in zip(row, x):
            acc += mpmath.mpf(w) * mpmath.mpf(v)
        hidden.append(mpmath.tanh(acc + mpmath.mpf(b)))
    logits = []
    for row, b in zip(weights_out, bias_out):
        acc = mpmath.mpf(0)
        for w, h in zip(row, hidden):
            acc += mpmath.mpf(w) * h
        logits.append(acc + mpmath.mpf(b))
    return logits


def oracle_ts_softmax(logits, temperature):
    """High-precision temperature-scaled softmax, returned as floats."""
    exps = [mpmath.exp(mpmath.mpf(z) / mpmath.mpf(temperature)) for z in logits]
    total = sum(exps)
    return [float(e / total) for e in exps]


def oracle_score(model, x, class_index, temperature):
    """TS-softmax score of one class, scalar-loop evaluation."""
    logits = oracle_forward(
        model.weights_hidden.tolist(),
        model.bias_hidden.tolist(),
        model.weights_out.tolist(),
        model.bias_out.tolist(),
        list(x),
    )
    m = max(z / temperature for z in logits)
    exps = [math.exp(z / temperature - m) for z in logits]
    return exps[class_index] / sum(exps)


def fd_input_gradient(model, x, class_index, temperature, h=1e-5):
    """Central finite differences of the TS-softmax score w.r.t. the input."""
    grad = []
    x = list(x)
    for j in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        sp = oracle_score(model, xp, class_index, temperature)
        sm = oracle_score(model, xm, class_index, temperature)
        grad.append((sp - sm) / (2 * h))
    return grad


def oracle_cross_entropy(model, features, labels):
    """Mean cross-entropy via scalar loops."""
    total = 0.0
    for x, y in zip(features, labels):
        logits = oracle_forward(
            model.weights_hidden.tolist(),
            model.bias_hidden.tolist(),
            model.weights_out.tolist(),
            model.bias_out.tolist(),
            list(x),
        )
        m = max(logits)
        log_z = m + math.log(sum(math.exp(z - m) for z in logits))
        total += log_z - logits[y]
    return total / len(labels)


def fd_parameter_gradients(model, features, labels, h=1e-6):
    """Central finite differences of mean cross-entropy for every parameter."""
    grads = {}
    for name in ("weights_hidden", "bias_hidden", "weights_out", "bias_out"):
        arr = getattr(model, name)
        grad = [0.0] * arr.size
        flat = arr.ravel()
        for k in range(arr.size):
            orig = flat[k]
            flat[k] = orig + h
            up = oracle_cross_entropy(model, features, labels)
            flat[k] = orig - h
            down = oracle_cross_entropy(model, features, labels)
            flat[k] = orig
            grad[k] = (up - down) / (2 * h)
        grads[name] = grad
    return grads


def oracle_init_params(d, h, c, seed):
    """A d-h-c model's initial parameter vector drawn layer by layer from one
    generator: weights_hidden and bias_hidden uniform in +-1/sqrt(d), then
    weights_out and bias_out uniform in +-1/sqrt(h)."""
    rng = np.random.default_rng(seed)
    s_h, s_o = 1.0 / math.sqrt(d), 1.0 / math.sqrt(h)
    return np.concatenate([
        rng.uniform(-s_h, s_h, size=h * d),
        rng.uniform(-s_h, s_h, size=h),
        rng.uniform(-s_o, s_o, size=c * h),
        rng.uniform(-s_o, s_o, size=c),
    ])


def oracle_boost_weights(raw_confidences):
    """Invert and renormalize a list of raw per-sample confidences."""
    inverted = [1.0 - r for r in raw_confidences]
    total = sum(inverted)
    return [w / total for w in inverted]


def oracle_sodc_per_class(true_labels, predicted_labels, profiles, c):
    """Literal evaluation of the per-class OOD-mass score."""
    numerator = 0.0
    denominator = 0.0
    for y, yhat, profile in zip(true_labels, predicted_labels, profiles):
        numerator += (1 if y == c else 0) * (1 if yhat == c else 0) * profile[c]
        denominator += (1 if y == c else 0) + (1 if y != c else 0)
    return numerator / denominator


def oracle_mab(values):
    mean = sum(values) / len(values)
    return sum(abs(v - mean) for v in values) / len(values)


def oracle_sdb(values):
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def oracle_confusion_metrics(confusion):
    """Per-class precision/recall/F1 from a [true x predicted] table."""
    nc = len(confusion)
    out = []
    for c in range(nc):
        tp = confusion[c][c]
        actual = sum(confusion[c])
        predicted = sum(confusion[r][c] for r in range(nc))
        recall = tp / actual if actual else 0.0
        precision = tp / predicted if predicted else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out.append({"precision": precision, "recall": recall, "f1": f1})
    return out


def oracle_csv_bytes(header, rows) -> bytes:
    """A CSV file as the csv module writes it, row by row: comma-delimited,
    "\\n" line ends, None as an empty field."""
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


HISTORY_HEADER = ["epoch", "sample_id", "true_class", "predicted_class",
                  "calibrated_score", "sampling_probability", "times_drawn"]


def oracle_history_rows(state, true_labels):
    """sampler_history.csv's rows, one Python row per (epoch, sample). A record
    that calibrated nothing (None scores and predictions) predicts -1 and
    scores None, an empty field."""
    true_labels = [int(v) for v in true_labels]
    n = len(true_labels)
    for record in state.history:
        predicted = [-1] * n if record.predicted is None else record.predicted.tolist()
        scores = [None] * n if record.scores is None else record.scores.tolist()
        yield from zip(repeat(record.epoch), range(n), true_labels, predicted, scores,
                       record.probabilities.tolist(), record.draw_counts.tolist())
