import inspect
import math
import os
import re
import threading

import numpy as np
import pytest

from boostlab import calibration as calibration_mod
from boostlab import data as data_mod
from boostlab import harness as harness_mod
from boostlab import metrics as metrics_mod
from boostlab import model as model_mod
from boostlab import sampler as sampler_mod
from boostlab.calibration import calibrate_batch_full, perturb, temperature_at
from boostlab.data import (
    Dataset,
    _simplex_centers,
    compute_feature_std,
    float_array,
    load_csv,
    make_blobs,
    pareto_resample,
    pareto_tail_counts,
    save_csv,
    train_test_split,
)
from boostlab.errors import (
    CsvParseError,
    EmptyInputError,
    InputShapeError,
    InsufficientDataError,
    InvalidParameterError,
    NumericOverflowError,
)
from boostlab.harness import ExperimentConfig, run_evaluation, write_history_csv
from boostlab.metrics import PredictionLog, mab, sdb, sodc_total
from boostlab.model import (
    ClassifierModel,
    forward_batch,
    hidden_activations,
    init_model,
    input_gradient_batch,
    loss_and_gradients,
    model_from_dict,
    model_to_dict,
    softmax_rows,
    train_step,
)
from boostlab.sampler import (
    SamplerState,
    aggregate_class_scores,
    boost_probabilities,
    draw_batch,
    epoch_resample,
    install_distribution,
)

BLOBS = make_blobs([6, 3], 2, 2.0, seed=0)
MODEL = init_model(2, 3, 2, seed=0)


def _drawn(batch_size):
    state = SamplerState(strategy="boost", rng_seed=0)
    install_distribution(state, np.ones(4))
    return draw_batch(state, batch_size)


# every integer argument of the public builders: (call with that argument
# set to v, its name, its least valid value)
INT_ARGUMENTS = {
    "make_blobs-d": (lambda v: make_blobs([3, 3], v, 2.0, seed=0), "d", 1),
    "make_blobs-seed": (lambda v: make_blobs([3, 3], 2, 2.0, seed=v), "seed", 0),
    "train_test_split-seed": (lambda v: train_test_split(BLOBS, 0.5, seed=v), "seed", 0),
    "init_model-features": (lambda v: init_model(v, 3, 2, seed=0), "num_features", 1),
    "init_model-hidden": (lambda v: init_model(2, v, 2, seed=0), "num_hidden", 1),
    "init_model-classes": (lambda v: init_model(2, 3, v, seed=0), "num_classes", 1),
    "init_model-seed": (lambda v: init_model(2, 3, 2, seed=v), "seed", 0),
    "pareto_resample-seed": (lambda v: pareto_resample(BLOBS, 0.0, v), "seed", 0),
    "SamplerState-seed": (lambda v: SamplerState(strategy="boost", rng_seed=v), "rng_seed", 0),
    "temperature_at-epoch": (lambda v: temperature_at(ExperimentConfig(), v), "epoch", 0),
    "Dataset-num_classes": (lambda v: Dataset([[1.0], [2.0]], [0, 0], v), "num_classes", 1),
    "aggregate_class_scores-num_classes": (
        lambda v: aggregate_class_scores([0.9, 0.5], [0, 0], v), "num_classes", 1),
    "draw_batch-batch_size": (_drawn, "batch_size", 1),
}


@pytest.mark.parametrize("entry", sorted(INT_ARGUMENTS))
@pytest.mark.parametrize(
    "bad", ["below", 2.5, "3", None, True], ids=["below", "fractional", "text", "none", "bool"]
)
def test_integer_argument_out_of_range_rejected_by_name(entry, bad):
    call, name, least = INT_ARGUMENTS[entry]
    with pytest.raises(InvalidParameterError, match=f"^{name} must be an int >= {least}"):
        call(least - 1 if bad == "below" else bad)
    call(least)  # the least valid value, as a Python int
    call(np.int64(least + 1))  # and a numpy int


# every float argument of the public builders: (call with that argument set
# to v, its name, its out-of-range values, a valid value)
FLOAT_ARGUMENTS = {
    "make_blobs-separation": (
        lambda v: make_blobs([3, 3], 2, v, seed=0), "separation", (0.0, -1.0, np.inf), 2.0),
    "train_test_split-fraction": (
        lambda v: train_test_split(BLOBS, v, seed=0), "test_fraction", (0.0, 1.0, np.inf), 0.5),
    "train_step-rate": (
        lambda v: train_step(MODEL, BLOBS.features, BLOBS.labels, v), "learning_rate",
        (-0.1, np.inf), 0.1),
    "pareto_resample-scale": (lambda v: pareto_resample(BLOBS, v, 0), "scale", (-1.5,), 0.0),
    "pareto_tail_counts-scale": (
        lambda v: pareto_tail_counts([5, 3, 1], v), "scale", (-3.0, -1.5), 0.0),
    "softmax_rows-temperature": (
        lambda v: softmax_rows([[1.0, 2.0]], v), "temperature", (0.0, -1.0, np.inf), 2.0),
    "input_gradient_batch-temperature": (
        lambda v: input_gradient_batch(MODEL, [[0.5, 0.0, -0.5]], [[0.25, 0.75]], [1], v),
        "temperature", (0.0, -1.0, np.inf), 2.0),
    "calibrate_batch_full-temperature": (
        lambda v: calibrate_batch_full(MODEL, ROWS, v, STEP), "temperature",
        (0.0, -1.0, np.inf), 2.0),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_ARGUMENTS))
@pytest.mark.parametrize(
    "bad", ["out-of-range", np.nan, "0.5", None, True], ids=["range", "nan", "text", "none", "bool"]
)
def test_float_argument_out_of_range_rejected_by_name_and_value(entry, bad):
    call, name, out_of_range, valid = FLOAT_ARGUMENTS[entry]
    for value in out_of_range if bad == "out-of-range" else (bad,):
        with pytest.raises(InvalidParameterError,
                           match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
            call(value)
    call(valid)  # a Python float
    call(np.float64(valid))  # and a numpy float


# each config key whose rule a function argument shares: (a call with that
# argument set to v, values on both sides of the rule's bounds)
SHARED_RULES = {
    "blob_separation": (lambda v: make_blobs([3, 3], 2, v, seed=0), (0.0, 5e-324, -1.0, 1e300)),
    "test_fraction": (lambda v: train_test_split(BLOBS, v, seed=0), (0.0, 1e-300, 0.75, 1.0)),
    "pareto_scale": (lambda v: pareto_tail_counts([5, 3, 1], v), (-1.0 - 1e-11, -1.0, 4.0)),
    "learning_rate": (lambda v: train_step(MODEL, BLOBS.features, BLOBS.labels, v),
                      (-5e-324, 0.0, 2.0)),
    "blob_dim": (lambda v: make_blobs([3, 3], v, 2.0, seed=0), (0, 1, 3)),
    "hidden_units": (lambda v: init_model(2, v, 2, seed=0), (0, 1, 3)),
    "batch_size": (_drawn, (-1, 0, 1, 3)),
}
ODD_VALUES = (math.nan, math.inf, -math.inf, True, False, "1", None, [1], 2.5,
              np.int64(1), np.float64(0.5), np.float32(2.0), np.bool_(True))


def _rule_broken(call, value):
    """What `call(value)` says after "must be " when it rejects value, else None."""
    try:
        call(value)
    except InvalidParameterError as exc:
        return str(exc).split(" must be ", 1)[1]
    return None


@pytest.mark.parametrize("key", sorted(SHARED_RULES))
def test_a_config_key_and_the_argument_it_feeds_follow_one_rule(key):
    call, bounds = SHARED_RULES[key]
    verdicts = set()
    for value in (*bounds, *ODD_VALUES):
        if value is None and key == "pareto_scale":  # the config's None: no resampling
            continue
        in_config = _rule_broken(lambda v: ExperimentConfig(**{key: v}), value)
        in_argument = _rule_broken(call, value)
        assert (in_config is None) == (in_argument is None), (value, in_config, in_argument)
        if in_config:  # worded alike; a None-taking key's rule reads "None or <rule>"
            assert in_config == in_argument or in_config == "None or " + in_argument
        verdicts.add(in_config is None)
    assert verdicts == {True, False}


STEP = 0.1 / np.array([1.0, 2.0])  # epsilon 0.1 over a std per feature of MODEL's two
ROWS = [[1, 2], [0, -1]]  # two samples of MODEL's two features


def _installed(weights):
    return install_distribution(SamplerState(strategy="boost", rng_seed=0), weights)


def _checkpoint(params):
    return model_from_dict({**model_to_dict(MODEL), "params": params}).params


def _resampled(step):
    state = SamplerState(strategy="boost", rng_seed=0)
    epoch_resample(state, MODEL, BLOBS, 2.0, step)
    return state.history[-1].probabilities


def _history_written(true_labels):
    state = SamplerState(strategy="random", rng_seed=0)
    epoch_resample(state, MODEL, Dataset(ROWS, [0, 1], 2), 1.0, STEP)
    write_history_csv(state, true_labels, os.devnull)


# every numeric-array parameter: (the function, the parameter's name, a call
# with it set to v that returns what the result holds, a valid value of ints)
FLOAT_ARRAY_ARGUMENTS = {
    "Dataset-features": (Dataset, "features", lambda v: Dataset(v, [0, 1], 2).features, ROWS),
    "ClassifierModel-params": (
        ClassifierModel, "params", lambda v: ClassifierModel(v, 2, 3, 2).params,
        list(range(-8, 9))),
    "forward_batch-features": (forward_batch, "features", lambda v: forward_batch(MODEL, v), ROWS),
    "hidden_activations-features": (
        hidden_activations, "features", lambda v: hidden_activations(MODEL, v), ROWS),
    "loss_and_gradients-features": (
        loss_and_gradients, "features", lambda v: loss_and_gradients(MODEL, v, [0, 1]), ROWS),
    "train_step-features": (
        train_step, "features",
        lambda v: (lambda model, loss: (model.params, loss))(*train_step(MODEL, v, [0, 1], 0.1)),
        ROWS),
    "softmax_rows-logits": (softmax_rows, "logits", lambda v: softmax_rows(v, 2.0), [[1, 2, 3]]),
    "input_gradient_batch-hidden": (
        input_gradient_batch, "hidden",
        lambda v: input_gradient_batch(MODEL, v, [[0.25, 0.75]], [1], 2.0), [[0, 1, -1]]),
    "input_gradient_batch-probs": (
        input_gradient_batch, "probs",
        lambda v: input_gradient_batch(MODEL, [[0.5, 0.0, -0.5]], v, [1], 2.0), [[0, 1]]),
    "model_from_dict-params": (model_from_dict, "params", _checkpoint, list(range(-8, 9))),
    "run_evaluation-step": (
        run_evaluation, "step",
        lambda v: run_evaluation(MODEL, BLOBS, v, ExperimentConfig(epochs=1)).to_dict(), [1, 2]),
    "perturb-x": (perturb, "x", lambda v: perturb(v, [[1.0, -1.0]], STEP), [[1, 2]]),
    "perturb-grad": (perturb, "grad", lambda v: perturb([[1.0, 2.0]], v, STEP), [[1, -1]]),
    "perturb-step": (perturb, "step", lambda v: perturb([[1.0, 2.0]], [[1.0, -1.0]], v), [1, 2]),
    "calibrate_batch_full-features": (
        calibrate_batch_full, "features", lambda v: calibrate_batch_full(MODEL, v, 2.0, STEP),
        ROWS),
    "calibrate_batch_full-step": (
        calibrate_batch_full, "step", lambda v: calibrate_batch_full(MODEL, ROWS, 2.0, v), [1, 2]),
    "epoch_resample-step": (epoch_resample, "step", _resampled, [1, 2]),
    "aggregate_class_scores-max_scores": (
        aggregate_class_scores, "max_scores", lambda v: aggregate_class_scores(v, [0, 1], 2),
        [1, 0]),
    "boost_probabilities-logits": (
        boost_probabilities, "logits", lambda v: boost_probabilities(v, [0, 1], [0.5, 1.0]),
        ROWS),
    "boost_probabilities-aggregates": (
        boost_probabilities, "aggregates", lambda v: boost_probabilities([[1.0, 2.0]], [0], v),
        [1, 1]),
    "install_distribution-weights": (install_distribution, "weights", _installed, [1, 2]),
    "PredictionLog-profiles": (
        PredictionLog, "profiles", lambda v: PredictionLog([0], [0], v).profiles, [[1, 0]]),
    "mab-per_class_metric": (mab, "per_class_metric", mab, [1, 2, 4]),
    "sdb-per_class_metric": (sdb, "per_class_metric", sdb, [1, 2, 4]),
    "sodc_total-per_class": (sodc_total, "per_class", sodc_total, [1, 2]),
}
FLOAT_ARRAY_PARAMETERS = {
    "features", "params", "logits", "hidden", "probs", "step", "x", "grad", "max_scores",
    "aggregates", "weights", "profiles", "per_class_metric", "per_class",
}
NOT_NUMERIC = {
    "text": "abc",
    "none": [None, 0.5],
    "numeric-text": ["1.5"],
    "bool": [True, False],
    "complex": [1j],
    "ragged": [[1.0], [2.0, 3.0]],
    "huge-int": [[10**400]],
}


@pytest.mark.parametrize("entry", sorted(FLOAT_ARRAY_ARGUMENTS))
@pytest.mark.parametrize("bad", sorted(NOT_NUMERIC))
def test_numeric_array_argument_rejects_what_is_not_numeric_by_name(entry, bad):
    _, name, call, _ = FLOAT_ARRAY_ARGUMENTS[entry]
    with pytest.raises(InvalidParameterError, match=f"^{name} must be numeric"):
        call(NOT_NUMERIC[bad])


# a NaN or an infinity in any numeric-array argument is rejected by name
# before any arithmetic, so no RuntimeWarning escapes
NOT_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


@pytest.mark.parametrize("entry", sorted(FLOAT_ARRAY_ARGUMENTS))
@pytest.mark.parametrize("bad", sorted(NOT_FINITE))
def test_numeric_array_argument_rejects_what_is_not_finite_by_name(entry, bad):
    _, name, call, valid = FLOAT_ARRAY_ARGUMENTS[entry]
    values = np.array(valid, dtype=np.float64)
    values.flat[0] = NOT_FINITE[bad]
    with pytest.raises(InvalidParameterError, match=f"^{name} must be finite$"):
        call(values)
    with pytest.raises(InvalidParameterError, match=f"^{name} must be finite$"):
        call(values.tolist())


@pytest.mark.parametrize("entry", sorted(FLOAT_ARRAY_ARGUMENTS))
def test_numeric_array_argument_takes_a_list_of_ints_as_floats(entry):
    _, _, call, ints = FLOAT_ARRAY_ARGUMENTS[entry]
    np.testing.assert_equal(call(ints), call(np.array(ints, dtype=np.float64)))


def _takers(parameters):
    """(callable, parameter) of each public boostlab callable's parameters
    named in parameters."""
    modules = (data_mod, model_mod, calibration_mod, sampler_mod, metrics_mod, harness_mod)
    public = {  # defined in the module itself, so no import is counted twice
        obj
        for module in modules
        for name, obj in vars(module).items()
        if callable(obj) and not name.startswith("_") and obj.__module__ == module.__name__
    }
    return {(obj, parameter) for obj in public
            for parameter in parameters & set(inspect.signature(obj).parameters)}


def test_every_numeric_array_parameter_is_fuzzed():
    fuzzed = {(obj, name) for obj, name, _, _ in FLOAT_ARRAY_ARGUMENTS.values()}
    # a report's per_class is a dict of each class's rates, not an array
    assert _takers(FLOAT_ARRAY_PARAMETERS) - fuzzed == {(metrics_mod.MetricsReport, "per_class")}


# every parameter that takes class labels: (the function, the parameter, the
# name its errors give, a call with it set to v, the class count); valid
# labels are [0, 1], and write_history_csv takes any class count
LABEL_ARGUMENTS = {
    "Dataset-labels": (Dataset, "labels", "labels", lambda v: Dataset(ROWS, v, 2), 2),
    "PredictionLog-true_labels": (
        PredictionLog, "true_labels", "true labels",
        lambda v: PredictionLog(v, [0, 1], [[1.0, 0.0], [0.0, 1.0]]), 2),
    "PredictionLog-predicted_labels": (
        PredictionLog, "predicted_labels", "predicted labels",
        lambda v: PredictionLog([0, 1], v, [[1.0, 0.0], [0.0, 1.0]]), 2),
    "aggregate_class_scores-labels": (
        aggregate_class_scores, "labels", "labels",
        lambda v: aggregate_class_scores([0.5, 0.5], v, 2), 2),
    "boost_probabilities-class_index": (
        boost_probabilities, "class_index", "class_index",
        lambda v: boost_probabilities(ROWS, v, [0.5, 1.0]), 2),
    "train_step-labels": (
        train_step, "labels", "labels", lambda v: train_step(MODEL, ROWS, v, 0.1), 2),
    "loss_and_gradients-labels": (
        loss_and_gradients, "labels", "labels", lambda v: loss_and_gradients(MODEL, ROWS, v), 2),
    "input_gradient_batch-class_indices": (
        input_gradient_batch, "class_indices", "class_indices",
        lambda v: input_gradient_batch(MODEL, [[0.5, 0.0, -0.5]] * 2, [[0.25, 0.75]] * 2, v, 2.0),
        2),
    "write_history_csv-true_labels": (
        write_history_csv, "true_labels", "true_labels", _history_written, np.iinfo(np.intp).max),
}
LABEL_PARAMETERS = {"labels", "true_labels", "predicted_labels", "class_index", "class_indices"}
NOT_INTEGERS = {
    "fractional": [0, 0.5],
    "nan": [0, np.nan],
    "inf": [0, np.inf],
    "text": ["a", "b"],
    "numeric-text": ["0", "1"],
    "bool": [True, False],
    "none": [0, None],
}


@pytest.mark.parametrize("entry", sorted(LABEL_ARGUMENTS))
@pytest.mark.parametrize("bad", sorted(NOT_INTEGERS))
def test_labels_that_are_not_integers_are_rejected_by_name(entry, bad):
    _, _, name, call, _ = LABEL_ARGUMENTS[entry]
    with pytest.raises(InvalidParameterError, match=f"^{name} must be integers$"):
        call(NOT_INTEGERS[bad])


@pytest.mark.parametrize("entry", sorted(LABEL_ARGUMENTS))
def test_labels_out_of_range_or_ragged_are_rejected_by_name(entry):
    _, _, name, call, k = LABEL_ARGUMENTS[entry]
    for labels in ([0, -1], [0, k]):
        with pytest.raises(InvalidParameterError, match=rf"^{name} must lie in \[0, {k}\)$"):
            call(labels)
    with pytest.raises(InvalidParameterError, match=f"^{name} must be integers: "):
        call([[0], [1, 0]])
    call([0, 1])  # as ints
    call([0.0, 1.0])  # and as integral floats


def test_every_label_parameter_is_in_the_label_table():
    assert _takers(LABEL_PARAMETERS) == {(f, p) for f, p, *_ in LABEL_ARGUMENTS.values()}


# every array argument whose shape is checked: (a call with it set to v, its
# name, a tuple of values of the wrong shape, an empty value, a valid value);
# the wrong shapes add an axis, drop one, or get a length wrong, and each
# error names the shape it got. An empty value has no entries along a `*`
# axis; it is None where every length is fixed or another argument's, as
# there an empty value is of the wrong shape. softmax_rows' logits and
# perturb's x take any rank, so no value is of the wrong shape: ()
SHAPED_ARGUMENTS = {
    "Dataset-features": (
        lambda v: Dataset(v, [0, 1], 2), "features", ([[1.0, 2.0]],), np.zeros((2, 0)), ROWS),
    "Dataset-labels": (lambda v: Dataset(ROWS, v, 2), "labels", ([[0, 1]],), [], [0, 1]),
    "ClassifierModel-params": (
        lambda v: ClassifierModel(v, 2, 3, 2), "params", (list(range(16)),), None,
        list(range(17))),
    "forward_batch-features": (
        lambda v: forward_batch(MODEL, v), "features", ([1.0, 2.0], [[1.0, 2.0, 3.0]]),
        np.zeros((0, 2)), ROWS),
    "train_step-features": (
        lambda v: train_step(MODEL, v, np.zeros(len(v), dtype=int), 0.1), "features",
        ([1.0, 2.0],), np.zeros((0, 2)), ROWS),
    "loss_and_gradients-features": (
        lambda v: loss_and_gradients(MODEL, v, [0, 1]), "features", ([[1, 2, 3], [0, 0, 0]],),
        np.zeros((0, 2)), ROWS),
    "loss_and_gradients-labels": (
        lambda v: loss_and_gradients(MODEL, ROWS, v), "labels", ([0], [[0], [1]]), None, [0, 1]),
    "input_gradient_batch-hidden": (
        lambda v: input_gradient_batch(MODEL, v, [[0.25, 0.75]], [1], 2.0), "hidden",
        ([0.5, 0.0, -0.5],), np.zeros((0, 3)), [[0.5, 0.0, -0.5]]),
    "input_gradient_batch-probs": (
        lambda v: input_gradient_batch(MODEL, [[0.5, 0.0, -0.5]], v, [1], 2.0), "probs",
        ([[0.25, 0.75], [0.5, 0.5]],), None, [[0.25, 0.75]]),
    "input_gradient_batch-class_indices": (
        lambda v: input_gradient_batch(MODEL, [[0.5, 0.0, -0.5]], [[0.25, 0.75]], v, 2.0),
        "class_indices", ([1, 0],), None, [1]),
    "softmax_rows-logits": (
        lambda v: softmax_rows(v, 2.0), "logits", (), np.zeros((2, 0)), [[1.0, 2.0]]),
    "perturb-x": (
        lambda v: perturb(v, np.ones(np.shape(v)), STEP), "x", (), np.zeros((0, 2)), [[1, 2]]),
    "perturb-grad": (
        lambda v: perturb([[1.0, 2.0]], v, STEP), "grad", ([1.0, -1.0], [[1.0]]), None, [[1, -1]]),
    "perturb-step": (
        lambda v: perturb([[1.0, 2.0]], [[1.0, -1.0]], v), "step", ([[0.1, 0.2]],), None, STEP),
    "calibrate_batch_full-features": (
        lambda v: calibrate_batch_full(MODEL, v, 2.0, STEP), "features", ([1.0, 2.0],),
        np.zeros((0, 2)), ROWS),
    "calibrate_batch_full-step": (
        lambda v: calibrate_batch_full(MODEL, ROWS, 2.0, v), "step", ([0.1, 0.2, 0.3],), None,
        STEP),
    "aggregate_class_scores-max_scores": (
        lambda v: aggregate_class_scores(v, [0, 1], 2), "max_scores", ([[0.5, 0.5]],), [],
        [0.5, 0.5]),
    "aggregate_class_scores-labels": (
        lambda v: aggregate_class_scores([0.5, 0.5], v, 2), "labels", ([0],), None, [0, 1]),
    "boost_probabilities-logits": (
        lambda v: boost_probabilities(v, [0], [0.5, 1.0]), "logits",
        ([1.0, 2.0], np.zeros((1, 2, 2))), np.zeros((0, 2)), [[1.0, 2.0]]),
    "boost_probabilities-class_index": (
        lambda v: boost_probabilities(ROWS, v, [0.5, 1.0]), "class_index", ([0],), None, [0, 1]),
    "boost_probabilities-aggregates": (
        lambda v: boost_probabilities(ROWS, [0, 1], v), "aggregates",
        ([[0.5, 1.0]], [0.5, 0.5, 0.5]), None, [0.5, 1.0]),
    "install_distribution-weights": (_installed, "weights", ([[1.0, 2.0]],), [], [1.0, 2.0]),
    "PredictionLog-profiles": (
        lambda v: PredictionLog([0], [0], v), "profiles", ([1.0, 0.0],), np.zeros((1, 0)),
        [[1.0, 0.0]]),
    "PredictionLog-true_labels": (
        lambda v: PredictionLog(v, [0], [[1.0, 0.0]]), "true labels", ([0, 1],), None, [0]),
    "PredictionLog-predicted_labels": (
        lambda v: PredictionLog([0], v, [[1.0, 0.0]]), "predicted labels", ([[0]],), None, [0]),
    "write_history_csv-true_labels": (_history_written, "true_labels", ([0],), [], [0, 1]),
    "mab-per_class_metric": (mab, "per_class_metric", ([[1.0, 2.0]],), [], [1.0, 2.0]),
    "sdb-per_class_metric": (sdb, "per_class_metric", ([[1.0, 2.0]],), [], [1.0, 2.0]),
    "sodc_total-per_class": (sodc_total, "per_class", ([[0.5, 1.0]],), [], [0.5, 1.0]),
    "make_blobs-n_per_class": (
        lambda v: make_blobs(v, 2, 2.0, seed=0), "n_per_class", ([[3, 3]],), [], [3, 3]),
    "pareto_tail_counts-class_counts": (
        lambda v: pareto_tail_counts(v, 0.0), "class_counts", ([[5, 3]],), [], [5, 3]),
}


@pytest.mark.parametrize("entry", sorted(SHAPED_ARGUMENTS))
def test_misshapen_array_argument_raises_a_shape_error_by_name(entry):
    call, name, misshapen, empty, valid = SHAPED_ARGUMENTS[entry]
    for value in misshapen:
        shape = re.escape(str(np.shape(value)))
        with pytest.raises(InputShapeError, match=rf"^{name} must have shape \(.*\), got {shape}$"):
            call(value)
    if empty is not None:
        shape = re.escape(str(np.shape(empty)))
        message = rf"^{name} must not be empty, got shape {shape}$"
        with pytest.raises(EmptyInputError, match=message):
            call(empty)
    call(valid)


def test_float_array_converts_ints_and_returns_a_float64_array_as_itself():
    values = np.arange(3.0)
    assert float_array(values, "values") is values
    converted = float_array(np.arange(3, dtype=np.uint8), "values")
    assert converted.dtype == np.float64
    np.testing.assert_array_equal(converted, values)


class TestDataset:
    def test_scalar_labels_raise_a_shape_error(self):
        with pytest.raises(InputShapeError, match=r"^labels must have shape \(\*,\), got \(\)$"):
            Dataset(features=[[1.0], [2.0]], labels=0, num_classes=1)

    def test_integral_float_labels_become_class_indices(self):
        data = Dataset(features=[[1.0], [2.0], [3.0]], labels=[0.0, 1.0, 1.0], num_classes=2)
        assert data.labels.dtype == np.intp
        np.testing.assert_array_equal(data.class_counts, [1, 2])


class TestMakeBlobs:
    def test_counts_bookkeeping(self):
        data = make_blobs([900, 100], 2, 3.0, seed=0)
        np.testing.assert_array_equal(data.class_counts, [900, 100])
        assert data.n == 1000
        assert data.num_classes == 2

    def test_deterministic_per_seed(self):
        a = make_blobs([50, 50], 3, 2.0, seed=7)
        b = make_blobs([50, 50], 3, 2.0, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = make_blobs([50, 50], 3, 2.0, seed=8)
        assert not np.array_equal(a.features, c.features)

    @pytest.mark.parametrize(
        "counts, d", [([9, 1], 2), ([5, 4, 3, 2], 4), ([6], 3), (np.array([2, 7], np.uint64), 2)]
    )
    def test_equals_one_draw_per_class_in_class_order(self, counts, d):
        """The reference: each class's rows drawn in turn from the one stream."""
        rng = np.random.default_rng(7)
        centers = _simplex_centers(len(counts), d, 2.5)
        expected = np.vstack([rng.normal(size=(count, d)) + centers[c]
                              for c, count in enumerate(counts)])
        data = make_blobs(counts, d, 2.5, seed=7)
        np.testing.assert_array_equal(data.features, expected)
        labels = [np.full(count, c) for c, count in enumerate(counts)]
        np.testing.assert_array_equal(data.labels, np.concatenate(labels))

    def test_separable_blobs_trainable_to_full_accuracy(self):
        data = make_blobs([10, 10], 2, 10.0, seed=1)
        model = init_model(2, 4, 2, seed=0)
        for _ in range(300):
            model, _ = train_step(model, data.features, data.labels, 0.5)
        _, logits = forward_batch(model, data.features)
        predictions = logits.argmax(axis=1)
        assert (predictions == data.labels).mean() == 1.0

    def test_zero_count_rejected(self):
        for counts in ([10, 0], [3, -1]):  # one wording for zero and negative counts
            with pytest.raises(InvalidParameterError,
                               match=rf"^n_per_class must be ints >= 1, got \{counts}$"):
                make_blobs(counts, 2, 3.0, seed=0)

    @pytest.mark.parametrize("counts", [[2.7, 3], ["2", "3"], [[1, 2], [3]]],
                             ids=["fractional", "text", "ragged"])
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(InvalidParameterError, match="^n_per_class must"):
            make_blobs(counts, 2, 2.0, seed=0)

    def test_scalar_counts_rejected(self):
        with pytest.raises(InputShapeError,
                           match=r"^n_per_class must have shape \(\*,\), got \(\)$"):
            make_blobs(5, 2, 2.0, seed=0)

    @pytest.mark.parametrize(
        "d, separation",
        [(2.5, 2.0), (True, 2.0), ("2", 2.0), (0, 2.0), (2, 0.0), (2, np.nan), (2, "2"),
         (2, None)],
        ids=["fractional-dim", "bool-dim", "text-dim", "zero-dim", "zero-separation",
             "nan-separation", "text-separation", "none-separation"],
    )
    def test_bad_dim_or_separation_rejected(self, d, separation):
        named, value = ("d", d) if separation == 2.0 else ("separation", separation)
        with pytest.raises(InvalidParameterError,
                           match=f"^{named} must be .*, got {re.escape(repr(value))}$"):
            make_blobs([3, 3], d, separation, seed=0)

    def test_equal_pairwise_center_distances(self):
        # recover empirical class means; the simplex layout keeps them equidistant
        data = make_blobs([4000, 4000, 4000], 3, 6.0, seed=5)
        means = np.array([data.features[data.labels == c].mean(axis=0) for c in range(3)])
        d01 = np.linalg.norm(means[0] - means[1])
        d02 = np.linalg.norm(means[0] - means[2])
        d12 = np.linalg.norm(means[1] - means[2])
        np.testing.assert_allclose([d01, d02, d12], 6.0, atol=0.15)

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("extra_dims", [0, 1, 2])
    def test_centers_are_separation_apart_from_k_minus_1_dims(self, k, extra_dims):
        centers = _simplex_centers(k, k - 1 + extra_dims, 2.5)
        pairs = np.triu_indices(k, 1)
        distances = np.linalg.norm(centers[pairs[0]] - centers[pairs[1]], axis=1)
        np.testing.assert_allclose(distances, 2.5, rtol=1e-12, atol=0)
        # and their centroid is the origin, up to the construction's own
        # rounding (fsum adds exactly): a few ulps of the separation
        centroid = [math.fsum(column) for column in centers.T]
        assert max(map(abs, centroid)) <= 2 * np.finfo(float).eps * 2.5

    @pytest.mark.parametrize(
        "k, d, shared", [(3, 1, (1, 2)), (4, 2, (2, 3)), (2, 3, None), (1, 3, None)])
    def test_centers_below_k_minus_1_dims_can_coincide(self, k, d, shared):
        centers = _simplex_centers(k, d, 3.0)
        assert centers.shape == (k, d)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)  # equal up to rounding
                 if np.linalg.norm(centers[i] - centers[j]) < 1e-12 * 3.0]
        assert pairs == ([shared] if shared else [])
        if k == 1:
            np.testing.assert_array_equal(centers, np.zeros((1, d)))


class TestParetoResample:
    def test_flat_curve_keeps_balanced_counts(self):
        data = make_blobs([80, 80, 80], 2, 3.0, seed=2)
        out = pareto_resample(data, -1.0, 0)
        np.testing.assert_array_equal(np.sort(out.class_counts), [80, 80, 80])
        np.testing.assert_array_equal(out.class_counts, data.class_counts)

    def test_steep_curve_counts(self):
        data = make_blobs([100, 80, 60, 40], 2, 3.0, seed=3)
        targets = pareto_tail_counts(data.class_counts, 0.0)
        # curve (1+r)^-1 anchored at 100
        np.testing.assert_array_equal(targets, [100, 50, 33, 25])
        out = pareto_resample(data, 0.0, 1)
        ranked = np.sort(out.class_counts)[::-1]
        assert ranked[0] == 100
        assert all(b <= a for a, b in zip(ranked, ranked[1:]))

    def test_reference_scales_accepted(self):
        data = make_blobs([50, 30, 20], 2, 3.0, seed=4)
        for scale in (-0.5, -0.2, 0.0):
            out = pareto_resample(data, scale, 0)
            ranked = np.sort(out.class_counts)[::-1]
            assert ranked[0] == 50
            assert all(b <= a for a, b in zip(ranked, ranked[1:]))
            assert all(c > 0 for c in out.class_counts)

    def test_oversampling_draws_only_from_own_class(self):
        data = make_blobs([60, 5], 2, 3.0, seed=6)
        out = pareto_resample(data, -0.9, 2)
        # deficit class grew; every resampled point must exist in the source class
        source = {tuple(row) for row in data.features[data.labels == 1]}
        for row in out.features[out.labels == 1]:
            assert tuple(row) in source

    def test_subsampling_never_duplicates(self):
        data = make_blobs([100, 100], 2, 3.0, seed=7)
        out = pareto_resample(data, 0.0, 3)
        minority = out.features[out.labels == np.argmin(out.class_counts)]
        assert len({tuple(r) for r in minority}) == len(minority)

    def test_deterministic(self):
        data = make_blobs([90, 40, 20], 2, 3.0, seed=8)
        a = pareto_resample(data, -0.2, 9)
        b = pareto_resample(data, -0.2, 9)
        np.testing.assert_array_equal(a.features, b.features)

    def test_single_class_returned_unchanged(self):
        data = make_blobs([30], 2, 3.0, seed=9)
        out = pareto_resample(data, 0.0, 0)
        assert out is data

    @pytest.mark.parametrize("scale", [-1.5, np.nan, "0", None], ids=repr)
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(InvalidParameterError, match="^scale must be at least -1"):
            pareto_resample(BLOBS, scale, 0)

    @pytest.mark.parametrize(
        "counts, error, message",
        [("x", InputShapeError, r"have shape \(\*,\), got \(\)$"),
         (None, InputShapeError, r"have shape \(\*,\), got \(\)$"),
         ([], EmptyInputError, r"not be empty, got shape \(0,\)$"),
         ("ab", InputShapeError, r"have shape \(\*,\), got \(\)$"),
         ([5, -1], InvalidParameterError, "be ints >= 0, got "),
         ([5.0, 3.0], InvalidParameterError, "be ints >= 0, got "),
         ([True, False], InvalidParameterError, "be ints >= 0, got "),
         ([[1], [2, 3]], InvalidParameterError, "be ints >= 0, got ragged rows$")],
        ids=["text", "none", "empty", "text-pair", "negative", "floats", "bools", "ragged"],
    )
    def test_bad_counts_rejected(self, counts, error, message):
        with pytest.raises(error, match=f"^class_counts must {message}"):
            pareto_tail_counts(counts, 0.0)

    def test_matrix_counts_rejected(self):
        with pytest.raises(InputShapeError,
                           match=r"^class_counts must have shape \(\*,\), got \(1, 2\)$"):
            pareto_tail_counts([[1, 2]], 0.0)

    @pytest.mark.parametrize("scale, seed, named", [(-1.5, 0, "scale"), (0.0, -1, "seed")])
    def test_bad_scale_or_seed_rejected_before_the_early_exits(self, scale, seed, named):
        one_class = make_blobs([30], 2, 3.0, seed=9)  # no Dataset is empty (the next test)
        with pytest.raises(InvalidParameterError, match=f"^{named} must"):
            pareto_resample(one_class, scale, seed)

    def test_empty_dataset_rejected(self):
        # an empty dataset cannot reach pareto_resample: Dataset rejects it
        with pytest.raises(EmptyInputError, match=r"^labels must not be empty, got shape \(0,\)$"):
            Dataset(features=np.zeros((0, 2)), labels=[], num_classes=2)

    @pytest.mark.parametrize("scale", [0.0, 0.5])
    def test_empty_last_class_stays_empty_and_the_rest_resample_as_without_it(self, scale):
        # a rare class can end up with no train samples after a CSV split
        data = make_blobs([50, 20, 9], 2, 2.5, 3)
        wider = Dataset(data.features, data.labels, num_classes=4)
        expected, got = pareto_resample(data, scale, 7), pareto_resample(wider, scale, 7)
        np.testing.assert_array_equal(got.features, expected.features)
        np.testing.assert_array_equal(got.labels, expected.labels)
        np.testing.assert_array_equal(got.class_counts, [*expected.class_counts, 0])

    def test_empty_middle_class_stays_empty_and_the_rest_resample_as_without_it(self):
        features = np.arange(4.0)[:, None]
        got = pareto_resample(Dataset(features, [0, 0, 2, 2], num_classes=3), 0.0, 0)
        expected = pareto_resample(Dataset(features, [0, 0, 1, 1], num_classes=2), 0.0, 0)
        np.testing.assert_array_equal(got.features, expected.features)
        np.testing.assert_array_equal(got.labels, 2 * expected.labels)
        np.testing.assert_array_equal(got.class_counts, [2, 0, 1])


class TestFeatureStd:
    def test_constant_column_replaced_by_one(self):
        features = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        data = Dataset(features=features, labels=np.zeros(10, dtype=int), num_classes=1)
        std = compute_feature_std(data)
        assert std[0] == 1.0
        assert std[1] > 0

    def test_two_point_population_std(self):
        data = Dataset(
            features=np.array([[0.0], [2.0]]), labels=np.array([0, 0]), num_classes=1
        )
        assert compute_feature_std(data)[0] == pytest.approx(1.0)

    def test_unit_gaussian_close_to_one(self):
        rng = np.random.default_rng(10)
        data = Dataset(
            features=rng.normal(size=(10_000, 1)),
            labels=np.zeros(10_000, dtype=int),
            num_classes=1,
        )
        assert compute_feature_std(data)[0] == pytest.approx(1.0, abs=0.05)

    def test_one_sample_gives_ones_and_empty_split_raises(self):
        one = Dataset(features=np.array([[1.0, -2.0]]), labels=np.array([0]), num_classes=1)
        np.testing.assert_array_equal(compute_feature_std(one), np.ones(2))
        # an empty split cannot reach compute_feature_std: Dataset rejects it
        with pytest.raises(EmptyInputError, match=r"^labels must not be empty, got shape \(0,\)$"):
            Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int), num_classes=1)

    def test_overflowing_std_rejected(self):
        with pytest.raises(NumericOverflowError):
            compute_feature_std(make_blobs([6, 3], 1, 1e300, seed=0))


class TestCsv:
    def test_lexicographic_label_mapping(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f0,f1,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        data = load_csv(path, "label")
        np.testing.assert_array_equal(data.labels, [0, 1, 0])
        assert data.num_classes == 2
        np.testing.assert_allclose(data.features, [[1, 2], [3, 4], [5, 6]])

    @pytest.mark.xfail(raises=CsvParseError, reason=(
        "known defect: the body is cut at the blank line inside the quoted label, and load_csv "
        "raises 'row 3: expected 2 fields, got 0'; np.loadtxt alone reads both records"))
    def test_quoted_field_holding_a_blank_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text('f0,label\n1,"a\n\nb"\n2,c\n')
        try:
            data = load_csv(path, "label")
        except CsvParseError as exc:  # only the documented failure is the expected one
            assert str(exc).endswith("row 3: expected 2 fields, got 0"), str(exc)
            raise
        np.testing.assert_array_equal(data.features, [[1.0], [2.0]])
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvParseError):
            load_csv(path, "label")

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,a\n2.0\n")
        with pytest.raises(CsvParseError, match="row 3"):
            load_csv(path, "label")

    def test_non_finite_feature_reports_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        for bad in ("nan", "inf", "-Infinity"):
            path.write_text(f"f0,f1,label\n1.0,2.0,a\n3.0,{bad},b\n4.0,5.0,a\n")
            with pytest.raises(CsvParseError, match="row 3"):
                load_csv(path, "label")

    def test_non_numeric_feature_reports_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,a\noops,b\n")
        with pytest.raises(CsvParseError, match="row 3"):
            load_csv(path, "label")

    def test_label_column_in_the_middle(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("a,y,b\n1.5,cat,-2\n0.25,dog,3e2\n")
        ds = load_csv(path, "y")
        np.testing.assert_array_equal(ds.features, [[1.5, -2.0], [0.25, 300.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,x\n1,0.5\n0,-2\n")
        ds = load_csv(path, "label")
        np.testing.assert_array_equal(ds.labels, [1, 0])
        np.testing.assert_array_equal(ds.features, [[0.5], [-2.0]])

    def test_byte_order_mark_past_the_start_is_kept(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x,\xef\xbb\xbflabel\n0.5,1\n")
        with pytest.raises(CsvParseError, match="no column named 'label'"):
            load_csv(path, "label")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(CsvParseError, match="no column"):
            load_csv(path, "label")

    @pytest.mark.parametrize(
        "content, named",
        [
            (b"label\n" + b"0\n1\n" * 4, "no feature column"),
            (b"f0,label\n\xff,0\n", "utf-8"),
            (b"f0,label\n" + b"1" * 200_000 + b",0\n", "field limit"),
            (b"label,a,label\n0,1.5,1\n1,2.5,0\n", "more than one column"),
        ],
        ids=["label-only", "not-utf8", "oversized-field", "repeated-label"],
    )
    def test_malformed_file_raises_a_typed_error_naming_it(self, tmp_path, content, named):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(CsvParseError, match=named) as info:
            load_csv(path, "label")
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "content, features, labels",
        [
            # a quoted field keeps its comma, a doubled quote is one quote, and a
            # quote inside an unquoted field is text: 'c""d' quoted and c"d are one label
            (b'f0,label\n"1.5","a,b"\n2,"c""d"\n3,c"d\n', [[1.5], [2], [3]], [0, 1, 1]),
            (b"f0,label\r\n1,b\r\n2,a", [[1], [2]], [1, 0]),  # CRLF, no final newline
            (b"f0,label\n 1.5 ,#b\n-2\t,a#\n", [[1.5], [-2]], [0, 1]),  # '#' is text
            (b'f0,label\n1,"x\ny"\n2,"x\r\ny"\n', [[1], [2]], [0, 1]),  # a label across lines
            ("f0,label\n1,\u65e5\n2,\xe9\n".encode(), [[1], [2]], [1, 0]),  # labels past latin-1
            # a field of csv.field_size_limit() characters, quoted or not
            (b'f0,f1,label\n"' + b"0" * 131_071 + b'1",' + b"0" * 131_071 + b"2,a\n",
             [[1, 2]], [0]),
        ],
        ids=["quoted", "crlf-no-final-newline", "hash-and-spaces", "quoted-newline",
             "non-latin-1-label", "field-at-the-limit"],
    )
    def test_dialect(self, tmp_path, content, features, labels):
        path = tmp_path / "dialect.csv"
        path.write_bytes(content)
        data = load_csv(path, "label")
        np.testing.assert_array_equal(data.features, features)
        np.testing.assert_array_equal(data.labels, labels)

    @pytest.mark.parametrize(
        "content, message",
        [
            # rows count records, not lines: the label across two lines is row 2
            (b'f0,label\n1,"x\ny"\noops,b\n', "row 3: non-numeric feature"),
            (b'f0,label\n1,"x\ny"\n2\n', "row 3: expected 2 fields, got 1"),
            (b"f0,f1,label\n,1.0,a\n", "row 2: non-numeric feature"),
            (b"f0,label\n1.0,a,extra\n2.0,b\n", "row 2: expected 2 fields, got 3"),
            (b"f0,label\n1.0,a\n\n2.0,b\n", "row 3: expected 2 fields, got 0"),
            (b"f0,label\r\n1.0,a\r\n\r\n", "row 3: expected 2 fields, got 0"),
            (b"f0,label\n\n", "row 2: expected 2 fields, got 0"),
            # what float() reads and the decimal-or-exponent dialect does not
            (b"f0,label\n1.0,a\n1_0,b\n", "row 3: non-numeric feature"),
            ("f0,label\n\u0661,a\n".encode(), "row 2: non-numeric feature"),
            # csv.field_size_limit() characters at most, a finite number and a
            # label across lines among them
            (b"f0,label\n1.0,a\n" + b"0" * 131_072 + b"1,b\n",
             r"row 3: field larger than field limit \(131072\)"),
            (b'f0,label\n1.0,a\n2.0,"' + b"x\n" * 70_000 + b'"\n',
             r"row 3: field larger than field limit \(131072\)"),
        ],
        ids=["after-quoted-newline", "ragged-after-quoted-newline", "empty-field",
             "first-row-too-long", "blank-line", "blank-crlf-line", "blank-first-row",
             "underscore-digits", "non-ascii-digit", "long-finite-field", "long-label"],
    )
    def test_bad_row_is_named_by_its_record_number(self, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(CsvParseError, match=f"^{re.escape(str(path))}: {message}"):
            load_csv(path, "label")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_rejected_as_it_cannot_be_read_twice(self, tmp_path):
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("f0,label\n1,a\n",), daemon=True)
        writer.start()
        with pytest.raises(CsvParseError, match="not a readable CSV file: .*not seekable"):
            load_csv(path, "label")
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_one_dataset_written_five_ways_loads_to_the_same_bits(self, tmp_path):
        data = make_blobs([4, 3], 2, 2.5, seed=5)
        rows = [[*map(repr, x.tolist()), str(y)] for x, y in zip(data.features, data.labels)]
        lines = ["f0,f1,label", *map(",".join, rows)]
        written = {
            "plain": "\n".join(lines) + "\n",
            "bom": "\ufeff" + "\n".join(lines) + "\n",
            "crlf": "\r\n".join(lines) + "\r\n",
            "quoted": "".join(",".join(f'"{f}"' for f in line.split(",")) + "\n"
                              for line in lines),
            "label-first": "".join(f"{y},{a},{b}\n" for a, b, y in
                                   (line.split(",") for line in lines)),
        }
        for name, text in written.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(text.encode())
            loaded = load_csv(path, "label")
            assert loaded.features.tobytes() == data.features.tobytes(), name
            np.testing.assert_array_equal(loaded.labels, data.labels)

    def test_round_trip_exact(self, tmp_path):
        data = make_blobs([20, 30], 3, 2.5, seed=11)
        path = tmp_path / "roundtrip.csv"
        save_csv(data, path)
        loaded = load_csv(path, "label")
        np.testing.assert_array_equal(loaded.features, data.features)
        np.testing.assert_array_equal(loaded.labels, data.labels)

    def test_round_trip_twelve_integer_classes(self, tmp_path):
        # "10" sorts before "2" as a string; integer labels must keep numeric order
        data = make_blobs([3] * 12, 2, 2.5, seed=12)
        path = tmp_path / "twelve.csv"
        save_csv(data, path)
        loaded = load_csv(path, "label")
        np.testing.assert_array_equal(loaded.labels, data.labels)
        np.testing.assert_array_equal(loaded.features, data.features)


class TestSplit:
    def test_split_sizes(self):
        data = make_blobs([100, 100], 2, 3.0, seed=12)
        train, test = train_test_split(data, 0.25, seed=0)
        assert test.n == 50
        assert train.n == 150

    def test_split_deterministic(self):
        data = make_blobs([60, 60], 2, 3.0, seed=13)
        a_train, _ = train_test_split(data, 0.5, seed=1)
        b_train, _ = train_test_split(data, 0.5, seed=1)
        np.testing.assert_array_equal(a_train.features, b_train.features)

    @pytest.mark.parametrize("counts, fraction", [([1], 0.25), ([1, 1], 0.9)])
    def test_empty_half_rejected(self, counts, fraction):
        data = make_blobs(counts, 2, 3.0, seed=14)
        with pytest.raises(InsufficientDataError):
            train_test_split(data, fraction, seed=0)
