"""Property tests: fuzzed configuration values, of any type, either construct
a config whose data and temperatures are finite, or fail with a BoostLabError;
so do arbitrary bytes read as a labeled CSV, while save_csv then load_csv
gives back any finite features bit for bit; so do arbitrary arguments to Dataset,
arbitrary logits, class indices and aggregates given to
boost_probabilities, which otherwise return weights in [0, 1], arbitrary
weights given to install_distribution, which installs a distribution of
any vector and rejects any other shape, arbitrary labels given to
aggregate_class_scores, which otherwise returns the class means, arbitrary
labels given to train_step, loss_and_gradients, input_gradient_batch and
write_history_csv, which otherwise compute or write what integer labels
give, and arbitrary arguments to PredictionLog. Every entry point that
takes class labels is fuzzed here (LABEL_FUZZ). Every rate of a metrics
report, its ID/OOD partition, its flags and its SODC scores agree with the
literal oracles on arbitrary logs."""

import inspect
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from boostlab import data as data_mod
from boostlab import harness as harness_mod
from boostlab import metrics as metrics_mod
from boostlab import model as model_mod
from boostlab import sampler as sampler_mod
from boostlab.calibration import SCHEDULE_KINDS, temperature_at
from boostlab.data import Dataset, compute_feature_std, load_csv, save_csv
from boostlab.errors import (
    BoostLabError,
    EmptyInputError,
    InputShapeError,
    InvalidParameterError,
    NumericOverflowError,
)
from boostlab.harness import ExperimentConfig, build_datasets
from boostlab.metrics import PredictionLog, build_metrics_report
from boostlab.model import forward_batch, init_model, input_gradient_batch, loss_and_gradients
from boostlab.model import softmax_rows, train_step
from boostlab.sampler import PROB_SUM_TOL, EpochRecord, SamplerState, aggregate_class_scores
from boostlab.sampler import boost_probabilities, install_distribution

from oracles import oracle_confusion_metrics, oracle_sodc_per_class

EDGES = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300, -1e300]
ANY_FLOAT = st.floats() | st.sampled_from(EDGES)  # st.floats() spans the whole range too
ANY_INT = st.integers(min_value=-3, max_value=12)
# values of another type, as a JSON config file can hold them in any field
ANY_TYPE = st.text(max_size=4) | st.lists(ANY_INT, max_size=3) | st.none() | st.booleans()


def is_class_index(value, num_classes) -> bool:
    """Whether one label value is a whole number in [0, num_classes)."""
    return (isinstance(value, (int, float)) and math.isfinite(value) and value % 1 == 0
            and 0 <= value < num_classes)


# name: (values a run might use, values from the whole domain)
FIELDS = {
    "blob_dim": (st.integers(1, 4), ANY_INT),
    "blob_separation": (st.floats(0.1, 10.0), ANY_FLOAT),
    "test_fraction": (st.floats(0.05, 0.95), ANY_FLOAT),
    "pareto_scale": (st.none() | st.floats(-0.9, 3.0), ANY_FLOAT),
    "temp_kind": (st.sampled_from(SCHEDULE_KINDS),) * 2,
    "temp_start": (st.floats(0.5, 20.0), ANY_FLOAT),
    "temp_scale": (st.floats(1.5, 10.0), ANY_FLOAT),
    "temp_interval": (st.integers(1, 6), ANY_INT),
    "epsilon": (st.floats(0.0, 0.2), ANY_FLOAT),
    "epochs": (st.integers(1, 12), ANY_INT),
    "batch_size": (st.integers(1, 64), ANY_INT),
    "learning_rate": (st.floats(0.0, 1.0), ANY_FLOAT),
    "hidden_units": (st.integers(1, 8), ANY_INT),
    "seeds": (st.tuples(st.integers(0, 5)), st.tuples(ANY_INT)),
}


@pytest.mark.parametrize("fuzzed", sorted(FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_config_is_valid_or_rejected_with_a_typed_error(fuzzed, data):
    fields = {name: data.draw(usual, label=name) for name, (usual, _) in FIELDS.items()}
    fields[fuzzed] = data.draw(FIELDS[fuzzed][1] | ANY_TYPE, label=f"fuzzed {fuzzed}")
    try:
        config = ExperimentConfig(blob_counts=(6, 3), test_counts=(3, 2), **fields)
    except BoostLabError:
        return

    try:
        train, test, step = build_datasets(config, config.seeds[0])
    except NumericOverflowError:  # e.g. a separation of 1e300 overflows the feature std
        return
    except InvalidParameterError as exc:  # an epsilon near the float range overflows the step
        assert str(exc).startswith(f"epsilon {config.epsilon!r}: epsilon / grad_std overflows")
        return
    for split in (train, test):
        assert np.isfinite(split.features).all()
    assert step.shape == (train.num_features,)
    assert (step == config.epsilon / compute_feature_std(train)).all()
    assert np.isfinite(step).all() and (step >= 0).all()

    temperatures = [temperature_at(config, epoch) for epoch in range(config.epochs)]
    assert all(1.0 <= t <= 1000.0 for t in temperatures)


# arbitrary bytes, and rows of CSV fields behind a header, so that some files
# get past the header to the rows, the labels and the feature values
CSV_HEADERS = [b"", b"label\n", b"f,label\n", b"f,label,g\n"]
CSV_FIELDS = [b"0", b"1", b"-2.5", b"1e308", b"nan", b"x", b"", b'"3"', b"\xff", b"\x00"]
CSV_ROWS = st.lists(st.sampled_from(CSV_FIELDS), min_size=1, max_size=3).map(b",".join)
CSV_BYTES = st.binary(max_size=200) | st.builds(
    bytes.__add__, st.sampled_from(CSV_HEADERS), st.lists(CSV_ROWS, max_size=6).map(b"\n".join)
)


@settings(max_examples=300, deadline=None)
@given(content=CSV_BYTES)
def test_csv_bytes_load_or_raise_a_typed_error(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(content)
    try:
        data = load_csv(path, "label")
    except BoostLabError:
        return
    assert data.num_features >= 1 and data.n >= 1
    assert np.isfinite(data.features).all()


# every finite float64, its edges drawn as often as the rest: -0.0, the smallest
# subnormal, the largest subnormal and the largest float of either sign
FINITE_EDGES = [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
                -1.7976931348623157e308]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(FINITE_EDGES)


@settings(max_examples=200, deadline=None)
@given(features=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 3)),
                       elements=FINITE))
def test_save_csv_then_load_csv_is_bit_exact(tmp_path_factory, features):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    labels = np.arange(len(features))  # one class per row, so each label maps to itself
    save_csv(Dataset(features, labels, len(features)), path)
    loaded = load_csv(path, "label")
    assert loaded.features.tobytes() == features.tobytes()
    np.testing.assert_array_equal(loaded.labels, labels)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 5), d=st.integers(0, 3), data=st.data())
def test_dataset_is_finite_or_raises_a_typed_error(n, d, data):
    features = data.draw(st.lists(st.lists(st.floats(-10, 10), min_size=d, max_size=d),
                                  min_size=n, max_size=n), label="features")
    labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n), label="labels")
    num_classes = data.draw(st.integers(-1, 4) | st.booleans(), label="num_classes")
    # one value, or the labels as a whole, from the whole domain of any type
    odd = ANY_FLOAT | ANY_TYPE | st.integers(-(10**30), 10**30)
    where = data.draw(st.sampled_from(["nowhere", "feature", "label", "labels"]), label="fuzzed")
    if where == "feature" and n and d:
        row, column = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))
        features[row][column] = data.draw(odd)
    elif where == "label" and n:
        labels[data.draw(st.integers(0, n - 1))] = data.draw(odd)
    elif where == "labels":
        labels = data.draw(odd)
    try:
        dataset = Dataset(features=features, labels=labels, num_classes=num_classes)
    except BoostLabError as exc:
        if not n and where != "labels" and not isinstance(num_classes, bool) and num_classes >= 1:
            assert isinstance(exc, EmptyInputError)  # no labels, so no rows either
        return
    assert not isinstance(num_classes, bool)
    assert n >= 1 and d >= 1  # an empty axis raises EmptyInputError
    assert dataset.features.shape == (n, d) and np.isfinite(dataset.features).all()
    assert dataset.labels.dtype == np.intp
    assert ((dataset.labels >= 0) & (dataset.labels < num_classes)).all()
    assert dataset.class_counts.sum() == n
    try:  # the std build_datasets would compute of it as a train split
        grad_std = compute_feature_std(dataset)
    except NumericOverflowError:  # a value near the float range overflows the std
        return
    assert grad_std.shape == (d,) and np.isfinite(grad_std).all() and (grad_std > 0).all()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5), c=st.integers(1, 4), data=st.data())
def test_boost_probabilities_are_a_distribution_or_raise_a_typed_error(n, c, data):
    finite = st.floats(-50, 50) | st.floats(allow_nan=False, allow_infinity=False)
    logits = np.array(data.draw(st.lists(finite, min_size=n * c, max_size=n * c), label="logits"))
    logits = logits.reshape(n, c)
    class_index = data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n), label="class")
    aggregates = data.draw(st.lists(st.floats(0.01, 1.0), min_size=c, max_size=c), label="S")
    # one value, or one length, from the whole domain
    places = ["nowhere", "logit", "class", "aggregate", "rows", "columns"]
    where = data.draw(st.sampled_from(places), label="fuzzed")
    if where == "logit":
        row, column = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, c - 1))
        logits[row, column] = data.draw(ANY_FLOAT)
    elif where == "class":
        class_index[data.draw(st.integers(0, n - 1))] = data.draw(ANY_INT | ANY_FLOAT)
    elif where == "aggregate":
        aggregates[data.draw(st.integers(0, c - 1))] = data.draw(ANY_FLOAT)
    elif where == "rows":  # fewer logit rows than class indices, down to none
        logits = logits[: data.draw(st.integers(0, n - 1))]
    elif where == "columns":  # one aggregate more than there are logit columns
        aggregates.append(0.5)
    valid = all(is_class_index(v, c) for v in class_index)
    try:
        weights = boost_probabilities(logits, np.array(class_index), np.array(aggregates))
    except BoostLabError:
        assert where not in ("nowhere", "class") or not valid
        return
    assert valid
    assert weights.shape == (n,) and ((weights >= 0) & (weights <= 1)).all()
    as_ints = np.array([int(v) for v in class_index])
    np.testing.assert_array_equal(weights, boost_probabilities(logits, as_ints, aggregates))
    p = install_distribution(SamplerState(strategy="boost", rng_seed=0), weights)
    assert abs(p.sum() - 1.0) <= PROB_SUM_TOL


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(ANY_FLOAT | st.sampled_from([1e308, 5e-324]), max_size=50))
def test_install_distribution_always_installs_a_distribution(weights):
    state = SamplerState(strategy="boost", rng_seed=0)
    if not weights:
        with pytest.raises(EmptyInputError, match=r"^weights must not be empty, got shape \(0,\)$"):
            install_distribution(state, np.array(weights))
        return
    if not all(map(math.isfinite, weights)):
        with pytest.raises(InvalidParameterError, match="^weights must be finite$"):
            install_distribution(state, np.array(weights))
        return
    p = install_distribution(state, np.array(weights))
    cdf = state.cdf
    assert p.shape == cdf.shape == (len(weights),)
    assert np.isfinite(p).all() and (p >= 0).all() and abs(p.sum() - 1.0) <= PROB_SUM_TOL
    assert (np.diff(cdf) >= 0).all() and cdf[-1] == 1.0
    # bad: a negative entry, all zeros, or a sum past the float range
    bad = not all(0 <= w < math.inf for w in weights) or not any(weights)
    if not bad:
        with np.errstate(over="ignore"):
            bad = np.sum(weights) == math.inf
    assert state.degenerate == bad
    if bad:
        np.testing.assert_array_equal(p, np.full(len(weights), 1 / len(weights)))


@settings(max_examples=100, deadline=None)
@given(weights=arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                      elements=st.floats(0.0, 10.0)))
def test_install_distribution_takes_a_vector_or_raises_a_shape_error(weights):
    state = SamplerState(strategy="boost", rng_seed=0)
    if weights.ndim != 1:
        with pytest.raises(InputShapeError):
            install_distribution(state, weights)
        assert state.cdf is None
        return
    if not weights.size:
        with pytest.raises(EmptyInputError, match=r"^weights must not be empty"):
            install_distribution(state, weights)
        return
    p = install_distribution(state, weights)
    assert p.shape == state.cdf.shape == weights.shape


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5), c=st.integers(1, 4), data=st.data())
def test_aggregate_class_scores_are_class_means_or_raise_a_typed_error(n, c, data):
    scores = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), label="scores")
    labels = data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n), label="labels")
    if data.draw(st.booleans(), label="fuzzed"):  # one label out of range, or not an integer
        labels[data.draw(st.integers(0, n - 1))] = data.draw(ANY_INT | ANY_FLOAT, label="label")
    valid = all(is_class_index(v, c) for v in labels)
    try:
        means = aggregate_class_scores(np.array(scores), np.array(labels), c)
    except BoostLabError:
        assert not valid
        return
    assert valid
    present = sorted({int(v) for v in labels})
    for cls in present:
        mine = [s for s, label in zip(scores, labels) if label == cls]
        assert means[cls] == pytest.approx(sum(mine) / len(mine), abs=1e-12)
    absent = np.setdiff1d(np.arange(c), present)
    assert means[absent] == pytest.approx(np.mean(means[present]), abs=1e-12)


def _train_step(model, features, labels):
    updated, loss = train_step(model, features, labels, 0.1)
    return updated.params, loss


def _input_gradients(model, features, labels):
    hidden, logits = forward_batch(model, features)
    return (input_gradient_batch(model, hidden, softmax_rows(logits, 2.0), labels, 2.0),)


# the model's entry points that take class labels, each called on
# (model, features, labels) and returning a tuple of results
MODEL_LABEL_TAKERS = {
    "train_step": _train_step,
    "loss_and_gradients": loss_and_gradients,
    "input_gradient_batch": _input_gradients,
}


@pytest.mark.parametrize("entry", sorted(MODEL_LABEL_TAKERS))
@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4), c=st.integers(1, 4), data=st.data())
def test_model_entry_points_take_class_indices_or_raise_a_typed_error(entry, n, c, data):
    model = init_model(2, 3, c, seed=0)
    features = data.draw(st.lists(st.floats(-3, 3), min_size=2 * n, max_size=2 * n))
    features = np.array(features).reshape(n, 2)
    labels = data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n), label="labels")
    odd = ANY_INT | ANY_FLOAT | st.text(max_size=4)
    labels[data.draw(st.integers(0, n - 1))] = data.draw(odd, label="label")
    valid = all(is_class_index(v, c) for v in labels)
    call = MODEL_LABEL_TAKERS[entry]
    try:
        result = call(model, features, labels)
    except BoostLabError:
        assert not valid
        return
    assert valid
    expected = call(model, features, np.array([int(v) for v in labels]))
    for got, want in zip(result, expected, strict=True):
        np.testing.assert_array_equal(got, want)


def draw_profiles(data, n, c, label):
    """[n x c] rows of positive scores that sum to 1."""
    raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n * c, max_size=n * c), label=label)
    raw = np.array(raw).reshape(n, c)
    return raw / raw.sum(axis=1, keepdims=True)


# a profiles array that is not an [n x classes] matrix
NOT_A_MATRIX = {
    "flat": lambda p: p.reshape(-1),
    "scalar": lambda p: np.float64(1.0),
    "stacked": lambda p: p[None],
    "no-columns": lambda p: p[:, :0],
}


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 5), c=st.integers(1, 4), data=st.data())
def test_prediction_log_is_valid_or_raises_a_typed_error(n, c, data):
    labels = st.lists(st.integers(0, c - 1), min_size=n, max_size=n)
    fields = {
        "true_labels": data.draw(labels, label="true"),
        "predicted_labels": data.draw(labels, label="predicted"),
        "profiles": draw_profiles(data, n, c, "profiles"),
    }
    scalar = st.text(max_size=4) | st.none() | st.booleans() | st.integers(-(10**30), 10**30)
    odd = ANY_FLOAT | scalar  # one value of any kind that is not a list
    places = ["nowhere", "labels", "shape"] + (["label", "profile"] if n else [])
    where = data.draw(st.sampled_from(places), label="fuzzed")
    name = data.draw(st.sampled_from(["true_labels", "predicted_labels"]), label="field")
    if where == "label":  # one value, not a list
        fields[name][data.draw(st.integers(0, n - 1))] = data.draw(odd, label="label")
    elif where == "labels":
        fields[name] = data.draw(odd | ANY_TYPE, label="labels")
    elif where == "shape":
        shape = data.draw(st.sampled_from(sorted(NOT_A_MATRIX)), label="shape")
        fields["profiles"] = NOT_A_MATRIX[shape](fields["profiles"])
    elif where == "profile":
        fields["profiles"] = fields["profiles"].tolist()
        fields["profiles"][data.draw(st.integers(0, n - 1))][0] = data.draw(odd, label="score")
    try:
        log = PredictionLog(**fields)
    except BoostLabError as exc:
        if where == "shape":  # a matrix with no column is one of the right shape, but empty
            assert isinstance(exc, EmptyInputError if shape == "no-columns" else InputShapeError)
        if not n and where in ("nowhere", "labels"):  # the profiles come first
            assert isinstance(exc, EmptyInputError) and str(exc).startswith("profiles must not")
        if where == "label":  # a single value that is no class index
            assert isinstance(exc, InvalidParameterError)
        return
    assert log.n >= 1 and log.profiles.shape == (log.n, log.num_classes)
    for column in (log.true_labels, log.predicted_labels):
        assert column.dtype == np.intp and column.shape == (log.n,)
        assert ((column >= 0) & (column < log.num_classes)).all()
    assert np.isfinite(log.profiles).all()


@settings(max_examples=200, deadline=None)
@given(c=st.integers(1, 6), n=st.integers(1, 30), data=st.data())
def test_metrics_report_agrees_with_the_oracles(c, n, data):
    # labels come from a drawn subset of the classes, so that some classes are
    # absent from the truth or never predicted
    def labels(label):
        subset = data.draw(st.lists(st.integers(0, c - 1), min_size=1, unique=True), label=label)
        return data.draw(st.lists(st.sampled_from(subset), min_size=n, max_size=n), label=label)

    true = labels("true")
    predicted = labels("predicted")
    log = PredictionLog(true, predicted, draw_profiles(data, n, c, "profiles"))
    sodc_predicted = labels("sodc predicted")
    sodc_profiles = draw_profiles(data, n, c, "sodc profiles")
    report = build_metrics_report(log, PredictionLog(true, sodc_predicted, sodc_profiles))

    cells = Counter(zip(true, predicted))
    expected = oracle_confusion_metrics([[cells[t, p] for p in range(c)] for t in range(c)])
    sodc = [oracle_sodc_per_class(true, sodc_predicted, sodc_profiles.tolist(), k)
            for k in range(c)]
    for k in range(c):
        for name in ("precision", "f1"):
            assert report.per_class[k][name] == pytest.approx(expected[k][name], rel=1e-12)
        assert report.per_class[k]["accuracy"] == pytest.approx(expected[k]["recall"], rel=1e-12)
        assert report.per_class[k]["sodc"] == pytest.approx(sodc[k], rel=1e-12)
        counts = report.ood_partition[str(k)]
        assert (counts["id"], counts["id"] + counts["ood"]) == (cells[k, k], true.count(k))
    never_predicted = sorted(set(range(c)) - set(predicted))
    no_samples = sorted(set(range(c)) - set(true))
    assert report.flags == [
        *(f"class {k}: precision reported as 0 (never predicted)" for k in never_predicted),
        *(f"class {k}: no test samples; its accuracy, F1 and SODC are reported as 0"
          for k in no_samples)]
    assert report.aggregate["accuracy"] == pytest.approx(sum(cells[k, k] for k in range(c)) / n)
    assert report.aggregate["sodc_total"] == pytest.approx(math.prod(sodc), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_history_csv_takes_class_indices_or_raises_a_typed_error(tmp_path_factory, n, data):
    state = SamplerState(strategy="random", rng_seed=0)
    state.history.append(EpochRecord(
        epoch=0, scores=None, predicted=None,
        probabilities=np.full(n, 1 / n), draw_counts=np.arange(n)))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="labels")
    odd = ANY_INT | ANY_FLOAT | st.text(max_size=4)
    where = data.draw(st.sampled_from(["nowhere", "label", "labels"]), label="fuzzed")
    if where == "label":
        labels[data.draw(st.integers(0, n - 1))] = data.draw(odd, label="label")
    elif where == "labels":  # any length, or a value that is no list
        labels = data.draw(odd | ANY_TYPE, label="labels")
    # write_history_csv takes any class count
    valid = (isinstance(labels, list) and len(labels) == n
             and all(is_class_index(v, np.iinfo(np.intp).max) for v in labels))
    path = tmp_path_factory.mktemp("history") / "history.csv"
    try:
        harness_mod.write_history_csv(state, labels, path)
    except BoostLabError:
        assert not valid and not path.exists()
        return
    assert valid
    expected = path.with_name("expected.csv")
    harness_mod.write_history_csv(state, np.array([int(v) for v in labels]), expected)
    assert path.read_bytes() == expected.read_bytes()


# every entry point that takes class labels, and the property test that fuzzes them
LABEL_FUZZ = {
    Dataset: test_dataset_is_finite_or_raises_a_typed_error,
    boost_probabilities: test_boost_probabilities_are_a_distribution_or_raise_a_typed_error,
    aggregate_class_scores: test_aggregate_class_scores_are_class_means_or_raise_a_typed_error,
    PredictionLog: test_prediction_log_is_valid_or_raises_a_typed_error,
    **{getattr(model_mod, name): test_model_entry_points_take_class_indices_or_raise_a_typed_error
       for name in MODEL_LABEL_TAKERS},
    harness_mod.write_history_csv: test_history_csv_takes_class_indices_or_raises_a_typed_error,
}
LABEL_PARAMETERS = {"labels", "true_labels", "predicted_labels", "class_index", "class_indices"}


def test_every_entry_point_that_takes_labels_is_fuzzed():
    public = {  # defined in the module itself, so no import is counted twice
        obj
        for module in (data_mod, model_mod, sampler_mod, metrics_mod, harness_mod)
        for name, obj in vars(module).items()
        if callable(obj) and not name.startswith("_") and obj.__module__ == module.__name__
    }
    takers = {obj for obj in public if LABEL_PARAMETERS & set(inspect.signature(obj).parameters)}
    assert takers == set(LABEL_FUZZ)
