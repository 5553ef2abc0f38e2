import csv
import json
import logging
import math
import re
import time
import zipfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from boostlab import calibration, data, harness
from boostlab import model as model_mod
from boostlab.calibration import calibrate_batch_full, temperature_at
from boostlab.data import Dataset, compute_feature_std, make_blobs, save_csv
from boostlab.errors import (
    ConfigurationError,
    EmptyInputError,
    InputShapeError,
    InvalidParameterError,
    NumericOverflowError,
)
from boostlab.harness import (
    REPORT_FILES,
    ExperimentConfig,
    build_datasets,
    export_reports,
    read_run,
    record_to_report,
    run_comparison,
    run_evaluation,
    run_experiment,
    run_seeds,
    run_training,
)
from boostlab.metrics import PredictionLog, build_metrics_report
from boostlab.model import ClassifierModel, forward_batch, hidden_activations, init_model
from boostlab.model import softmax_rows
from boostlab.model import train_step
from boostlab.sampler import STRATEGIES, EpochRecord, SamplerState

from oracles import HISTORY_HEADER, oracle_csv_bytes, oracle_hidden, oracle_history_rows
from oracles import oracle_sodc_per_class


def small_config(**overrides):
    base = dict(
        blob_counts=(40, 20),
        blob_dim=2,
        blob_separation=3.0,
        epochs=3,
        batch_size=16,
        hidden_units=8,
        seeds=(0,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def final_at(temperature):
    """A config whose final evaluation calibrates at this temperature."""
    return ExperimentConfig(temp_start=temperature, epochs=1)


def train_to_perfection(counts=(30, 20), sep=8.0, seed=0):
    train = make_blobs(list(counts), 2, sep, seed=seed)
    test = make_blobs(list(counts), 2, sep, seed=seed + 1)
    model = init_model(2, 8, 2, seed=seed)
    for _ in range(300):
        model, _ = train_step(model, train.features, train.labels, 0.5)
    return model, train, test


class TestRunTraining:
    def test_single_epoch_random_has_uniform_ess(self):
        record = run_training(small_config(sampler="random", epochs=1))
        [row] = record_to_report(record)["per_epoch"]
        n = sum(record.config.blob_counts)
        assert row["ess"] == pytest.approx(n)

    def test_temperature_trace_matches_schedule(self):
        config = small_config(epochs=8, temp_interval=2)
        rows = record_to_report(run_training(config))["per_epoch"]
        assert [row["epoch"] for row in rows] == list(range(8))
        for row in rows:
            assert row["temperature"] == temperature_at(config, row["epoch"])

    @pytest.mark.parametrize("sampler", STRATEGIES)
    def test_per_epoch_rows_are_the_history_with_the_loop_losses(self, sampler):
        record = run_training(small_config(sampler=sampler, epochs=3))
        rows = record_to_report(record)["per_epoch"]
        history = record.sampler_state.history
        assert len(rows) == len(history) == len(record.epoch_losses) == 3
        for e, (row, h) in enumerate(zip(rows, history)):
            assert list(row) == ["epoch", "loss", "temperature", "ess"]
            assert row["epoch"] == h.epoch == e
            assert row["ess"] == pytest.approx(1 / np.sum(h.probabilities ** 2), rel=1e-12)
            assert row["loss"] == record.epoch_losses[e]

    def test_identical_seed_gives_identical_report(self):
        config = small_config()
        a = record_to_report(run_training(config, seed=3))
        b = record_to_report(run_training(config, seed=3))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seeds_differ(self):
        config = small_config()
        a = run_training(config, seed=1)
        b = run_training(config, seed=2)
        assert not np.array_equal(a.model.weights_hidden, b.model.weights_hidden)

    def test_every_strategy_runs(self):
        for strategy in STRATEGIES:
            record = run_training(small_config(sampler=strategy, epochs=2))
            assert len(record.sampler_state.history) == 2
            assert 0.0 <= record.metrics.aggregate["accuracy"] <= 1.0

    @pytest.mark.parametrize("sampler", [s for s in STRATEGIES if s != "boost"])
    def test_a_baseline_run_redraws_on_one_stream_every_epoch(self, sampler):
        # epoch e's draws are the stream default_rng([sampler seed, e]) gives
        # for the one distribution the run's records share
        config = small_config(sampler=sampler, epochs=3)
        record = run_training(config, seed=2)
        history = record.sampler_state.history
        p = history[0].probabilities
        n, batches = len(p), math.ceil(len(p) / config.batch_size)
        _, sampler_seed = run_seeds(2)
        for e, h in enumerate(history):
            assert h.probabilities is p
            rng = np.random.default_rng([sampler_seed, e])
            draws = [rng.choice(n, 16, p=p / p.sum()) for _ in range(batches)]
            np.testing.assert_array_equal(h.draw_counts, np.bincount(np.concatenate(draws),
                                                                     minlength=n))
        assert not np.array_equal(history[0].draw_counts, history[1].draw_counts)
        assert record.sampler_state.installs == 3

    @pytest.mark.parametrize("sampler", STRATEGIES)
    def test_final_evaluation_at_last_temperature(self, sampler):
        config = small_config(sampler=sampler, epochs=6, learning_rate=0.3)
        record = run_training(config, seed=3)
        _, test, step = build_datasets(config, seed=3)
        report = run_evaluation(record.model, test, step, final_at(5.0))
        assert record.metrics.to_dict() == report.to_dict()

    @pytest.mark.parametrize("epochs, final", [(5, 1.0), (10, 5.0), (14, 25.0)])
    def test_final_evaluation_calibrates_at_the_last_epochs_temperature(
        self, monkeypatch, epochs, final
    ):
        # multiplicative from 1, times 5 every 5 epochs: in each case epoch
        # `epochs - 1` is one step below epoch `epochs + 1`
        seen = []

        def calibrate(model, features, temperature, step):
            seen.append(temperature)
            return calibrate_batch_full(model, features, temperature, step)

        monkeypatch.setattr(harness, "calibrate_batch_full", calibrate)
        config = small_config(epochs=epochs)
        _, test, step = build_datasets(config, seed=0)
        run_evaluation(init_model(2, 8, 2, seed=0), test, step, config)
        assert seen == [final]

    def test_one_class_run_counts_its_uniform_fallback(self, caplog):
        # with one class every inverted boost weight is 0, so every epoch
        # installs the uniform stand-in and every batch is drawn from it
        config = small_config(blob_counts=(60,), test_counts=(20,), epochs=3)
        with caplog.at_level(logging.WARNING, logger="boostlab.sampler"):
            record = run_training(config)
        state = record.sampler_state
        assert state.degenerate_draws == config.epochs * math.ceil(60 / config.batch_size)
        assert sum(r.name == "boostlab.sampler" for r in caplog.records) == config.epochs
        assert len(state.history) == config.epochs
        for entry in state.history:
            np.testing.assert_array_equal(entry.probabilities, np.full(60, 1 / 60))

    def test_a_diverging_step_raises_naming_the_learning_rate(self):
        # no numpy warning on the way: the suite turns each into an error
        with pytest.raises(NumericOverflowError, match=r"^training diverged: a step at "
                           r"learning_rate 1e\+308 left non-finite parameters$"):
            run_training(small_config(learning_rate=1e308))

    def test_run_experiment_covers_all_seeds(self):
        records = run_experiment(small_config(seeds=(0, 1, 2), epochs=1))
        assert [r.seed for r in records] == [0, 1, 2]


# one or more values each config key rejects, each with its whole message:
# the key, its rule and the value, whatever else the key's value feeds
BAD_FIELD_VALUES = [
    ("seeds", (-1,), "seeds must be one or more non-negative ints, got (-1,)"),
    ("seeds", (0, -2), "seeds must be one or more non-negative ints, got (0, -2)"),
    ("seeds", (), "seeds must be one or more non-negative ints, got ()"),
    ("epsilon", math.nan, "epsilon must be finite and non-negative, got nan"),
    ("epsilon", math.inf, "epsilon must be finite and non-negative, got inf"),
    ("epsilon", -0.1, "epsilon must be finite and non-negative, got -0.1"),
    ("learning_rate", math.nan, "learning_rate must be finite and non-negative, got nan"),
    ("learning_rate", math.inf, "learning_rate must be finite and non-negative, got inf"),
    ("learning_rate", -1.0, "learning_rate must be finite and non-negative, got -1.0"),
    ("blob_separation", math.nan, "blob_separation must be finite and positive, got nan"),
    ("blob_separation", math.inf, "blob_separation must be finite and positive, got inf"),
    ("blob_separation", 0.0, "blob_separation must be finite and positive, got 0.0"),
    ("blob_separation", -2.0, "blob_separation must be finite and positive, got -2.0"),
    ("blob_dim", 0, "blob_dim must be an int >= 1, got 0"),
    ("test_fraction", 0.0, "test_fraction must be in (0, 1), got 0.0"),
    ("test_fraction", 1.0, "test_fraction must be in (0, 1), got 1.0"),
    ("test_fraction", math.nan, "test_fraction must be in (0, 1), got nan"),
    ("pareto_scale", math.nan, "pareto_scale must be None or at least -1, got nan"),
    ("pareto_scale", -1.5, "pareto_scale must be None or at least -1, got -1.5"),
    ("temp_scale", math.nan, "temp_scale must be finite and above 1, got nan"),
    ("temp_scale", 1.0, "temp_scale must be finite and above 1, got 1.0"),
    ("temp_scale", math.inf, "temp_scale must be finite and above 1, got inf"),
    ("temp_start", math.nan, "temp_start must be finite and positive, got nan"),
    ("temp_start", 0.0, "temp_start must be finite and positive, got 0.0"),
    ("temp_start", math.inf, "temp_start must be finite and positive, got inf"),
    ("temp_interval", 0, "temp_interval must be an int >= 1, got 0"),
    ("epsilon", "x", "epsilon must be finite and non-negative, got 'x'"),
    ("blob_counts", 5, "blob_counts must be one or more ints >= 1 and < 2**63, got 5"),
    ("seeds", [0, '1'], "seeds must be one or more non-negative ints, got [0, '1']"),
    ("test_counts", (3, 2.5),
     "test_counts must be None or one or more ints >= 1 and < 2**63, got (3, 2.5)"),
    ("epochs", 2.0, "epochs must be an int >= 1, got 2.0"),
    ("learning_rate", True, "learning_rate must be finite and non-negative, got True"),
    ("sampler", None,
     "sampler must be one of ('boost', 'random', 'stratified'), got None"),
    ("dataset", 5, "dataset must be a string, got 5"),
    ("label_column", ["label"], "label_column must be a string, got ['label']"),
    ("out_dir", None, "out_dir must be a string, got None"),
    ("sampler", "x",
     "sampler must be one of ('boost', 'random', 'stratified'), got 'x'"),
    ("test_counts", (100,), "test_counts must be None or as long as blob_counts (2), got (100,)"),
    ("seeds", (0, 0), "seeds must be distinct, got (0, 0)"),
    ("blob_counts", (), "blob_counts must be one or more ints >= 1 and < 2**63, got ()"),
    ("blob_counts", (0, 5), "blob_counts must be one or more ints >= 1 and < 2**63, got (0, 5)"),
    ("blob_counts", (-3, 5), "blob_counts must be one or more ints >= 1 and < 2**63, got (-3, 5)"),
    ("blob_counts", (2**63, 5),
     "blob_counts must be one or more ints >= 1 and < 2**63, got (9223372036854775808, 5)"),
    ("test_counts", (0, 5),
     "test_counts must be None or one or more ints >= 1 and < 2**63, got (0, 5)"),
    ("test_counts", (), "test_counts must be None or one or more ints >= 1 and < 2**63, got ()"),
    ("test_counts", (5, 2**63),
     "test_counts must be None or one or more ints >= 1 and < 2**63, got (5, 9223372036854775808)"),
    ("temp_kind", "x", "temp_kind must be one of ('multiplicative', 'inverse-linear'), got 'x'"),
    ("batch_size", 0, "batch_size must be an int >= 1, got 0"),
    ("hidden_units", 0, "hidden_units must be an int >= 1, got 0"),
    ("sampler", "dynamic-random",
     "sampler must be one of ('boost', 'random', 'stratified'), got 'dynamic-random'"),
    ("sampler", "dynamic-stratified",
     "sampler must be one of ('boost', 'random', 'stratified'), got 'dynamic-stratified'"),
]


class TestExperimentConfig:
    def test_hidden_units_below_one_rejected(self):
        for bad in (0, -3):
            with pytest.raises(InvalidParameterError):
                small_config(hidden_units=bad)

    @pytest.mark.parametrize("field, value, message", BAD_FIELD_VALUES)
    def test_out_of_range_field_rejected_by_name(self, field, value, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            small_config(**{field: value})

    def test_several_broken_rules_are_named_by_the_first_key_in_field_order(self):
        with pytest.raises(InvalidParameterError, match="^blob_dim must be an int >= 1, got 0$"):
            small_config(hidden_units=0, seeds=(1, 1), sampler="x", blob_dim=0)

    def test_every_field_with_a_rule_has_a_rejected_value(self):  # every field has one
        names = {f.name for f in fields(ExperimentConfig)}
        assert names == {field for field, _, _ in BAD_FIELD_VALUES}


class TestBuildDatasets:
    def test_returns_epsilon_over_the_train_split_std(self):
        config = small_config(epsilon=0.07)
        train, _, step = build_datasets(config, seed=0)
        np.testing.assert_array_equal(step, config.epsilon / compute_feature_std(train))

    @pytest.mark.parametrize("epsilon, std", [(0.1, [1e-320, 1.0]), (1e300, [1e-10])])
    def test_std_that_overflows_the_perturbation_step_rejected(self, monkeypatch, epsilon, std):
        # each std entry is finite and positive, but epsilon / std is not finite
        monkeypatch.setattr(harness, "compute_feature_std", lambda train: np.array(std))
        message = (f"epsilon {epsilon!r}: epsilon / grad_std overflows float64; "
                   "lower epsilon or rescale the features")
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            build_datasets(small_config(epsilon=epsilon), seed=0)

    def test_zero_epsilon_accepts_a_tiny_std(self, monkeypatch):
        monkeypatch.setattr(harness, "compute_feature_std", lambda train: np.array([1e-320, 1.0]))
        _, _, step = build_datasets(small_config(epsilon=0.0), seed=0)
        assert step.tolist() == [0.0, 0.0]

    def test_blob_test_split_is_drawn_from_seed_plus_10000(self):
        config = small_config(test_counts=(7, 5), blob_dim=3)
        _, test, _ = build_datasets(config, seed=4)
        expected = make_blobs([7, 5], 3, 3.0, 10_004)
        np.testing.assert_array_equal(test.features, expected.features)
        np.testing.assert_array_equal(test.labels, expected.labels)

    # small_config has 60 train and 60 test samples of 2 features and 2 classes,
    # 8 hidden units, batches of 16; numpy indexes fewer than 2**60 float64s
    @pytest.mark.parametrize("key, overrides", [
        ("blob_counts", dict(blob_counts=(2**60, 5))),  # labels and features of the train split
        ("test_counts", dict(test_counts=(40, 2**60))),
        ("blob_dim", dict(blob_dim=2**55)),  # 60 x 2**55 features
        ("hidden_units", dict(hidden_units=2**55)),  # 60 x 2**55 hidden activations
        ("hidden_units", dict(blob_dim=100, hidden_units=2**54)),  # 103 x 2**54 parameters
        ("batch_size", dict(batch_size=2**58)),  # 2**58 x 8 hidden activations of a batch
        ("batch_size", dict(batch_size=10**20)),
    ], ids=["counts", "test-counts", "dim", "activations", "parameters", "batch", "batch-20"])
    def test_a_key_that_sizes_an_array_past_numpys_index_range_is_named(self, key, overrides):
        config = small_config(**overrides)
        message = (f"{key} must be small enough for numpy to index the arrays it sizes, "
                   f"got {getattr(config, key)!r}")
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            build_datasets(config, seed=0)

    def test_sizes_up_to_numpys_index_range_pass(self, monkeypatch):
        # make_blobs returns small_config's own splits, so nothing large is allocated
        monkeypatch.setattr(harness, "make_blobs", lambda *args: make_blobs([40, 20], 2, 3.0, 0))
        most = np.iinfo(np.intp).max // 8  # float64s
        build_datasets(small_config(blob_counts=(most // 2 - 5, 5), test_counts=(5, 5)), seed=0)
        build_datasets(small_config(hidden_units=most // 60, batch_size=1), seed=0)

    def test_pareto_applies_to_train_only(self):
        config = small_config(
            blob_counts=(60, 50, 40, 30), pareto_scale=0.0, test_counts=(10, 10, 10, 10)
        )
        train, test, _ = build_datasets(config, seed=0)
        ranked = np.sort(train.class_counts)[::-1]
        assert ranked[0] == 60
        assert all(b <= a for a, b in zip(ranked, ranked[1:]))
        np.testing.assert_array_equal(test.class_counts, [10, 10, 10, 10])


class TestRunEvaluation:
    def test_perfect_model_scored_by_calibrated_profiles(self):
        model, train, test = train_to_perfection()
        step = 0.05 / compute_feature_std(train)
        report = run_evaluation(model, test, step, final_at(2.0))
        assert [counts["ood"] for counts in report.ood_partition.values()] == [0, 0]

        profiles, _, _ = calibrate_batch_full(model, test.features, 2.0, step)
        predicted = profiles.argmax(axis=1).tolist()
        profiles = profiles.tolist()
        expected = 1.0
        for c in range(2):
            expected *= oracle_sodc_per_class(test.labels.tolist(), predicted, profiles, c)
        assert report.aggregate["sodc_total"] == pytest.approx(expected, rel=1e-12)
        # unit-score limit bounds the product from above
        bound = np.prod(test.class_counts / test.n)
        assert report.aggregate["sodc_total"] <= bound + 1e-12

    def test_classifies_by_the_plain_softmax(self):
        # a half-trained model and a large epsilon: the perturbation carries
        # some test samples across the decision boundary
        train = make_blobs([30, 20], 2, 2.0, seed=0)
        test = make_blobs([30, 20], 2, 2.0, seed=1)
        model = init_model(2, 8, 2, seed=0)
        for _ in range(20):
            model, _ = train_step(model, train.features, train.labels, 0.5)
        step = 0.5 / compute_feature_std(train)
        report = run_evaluation(model, test, step, final_at(2.0))

        plain_profiles = softmax_rows(forward_batch(model, test.features)[1])
        calibrated, _, _ = calibrate_batch_full(model, test.features, 2.0, step)
        assert (plain_profiles.argmax(axis=1) != calibrated.argmax(axis=1)).any()
        plain, scores = (build_metrics_report(PredictionLog(test.labels, p.argmax(axis=1), p))
                         for p in (plain_profiles, calibrated))
        assert plain.ood_partition != scores.ood_partition  # the two rules disagree in the report

        for c, values in report.per_class.items():
            assert values == {**plain.per_class[c], "sodc": scores.per_class[c]["sodc"]}
        assert report.aggregate == {**plain.aggregate, "sodc_total": scores.aggregate["sodc_total"]}
        assert report.bias == {**plain.bias, "sodc": scores.bias["sodc"]}
        assert (report.ood_partition, report.flags) == (plain.ood_partition, plain.flags)

    def test_evaluation_leaves_model_unchanged(self):
        model, train, test = train_to_perfection(seed=2)
        snapshot = {
            name: getattr(model, name).copy()
            for name in ("weights_hidden", "bias_hidden", "weights_out", "bias_out")
        }
        run_evaluation(model, test, 0.05 / compute_feature_std(train), final_at(5.0))
        for name, before in snapshot.items():
            np.testing.assert_array_equal(getattr(model, name), before)

    def test_every_sampler_is_scored_alike_and_nothing_trains(self, monkeypatch):
        # one trained model under configs that differ only in `sampler`
        config = small_config(epochs=4)
        record = run_training(config, seed=1)
        _, test, step = build_datasets(config, seed=1)

        def no_training(*args, **kwargs):
            raise AssertionError("evaluation must not train")

        monkeypatch.setattr(harness, "train_step", no_training)
        reports = [run_evaluation(record.model, test, step, replace(config, sampler=s))
                   for s in STRATEGIES]
        reports = [report.to_dict() for report in reports]
        assert reports == [record.metrics.to_dict()] * len(STRATEGIES)

    def test_class_count_mismatch(self):
        model, _, _ = train_to_perfection()
        other = make_blobs([5, 5, 5], 2, 3.0, seed=9)
        with pytest.raises(ConfigurationError):
            run_evaluation(model, other, 0.05 / compute_feature_std(other), final_at(2.0))

    def test_empty_test_split_rejected(self):
        # an empty test split cannot reach run_evaluation: Dataset rejects it
        with pytest.raises(EmptyInputError, match=r"^labels must not be empty, got shape \(0,\)$"):
            Dataset(features=np.zeros((0, 2)), labels=[], num_classes=2)

    def test_one_clean_forward_pass_serves_both_softmaxes(self, monkeypatch):
        # calibration's first pass gives the plain softmax too: two forward
        # passes per evaluation, the clean one and the perturbed one
        model, train, test = train_to_perfection()
        shapes, real = [], model_mod.forward_batch

        def counted(model, features):
            shapes.append(np.shape(features))
            return real(model, features)

        for module in (model_mod, calibration):
            monkeypatch.setattr(module, "forward_batch", counted)
        run_evaluation(model, test, 0.05 / compute_feature_std(train), final_at(2.0))
        assert shapes == [test.features.shape] * 2

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_readout_raises_naming_the_logits(self):
        model = ClassifierModel([3.0, 3.0, 0.0, 0.0, 1.7e308, 1.7e308, 0.0, 0.0, 0.0, 0.0], 1, 2, 2)
        test = Dataset(features=[[1.0], [-1.0]], labels=[0, 1], num_classes=2)
        with pytest.raises(NumericOverflowError, match="^the model's logits overflow float64$"):
            run_evaluation(model, test, np.array([0.1]), final_at(2.0))

    def test_deterministic(self):
        model, train, test = train_to_perfection(seed=4)
        step, config = 0.05 / compute_feature_std(train), final_at(3.0)
        a = run_evaluation(model, test, step, config)
        b = run_evaluation(model, test, step, config)
        assert a.to_dict() == b.to_dict()


class TestRunComparison:
    def test_unknown_strategy_rejected_before_any_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_training", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidParameterError, match="bogus"):
            run_comparison(small_config(), ("boost", "bogus"))
        assert calls == []

    def test_no_strategy_rejected(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_training", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidParameterError, match="^name at least one strategy"):
            run_comparison(small_config(), ())
        assert calls == []

    def test_repeated_strategy_rejected_before_any_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_training", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidParameterError, match="distinct"):
            run_comparison(small_config(), ("boost", "boost", "random"))
        assert calls == []

    def test_summary_is_the_percent_mean_of_each_strategys_runs(self, monkeypatch):
        runs = {}

        def captured(config):
            runs[config.sampler] = run_experiment(config)
            return runs[config.sampler]

        monkeypatch.setattr(harness, "run_experiment", captured)
        summary = run_comparison(small_config(seeds=(0, 1), epochs=2), ("boost", "random"))
        for strategy, records in runs.items():
            expected = {k: 100.0 * np.mean([r.metrics.aggregate[k] for r in records])
                        for k in records[0].metrics.aggregate}
            for bias in ("mab", "sdb"):
                expected[f"{bias}_accuracy"] = 100.0 * np.mean(
                    [r.metrics.bias["accuracy"][bias] for r in records])
            assert summary[strategy] == pytest.approx(expected, rel=1e-12)
        assert set(summary) == set(runs) == {"boost", "random"}

    def test_embeddings_are_computed_at_export_only(self, monkeypatch, tmp_path):
        # compare exports nothing, so it never computes a test split's
        # embeddings; export computes them once per record it writes
        calls = []

        def counted(model, features):
            calls.append(len(features))
            return hidden_activations(model, features)

        monkeypatch.setattr(harness, "hidden_activations", counted)
        config = small_config(seeds=(0, 1), epochs=1)
        run_comparison(config)
        assert calls == []
        records = run_experiment(config)
        assert calls == []
        export_reports(records, str(tmp_path))
        assert calls == [record.test.n for record in records]


class TestExportReports:
    def test_single_record_writes_exactly_five_files(self, tmp_path):
        record = run_training(small_config(epochs=2))
        out = tmp_path / "run"
        paths = export_reports([record], str(out))
        assert sorted(p.name for p in out.iterdir()) == sorted([*REPORT_FILES, "model_seed0.json"])
        assert len(paths) == 5

    def test_no_records_rejected(self, tmp_path):
        with pytest.raises(EmptyInputError, match="^no records to export$"):
            export_reports([], str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()

    def test_read_run_gives_back_the_records_config_seed_and_model(self, tmp_path):
        records = run_experiment(small_config(seeds=(0, 1), epochs=1, pareto_scale=0.0))
        export_reports(records, str(tmp_path))
        for record, sub in zip(records, sorted(tmp_path.iterdir())):
            config, seed, model = read_run(sub)
            assert (config, seed) == (record.config, record.seed)
            np.testing.assert_array_equal(model.params, record.model.params)

    def test_report_json_round_trips(self, tmp_path):
        record = run_training(small_config(epochs=2))
        export_reports([record], str(tmp_path))
        text = (tmp_path / "report.json").read_text()
        assert text == json.dumps(record_to_report(record), indent=2)
        doc = json.loads(text)
        assert set(doc) == {"config", "per_epoch", "metrics"}
        assert {e["epoch"] for e in doc["per_epoch"]} == {0, 1}
        assert set(doc["metrics"]) == {
            "per_class",
            "aggregate",
            "bias",
            "ood_partition",
            "flags",
        }

    def test_numpy_scalars_in_a_config_export_as_python_numbers(self, tmp_path):
        python_typed = dict(epochs=1, blob_dim=3, epsilon=0.25, learning_rate=0.5)
        numpy_typed = dict(epochs=np.int64(1), blob_dim=np.int32(3), epsilon=np.float32(0.25),
                           learning_rate=np.float64(0.5))
        for name, values in (("python", python_typed), ("numpy", numpy_typed)):
            config = small_config(**values)
            assert [type(getattr(config, key)) for key in values] == [int, int, float, float]
            export_reports([run_training(config)], str(tmp_path / name))
        written = [(tmp_path / name / "report.json").read_bytes() for name in ("python", "numpy")]
        assert written[0] == written[1]

    def test_embedding_rows_equal_test_size(self, tmp_path):
        config = small_config(test_counts=(13, 7))
        record = run_training(config)
        export_reports([record], str(tmp_path))
        with np.load(tmp_path / "embeddings.npz", allow_pickle=False) as arrays:
            assert arrays["true_class"].shape == (20,)
            assert arrays["hidden"].shape == (20, config.hidden_units)

    def test_multiple_records_get_subdirectories(self, tmp_path):
        records = run_experiment(small_config(seeds=(0, 1), epochs=1))
        export_reports(records, str(tmp_path))
        subdirs = sorted(p.name for p in tmp_path.iterdir())
        assert subdirs == ["run_00_boost_seed0", "run_01_boost_seed1"]
        for seed, sub in enumerate(subdirs):
            expected = sorted([*REPORT_FILES, f"model_seed{seed}.json"])
            assert sorted(p.name for p in (tmp_path / sub).iterdir()) == expected

    def test_no_file_written_has_a_carriage_return(self, tmp_path):
        paths = export_reports([run_training(small_config(epochs=2))], str(tmp_path / "one"))
        records = run_experiment(small_config(seeds=(0, 1), epochs=1))
        paths += export_reports(records, str(tmp_path / "several"))
        paths.append(tmp_path / "data.csv")
        save_csv(make_blobs([5, 3], 2, 3.0, seed=0), paths[-1])
        assert len(paths) == 5 + 10 + 1
        for path in paths:
            if Path(path).name == "embeddings.npz":  # binary: a 0x0D byte is data there
                assert zipfile.is_zipfile(path), path
            else:
                assert b"\r" not in Path(path).read_bytes(), path

    @pytest.mark.parametrize("sampler", ["boost", "random"])
    def test_csv_artifacts_read_back_to_the_record(self, tmp_path, sampler):
        record = run_training(small_config(sampler=sampler, epochs=2))
        export_reports([record], str(tmp_path))

        def columns(name):
            with open(tmp_path / name, newline="", encoding="utf-8") as fh:
                _, *rows = csv.reader(fh)
            return rows, list(zip(*rows))

        def ints(values):
            return [int(v) for v in values]

        def floats(values):
            return [float(v) for v in values]

        history = record.sampler_state.history
        n = len(record.train_labels)
        rows, _ = columns("sampler_history.csv")
        assert len(rows) == len(history) * n
        for epoch in history:
            cols = list(zip(*rows[epoch.epoch * n : (epoch.epoch + 1) * n]))
            assert ints(cols[0]) == [epoch.epoch] * n and ints(cols[1]) == list(range(n))
            np.testing.assert_array_equal(ints(cols[2]), record.train_labels)
            if sampler == "random":  # nothing was calibrated
                assert epoch.scores is None and epoch.predicted is None
                assert set(cols[3]) == {"-1"} and set(cols[4]) == {""}
            else:
                np.testing.assert_array_equal(ints(cols[3]), epoch.predicted)
                np.testing.assert_array_equal(floats(cols[4]), epoch.scores)
            np.testing.assert_array_equal(floats(cols[5]), epoch.probabilities)
            np.testing.assert_array_equal(ints(cols[6]), epoch.draw_counts)

        with np.load(tmp_path / "embeddings.npz", allow_pickle=False) as arrays:
            true_class, hidden = arrays["true_class"], arrays["hidden"]
        assert (true_class.dtype, hidden.dtype) == (np.int64, np.float64)
        np.testing.assert_array_equal(true_class, record.test.labels)
        model = record.model  # row i is test sample i's hidden layer, by the scalar oracle
        expected = [oracle_hidden(model.weights_hidden, model.bias_hidden, x)
                    for x in record.test.features]
        np.testing.assert_allclose(hidden, expected, rtol=0, atol=1e-12)

    def test_embeddings_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        record = run_training(small_config(epochs=1))
        export_reports([record], str(tmp_path / "a"))
        later, localtime = time.time() + 24 * 3600.0, time.localtime
        monkeypatch.setattr(time, "time", lambda: later)
        monkeypatch.setattr(time, "localtime",
                            lambda secs=None: localtime(later if secs is None else secs))
        export_reports([record], str(tmp_path / "b"))
        path = tmp_path / "b" / "embeddings.npz"
        assert (tmp_path / "a" / "embeddings.npz").read_bytes() == path.read_bytes()
        with zipfile.ZipFile(path) as archive:
            members = [(info.filename, info.date_time) for info in archive.infolist()]
        names = ("true_class.npy", "hidden.npy")
        assert members == [(name, (1980, 1, 1, 0, 0, 0)) for name in names]
        with np.load(path, allow_pickle=False) as arrays:
            assert [arrays[name].shape for name in arrays.files] == [(60,), (60, 8)]

    def test_exports_byte_identical_across_runs(self, tmp_path):
        config = small_config()
        export_reports([run_training(config, seed=5)], str(tmp_path / "a"))
        export_reports([run_training(config, seed=5)], str(tmp_path / "b"))
        for name in REPORT_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCsvFilesEqualTheRowWriter:
    """Every CSV boostlab writes has the bytes the csv module's row writer
    gives for the same rows, however write_csv chunks its columns."""

    @pytest.fixture(params=[1, 7, data.CHUNK_FIELDS], ids=["chunk-1", "chunk-7", "chunk-default"])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(data, "CHUNK_FIELDS", request.param)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("sampler", STRATEGIES)
    def test_history_of_every_sampler(self, tmp_path, chunk, sampler, seed):
        record = run_training(small_config(sampler=sampler, epochs=3), seed=seed)
        path = tmp_path / "history.csv"
        harness.write_history_csv(record.sampler_state, record.train_labels, path)
        rows = oracle_history_rows(record.sampler_state, record.train_labels)
        assert path.read_bytes() == oracle_csv_bytes(HISTORY_HEADER, rows)

    def test_history_of_edge_floats_and_an_uncalibrated_record(self, tmp_path, chunk):
        scores = np.array([0.1 + 0.2, -0.0, 5e-324, 1e22, 1 / 3, np.inf])
        state = SamplerState(strategy="boost", rng_seed=0)
        for epoch in range(2):
            state.history.append(EpochRecord(
                epoch=epoch, scores=scores[::1 - 2 * epoch], predicted=np.arange(6) % 3,
                probabilities=np.linspace(0, 0.25, 6), draw_counts=np.arange(6) * 1000))
        state.history.append(EpochRecord(  # a baseline's: nothing calibrated
            epoch=2, scores=None, predicted=None, probabilities=np.full(6, 0.125),
            draw_counts=np.arange(6)))
        labels = np.array([0, 1, 2, 0, 1, 2])
        harness.write_history_csv(state, labels, tmp_path / "history.csv")
        expected = oracle_csv_bytes(HISTORY_HEADER, oracle_history_rows(state, labels))
        assert (tmp_path / "history.csv").read_bytes() == expected
        assert b",0.30000000000000004," in expected and b",5e-324," in expected
        assert b"\n2,5,2,-1,,0.125,5\n" in expected

    @pytest.mark.parametrize(
        "labels, error, message",
        [([0.7, 1.2, 0.0, 1.9], InvalidParameterError, "^true_labels must be integers$"),
         ([0, 1, 0], InputShapeError, r"^true_labels must have shape \(4,\), got \(3,\)$"),
         ([[0, 1, 0, 1]], InputShapeError, r"^true_labels must have shape \(\*,\), got \(1, 4\)$")],
        ids=["fractional", "one-short", "nested"],
    )
    def test_history_labels_must_be_one_class_index_per_sample(
            self, tmp_path, labels, error, message):
        state = SamplerState(strategy="random", rng_seed=0)
        state.history.append(EpochRecord(
            epoch=0, scores=None, predicted=None,
            probabilities=np.full(4, 0.25), draw_counts=np.zeros(4, dtype=np.int64)))
        with pytest.raises(error, match=message):
            harness.write_history_csv(state, labels, tmp_path / "history.csv")
        assert not (tmp_path / "history.csv").exists()

    def test_per_class_and_embeddings(self, tmp_path, chunk):
        record = run_training(small_config(blob_counts=(40, 20, 10), test_counts=(9, 5, 3)))
        export_reports([record], str(tmp_path))
        per_class = record_to_report(record)["metrics"]["per_class"]
        rows = ((c, name, v) for c, values in per_class.items() for name, v in values.items())
        expected = oracle_csv_bytes(["class", "metric", "value_percent"], rows)
        assert (tmp_path / "per_class_metrics.csv").read_bytes() == expected

        with np.load(tmp_path / "embeddings.npz", allow_pickle=False) as arrays:
            np.testing.assert_array_equal(arrays["true_class"], record.test.labels)
            model = record.model
            expected = [oracle_hidden(model.weights_hidden, model.bias_hidden, x)
                        for x in record.test.features]
            np.testing.assert_allclose(arrays["hidden"], expected, rtol=0, atol=1e-12)

    def test_saved_dataset_with_a_label_column_that_needs_quoting(self, tmp_path, chunk):
        features = np.array([[0.1, -0.0, 1e150], [2.5e-8, 3.0, -7.0], [1 / 3, 1e-320, 42.0]])
        dataset = Dataset(features=features, labels=[2, 0, 1], num_classes=3)
        save_csv(dataset, tmp_path / "data.csv", label_column='class, "true"')
        header = ["feature_0", "feature_1", "feature_2", 'class, "true"']
        rows = ([*x.tolist(), y] for x, y in zip(features, [2, 0, 1]))
        assert (tmp_path / "data.csv").read_bytes() == oracle_csv_bytes(header, rows)


REFERENCE_ROW = {"accuracy": 84.44, "mab": 2.94, "sdb": 3.51}


class TestReportSchema:
    def test_reference_row_fits_report_schema(self, tmp_path):
        """A published-style result row must slot into the report layout."""
        fixture = {
            "config": {"sampler": "boost", "seed": 0},
            "per_epoch": [{"epoch": 0, "loss": 1.0, "temperature": 1.0, "ess": 1.0}],
            "metrics": {
                "per_class": {"0": {"accuracy": 84.44}},
                "aggregate": {"accuracy": REFERENCE_ROW["accuracy"]},
                "bias": {
                    "accuracy": {"mab": REFERENCE_ROW["mab"], "sdb": REFERENCE_ROW["sdb"]}
                },
                "ood_partition": {"0": {"id": 10, "ood": 2}},
                "flags": [],
            },
        }
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(fixture))
        parsed = json.loads(path.read_text())
        assert parsed == fixture

        record = run_training(small_config(epochs=1))
        produced = record_to_report(record)
        assert set(produced) == set(fixture)
        assert set(produced["metrics"]) == set(fixture["metrics"])
        assert set(produced["metrics"]["bias"]["accuracy"]) == {"mab", "sdb"}
        sample_epoch = produced["per_epoch"][0]
        assert set(sample_epoch) == set(fixture["per_epoch"][0])
