import csv
import json
import math

import numpy as np
import pytest

from boostlab import harness
from boostlab.calibration import OdinConfig, calibrate_batch_full
from boostlab.data import make_blobs, save_csv
from boostlab.errors import ConfigurationError, InvalidParameterError
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
    run_training,
)
from boostlab.model import init_model, train_step
from boostlab.scheduler import temperature_at

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


def train_to_perfection(counts=(30, 20), sep=8.0, seed=0):
    train = make_blobs(list(counts), 2, sep, seed=seed)
    test = make_blobs(list(counts), 2, sep, seed=seed + 1)
    model = init_model(2, 8, 2, seed=seed)
    for _ in range(300):
        model, _ = train_step(model, train.features, train.labels, 0.5)
    return model, train, test


class TestRunTraining:
    def test_single_epoch_random_has_uniform_entropy(self):
        record = run_training(small_config(sampler="random", epochs=1))
        assert len(record.per_epoch) == 1
        n = sum(record.config.blob_counts)
        assert record.per_epoch[0].sampling_entropy == pytest.approx(math.log(n))

    def test_temperature_trace_matches_schedule(self):
        config = small_config(epochs=8, temp_interval=2)
        record = run_training(config)
        schedule = config.schedule()
        for stats in record.per_epoch:
            assert stats.temperature == temperature_at(schedule, stats.epoch)

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
        for strategy in ("boost", "random", "dynamic-random", "stratified", "dynamic-stratified"):
            record = run_training(small_config(sampler=strategy, epochs=2))
            assert len(record.sampler_state.history) == 2
            assert 0.0 <= record.metrics.aggregate["accuracy"] <= 1.0

    @pytest.mark.parametrize("sampler, mode", [("boost", "boost"), ("random", "control")])
    def test_final_evaluation_at_last_temperature_with_third_seed(self, sampler, mode):
        config = small_config(sampler=sampler, epochs=6, learning_rate=0.3)
        record = run_training(config, seed=3)
        train, test = build_datasets(config, seed=3)
        odin = OdinConfig(temperature=5.0, epsilon=config.epsilon, grad_std=train.feature_std)
        eval_seed = int(np.random.SeedSequence(3).generate_state(3)[2])
        expected = run_evaluation(record.model, test, mode, odin, 16, 0.3, sampler_seed=eval_seed)
        assert record.metrics.to_dict() == expected.to_dict()

    def test_run_experiment_covers_all_seeds(self):
        records = run_experiment(small_config(seeds=(0, 1, 2), epochs=1))
        assert [r.seed for r in records] == [0, 1, 2]


class TestExperimentConfig:
    def test_hidden_units_below_one_rejected(self):
        for bad in (0, -3):
            with pytest.raises(InvalidParameterError):
                small_config(hidden_units=bad)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("seeds", (-1,), "seeds"),
            ("seeds", (0, -2), "seeds"),
            ("epsilon", math.nan, "epsilon"),
            ("epsilon", math.inf, "epsilon"),
            ("epsilon", -0.1, "epsilon"),
            ("learning_rate", math.nan, "learning_rate"),
            ("learning_rate", math.inf, "learning_rate"),
            ("learning_rate", -1.0, "learning_rate"),
            ("blob_separation", math.nan, "blob_separation"),
            ("blob_separation", math.inf, "blob_separation"),
            ("blob_separation", 0.0, "blob_separation"),
            ("blob_separation", -2.0, "blob_separation"),
            ("blob_dim", 0, "blob_dim"),
            ("test_fraction", 0.0, "test_fraction"),
            ("test_fraction", 1.0, "test_fraction"),
            ("test_fraction", math.nan, "test_fraction"),
            ("pareto_scale", math.nan, "pareto scale"),
            ("pareto_scale", -1.5, "pareto scale"),
            ("temp_scale", math.nan, "scale"),
            ("temp_scale", 1.0, "scale"),
            ("temp_scale", math.inf, "scale"),
            ("temp_start", math.nan, "start"),
            ("temp_start", 0.0, "start"),
            ("temp_start", math.inf, "start"),
            ("temp_interval", 0, "interval_epochs"),
            ("epsilon", "x", "epsilon"),
            ("blob_counts", 5, "blob_counts"),
            ("seeds", [0, "1"], "seeds"),
            ("test_counts", (3, 2.5), "test_counts"),
            ("epochs", 2.0, "epochs"),
            ("learning_rate", True, "learning_rate"),
            ("sampler", None, "sampler"),
            ("test_counts", (100,), "test_counts"),
            ("seeds", (0, 0), "seeds"),
        ],
    )
    def test_out_of_range_field_rejected_by_name(self, field, value, named):
        with pytest.raises(InvalidParameterError, match=named):
            small_config(**{field: value})


class TestBuildDatasets:
    def test_test_split_carries_train_std(self):
        train, test = build_datasets(small_config(), seed=0)
        np.testing.assert_array_equal(test.feature_std, train.feature_std)

    def test_pareto_applies_to_train_only(self):
        config = small_config(
            blob_counts=(60, 50, 40, 30), pareto_scale=0.0, test_counts=(10, 10, 10, 10)
        )
        train, test = build_datasets(config, seed=0)
        ranked = np.sort(train.class_counts)[::-1]
        assert ranked[0] == 60
        assert all(b <= a for a, b in zip(ranked, ranked[1:]))
        np.testing.assert_array_equal(test.class_counts, [10, 10, 10, 10])


class TestRunEvaluation:
    def test_perfect_model_boost_mode(self):
        model, train, test = train_to_perfection()
        odin = OdinConfig(temperature=2.0, epsilon=0.05, grad_std=train.feature_std)
        report = run_evaluation(model, test, "boost", odin, 32, 0.1, sampler_seed=0)
        partition = report.ood_partition
        np.testing.assert_array_equal(partition.ood_counts, [0, 0])

        profiles, _ = calibrate_batch_full(model, test.features, odin)
        predicted = profiles.argmax(axis=1).tolist()
        profiles = profiles.tolist()
        expected = 1.0
        for c in range(2):
            expected *= oracle_sodc_per_class(test.labels.tolist(), predicted, profiles, c)
        assert report.aggregate["sodc_total"] == pytest.approx(expected, rel=1e-12)
        # unit-score limit bounds the product from above
        bound = np.prod(test.class_counts / test.n)
        assert report.aggregate["sodc_total"] <= bound + 1e-12

    def test_control_mode_leaves_model_unchanged(self):
        model, train, test = train_to_perfection(seed=2)
        snapshot = {
            name: getattr(model, name).copy()
            for name in ("weights_hidden", "bias_hidden", "weights_out", "bias_out")
        }
        odin = OdinConfig(temperature=5.0, epsilon=0.05, grad_std=train.feature_std)
        run_evaluation(model, test, "control", odin, 32, learning_rate=0.5, sampler_seed=0)
        for name, before in snapshot.items():
            np.testing.assert_array_equal(getattr(model, name), before)

    def test_control_mode_classification_from_plain_predictions(self):
        # with a perfect model the plain log is perfect regardless of the
        # one-epoch fine-tune used for the score profiles
        model, train, test = train_to_perfection(seed=3)
        odin = OdinConfig(temperature=2.0, epsilon=0.05, grad_std=train.feature_std)
        report = run_evaluation(model, test, "control", odin, 32, 0.1, sampler_seed=0)
        assert report.aggregate["accuracy"] == 1.0

    def test_class_count_mismatch(self):
        model, _, _ = train_to_perfection()
        other = make_blobs([5, 5, 5], 2, 3.0, seed=9)
        odin = OdinConfig(temperature=2.0, epsilon=0.05, grad_std=other.feature_std)
        with pytest.raises(ConfigurationError):
            run_evaluation(model, other, "boost", odin, 32, 0.1, sampler_seed=0)

    def test_unknown_mode(self):
        model, train, test = train_to_perfection()
        odin = OdinConfig(temperature=2.0, epsilon=0.05, grad_std=train.feature_std)
        with pytest.raises(InvalidParameterError):
            run_evaluation(model, test, "plain", odin, 32, 0.1, sampler_seed=0)

    def test_deterministic(self):
        model, train, test = train_to_perfection(seed=4)
        odin = OdinConfig(temperature=3.0, epsilon=0.05, grad_std=train.feature_std)
        a = run_evaluation(model, test, "control", odin, 32, 0.1, sampler_seed=7)
        b = run_evaluation(model, test, "control", odin, 32, 0.1, sampler_seed=7)
        assert a.to_dict() == b.to_dict()


class TestRunComparison:
    def test_unknown_strategy_rejected_before_any_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_training", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidParameterError, match="bogus"):
            run_comparison(small_config(), ("boost", "bogus"))
        assert calls == []

    def test_repeated_strategy_rejected_before_any_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_training", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidParameterError, match="distinct"):
            run_comparison(small_config(), ("boost", "boost", "random"))
        assert calls == []


class TestExportReports:
    def test_single_record_writes_exactly_five_files(self, tmp_path):
        record = run_training(small_config(epochs=2))
        out = tmp_path / "run"
        paths = export_reports([record], str(out))
        assert sorted(p.name for p in out.iterdir()) == sorted([*REPORT_FILES, "model_seed0.json"])
        assert len(paths) == 5

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
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc) == {"config", "per_epoch", "metrics"}
        assert {e["epoch"] for e in doc["per_epoch"]} == {0, 1}
        assert set(doc["metrics"]) == {
            "per_class",
            "aggregate",
            "bias",
            "sodc",
            "ood_partition",
            "flags",
        }

    def test_embedding_rows_equal_test_size(self, tmp_path):
        config = small_config(test_counts=(13, 7))
        record = run_training(config)
        export_reports([record], str(tmp_path))
        lines = (tmp_path / "embeddings.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 20
        assert lines[0].startswith("sample_id,true_class,h_0")

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
            assert b"\r" not in open(path, "rb").read(), path

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
            np.testing.assert_array_equal(ints(cols[3]), epoch.predicted)
            if sampler == "random":  # nothing was calibrated
                assert set(cols[4]) == {""}
            else:
                np.testing.assert_array_equal(floats(cols[4]), epoch.scores)
            np.testing.assert_array_equal(floats(cols[5]), epoch.probabilities)
            np.testing.assert_array_equal(ints(cols[6]), epoch.draw_counts)

        rows, cols = columns("embeddings.csv")
        assert ints(cols[0]) == list(range(len(record.test_labels)))
        np.testing.assert_array_equal(ints(cols[1]), record.test_labels)
        np.testing.assert_array_equal([floats(row[2:]) for row in rows], record.embeddings)

    def test_exports_byte_identical_across_runs(self, tmp_path):
        config = small_config()
        export_reports([run_training(config, seed=5)], str(tmp_path / "a"))
        export_reports([run_training(config, seed=5)], str(tmp_path / "b"))
        for name in REPORT_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


REFERENCE_ROW = {"accuracy": 84.44, "mab": 2.94, "sdb": 3.51}


class TestReportSchema:
    def test_reference_row_fits_report_schema(self, tmp_path):
        """A published-style result row must slot into the report layout."""
        fixture = {
            "config": {"sampler": "boost", "seed": 0},
            "per_epoch": [{"epoch": 0, "loss": 1.0, "temperature": 1.0, "sampling_entropy": 0.0}],
            "metrics": {
                "per_class": {"0": {"accuracy": 84.44}},
                "aggregate": {"accuracy": REFERENCE_ROW["accuracy"]},
                "bias": {
                    "accuracy": {"mab": REFERENCE_ROW["mab"], "sdb": REFERENCE_ROW["sdb"]}
                },
                "sodc": {"per_class": {"0": 1.84}, "total": 1.84},
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
