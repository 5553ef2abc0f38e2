import numpy as np
import pytest

from boostlab.errors import ConfigurationError, EmptyInputError, InvalidParameterError
from boostlab.metrics import PredictionLog, build_metrics_report, mab, sdb
from boostlab.metrics import sodc_per_class, sodc_total

from oracles import oracle_confusion_metrics, oracle_mab, oracle_sdb, oracle_sodc_per_class


def make_log(true_labels, predicted_labels, profiles=None, num_classes=None):
    true_labels = np.asarray(true_labels)
    predicted_labels = np.asarray(predicted_labels)
    nc = num_classes or int(max(true_labels.max(), predicted_labels.max())) + 1
    if profiles is None:
        profiles = np.full((len(true_labels), nc), 1.0 / nc)
    return PredictionLog(
        true_labels=true_labels,
        predicted_labels=predicted_labels,
        profiles=np.asarray(profiles, dtype=float),
    )


def one_hot_profiles(labels, nc, score=1.0):
    profiles = np.full((len(labels), nc), (1.0 - score) / (nc - 1))
    profiles[np.arange(len(labels)), labels] = score
    return profiles


class TestPredictionLog:
    def test_nan_profile_rejected(self):
        profiles = np.array([[0.5, 0.5], [np.nan, np.nan]])
        with pytest.raises(InvalidParameterError):
            make_log([0, 1], [0, 1], profiles)

    @pytest.mark.parametrize("field", ["true", "predicted"])
    def test_labels_out_of_range_name_their_field(self, field):
        labels = {"true": [0, 1], "predicted": [0, 1], field: [0, 2]}
        with pytest.raises(InvalidParameterError, match=rf"{field} labels must lie in \[0, 2\)"):
            make_log(labels["true"], labels["predicted"], np.full((2, 2), 0.5))


def partition(log):
    """The report's ID/OOD counts as two per-class lists."""
    counts = build_metrics_report(log).ood_partition
    return [v["id"] for v in counts.values()], [v["ood"] for v in counts.values()]


class TestIdOodCounts:
    def test_all_correct(self):
        id_counts, ood_counts = partition(make_log([0, 1, 0, 1], [0, 1, 0, 1]))
        assert ood_counts == [0, 0]
        assert id_counts == [2, 2]

    def test_all_wrong(self):
        id_counts, ood_counts = partition(make_log([0, 1, 0], [1, 0, 1]))
        assert id_counts == [0, 0]
        assert ood_counts == [2, 1]

    def test_mixed_hand_count(self):
        # 6 entries, 4 correct: class 0 has 3 samples (2 right), class 1 has 3 (2 right)
        id_counts, ood_counts = partition(make_log([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 0]))
        assert id_counts == [2, 2]
        assert ood_counts == [1, 1]

    def test_partition_covers_every_class(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 4, size=60)
        yhat = rng.integers(0, 4, size=60)
        id_counts, ood_counts = partition(make_log(y, yhat, num_classes=4))
        for c in range(4):
            assert id_counts[c] + ood_counts[c] == (y == c).sum()


class TestSodc:
    def test_perfect_balanced_unit_scores(self):
        labels = np.array([0, 0, 1, 1])
        # unit score on the true class is the limiting case; use profiles that
        # put (almost) everything on the correct class
        profiles = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        log = make_log(labels, labels, profiles)
        assert sodc_per_class(log)[0] == pytest.approx(0.5)
        assert sodc_per_class(log)[1] == pytest.approx(0.5)

    def test_fully_misclassified_class_scores_zero(self):
        log = make_log([0, 0, 1, 1], [1, 1, 1, 1])
        assert sodc_per_class(log)[0] == 0.0

    def test_hand_value(self):
        # n=4; class 0 has two correct samples with scores 0.9 and 0.7
        profiles = np.array([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8], [0.6, 0.4]])
        log = make_log([0, 0, 1, 1], [0, 0, 1, 0], profiles)
        assert sodc_per_class(log)[0] == pytest.approx(1.6 / 4)
        expected = oracle_sodc_per_class([0, 0, 1, 1], [0, 0, 1, 0], profiles.tolist(), 0)
        assert sodc_per_class(log)[0] == pytest.approx(expected)

    def test_total_is_product(self):
        assert sodc_total([0.5, 0.5]) == pytest.approx(0.25)
        assert sodc_total([0.4, 0.0, 0.9]) == 0.0
        assert sodc_total([0.4, 0.5, 0.1]) == pytest.approx(0.02)

    def test_bounded_by_class_mass(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 3, size=50)
        yhat = rng.integers(0, 3, size=50)
        raw = rng.uniform(0.1, 1.0, size=(50, 3))
        profiles = raw / raw.sum(axis=1, keepdims=True)
        log = make_log(y, yhat, profiles, num_classes=3)
        for c in range(3):
            assert 0.0 <= sodc_per_class(log)[c] <= (y == c).sum() / 50 + 1e-12

    def test_total_permutation_invariant(self):
        values = [0.3, 0.1, 0.6]
        assert sodc_total(values) == pytest.approx(sodc_total(values[::-1]))

    def test_total_bounded_by_weakest_class(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            values = rng.uniform(0.0, 1.0, size=rng.integers(2, 6))
            assert sodc_total(values) <= values.min() + 1e-12


class TestBiasScores:
    def test_constant_vector_zero(self):
        assert mab([80.0, 80.0, 80.0]) == 0.0
        assert sdb([80.0, 80.0, 80.0]) == 0.0

    def test_two_point_case(self):
        assert mab([90.0, 70.0]) == pytest.approx(10.0)
        assert sdb([90.0, 70.0]) == pytest.approx(10.0)

    def test_sdb_population_divisor(self):
        assert sdb([1.0, 2.0, 3.0, 4.0]) == pytest.approx(np.sqrt(1.25))

    def test_against_scalar_oracles(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            values = rng.uniform(0, 100, size=rng.integers(1, 9)).tolist()
            assert mab(values) == pytest.approx(oracle_mab(values))
            assert sdb(values) == pytest.approx(oracle_sdb(values))

    def test_permutation_invariance(self):
        values = [3.0, 9.0, 1.0, 7.0]
        shuffled = [7.0, 1.0, 3.0, 9.0]
        assert mab(values) == pytest.approx(mab(shuffled))
        assert sdb(values) == pytest.approx(sdb(shuffled))

    def test_zero_iff_constant(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            values = rng.uniform(0, 1, size=5)
            if np.ptp(values) > 1e-12:
                assert mab(values) > 0
                assert sdb(values) > 0

    @pytest.mark.parametrize(
        "metric, name",
        [(mab, "per_class_metric"), (sdb, "per_class_metric"), (sodc_total, "per_class")],
        ids=["mab", "sdb", "sodc_total"],
    )
    def test_empty_rejected(self, metric, name):
        with pytest.raises(EmptyInputError, match=rf"^{name} must not be empty, got shape \(0,\)$"):
            metric([])


def rates(report, name):
    return np.array([report.per_class[c][name] for c in sorted(report.per_class)])


class TestClassificationRates:
    def test_perfect_log(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        report = build_metrics_report(make_log(labels, labels))
        assert report.aggregate["accuracy"] == 1.0
        np.testing.assert_allclose(rates(report, "precision"), 1.0)
        np.testing.assert_allclose(rates(report, "accuracy"), 1.0)
        np.testing.assert_allclose(rates(report, "f1"), 1.0)

    def test_single_class_always_predicted(self):
        report = build_metrics_report(make_log([0, 0, 1, 1], [0, 0, 0, 0]))
        assert report.per_class[0]["accuracy"] == 1.0
        assert report.per_class[1]["accuracy"] == 0.0
        assert report.per_class[1]["precision"] == 0.0
        assert report.flags == ["class 1: precision reported as 0 (never predicted)"]

    def test_class_with_no_samples_is_flagged_and_scored_0(self):
        report = build_metrics_report(make_log([0, 0, 0], [0, 0, 0], num_classes=2))
        assert report.per_class[1] == {"accuracy": 0.0, "f1": 0.0, "precision": 0.0, "sodc": 0.0}
        assert report.aggregate["macro_recall"] == 0.5
        assert report.flags == [
            "class 1: precision reported as 0 (never predicted)",
            "class 1: no test samples; its accuracy, F1 and SODC are reported as 0"]

    def test_three_class_confusion_matrix(self):
        confusion = [[2, 1, 0], [0, 3, 0], [1, 0, 3]]
        y, yhat = [], []
        for t, row in enumerate(confusion):
            for p, count in enumerate(row):
                y.extend([t] * count)
                yhat.extend([p] * count)
        report = build_metrics_report(make_log(np.array(y), np.array(yhat), num_classes=3))
        expected = oracle_confusion_metrics(confusion)
        for c in range(3):
            for name in ("precision", "f1"):
                assert report.per_class[c][name] == pytest.approx(expected[c][name])
            assert report.per_class[c]["accuracy"] == pytest.approx(expected[c]["recall"])
        assert report.aggregate["accuracy"] == pytest.approx(8 / 10)


class TestReport:
    def test_report_shape_and_consistency(self):
        rng = np.random.default_rng(21)
        y = rng.integers(0, 3, size=40)
        yhat = rng.integers(0, 3, size=40)
        raw = rng.uniform(0.05, 1.0, size=(40, 3))
        log = make_log(y, yhat, raw / raw.sum(axis=1, keepdims=True), num_classes=3)
        report = build_metrics_report(log)

        per_class_sodc = [report.per_class[c]["sodc"] for c in range(3)]
        assert report.aggregate["sodc_total"] == pytest.approx(
            np.prod(per_class_sodc), rel=1e-12
        )
        for name in ("accuracy", "f1", "precision", "sodc"):
            values = [report.per_class[c][name] for c in range(3)]
            assert report.bias[name]["mab"] == pytest.approx(oracle_mab(values))
            assert report.bias[name]["sdb"] == pytest.approx(oracle_sdb(values))
        for vals in report.per_class.values():
            for v in vals.values():
                assert 0.0 <= v <= 1.0

    def test_logs_that_disagree_on_class_count_rejected(self):
        labels = np.array([0, 1])
        log = make_log(labels, labels, one_hot_profiles(labels, 2))
        with pytest.raises(ConfigurationError, match="log has 2 classes but sodc_log has 3"):
            build_metrics_report(log, make_log(labels, labels, one_hot_profiles(labels, 3)))

    @pytest.mark.parametrize("sodc_labels", [[1] * 6, [1, 0, 1, 0], [0, 1, 0]],
                             ids=["other-samples", "same-length", "shorter"])
    def test_logs_of_different_samples_rejected(self, sodc_labels):
        labels = np.array([0, 1, 0, 1])
        log = make_log(labels, labels, one_hot_profiles(labels, 2))
        sodc_labels = np.array(sodc_labels)
        sodc_log = make_log(sodc_labels, sodc_labels, one_hot_profiles(sodc_labels, 2))
        with pytest.raises(ConfigurationError, match="^sodc_log must hold the true labels"):
            build_metrics_report(log, sodc_log)

    def test_percent_export_of_every_rate_is_the_oracles_times_100(self):
        y = [0, 0, 0, 1, 1, 2, 2, 2, 2]
        yhat = [0, 1, 0, 1, 2, 2, 0, 2, 2]
        profiles = one_hot_profiles(np.array(yhat), 3, score=0.8)
        doc = build_metrics_report(make_log(y, yhat, profiles)).to_dict()

        confusion = [[sum(t == r and p == c for t, p in zip(y, yhat)) for c in range(3)]
                     for r in range(3)]
        rates = oracle_confusion_metrics(confusion)
        expected = [{"accuracy": rates[c]["recall"], "f1": rates[c]["f1"],
                     "precision": rates[c]["precision"],
                     "sodc": oracle_sodc_per_class(y, yhat, profiles, c)} for c in range(3)]
        for c in range(3):
            assert doc["per_class"][str(c)] == pytest.approx(
                {name: 100 * v for name, v in expected[c].items()}, rel=1e-12)
        for name in expected[0]:
            values = [row[name] for row in expected]
            assert doc["bias"][name] == pytest.approx(
                {"mab": 100 * oracle_mab(values), "sdb": 100 * oracle_sdb(values)}, rel=1e-12)

    def test_percent_export(self):
        labels = np.array([0, 1, 0, 1])
        log = make_log(labels, labels, one_hot_profiles(labels, 2, score=0.9))
        doc = build_metrics_report(log).to_dict()
        assert doc["aggregate"]["accuracy"] == pytest.approx(100.0)
        assert doc["aggregate"]["sodc_total"] == pytest.approx(0.45 * 0.45 * 100.0)
        assert doc["ood_partition"]["0"] == {"id": 2, "ood": 0}
