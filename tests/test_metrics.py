import numpy as np
import pytest

from boostlab.errors import EmptyInputError, InvalidParameterError
from boostlab.metrics import (
    PredictionLog,
    build_metrics_report,
    classification_metrics,
    mab,
    recategorize,
    sdb,
    sodc_per_class,
    sodc_total,
)

from oracles import oracle_confusion_metrics, oracle_mab, oracle_sdb, oracle_sodc_per_class


def make_log(true_labels, predicted_labels, profiles=None, num_classes=None):
    true_labels = np.asarray(true_labels)
    predicted_labels = np.asarray(predicted_labels)
    nc = num_classes or int(max(true_labels.max(), predicted_labels.max())) + 1
    if profiles is None:
        profiles = np.full((len(true_labels), nc), 1.0 / nc)
    return PredictionLog(
        sample_ids=np.arange(len(true_labels)),
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


class TestRecategorize:
    def test_all_correct(self):
        log = make_log([0, 1, 0, 1], [0, 1, 0, 1])
        part = recategorize(log)
        np.testing.assert_array_equal(part.ood_counts, [0, 0])
        np.testing.assert_array_equal(part.id_counts, [2, 2])

    def test_all_wrong(self):
        log = make_log([0, 1, 0], [1, 0, 1])
        part = recategorize(log)
        np.testing.assert_array_equal(part.id_counts, [0, 0])
        np.testing.assert_array_equal(part.ood_counts, [2, 1])

    def test_mixed_hand_count(self):
        # 6 entries, 4 correct: class 0 has 3 samples (2 right), class 1 has 3 (2 right)
        log = make_log([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 0])
        part = recategorize(log)
        np.testing.assert_array_equal(part.id_counts, [2, 2])
        np.testing.assert_array_equal(part.ood_counts, [1, 1])

    def test_partition_covers_every_class(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 4, size=60)
        yhat = rng.integers(0, 4, size=60)
        log = make_log(y, yhat, num_classes=4)
        part = recategorize(log)
        for c in range(4):
            assert part.id_counts[c] + part.ood_counts[c] == (y == c).sum()


class TestSodc:
    def test_perfect_balanced_unit_scores(self):
        labels = np.array([0, 0, 1, 1])
        # unit score on the true class is the limiting case; use profiles that
        # put (almost) everything on the correct class
        profiles = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        log = make_log(labels, labels, profiles)
        assert sodc_per_class(log, 0) == pytest.approx(0.5)
        assert sodc_per_class(log, 1) == pytest.approx(0.5)

    def test_fully_misclassified_class_scores_zero(self):
        log = make_log([0, 0, 1, 1], [1, 1, 1, 1])
        assert sodc_per_class(log, 0) == 0.0

    def test_hand_value(self):
        # n=4; class 0 has two correct samples with scores 0.9 and 0.7
        profiles = np.array([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8], [0.6, 0.4]])
        log = make_log([0, 0, 1, 1], [0, 0, 1, 0], profiles)
        assert sodc_per_class(log, 0) == pytest.approx(1.6 / 4)
        expected = oracle_sodc_per_class([0, 0, 1, 1], [0, 0, 1, 0], profiles.tolist(), 0)
        assert sodc_per_class(log, 0) == pytest.approx(expected)

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
            assert 0.0 <= sodc_per_class(log, c) <= (y == c).sum() / 50 + 1e-12

    def test_total_permutation_invariant(self):
        values = [0.3, 0.1, 0.6]
        assert sodc_total(values) == pytest.approx(sodc_total(values[::-1]))

    def test_total_bounded_by_weakest_class(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            values = rng.uniform(0.0, 1.0, size=rng.integers(2, 6))
            assert sodc_total(values) <= values.min() + 1e-12

    def test_out_of_range_class(self):
        log = make_log([0, 1], [0, 1])
        with pytest.raises(InvalidParameterError):
            sodc_per_class(log, 7)


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

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            mab([])


class TestClassificationMetrics:
    def test_perfect_log(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        log = make_log(labels, labels)
        cm = classification_metrics(log)
        assert cm.overall_accuracy == 1.0
        np.testing.assert_allclose(cm.precision, 1.0)
        np.testing.assert_allclose(cm.recall, 1.0)
        np.testing.assert_allclose(cm.f1, 1.0)

    def test_single_class_always_predicted(self):
        log = make_log([0, 0, 1, 1], [0, 0, 0, 0])
        cm = classification_metrics(log)
        assert cm.recall[0] == 1.0
        assert cm.recall[1] == 0.0
        assert cm.precision[1] == 0.0
        assert 1 in cm.zero_precision_classes

    def test_three_class_confusion_matrix(self):
        confusion = [[2, 1, 0], [0, 3, 0], [1, 0, 3]]
        y, yhat = [], []
        for t, row in enumerate(confusion):
            for p, count in enumerate(row):
                y.extend([t] * count)
                yhat.extend([p] * count)
        log = make_log(np.array(y), np.array(yhat), num_classes=3)
        cm = classification_metrics(log)
        expected = oracle_confusion_metrics(confusion)
        for c in range(3):
            assert cm.precision[c] == pytest.approx(expected[c]["precision"])
            assert cm.recall[c] == pytest.approx(expected[c]["recall"])
            assert cm.f1[c] == pytest.approx(expected[c]["f1"])
        assert cm.overall_accuracy == pytest.approx(8 / 10)


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
        for name in ("accuracy", "f1", "precision", "recall", "sodc"):
            values = [report.per_class[c][name] for c in range(3)]
            assert report.bias[name]["mab"] == pytest.approx(oracle_mab(values))
            assert report.bias[name]["sdb"] == pytest.approx(oracle_sdb(values))
        for vals in report.per_class.values():
            for v in vals.values():
                assert 0.0 <= v <= 1.0

    def test_percent_export(self):
        labels = np.array([0, 1, 0, 1])
        log = make_log(labels, labels, one_hot_profiles(labels, 2, score=0.9))
        doc = build_metrics_report(log).to_dict()
        assert doc["aggregate"]["accuracy"] == pytest.approx(100.0)
        assert doc["sodc"]["total"] == pytest.approx(0.45 * 0.45 * 100.0)
        assert doc["ood_partition"]["0"] == {"id": 2, "ood": 0}
