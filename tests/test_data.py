import numpy as np
import pytest

from boostlab.data import (
    Dataset,
    ParetoTailSpec,
    compute_feature_std,
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
    InsufficientDataError,
    NumericOverflowError,
)
from boostlab.model import forward_batch, init_model, train_step


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

    def test_separable_blobs_trainable_to_full_accuracy(self):
        data = make_blobs([10, 10], 2, 10.0, seed=1)
        model = init_model(2, 4, 2, seed=0)
        for _ in range(300):
            model, _ = train_step(model, data.features, data.labels, 0.5)
        _, logits = forward_batch(model, data.features)
        predictions = logits.argmax(axis=1)
        assert (predictions == data.labels).mean() == 1.0

    def test_zero_count_rejected(self):
        with pytest.raises(EmptyInputError):
            make_blobs([10, 0], 2, 3.0, seed=0)

    def test_equal_pairwise_center_distances(self):
        # recover empirical class means; the simplex layout keeps them equidistant
        data = make_blobs([4000, 4000, 4000], 3, 6.0, seed=5)
        means = np.array([data.features[data.labels == c].mean(axis=0) for c in range(3)])
        d01 = np.linalg.norm(means[0] - means[1])
        d02 = np.linalg.norm(means[0] - means[2])
        d12 = np.linalg.norm(means[1] - means[2])
        np.testing.assert_allclose([d01, d02, d12], 6.0, atol=0.15)


class TestParetoResample:
    def test_flat_curve_keeps_balanced_counts(self):
        data = make_blobs([80, 80, 80], 2, 3.0, seed=2)
        out = pareto_resample(data, ParetoTailSpec(scale=-1.0, rng_seed=0))
        np.testing.assert_array_equal(np.sort(out.class_counts), [80, 80, 80])
        np.testing.assert_array_equal(out.class_counts, data.class_counts)

    def test_steep_curve_counts(self):
        data = make_blobs([100, 80, 60, 40], 2, 3.0, seed=3)
        spec = ParetoTailSpec(scale=0.0, rng_seed=1)
        targets = pareto_tail_counts(data.class_counts, spec)
        # curve (1+r)^-1 anchored at 100
        np.testing.assert_array_equal(targets, [100, 50, 33, 25])
        out = pareto_resample(data, spec)
        ranked = np.sort(out.class_counts)[::-1]
        assert ranked[0] == 100
        assert all(b <= a for a, b in zip(ranked, ranked[1:]))

    def test_reference_scales_accepted(self):
        data = make_blobs([50, 30, 20], 2, 3.0, seed=4)
        for scale in (-0.5, -0.2, 0.0):
            out = pareto_resample(data, ParetoTailSpec(scale=scale, rng_seed=0))
            ranked = np.sort(out.class_counts)[::-1]
            assert ranked[0] == 50
            assert all(b <= a for a, b in zip(ranked, ranked[1:]))
            assert all(c > 0 for c in out.class_counts)

    def test_oversampling_draws_only_from_own_class(self):
        data = make_blobs([60, 5], 2, 3.0, seed=6)
        out = pareto_resample(data, ParetoTailSpec(scale=-0.9, rng_seed=2))
        # deficit class grew; every resampled point must exist in the source class
        source = {tuple(row) for row in data.features[data.labels == 1]}
        for row in out.features[out.labels == 1]:
            assert tuple(row) in source

    def test_subsampling_never_duplicates(self):
        data = make_blobs([100, 100], 2, 3.0, seed=7)
        out = pareto_resample(data, ParetoTailSpec(scale=0.0, rng_seed=3))
        minority = out.features[out.labels == np.argmin(out.class_counts)]
        assert len({tuple(r) for r in minority}) == len(minority)

    def test_deterministic(self):
        data = make_blobs([90, 40, 20], 2, 3.0, seed=8)
        a = pareto_resample(data, ParetoTailSpec(scale=-0.2, rng_seed=9))
        b = pareto_resample(data, ParetoTailSpec(scale=-0.2, rng_seed=9))
        np.testing.assert_array_equal(a.features, b.features)

    def test_single_class_returned_unchanged(self):
        data = make_blobs([30], 2, 3.0, seed=9)
        out = pareto_resample(data, ParetoTailSpec(scale=0.0, rng_seed=0))
        assert out is data

    def test_empty_class_rejected_by_name(self):
        # a rare class can end up with no train samples after a CSV split
        data = Dataset(features=np.arange(4.0)[:, None], labels=[0, 0, 2, 2], num_classes=3)
        with pytest.raises(InsufficientDataError, match="class 1"):
            pareto_resample(data, ParetoTailSpec(scale=0.0, rng_seed=0))


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

    def test_too_few_samples(self):
        data = Dataset(features=np.array([[1.0]]), labels=np.array([0]), num_classes=1)
        with pytest.raises(InsufficientDataError):
            compute_feature_std(data)

    def test_overflowing_std_rejected(self):
        with pytest.raises(NumericOverflowError):
            make_blobs([6, 3], 1, 1e300, seed=0)


class TestCsv:
    def test_lexicographic_label_mapping(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f0,f1,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        data = load_csv(path, "label")
        np.testing.assert_array_equal(data.labels, [0, 1, 0])
        assert data.num_classes == 2
        np.testing.assert_allclose(data.features, [[1, 2], [3, 4], [5, 6]])

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
        ],
        ids=["label-only", "not-utf8", "oversized-field"],
    )
    def test_malformed_file_raises_a_typed_error_naming_it(self, tmp_path, content, named):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(CsvParseError, match=named) as info:
            load_csv(path, "label")
        assert str(path) in str(info.value)

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
    def test_split_sizes_and_std_sharing(self):
        data = make_blobs([100, 100], 2, 3.0, seed=12)
        train, test = train_test_split(data, 0.25, seed=0)
        assert test.n == 50
        assert train.n == 150
        np.testing.assert_array_equal(test.feature_std, train.feature_std)

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
