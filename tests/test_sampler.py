import itertools
import re

import numpy as np
import pytest
from scipy import stats

from boostlab import data as data_mod
from boostlab import harness as harness_mod
from boostlab.data import Dataset, compute_feature_std, csv_fields, make_blobs
from boostlab.errors import (
    ConfigurationError,
    EmptyInputError,
    InputShapeError,
    InvalidParameterError,
    NumericOverflowError,
)
from boostlab.harness import write_history_csv
from boostlab.model import ClassifierModel, init_model, train_step
from boostlab.sampler import (
    STRATEGIES,
    EpochRecord,
    SamplerState,
    aggregate_class_scores,
    boost_probabilities,
    draw_batch,
    epoch_resample,
    install_distribution,
)

from oracles import oracle_boost_weights


class TestAggregateScores:
    def test_class_means(self):
        agg = aggregate_class_scores(np.array([0.9, 0.7, 0.5]), np.array([0, 0, 1]), num_classes=2)
        np.testing.assert_allclose(agg, [0.8, 0.5])

    def test_constant_scores(self):
        agg = aggregate_class_scores(
            np.array([0.6, 0.6, 0.6, 0.6]), np.array([0, 1, 1, 0]), num_classes=2
        )
        np.testing.assert_allclose(agg, [0.6, 0.6])

    def test_empty_class_takes_mean_of_present(self):
        agg = aggregate_class_scores(np.array([0.9, 0.5]), np.array([0, 2]), num_classes=3)
        np.testing.assert_allclose(agg, [0.9, 0.7, 0.5])

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            aggregate_class_scores(np.array([]), np.array([], dtype=int), num_classes=2)

    def test_misaligned_labels_rejected(self):
        with pytest.raises(InputShapeError, match=r"^labels must have shape \(3,\), got \(2,\)$"):
            aggregate_class_scores([0.5, 0.5, 0.5], [0, 1], num_classes=2)

    @pytest.mark.parametrize(
        "num_classes", [2.5, True, "2", 0], ids=["fractional", "bool", "text", "zero"]
    )
    def test_bad_class_count_rejected(self, num_classes):
        with pytest.raises(InvalidParameterError, match="num_classes"):
            aggregate_class_scores(np.array([0.9, 0.5]), np.array([0, 1]), num_classes)


class TestSamplerState:
    @pytest.mark.parametrize("strategy", ["bogus", None, "Boost"])
    def test_unknown_strategy_rejected_with_its_value(self, strategy):
        with pytest.raises(InvalidParameterError,
                           match=f"^strategy must be one of .*, got {strategy!r}$"):
            SamplerState(strategy=strategy, rng_seed=0)

    @pytest.mark.parametrize("strategy", ["dynamic-random", "dynamic-stratified"])
    def test_a_retired_baseline_name_is_rejected(self, strategy):
        message = f"strategy must be one of ('boost', 'random', 'stratified'), got {strategy!r}"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            SamplerState(strategy=strategy, rng_seed=0)

    @pytest.mark.parametrize("counter", ["history", "installs", "degenerate_draws"])
    def test_counters_start_empty_and_are_no_constructor_option(self, counter):
        state = SamplerState(strategy="boost", rng_seed=0)
        assert (state.history, state.installs, state.degenerate_draws) == ([], 0, 0)
        with pytest.raises(TypeError, match=counter):
            SamplerState(strategy="boost", rng_seed=0, **{counter: 0})


def installed(weights):
    """The distribution install_distribution makes of these weights."""
    return install_distribution(SamplerState(strategy="boost", rng_seed=0), weights)


class TestBoostProbabilities:
    def test_symmetric_samples_get_equal_weight(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        agg = np.array([0.5, 0.5])
        probs = installed(boost_probabilities(logits, np.array([0, 1]), agg))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_inverted_confidences_hand_case(self):
        # three samples whose raw confidences are 0.5 / 0.3 / 0.2
        logits = np.log(np.array([[0.5, 0.3, 0.2]] * 3))
        agg = np.ones(3)
        probs = installed(boost_probabilities(logits, np.array([0, 1, 2]), agg))
        np.testing.assert_allclose(probs, [0.25, 0.35, 0.40], atol=1e-12)
        np.testing.assert_allclose(probs, oracle_boost_weights([0.5, 0.3, 0.2]), atol=1e-12)

    def test_near_certain_sample_gets_vanishing_weight(self):
        logits = np.array([[40.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
        agg = np.array([0.5, 0.5])
        probs = installed(boost_probabilities(logits, np.array([0, 0, 1]), agg))
        assert probs[0] < 1e-10
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_rank_inversion(self):
        # same predicted class, same aggregates: lower confidence, higher weight
        margins = np.array([0.2, 0.8, 1.5, 3.0])
        logits = np.column_stack([margins, np.zeros(4)])
        agg = np.array([0.5, 0.5])
        probs = boost_probabilities(logits, np.zeros(4, dtype=int), agg)
        assert np.all(np.diff(probs) < 0)

    def test_nonpositive_aggregate_rejected(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        for bad in ([0.5, 0.0], [0.5, 1.5]):
            with pytest.raises(InvalidParameterError):
                boost_probabilities(logits, np.array([0, 1]), np.array(bad))

    def test_nan_aggregate_rejected(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidParameterError):
            boost_probabilities(logits, np.array([0, 1]), np.array([0.5, np.nan]))

    @pytest.mark.parametrize(
        "logits, class_index, aggregates, error",
        [
            ([[np.nan, 0.0], [0.0, 1.0]], [0, 1], [0.5, 0.5], InvalidParameterError),
            ([[np.inf, 0.0], [0.0, 1.0]], [0, 1], [0.5, 0.5], InvalidParameterError),
            ([[1.0, 0.0], [0.0, 1.0]], [0, 2], [0.5, 0.5], InvalidParameterError),
            ([[1.0, 0.0], [0.0, 1.0]], [0, -1], [0.5, 0.5], InvalidParameterError),
            ([[1.0, 0.0], [0.0, 1.0]], [0, 1.7], [0.5, 0.5], InvalidParameterError),
            ([[1.0, 0.0], [0.0, 1.0]], ["a", "b"], [0.5, 0.5], InvalidParameterError),
            ([[1.0, 0.0], [0.0, 1.0]], [0, 1], [0.5, 0.5, 0.5], InputShapeError),
            (np.empty((0, 2)), np.empty(0, dtype=int), [0.5, 0.5], EmptyInputError),
            (np.zeros((1, 2, 2)), [0], [0.5, 0.5], InputShapeError),
        ],
        ids=["nan-logit", "inf-logit", "class-index-too-large", "negative-class-index",
             "fractional-class-index", "text-class-index", "aggregates-longer-than-classes",
             "no-samples", "three-dim-logits"],
    )
    def test_bad_input_raises_a_typed_error(self, logits, class_index, aggregates, error):
        with pytest.raises(error):
            boost_probabilities(np.array(logits), np.array(class_index), np.array(aggregates))

    @pytest.mark.parametrize("n", [2, 0], ids=["two-rows", "no-rows"])
    def test_logits_with_no_column_raise_naming_logits(self, n):
        # with no row either, the one emptiness rule names the logits
        with pytest.raises(EmptyInputError, match=rf"^logits must not be empty, got shape \({n}, 0\)$"):
            boost_probabilities(np.zeros((n, 0)), [0] * n, [])

    def test_always_a_distribution(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n, nc = int(rng.integers(2, 40)), int(rng.integers(2, 6))
            logits = rng.normal(scale=5, size=(n, nc))
            agg = rng.uniform(0.1, 1.0, size=nc)
            probs = installed(boost_probabilities(logits, rng.integers(0, nc, size=n), agg))
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-9


class TestInstallDistribution:
    def test_weights_are_normalised_once(self):
        np.testing.assert_array_equal(installed(np.array([1.0, 3.0])), [0.25, 0.75])

    def test_all_zero_weights_fall_back_to_uniform_with_one_warning(self, caplog):
        state = SamplerState(strategy="boost", rng_seed=0)
        p = install_distribution(state, np.zeros(4))
        assert state.degenerate
        np.testing.assert_array_equal(p, np.full(4, 0.25))
        np.testing.assert_array_equal(state.cdf, [0.25, 0.5, 0.75, 1.0])
        assert [r.name for r in caplog.records] == ["boostlab.sampler"]
        install_distribution(state, np.ones(4))
        assert not state.degenerate
        assert len(caplog.records) == 1


class TestDrawBatch:
    def _state(self, probabilities, seed=0):
        state = SamplerState(strategy="random", rng_seed=seed)
        install_distribution(state, np.asarray(probabilities, dtype=float))
        return state

    def test_point_mass(self):
        state = self._state([1.0, 0.0, 0.0])
        assert set(draw_batch(state, 50)) == {0}

    def test_frequencies_match_chi_square(self):
        state = self._state([0.2, 0.8], seed=99)
        draws = draw_batch(state, 100_000)
        counts = np.bincount(draws, minlength=2)
        freq = counts[1] / 100_000
        assert abs(freq - 0.8) <= 0.01
        p_value = stats.chisquare(counts, f_exp=[20_000, 80_000]).pvalue
        assert p_value > 0.001

    def test_deterministic_per_seed_and_counter(self):
        a = draw_batch(self._state([0.3, 0.7], seed=5), 20)
        b = draw_batch(self._state([0.3, 0.7], seed=5), 20)
        np.testing.assert_array_equal(a, b)

    def test_counter_advances_the_stream(self):
        state = self._state([0.5, 0.5], seed=5)
        first = draw_batch(state, 20)
        second = draw_batch(state, 20)
        assert not np.array_equal(first, second)

    def test_degenerate_distribution_falls_back_to_uniform(self):
        state = self._state([0.0, 0.0, 0.0])
        draws = draw_batch(state, 3000)
        assert state.degenerate_draws == 1
        counts = np.bincount(draws, minlength=3)
        assert np.all(counts > 800)  # roughly uniform thirds

    @pytest.mark.parametrize(
        "name", ["uniform", "skewed", "point-mass", "one-sample", "stratified"]
    )
    def test_stream_equals_generator_choice(self, name):
        rng = np.random.default_rng(8)
        p = {
            "uniform": np.full(1000, 1e-3),
            "skewed": rng.pareto(1.5, size=1000),  # unnormalised, heavy-tailed
            "point-mass": np.eye(1000)[417],
            "one-sample": np.array([0.25]),
            "stratified": 1.0 / np.array([900, 100])[np.repeat([0, 1], [900, 100])],
        }[name]
        state = self._state(p, seed=31)
        rng = np.random.default_rng([31, 0])  # the stream of install 0
        for _ in range(200):  # past ceil(n / 32) draws on the one install
            expected = rng.choice(len(p), 32, p=p / p.sum())
            np.testing.assert_array_equal(draw_batch(state, 32), expected)

    def test_each_install_draws_its_own_reproducible_stream(self):
        state = self._state(np.full(4, 0.25), seed=9)
        first = [draw_batch(state, 16) for _ in range(3)]
        install_distribution(state, np.full(4, 0.25))  # equal weights, the next install
        second = [draw_batch(state, 16) for _ in range(3)]
        assert not np.array_equal(first, second)
        # (seed, install) alone fixes an install's batches, however many
        # batches the install before it drew
        again = self._state(np.full(4, 0.25), seed=9)
        np.testing.assert_array_equal(draw_batch(again, 16), first[0])
        install_distribution(again, np.full(4, 0.25))
        np.testing.assert_array_equal([draw_batch(again, 16) for _ in range(3)], second)

    def test_overflowing_sum_falls_back_to_uniform(self):
        state = self._state([1e308, 1e308, 1.0], seed=3)
        draws = draw_batch(state, 3000)
        assert state.degenerate_draws == 1
        expected = np.random.default_rng([3, 0]).choice(3, 3000, p=np.full(3, 1 / 3))
        np.testing.assert_array_equal(draws, expected)

    def test_fallback_counts_every_draw_it_serves(self, caplog):
        state = self._state([0.0, 0.0], seed=3)
        for _ in range(3):
            draw_batch(state, 4)
        assert state.degenerate_draws == 3
        assert sum("degenerate" in r.getMessage() for r in caplog.records) == 1  # one per install
        install_distribution(state, np.array([0.5, 0.5]))
        draw_batch(state, 4)
        assert state.degenerate_draws == 3

    def test_empty_distribution_rejected(self):
        with pytest.raises(EmptyInputError):
            self._state([])

    def test_invalid_batch_size(self):
        for batch_size in (0, 2.5, True, "4"):
            with pytest.raises(InvalidParameterError, match="batch_size"):
                draw_batch(self._state([1.0]), batch_size)

    def test_requires_probabilities(self):
        state = SamplerState(strategy="random", rng_seed=0)
        with pytest.raises(InvalidParameterError):
            draw_batch(state, 4)


BASELINES = tuple(s for s in STRATEGIES if s != "boost")
RECORD_ARRAYS = ("scores", "predicted", "probabilities", "draw_counts")


class TestEpochResample:
    def _setup(self, counts=(30, 10), seed=0):
        data = make_blobs(list(counts), 2, 3.0, seed=seed)
        model = init_model(2, 8, len(counts), seed=seed)
        odin = (1.0, 0.05 / compute_feature_std(data))
        return data, model, odin

    def test_class_count_mismatch(self):
        data, _, odin = self._setup(counts=(10, 10, 10))
        model = init_model(2, 8, 2, seed=0)
        with pytest.raises(ConfigurationError, match="model has 2 classes but dataset has 3"):
            epoch_resample(SamplerState(strategy="boost", rng_seed=0), model, data, *odin)

    def test_random_strategy_uniform(self):
        data, model, odin = self._setup()
        state = SamplerState(strategy="random", rng_seed=0)
        epoch_resample(state, model, data, *odin)
        np.testing.assert_allclose(state.history[-1].probabilities, 1.0 / data.n)

    def test_stratified_weights(self):
        data, model, odin = self._setup(counts=(90, 10))
        state = SamplerState(strategy="stratified", rng_seed=0)
        epoch_resample(state, model, data, *odin)
        expected = 1.0 / data.class_counts[data.labels]
        expected /= expected.sum()
        np.testing.assert_allclose(state.history[-1].probabilities, expected)

    def test_boost_with_constant_model_is_uniform(self, zero_model):
        data = make_blobs([6, 6], 2, 3.0, seed=1)
        odin = (1.0, 0.0 / compute_feature_std(data))
        state = SamplerState(strategy="boost", rng_seed=0)
        epoch_resample(state, zero_model, data, *odin)
        np.testing.assert_allclose(state.history[-1].probabilities, 1.0 / data.n, atol=1e-12)

    def test_probabilities_valid_for_every_strategy(self):
        data, model, odin = self._setup(counts=(25, 15, 10))
        model = init_model(2, 8, 3, seed=3)
        for strategy in STRATEGIES:
            state = SamplerState(strategy=strategy, rng_seed=2)
            for _ in range(3):
                epoch_resample(state, model, data, *odin)
                p = state.history[-1].probabilities
                assert np.all(p >= 0)
                assert abs(p.sum() - 1.0) < 1e-9

    def test_caller_model_untouched(self):
        data, model, odin = self._setup()
        snapshot = {
            name: getattr(model, name).copy()
            for name in ("weights_hidden", "bias_hidden", "weights_out", "bias_out")
        }
        state = SamplerState(strategy="boost", rng_seed=0)
        epoch_resample(state, model, data, *odin)
        for name, before in snapshot.items():
            np.testing.assert_array_equal(getattr(model, name), before)

    def test_history_append_only(self):
        data, model, odin = self._setup()
        state = SamplerState(strategy="boost", rng_seed=0)
        epoch_resample(state, model, data, *odin)
        draw_batch(state, 8)
        first = state.history[0]
        frozen = (first.scores.copy(), first.probabilities.copy(), first.draw_counts.copy())
        epoch_resample(state, model, data, *odin)
        assert len(state.history) == 2
        np.testing.assert_array_equal(state.history[0].scores, frozen[0])
        np.testing.assert_array_equal(state.history[0].probabilities, frozen[1])
        np.testing.assert_array_equal(state.history[0].draw_counts, frozen[2])

    @pytest.mark.parametrize("strategy", BASELINES)
    def test_baseline_records_share_one_read_only_copy(self, strategy):
        data, model, odin = self._setup()
        state = SamplerState(strategy=strategy, rng_seed=0)
        for _ in range(3):
            epoch_resample(state, model, data, *odin)
            draw_batch(state, 8)
        first = state.history[0]
        for record in state.history:
            assert record.scores is None and record.predicted is None  # nothing calibrated
            assert record.probabilities is first.probabilities
        assert not first.probabilities.flags.writeable
        counts = [record.draw_counts for record in state.history]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(counts, 2))
        assert [int(c.sum()) for c in counts] == [8, 8, 8]
        with pytest.raises(ValueError, match="read-only"):
            first.probabilities[0] = 1.0

    @pytest.mark.parametrize("strategy", BASELINES)
    def test_baseline_record_on_another_split_holds_that_splits_distribution(self, strategy):
        data, model, odin = self._setup(counts=(30, 10))
        other = make_blobs([12, 24], 2, 3.0, seed=1)
        state = SamplerState(strategy=strategy, rng_seed=0)
        for split in (data, other, other):
            epoch_resample(state, model, split, *odin)
        first, second, third = state.history
        expected = (np.ones(other.n) if strategy.endswith("random")
                    else 1.0 / other.class_counts[other.labels])
        np.testing.assert_array_equal(second.probabilities, expected / expected.sum())
        assert second.scores is None and second.predicted is None
        assert second.probabilities is not first.probabilities
        assert not second.probabilities.flags.writeable
        assert third.probabilities is second.probabilities

    def test_boost_records_share_nothing(self):
        data, model, odin = self._setup()
        state = SamplerState(strategy="boost", rng_seed=0)
        for _ in range(3):
            epoch_resample(state, model, data, *odin)
        arrays = [getattr(record, name) for record in state.history
                  for name in RECORD_ARRAYS]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
        assert all(array.flags.writeable for array in arrays)

    @pytest.mark.parametrize("strategy", BASELINES)
    def test_baseline_history_holds_one_copy_plus_draw_counts(self, strategy):
        data, model, odin = self._setup()
        state = SamplerState(strategy=strategy, rng_seed=0)
        epochs = 6
        for _ in range(epochs):
            epoch_resample(state, model, data, *odin)
        arrays = (getattr(record, name) for record in state.history for name in RECORD_ARRAYS)
        unique = {id(array): array.nbytes for array in arrays if array is not None}
        assert sum(unique.values()) == data.n * 8 + epochs * data.n * 4  # float64 p, int32 counts

    def test_boost_history_holds_21_bytes_per_sample_and_epoch(self):
        data, model, odin = self._setup()  # 2 classes: predicted is uint8
        state = SamplerState(strategy="boost", rng_seed=0)
        epochs = 6
        for _ in range(epochs):
            epoch_resample(state, model, data, *odin)
        arrays = (getattr(record, name) for record in state.history for name in RECORD_ARRAYS)
        unique = {id(array): array.nbytes for array in arrays}
        assert sum(unique.values()) == epochs * data.n * (8 + 1 + 8 + 4)

    @pytest.mark.parametrize("num_classes, dtype", [(1, np.uint8), (256, np.uint8),
                                                    (257, np.uint16)])
    def test_predicted_holds_every_class_index(self, num_classes, dtype):
        rng = np.random.default_rng(num_classes)
        data = Dataset(features=rng.normal(size=(2 * num_classes, 2)),
                       labels=np.arange(2 * num_classes) % num_classes, num_classes=num_classes)
        model = init_model(2, 4, num_classes, seed=0)
        params = model.params.copy()
        params[-1] += 50.0  # the last class wins every sample, the one past uint8 at 257
        model = ClassifierModel(params, 2, 4, num_classes)
        odin = (1.0, 0.05 / compute_feature_std(data))
        state = SamplerState(strategy="boost", rng_seed=0)
        epoch_resample(state, model, data, *odin)
        predicted = state.history[0].predicted
        assert predicted.dtype == dtype
        np.testing.assert_array_equal(predicted, np.full(data.n, num_classes - 1))

    @pytest.mark.parametrize("strategy", BASELINES)
    def test_baseline_stream_equals_generator_choice(self, strategy):
        data, model, odin = self._setup()
        state = SamplerState(strategy=strategy, rng_seed=6)
        for epoch in range(2):  # each epoch's install seeds its own stream
            epoch_resample(state, model, data, *odin)
            p = state.history[-1].probabilities
            rng = np.random.default_rng([6, epoch])
            for _ in range(200):  # past ceil(n / 8) draws on the one install
                expected = rng.choice(data.n, 8, p=p / p.sum())
                np.testing.assert_array_equal(draw_batch(state, 8), expected)

    @pytest.mark.parametrize("strategy", BASELINES)
    def test_baselines_redraw_each_epoch(self, strategy):
        data, model, odin = self._setup()
        state = SamplerState(strategy=strategy, rng_seed=4)
        epoch_resample(state, model, data, *odin)
        epoch0 = draw_batch(state, 10)
        epoch_resample(state, model, data, *odin)
        epoch1 = draw_batch(state, 10)
        assert not np.array_equal(epoch0, epoch1)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_resample_never_rewinds_the_install_counter(self, strategy):
        data, model, odin = self._setup()
        state = SamplerState(strategy=strategy, rng_seed=2)
        for epoch in range(3):
            epoch_resample(state, model, data, *odin)
            assert state.installs == epoch + 1
            p = state.history[-1].probabilities
            rng = np.random.default_rng([2, epoch])
            for _ in range(5):
                np.testing.assert_array_equal(draw_batch(state, 4),
                                              rng.choice(data.n, 4, p=p / p.sum()))
        assert state.installs == 3

    @pytest.mark.filterwarnings("error")
    def test_boost_resample_of_an_overflowing_readout_raises_naming_the_logits(self):
        data, _, odin = self._setup(counts=(3, 2))
        # every hidden unit at tanh(3) whatever the input, times a readout of 1.7e308
        params = np.r_[np.zeros(16), np.full(8, 3.0), np.full(16, 1.7e308), np.zeros(2)]
        model = ClassifierModel(params, 2, 8, 2)
        state = SamplerState(strategy="boost", rng_seed=0)
        with pytest.raises(NumericOverflowError, match="^the model's logits overflow float64$"):
            epoch_resample(state, model, data, *odin)
        assert state.history == [] and state.cdf is None

    def test_minority_class_uplift(self):
        # model trained on the imbalance is confident on the majority class;
        # inverted weighting must over-draw the minority
        data = make_blobs([900, 100], 2, 2.5, seed=10)
        model = init_model(2, 8, 2, seed=10)
        for _ in range(60):
            model, _ = train_step(model, data.features, data.labels, 0.3)
        odin = (1.0, 0.05 / compute_feature_std(data))
        state = SamplerState(strategy="boost", rng_seed=11)
        epoch_resample(state, model, data, *odin)
        draws = draw_batch(state, 10_000)
        minority_fraction = (data.labels[draws] == 1).mean()
        assert minority_fraction > 0.1

    def test_confidently_misclassified_sample_gets_top_weight(self):
        data = make_blobs([15, 15], 2, 4.0, seed=20)
        model = init_model(2, 8, 2, seed=20)
        for _ in range(200):
            model, _ = train_step(model, data.features, data.labels, 0.5)
        # plant one sample deep in class 0 territory but labeled class 1
        features = data.features.copy()
        centre0 = features[data.labels == 0].mean(axis=0)
        features[-1] = centre0
        planted = Dataset(features=features, labels=data.labels, num_classes=2)
        odin = (1.0, 0.05 / compute_feature_std(planted))
        state = SamplerState(strategy="boost", rng_seed=21)
        epoch_resample(state, model, planted, *odin)
        assert np.argmax(state.history[-1].probabilities) == planted.n - 1


class TestHistoryExport:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_formats_a_shared_distribution_once(self, tmp_path, monkeypatch, strategy):
        data = make_blobs([12, 8], 2, 3.0, seed=12)
        model = init_model(2, 4, 2, seed=12)
        odin = (2.0, 0.05 / compute_feature_std(data))
        state = SamplerState(strategy=strategy, rng_seed=13)
        epochs = 5
        for _ in range(epochs):
            epoch_resample(state, model, data, *odin)
        formatted = []

        def counting(column):
            formatted.append(len(column))
            return csv_fields(column)

        monkeypatch.setattr(data_mod, "csv_fields", counting)
        monkeypatch.setattr(harness_mod, "csv_fields", counting)
        write_history_csv(state, data.labels, tmp_path / "history.csv")
        # the ids and the labels once; then per epoch a boost record's four
        # arrays, or a baseline's counts and, once for all, its distribution
        per_epoch = 4 if strategy == "boost" else 1
        shared = 0 if strategy == "boost" else 1
        assert sum(formatted) == data.n * (2 + shared + per_epoch * epochs)

    def test_narrow_integers_write_the_bytes_of_their_int64_copies(self, tmp_path):
        state, wide = (SamplerState(strategy="boost", rng_seed=0) for _ in range(2))
        for epoch, dtype in enumerate([np.uint8, np.uint16]):
            top = np.iinfo(dtype).max
            predicted = np.array([0, 1, top - 1, top], dtype=dtype)
            counts = np.array([0, 7, 2**31 - 2, 2**31 - 1], dtype=np.int32)
            probabilities = np.full(4, 0.25)
            scores = np.linspace(0.2, 0.9, 4)
            state.history.append(EpochRecord(epoch, scores, predicted, probabilities, counts))
            wide.history.append(EpochRecord(epoch, scores, predicted.astype(np.int64),
                                            probabilities, counts.astype(np.int64)))
        labels = np.array([0, 1, 0, 1])
        write_history_csv(state, labels, tmp_path / "narrow.csv")
        write_history_csv(wide, labels, tmp_path / "wide.csv")
        narrow = (tmp_path / "narrow.csv").read_bytes()
        assert narrow == (tmp_path / "wide.csv").read_bytes()
        assert b",65535," in narrow and narrow.endswith(b",2147483647\n")

    def test_csv_shape_and_columns(self, tmp_path):
        data = make_blobs([12, 8], 2, 3.0, seed=12)
        model = init_model(2, 4, 2, seed=12)
        odin = (2.0, 0.05 / compute_feature_std(data))
        state = SamplerState(strategy="boost", rng_seed=13)
        for _ in range(2):
            epoch_resample(state, model, data, *odin)
            draw_batch(state, 16)
        path = tmp_path / "history.csv"
        write_history_csv(state, data.labels, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "epoch,sample_id,true_class,predicted_class,"
            "calibrated_score,sampling_probability,times_drawn"
        )
        assert len(lines) == 1 + 2 * data.n
        total_drawn = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
        assert total_drawn == 32
