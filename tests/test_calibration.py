import math
import re

import numpy as np
import pytest

from boostlab import calibration, model as model_mod
from boostlab.calibration import calibrate_batch_full, perturb, temperature_at
from boostlab.errors import (
    EmptyInputError,
    InputShapeError,
    InvalidParameterError,
    NumericOverflowError,
)
from boostlab.harness import ExperimentConfig
from boostlab.model import forward_batch, init_model, softmax_rows


class TestTsSoftmax:
    def test_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.normal(scale=10, size=rng.integers(2, 8))
            t = float(rng.uniform(0.5, 1000))
            assert abs(softmax_rows(logits, t).sum() - 1.0) < 1e-9

    def test_large_logits_stable(self):
        p = softmax_rows(np.array([1000.0, 999.0]), 1.0)
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) < 1e-9

    def test_tiny_temperature_whose_logit_gap_overflows_gives_a_one_hot_row(self):
        # z / T is finite, the gap between its entries is not: it exps to 0
        _, logits = forward_batch(init_model(2, 3, 2, seed=0), [[1.0, 0.5]])
        np.testing.assert_array_equal(softmax_rows(logits, 1e-308), [[0.0, 1.0]])

    @pytest.mark.parametrize("temperature", [1e-309, 5e-324])
    def test_temperature_that_overflows_the_logits_raises_naming_it(self, temperature):
        _, logits = forward_batch(init_model(2, 3, 2, seed=0), [[1.0, 0.5]])
        with pytest.raises(NumericOverflowError, match=f"at temperature {temperature!r}$"):
            softmax_rows(logits, temperature)

    def test_finite_logits_that_overflow_keep_the_overflow_message(self):
        message = "^logits / temperature overflows float64 at temperature 1e-309$"
        with pytest.raises(NumericOverflowError, match=message):
            softmax_rows([[1.0, 0.5]], 1e-309)

    @pytest.mark.parametrize(
        "logits", [np.zeros((2, 0)), [], np.zeros((0, 0)), np.zeros((2, 3, 0))],
        ids=["two-rows", "empty-list", "no-rows", "three-axes"],
    )
    def test_logits_with_no_column_raise_naming_logits(self, logits):
        shape = re.escape(str(np.shape(logits)))
        with pytest.raises(EmptyInputError, match=f"^logits must not be empty, got shape {shape}$"):
            softmax_rows(logits)


class TestPerturb:
    def test_step_of_the_wrong_length_names_both_lengths(self):
        step = 0.1 / np.ones(3)
        message = r"^step must have shape \(2,\), got \(3,\)$"
        with pytest.raises(InputShapeError, match=message):
            perturb(np.zeros((2, 2)), np.ones((2, 2)), step)
        model = model_mod.init_model(2, 4, 2, seed=0)
        with pytest.raises(InputShapeError, match=message):
            calibrate_batch_full(model, np.zeros((2, 2)), 1.0, step)

    @pytest.mark.parametrize(
        "step",
        [
            -0.1 / np.ones(1),  # a negative epsilon
            float("nan") / np.ones(1),  # a NaN epsilon
            math.inf / np.ones(1),  # an infinite epsilon
            0.05 / np.array([1.0, np.nan]),  # a NaN std entry
            [0.05, math.inf],  # an infinite step entry
            "abc",
            [[1.0], [1.0, 2.0]],
            None,
        ],
    )
    def test_bad_step_rejected_by_name(self, step):
        with pytest.raises(InvalidParameterError, match="^step must be"):
            perturb(np.ones((1, 2)), np.ones((1, 2)), step)

    @pytest.mark.parametrize(
        "step, shape", [(np.ones((2, 2)), r"\(2, 2\)"), (2.0, r"\(\)")], ids=["matrix", "scalar"]
    )
    def test_misshapen_step_rejected_by_name(self, step, shape):
        with pytest.raises(InputShapeError, match=rf"^step must have shape \(2,\), got {shape}$"):
            perturb(np.ones((1, 2)), np.ones((1, 2)), step)


class TestCalibrateBatch:
    def test_temperature_bounds(self, toy_model):
        X, step = np.array([[0.3]]), 0.05 / np.ones(1)
        for temperature in (0.5, 1001.0):
            with pytest.raises(InvalidParameterError, match="^temperature must be in"):
                calibrate_batch_full(toy_model, X, temperature, step)
        calibrate_batch_full(toy_model, X, 1.0, step)
        calibrate_batch_full(toy_model, X, 1000.0, step)

    def test_zero_epsilon_reproduces_plain_profile(self, toy_model):
        X = np.array([[0.3], [-0.8]])
        profiles, _, _ = calibrate_batch_full(toy_model, X, 2.0, 0.0 / np.ones(1))
        assert profiles.shape == (2, 2)
        for i, profile in enumerate(profiles):
            expected = softmax_rows(forward_batch(toy_model, X[i][None])[1][0], 2.0)
            np.testing.assert_allclose(profile, expected, atol=1e-12)

    def test_constant_model_gives_uniform_profiles(self, zero_model):
        X = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 0.0]])
        profiles, _, _ = calibrate_batch_full(zero_model, X, 1.0, 0.05 / np.ones(2))
        np.testing.assert_allclose(profiles, np.full((3, 2), 0.5), atol=1e-12)

    def test_small_epsilon_does_not_raise_max_score(self, toy_model):
        # the subtractive sign descends the target score to first order
        X = np.array([[0.6]])
        for eps in (1e-4, 1e-3):
            first = calibrate_batch_full(toy_model, X, 1.0, 0.0 / np.ones(1))[0][0].max()
            second = calibrate_batch_full(toy_model, X, 1.0, eps / np.ones(1))[0][0].max()
            assert second <= first + 1e-6

    def test_profiles_normalized_and_max_consistent(self, toy_model):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 1))
        profiles, logits, _ = calibrate_batch_full(toy_model, X, 5.0, 0.05 / np.array([0.7]))
        assert profiles.shape == logits.shape == (20, 2)
        np.testing.assert_allclose(profiles.sum(axis=1), 1.0, atol=1e-9)
        # the max class callers derive from the profiles is the perturbed logits' argmax
        np.testing.assert_array_equal(profiles.argmax(axis=1), logits.argmax(axis=1))

    def test_model_left_bit_identical(self, toy_model):
        X = np.random.default_rng(9).normal(size=(5, 1))
        snapshot = {
            name: getattr(toy_model, name).copy()
            for name in ("weights_hidden", "bias_hidden", "weights_out", "bias_out")
        }
        calibrate_batch_full(toy_model, X, 10.0, 0.05 / np.ones(1))
        for name, before in snapshot.items():
            np.testing.assert_array_equal(getattr(toy_model, name), before)

    def test_one_sample_as_a_vector_rejected(self, toy_model):
        message = r"^features must have shape \(\*, 1\), got \(1,\)$"
        with pytest.raises(InputShapeError, match=message):
            calibrate_batch_full(toy_model, [0.4], 1.0, 0.05 / np.ones(1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["to-inf", "to-minus-inf"])
    def test_an_overflowing_readout_raises_naming_the_logits(self, sign):
        # finite parameters whose readout overflows float64 on a finite input
        readout = sign * 1.7e308
        params = [3.0, 3.0, 0.0, 0.0, readout, readout, 0.0, 0.0, 0.0, 0.0]
        model = model_mod.ClassifierModel(params, 1, 2, 2)
        with pytest.raises(NumericOverflowError, match="^the model's logits overflow float64$"):
            calibrate_batch_full(model, [[1.0]], 1.0, np.array([0.1]))

    @pytest.mark.filterwarnings("error")
    def test_a_perturbed_readout_that_overflows_raises_naming_the_logits(self):
        # at x = 0 the hidden layer is 0 and the logits are finite; the
        # perturbation step of 5 saturates it, and the readout overflows
        model = model_mod.ClassifierModel([1.0, 1.0, 0.0, 0.0, 1e308, 1e308, 0.0, 0.0, 0.0, 0.0],
                                          1, 2, 2)
        np.testing.assert_array_equal(forward_batch(model, np.zeros((1, 1)))[1], [[0.0, 0.0]])
        with pytest.raises(NumericOverflowError, match="^the model's logits overflow float64$"):
            calibrate_batch_full(model, [[0.0]], 1.0, np.array([5.0]))

    def test_one_first_pass_and_one_rescore(self, toy_model, monkeypatch):
        # one forward + TS-softmax on the inputs, one on the perturbed inputs;
        # the input gradient reuses the first pass
        calls = {"forward_batch": 0, "softmax_rows": 0}
        for name in calls:
            real = getattr(model_mod, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(model_mod, name, counted)
            monkeypatch.setattr(calibration, name, counted)
        X = np.array([[0.4], [-0.2], [1.1]])
        calibrate_batch_full(toy_model, X, 3.0, 0.05 / np.ones(1))
        assert calls == {"forward_batch": 2, "softmax_rows": 2}

    def test_full_variant_returns_perturbed_logits(self, toy_model):
        X = np.array([[0.4], [-0.2]])
        profiles, logits, clean = calibrate_batch_full(toy_model, X, 1.0, 0.05 / np.ones(1))
        assert logits.shape == (2, 2)
        for profile, row in zip(profiles, logits):
            np.testing.assert_allclose(profile, softmax_rows(row, 1.0), atol=1e-12)
        # and the first pass's logits, those of the unperturbed inputs, bit for bit
        np.testing.assert_array_equal(clean, forward_batch(toy_model, X)[1])


class TestTemperatureAt:
    def test_constant_within_interval(self):
        sched = ExperimentConfig()
        assert temperature_at(sched, 0) == 1.0
        assert temperature_at(sched, 4) == 1.0
        assert temperature_at(sched, 14) == 25.0

    def test_upper_clamp(self):
        sched = ExperimentConfig()
        assert temperature_at(sched, 100) == 1000.0  # unclamped would be 5**20

    def test_clamp_holds_past_the_float_range(self):
        sched = ExperimentConfig(temp_scale=1e200, temp_interval=1)
        assert [temperature_at(sched, e) for e in range(4)] == [1.0, 1000.0, 1000.0, 1000.0]
        # 1e161**2 overflows on its own, but a start of 1e-320 brings the product back to ~100
        tiny_start = ExperimentConfig(temp_start=1e-320, temp_scale=1e161, temp_interval=1)
        assert temperature_at(tiny_start, 2) == pytest.approx(100.0, rel=1e-3)

    def test_inverse_linear_descends_to_min(self):
        sched = ExperimentConfig(temp_kind="inverse-linear", epochs=10)
        assert temperature_at(sched, 0) == 1000.0
        assert temperature_at(sched, 10) == 1.0
        assert temperature_at(sched, 50) == 1.0
        values = [temperature_at(sched, e) for e in range(12)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        # constant per-epoch steps until the bound
        steps = np.diff(values[:11])
        np.testing.assert_allclose(steps, steps[0])
