import math

import numpy as np
import pytest

from boostlab import calibration, model as model_mod
from boostlab.calibration import OdinConfig, calibrate_batch_full, perturb
from boostlab.errors import EmptyInputError, InputShapeError, InvalidParameterError
from boostlab.model import forward_batch, softmax_rows

from oracles import oracle_ts_softmax


class TestTsSoftmax:
    def test_symmetric_logits(self):
        np.testing.assert_allclose(softmax_rows(np.array([0.0, 0.0]), 1.0), [0.5, 0.5])

    def test_analytic_exponentials(self):
        p = softmax_rows(np.array([math.log(2.0), 0.0]), 1.0)
        np.testing.assert_allclose(p, [2 / 3, 1 / 3], atol=1e-12)

    def test_high_temperature_flattening(self):
        # frozen from the 50-digit oracle: sigmoid(10/1000)
        p = softmax_rows(np.array([10.0, 0.0]), 1000.0)
        expected = oracle_ts_softmax([10.0, 0.0], 1000.0)
        np.testing.assert_allclose(p, expected, atol=1e-12)
        np.testing.assert_allclose(p, [0.502500, 0.497500], atol=1e-5)

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

    def test_t1_equals_standard_softmax(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            logits = rng.normal(scale=5, size=4)
            e = np.exp(logits - logits.max())
            np.testing.assert_allclose(softmax_rows(logits, 1.0), e / e.sum(), atol=1e-12)

    def test_entropy_nondecreasing_in_temperature(self):
        def entropy(p):
            return float(-(p * np.log(p)).sum())

        rng = np.random.default_rng(5)
        grid = [rng.normal(scale=s, size=4) for s in (0.5, 2.0, 8.0)]
        for logits in grid:
            values = [entropy(softmax_rows(logits, t)) for t in (1.0, 2.0, 5.0, 50.0, 1000.0)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_argmax_invariant_under_temperature(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            logits = rng.normal(scale=3, size=5)
            ref = int(np.argmax(softmax_rows(logits, 1.0)))
            for t in (2.0, 5.0, 50.0, 1000.0):
                assert int(np.argmax(softmax_rows(logits, t))) == ref


class TestPerturb:
    def test_zero_epsilon_is_identity(self):
        x = np.array([0.3, -0.7])
        cfg = OdinConfig(temperature=1.0, epsilon=0.0, grad_std=np.ones(2))
        np.testing.assert_array_equal(perturb(x, np.array([1.0, -2.0]), cfg), x)

    def test_sign_arithmetic(self):
        cfg = OdinConfig(temperature=1.0, epsilon=0.05, grad_std=np.ones(2))
        out = perturb(np.array([0.2, 0.7]), np.array([2.0, -3.0]), cfg)
        np.testing.assert_allclose(out, [0.15, 0.75], atol=1e-12)

    def test_std_scaling(self):
        # 0.2 - 0.05 * sign(2) / 0.5
        cfg = OdinConfig(temperature=1.0, epsilon=0.05, grad_std=np.array([0.5]))
        out = perturb(np.array([0.2]), np.array([2.0]), cfg)
        np.testing.assert_allclose(out, [0.1], atol=1e-12)

    def test_length_mismatch(self):
        cfg = OdinConfig(temperature=1.0, epsilon=0.05, grad_std=np.ones(2))
        with pytest.raises(InputShapeError):
            perturb(np.array([0.1, 0.2]), np.array([1.0]), cfg)


class TestOdinConfig:
    def test_temperature_bounds(self):
        with pytest.raises(InvalidParameterError):
            OdinConfig(temperature=0.5, epsilon=0.05, grad_std=np.ones(1))
        with pytest.raises(InvalidParameterError):
            OdinConfig(temperature=1001.0, epsilon=0.05, grad_std=np.ones(1))
        OdinConfig(temperature=1.0, epsilon=0.05, grad_std=np.ones(1))
        OdinConfig(temperature=1000.0, epsilon=0.05, grad_std=np.ones(1))

    def test_epsilon_and_std_validation(self):
        with pytest.raises(InvalidParameterError):
            OdinConfig(temperature=1.0, epsilon=-0.1, grad_std=np.ones(1))
        with pytest.raises(InvalidParameterError):
            OdinConfig(temperature=1.0, epsilon=0.05, grad_std=np.array([1.0, 0.0]))

    def test_nan_epsilon_rejected(self):
        with pytest.raises(InvalidParameterError):
            OdinConfig(temperature=1.0, epsilon=float("nan"), grad_std=np.ones(1))

    def test_nan_grad_std_rejected(self):
        with pytest.raises(InvalidParameterError):
            OdinConfig(temperature=1.0, epsilon=0.05, grad_std=np.array([1.0, np.nan]))


class TestCalibrateBatch:
    def test_zero_epsilon_reproduces_plain_profile(self, toy_model):
        X = np.array([[0.3], [-0.8]])
        cfg = OdinConfig(temperature=2.0, epsilon=0.0, grad_std=np.ones(1))
        profiles, _ = calibrate_batch_full(toy_model, X, cfg)
        assert profiles.shape == (2, 2)
        for i, profile in enumerate(profiles):
            expected = softmax_rows(forward_batch(toy_model, X[i][None])[1][0], 2.0)
            np.testing.assert_allclose(profile, expected, atol=1e-12)

    def test_constant_model_gives_uniform_profiles(self, zero_model):
        X = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 0.0]])
        cfg = OdinConfig(temperature=1.0, epsilon=0.05, grad_std=np.ones(2))
        profiles, _ = calibrate_batch_full(zero_model, X, cfg)
        np.testing.assert_allclose(profiles, np.full((3, 2), 0.5), atol=1e-12)

    def test_small_epsilon_does_not_raise_max_score(self, toy_model):
        # the subtractive sign descends the target score to first order
        X = np.array([[0.6]])
        for eps in (1e-4, 1e-3):
            cfg0 = OdinConfig(temperature=1.0, epsilon=0.0, grad_std=np.ones(1))
            cfg = OdinConfig(temperature=1.0, epsilon=eps, grad_std=np.ones(1))
            first = calibrate_batch_full(toy_model, X, cfg0)[0][0].max()
            second = calibrate_batch_full(toy_model, X, cfg)[0][0].max()
            assert second <= first + 1e-6

    def test_profiles_normalized_and_max_consistent(self, toy_model):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 1))
        cfg = OdinConfig(temperature=5.0, epsilon=0.05, grad_std=np.array([0.7]))
        profiles, logits = calibrate_batch_full(toy_model, X, cfg)
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
        cfg = OdinConfig(temperature=10.0, epsilon=0.05, grad_std=np.ones(1))
        calibrate_batch_full(toy_model, X, cfg)
        for name, before in snapshot.items():
            np.testing.assert_array_equal(getattr(toy_model, name), before)

    def test_empty_batch_rejected(self, toy_model):
        cfg = OdinConfig(temperature=1.0, epsilon=0.05, grad_std=np.ones(1))
        with pytest.raises(EmptyInputError):
            calibrate_batch_full(toy_model, np.empty((0, 1)), cfg)

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
        cfg = OdinConfig(temperature=3.0, epsilon=0.05, grad_std=np.ones(1))
        calibrate_batch_full(toy_model, X, cfg)
        assert calls == {"forward_batch": 2, "softmax_rows": 2}

    def test_full_variant_returns_perturbed_logits(self, toy_model):
        X = np.array([[0.4], [-0.2]])
        cfg = OdinConfig(temperature=1.0, epsilon=0.05, grad_std=np.ones(1))
        profiles, logits = calibrate_batch_full(toy_model, X, cfg)
        assert logits.shape == (2, 2)
        for profile, row in zip(profiles, logits):
            np.testing.assert_allclose(profile, softmax_rows(row, 1.0), atol=1e-12)
