import json
import math

import numpy as np
import pytest

from boostlab import model as model_mod
from boostlab.data import make_blobs
from boostlab.errors import EmptyInputError, InputShapeError, InvalidParameterError
from boostlab.model import (
    LAYERS,
    ClassifierModel,
    forward_batch,
    init_model,
    input_gradient_batch,
    load_model,
    loss_and_gradients,
    model_from_dict,
    model_to_dict,
    save_model,
    softmax_rows,
    train_step,
)

from oracles import (
    fd_input_gradient,
    fd_parameter_gradients,
    oracle_cross_entropy,
    oracle_forward_mp,
)


def _random_model(rng, d=None, h=None, c=None):
    d = d or rng.integers(1, 6)
    h = h or rng.integers(1, 8)
    c = c or rng.integers(2, 5)
    params = np.concatenate([
        rng.normal(scale=1.2, size=h * d),  # weights_hidden
        rng.normal(scale=0.5, size=h),  # bias_hidden
        rng.normal(scale=1.2, size=c * h),  # weights_out
        rng.normal(scale=0.5, size=c),  # bias_out
    ])
    return ClassifierModel(params, d, h, c)


def score_gradient(model, x, c, t):
    hidden, logits = forward_batch(model, x[None])
    return input_gradient_batch(model, hidden, softmax_rows(logits, t), np.array([c]), t)[0]


class TestForward:
    def test_zero_parameters_give_zero_logits(self, zero_model):
        logits = forward_batch(zero_model, np.array([[3.0, -4.0]]))[1][0]
        np.testing.assert_array_equal(logits, np.zeros(2))

    def test_toy_model_matches_hand_chain(self, toy_model):
        # frozen from the 50-digit scalar evaluation of tanh(2*0.3 + 0.5)
        logits = forward_batch(toy_model, np.array([[0.3]]))[1][0]
        expected = oracle_forward_mp([[2.0]], [0.5], [[1.5], [-0.5]], [0.1, -0.2], [0.3])
        np.testing.assert_allclose(logits, [float(v) for v in expected], rtol=1e-12)
        np.testing.assert_allclose(logits, [1.3007485273287884, -0.6002495091095961], atol=1e-12)

    def test_deterministic(self, toy_model):
        x = np.array([[0.123]])
        _, first = forward_batch(toy_model, x)
        np.testing.assert_array_equal(first, forward_batch(toy_model, x)[1])

    def test_dimension_mismatch(self, toy_model):
        with pytest.raises(InputShapeError):
            forward_batch(toy_model, np.array([[1.0, 2.0]]))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(7)
        model = _random_model(rng, d=3, h=4, c=3)
        X = rng.normal(size=(10, 3))
        _, batch = forward_batch(model, X)
        for i in range(10):
            single = forward_batch(model, X[i][None])[1][0]
            np.testing.assert_allclose(batch[i], single, atol=1e-12)


class TestInputGradient:
    def test_constant_model_gives_zero_gradient(self, zero_model):
        g = score_gradient(zero_model, np.array([1.0, -2.0]), 0, 1.0)
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_toy_model_matches_finite_differences(self, toy_model):
        x = np.array([0.4])
        g = score_gradient(toy_model, x, 0, 1.0)
        fd = fd_input_gradient(toy_model, x, 0, 1.0, h=1e-5)
        assert abs(g[0] - fd[0]) / abs(fd[0]) < 1e-4

    def test_two_temperatures_finite_and_sign_consistent(self, toy_model):
        # a point far from the decision boundary: both gradients keep the sign
        x = np.array([2.0])
        for t in (2.0, 4.0):
            g = score_gradient(toy_model, x, 0, t)
            fd = fd_input_gradient(toy_model, x, 0, t, h=1e-5)
            assert np.isfinite(g[0])
            assert abs(g[0] - fd[0]) / abs(fd[0]) < 1e-4
        g1 = score_gradient(toy_model, x, 0, 2.0)
        g2 = score_gradient(toy_model, x, 0, 4.0)
        assert np.sign(g1[0]) == np.sign(g2[0])

    def test_random_models_match_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            model = _random_model(rng)
            x = rng.normal(size=model.num_features)
            c = int(rng.integers(model.num_classes))
            t = float(rng.uniform(1.0, 50.0))
            g = score_gradient(model, x, c, t)
            fd = np.array(fd_input_gradient(model, x, c, t, h=1e-5))
            denom = max(np.abs(fd).max(), 1e-8)
            assert np.abs(g - fd).max() / denom < 1e-4


class TestTrainStep:
    def test_zero_learning_rate_keeps_parameters(self, toy_model):
        X = np.array([[0.1], [0.9]])
        y = np.array([0, 1])
        updated, loss = train_step(toy_model, X, y, 0.0)
        np.testing.assert_array_equal(updated.weights_hidden, toy_model.weights_hidden)
        np.testing.assert_array_equal(updated.weights_out, toy_model.weights_out)
        assert loss >= 0

    def test_descends_on_separable_blobs(self):
        data = make_blobs([100, 100], 2, 6.0, seed=3)
        model = init_model(2, 4, 2, seed=0)
        initial, _ = loss_and_gradients(model, data.features, data.labels)
        for _ in range(200):
            model, _ = train_step(model, data.features, data.labels, 0.5)
        final, _ = loss_and_gradients(model, data.features, data.labels)
        assert final < initial

    def test_loss_near_zero_for_confident_correct_model(self):
        # huge output weights drive the softmax to one-hot on the true class
        # weights_hidden [[5.0]], bias_hidden [0.0], weights_out [[50.0], [-50.0]], bias_out 0
        model = ClassifierModel(np.array([5.0, 0.0, 50.0, -50.0, 0.0, 0.0]), 1, 1, 2)
        X = np.array([[2.0], [-2.0]])
        y = np.array([0, 1])
        _, loss = train_step(model, X, y, 0.0)
        assert loss < 1e-6

    def test_empty_batch_rejected(self, toy_model):
        with pytest.raises(EmptyInputError):
            train_step(toy_model, np.empty((0, 1)), np.empty(0, dtype=int), 0.1)

    def test_does_not_mutate_input_model(self, toy_model):
        before = toy_model.weights_out.copy()
        train_step(toy_model, np.array([[0.5]]), np.array([1]), 1.0)
        np.testing.assert_array_equal(toy_model.weights_out, before)

    def test_step_makes_a_new_parameter_vector(self, toy_model):
        before = toy_model.params.copy()
        updated, _ = train_step(toy_model, np.array([[0.5]]), np.array([1]), 1.0)
        np.testing.assert_array_equal(toy_model.params, before)
        assert not np.array_equal(updated.params, before)
        assert not np.shares_memory(updated.params, toy_model.params)

    def test_loss_matches_oracle_cross_entropy(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            model = _random_model(rng)
            n = int(rng.integers(1, 8))
            X = rng.normal(size=(n, model.num_features))
            y = rng.integers(0, model.num_classes, size=n)
            loss, _ = loss_and_gradients(model, X, y)
            assert abs(loss - oracle_cross_entropy(model, X, y)) < 1e-12

    def test_one_forward_pass_per_step(self, toy_model, monkeypatch):
        calls = []
        real = model_mod.forward_batch

        def counted(model, features):
            calls.append(len(features))
            return real(model, features)

        monkeypatch.setattr(model_mod, "forward_batch", counted)
        train_step(toy_model, np.array([[0.5], [-0.5]]), np.array([0, 1]), 0.1)
        assert calls == [2]

    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        model = _random_model(rng, d=2, h=3, c=3)
        X = rng.normal(size=(6, 2))
        y = rng.integers(0, 3, size=6)
        _, analytic = loss_and_gradients(model, X, y)
        fd = fd_parameter_gradients(ClassifierModel(model.params.copy(), 2, 3, 3), X, y, h=1e-6)
        for name, grad in zip(LAYERS, model.layer_views(analytic)):
            expected = np.array(fd[name]).reshape(grad.shape)
            denom = max(np.abs(expected).max(), 1e-8)
            assert np.abs(grad - expected).max() / denom < 1e-4


class TestParameterVector:
    def test_layers_are_views_of_the_vector(self, toy_model):
        for layer in toy_model.layer_views(toy_model.params):
            assert np.shares_memory(layer, toy_model.params)
        np.testing.assert_array_equal(toy_model.weights_out, [[1.5], [-0.5]])
        np.testing.assert_array_equal(toy_model.bias_out, [0.1, -0.2])

    def test_wrong_length_rejected(self):
        with pytest.raises(InputShapeError, match="6 parameters"):
            ClassifierModel(np.zeros(5), 1, 1, 2)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameterError):
            ClassifierModel(np.array([1.0, np.inf, 0.0, 0.0, 0.0, 0.0]), 1, 1, 2)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = init_model(3, 5, 4, seed=9)
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        np.testing.assert_array_equal(restored.weights_hidden, model.weights_hidden)
        np.testing.assert_array_equal(restored.bias_hidden, model.bias_hidden)
        np.testing.assert_array_equal(restored.weights_out, model.weights_out)
        np.testing.assert_array_equal(restored.bias_out, model.bias_out)

    def test_dict_form_is_flat_row_major(self):
        model = init_model(2, 3, 2, seed=1)
        doc = model_to_dict(model)
        assert doc["dims"] == {"features": 2, "hidden": 3, "classes": 2}
        assert len(doc["weights_hidden"]) == 6
        assert doc["weights_hidden"][:2] == model.weights_hidden[0].tolist()
        np.testing.assert_array_equal(
            model_from_dict(doc).weights_out, model.weights_out
        )

    def test_unknown_activation_rejected(self, tmp_path):
        doc = model_to_dict(init_model(2, 3, 2, seed=1))
        doc["activation"] = "relu"
        path = tmp_path / "relu.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParameterError, match="relu"):
            load_model(path)

    @pytest.mark.parametrize(
        "text, error, named",
        [
            ('{"dims": ', InvalidParameterError, "not valid JSON"),
            ("{}", InvalidParameterError, "dims"),
            ("[1, 2]", InvalidParameterError, "JSON object"),
            ('{"dims": {"features": -1, "hidden": 0, "classes": 2}, "weights_hidden": [], '
             '"bias_hidden": [], "weights_out": [], "bias_out": [0, 0]}',
             InvalidParameterError, "dims"),
        ],
        ids=["truncated", "no-keys", "not-an-object", "negative-dims"],
    )
    def test_malformed_checkpoint_names_the_file(self, tmp_path, text, error, named):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(error, match=named) as info:
            load_model(path)
        assert str(path) in str(info.value)

    def test_layer_of_the_wrong_length_names_the_key(self, tmp_path):
        doc = model_to_dict(init_model(2, 3, 2, seed=1))
        doc["weights_hidden"].append(0.0)
        doc["bias_hidden"].pop()  # the total still matches; each layer is checked
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputShapeError, match="weights_hidden"):
            load_model(path)

    def test_save_load_save_byte_identical(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(init_model(3, 5, 4, seed=9), first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text())["activation"] == "tanh"

    def test_init_reproducible(self):
        a = init_model(4, 6, 3, seed=123)
        b = init_model(4, 6, 3, seed=123)
        np.testing.assert_array_equal(a.weights_hidden, b.weights_hidden)
        assert math.isclose(a.bias_out[0], b.bias_out[0])
