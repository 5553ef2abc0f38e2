import json
import math
import re

import numpy as np
import pytest

from boostlab import model as model_mod
from boostlab.data import make_blobs
from boostlab.errors import InputShapeError, InvalidParameterError, NumericOverflowError
from boostlab.model import (
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
    oracle_cross_entropy,
    oracle_init_params,
    oracle_forward_mp,
    reference_loss_and_gradients,
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

    def test_saturated_softmax_at_a_tiny_temperature_has_zero_gradient(self):
        model = init_model(2, 3, 2, seed=0)
        hidden, logits = forward_batch(model, [[1.0, 0.5]])
        probs = softmax_rows(logits, 1e-308)
        for c in (0, 1):
            np.testing.assert_array_equal(
                input_gradient_batch(model, hidden, probs, [c], 1e-308), [[0.0, 0.0]])

    @pytest.mark.parametrize("temperature", [1e-309, 5e-324])
    def test_temperature_that_overflows_the_gradient_raises_only_a_typed_error(self, temperature):
        # the suite turns a RuntimeWarning into an error, so none may come first
        model = init_model(2, 3, 2, seed=0)
        hidden, logits = forward_batch(model, [[1.0, 0.5]])
        probs = softmax_rows(logits, 1e-308)
        with pytest.raises(NumericOverflowError, match="non-finite values in input gradient"):
            input_gradient_batch(model, hidden, probs, [1], temperature)


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


def parent_forward(model, x):
    """forward_batch as written out of place, one temporary per operation."""
    hidden = np.tanh(x @ model.weights_hidden.T + model.bias_hidden)
    return hidden, hidden @ model.weights_out.T + model.bias_out


def parent_input_gradient(model, hidden, probs, class_indices, t):
    rows = np.arange(hidden.shape[0])
    p_c = probs[rows, class_indices]
    dscore_dlogit = -probs * (p_c / t)[:, np.newaxis]
    dscore_dlogit[rows, class_indices] += p_c / t
    return ((dscore_dlogit @ model.weights_out) * (1.0 - hidden**2)) @ model.weights_hidden


def parent_loss_and_gradients(model, x, labels):
    hidden, logits = parent_forward(model, x)
    rows = np.arange(x.shape[0])
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=1, keepdims=True)
    loss = float(-(shifted - np.log(norm))[rows, labels].mean())
    delta_out = e / norm
    delta_out[rows, labels] -= 1.0
    delta_out /= x.shape[0]
    delta_hidden = (delta_out @ model.weights_out) * (1.0 - hidden**2)
    grad = np.concatenate([(delta_hidden.T @ x).ravel(), delta_hidden.sum(axis=0),
                           (delta_out.T @ hidden).ravel(), delta_out.sum(axis=0)])
    return loss, grad


class TestInPlacePassesMatchOutOfPlace:
    """The passes build each [n x ...] intermediate in one buffer; that must
    give the bits the plain out-of-place expressions give, on the shapes the
    benchmark workloads run (2-16-2 blobs, 32-64-10 wide CSV)."""

    SHAPES = [(2, 16, 2, 10_000), (32, 64, 10, 6_700)]

    @pytest.fixture(params=SHAPES, ids=["2-16-2", "32-64-10"])
    def case(self, request):
        d, h, c, n = request.param
        rng = np.random.default_rng(d * h * c)
        model = _random_model(rng, d, h, c)
        return model, rng.normal(scale=2.0, size=(n, d)), rng.integers(0, c, size=n)

    def test_forward(self, case):
        model, x, _ = case
        for got, expected in zip(forward_batch(model, x), parent_forward(model, x)):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("t", [1.0, 7.5, 1000.0])
    def test_input_gradient(self, case, t):
        model, x, _ = case
        hidden, logits = forward_batch(model, x)
        probs = softmax_rows(logits, t)
        targets = probs.argmax(axis=1)
        assert np.array_equal(input_gradient_batch(model, hidden, probs, targets, t),
                              parent_input_gradient(model, hidden, probs, targets, t))

    @pytest.mark.parametrize("rows", [32, None], ids=["batch", "split"])
    def test_loss_and_gradients(self, case, rows):
        model, x, labels = case
        loss, grad = loss_and_gradients(model, x[:rows], labels[:rows])
        expected_loss, expected_grad = parent_loss_and_gradients(model, x[:rows], labels[:rows])
        assert loss == expected_loss and np.array_equal(grad, expected_grad)


class TestKernelMatchesReference:
    """loss_and_gradients gives the bits of the kernel it replaced, kept
    verbatim as oracles.reference_loss_and_gradients. The finite-difference
    tests hold only to a tolerance, so they would pass a reordered sum."""

    @pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
    def test_random_shapes(self, scale):
        rng = np.random.default_rng(int(scale))
        edges = [(1, 1, 1, 1), (3, 4, 1, 9), (2, 5, 3, 1)]  # one class, one row, both
        shapes = edges + [tuple(rng.integers(1, [9, 20, 8, 70])) for _ in range(200)]
        for d, h, c, n in shapes:
            model = _random_model(rng, d, h, c)
            x, labels = rng.normal(scale=scale, size=(n, d)), rng.integers(0, c, size=n)
            loss, grad = loss_and_gradients(model, x, labels)
            expected_loss, expected_grad = reference_loss_and_gradients(model, x, labels)
            assert loss == expected_loss and np.array_equal(grad, expected_grad), (d, h, c, n)

    def test_a_100_step_train_step_chain(self):
        data = make_blobs([60, 30, 10], 2, 2.5, seed=3)
        rng = np.random.default_rng(3)
        model = reference = init_model(2, 16, 3, seed=3)
        for _ in range(100):
            idx = rng.integers(0, data.n, size=32)
            x, labels = data.features[idx], data.labels[idx]
            model, loss = train_step(model, x, labels, 0.2)
            expected_loss, grad = reference_loss_and_gradients(reference, x, labels)
            reference = ClassifierModel(reference.params - 0.2 * grad, 2, 16, 3)
            assert loss == expected_loss and np.array_equal(model.params, reference.params)


class TestParameterVector:
    def test_layers_are_views_of_the_vector(self, toy_model):
        for layer in toy_model.layer_views(toy_model.params):
            assert np.shares_memory(layer, toy_model.params)
        np.testing.assert_array_equal(toy_model.weights_out, [[1.5], [-0.5]])
        np.testing.assert_array_equal(toy_model.bias_out, [0.1, -0.2])

    def test_wrong_length_rejected(self):
        with pytest.raises(InputShapeError, match=r"^params must have shape \(6,\), got \(5,\)$"):
            ClassifierModel(np.zeros(5), 1, 1, 2)


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
        assert set(doc) == {"dims", "params"}
        assert doc["dims"] == {"features": 2, "hidden": 3, "classes": 2}
        assert doc["params"] == model.params.tolist()
        assert doc["params"][:2] == model.weights_hidden[0].tolist()  # LAYERS order, row-major
        assert doc["params"][9:12] == model.weights_out[0].tolist()
        np.testing.assert_array_equal(model_from_dict(doc).weights_out, model.weights_out)

    @pytest.mark.parametrize(
        "key, value", [("activation", "relu"), ("activation", "tanh"), ("weights_hidden", [0.0])]
    )
    def test_unknown_key_rejected_by_name(self, tmp_path, key, value):
        doc = model_to_dict(init_model(2, 3, 2, seed=1))
        doc[key] = value
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParameterError, match=f"unknown key '{key}'$"):
            load_model(path)

    @pytest.mark.parametrize(
        "text, error, named",
        [
            ('{"dims": ', InvalidParameterError, "not valid JSON"),
            ("{}", InvalidParameterError, "dims"),
            ('{"dims": {"features": 1, "hidden": 1, "classes": 2}}', InvalidParameterError,
             "no key 'params'"),
            ("[1, 2]", InvalidParameterError, "JSON object"),
            ('{"dims": {"features": -1, "hidden": 0, "classes": 2}, "params": [0, 0]}',
             InvalidParameterError, r"dims\['features'\] must be an int >= 1, got -1$"),
            ('{"dims": {"features": true, "hidden": true, "classes": 2}, '
             '"params": [0, 0, 0, 0, 0, 0]}',
             InvalidParameterError, r"dims\['features'\] must be an int >= 1, got True$"),
            ('{"dims": 5}', InvalidParameterError, "checkpoint value of the wrong type"),
        ],
        ids=["truncated", "no-keys", "no-params", "not-an-object", "negative-dims", "bool-dims",
             "dims-not-a-mapping"],
    )
    def test_malformed_checkpoint_names_the_file(self, tmp_path, text, error, named):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(error, match=named) as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "edit, shape", [(list.pop, "(16,)"), (lambda p: p.append(0.0), "(18,)")],
        ids=["one-short", "one-long"],
    )
    def test_params_of_the_wrong_length_rejected(self, tmp_path, edit, shape):
        doc = model_to_dict(init_model(2, 3, 2, seed=1))
        edit(doc["params"])
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        message = f"^{re.escape(f'{path}: params must have shape (17,), got {shape}')}$"
        with pytest.raises(InputShapeError, match=message):
            load_model(path)

    def test_save_load_save_byte_identical(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(init_model(3, 5, 4, seed=9), first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert set(json.loads(first.read_text())) == {"dims", "params"}

    def test_init_reproducible(self):
        a = init_model(4, 6, 3, seed=123)
        b = init_model(4, 6, 3, seed=123)
        np.testing.assert_array_equal(a.weights_hidden, b.weights_hidden)
        assert math.isclose(a.bias_out[0], b.bias_out[0])

    @pytest.mark.parametrize("seed", [0, 1, 2**40])
    @pytest.mark.parametrize("d, h, c", [(2, 16, 2), (32, 64, 10), (4, 16, 4), (1, 1, 1)])
    def test_init_draws_the_layer_by_layer_stream(self, d, h, c, seed):
        # every artifact of a run descends from these bytes
        params = init_model(d, h, c, seed).params
        assert params.tobytes() == oracle_init_params(d, h, c, seed).tobytes()
