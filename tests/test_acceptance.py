"""Acceptance suite: one test per criterion, each printing a pass line, and
criterion 6's known failure one epoch either side of 20 as strict xfails.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; the independent oracles live in
oracles.py next to this file.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from boostlab.calibration import perturb, temperature_at
from boostlab.data import Dataset, compute_feature_std, make_blobs
from boostlab.data import pareto_resample, pareto_tail_counts
from boostlab.harness import (
    REPORT_FILES,
    ExperimentConfig,
    export_reports,
    run_evaluation,
    run_training,
)
from boostlab.metrics import PredictionLog, mab, sdb, sodc_per_class, sodc_total
from boostlab.model import (
    LAYERS,
    ClassifierModel,
    forward_batch,
    init_model,
    input_gradient_batch,
    loss_and_gradients,
    softmax_rows,
    train_step,
)
from boostlab.sampler import (
    STRATEGIES,
    SamplerState,
    boost_probabilities,
    draw_batch,
    epoch_resample,
    install_distribution,
)

from oracles import (
    fd_input_gradient,
    fd_parameter_gradients,
    oracle_boost_weights,
    oracle_mab,
    oracle_sdb,
    oracle_sodc_per_class,
    oracle_ts_softmax,
)


def passed(number: int, title: str) -> None:
    print(f"\nACCEPTANCE {number} PASS: {title}")


def random_toy_model(rng):
    d = int(rng.integers(1, 6))
    h = int(rng.integers(1, 8))
    c = int(rng.integers(2, 5))
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


def test_criterion_1_equation_fidelity():
    start = time.monotonic()

    # temperature-scaled softmax
    np.testing.assert_allclose(softmax_rows(np.array([0.0, 0.0]), 1.0), [0.5, 0.5])
    np.testing.assert_allclose(
        softmax_rows(np.array([math.log(2.0), 0.0]), 1.0), [2 / 3, 1 / 3], atol=1e-12
    )
    hp = oracle_ts_softmax([10.0, 0.0], 1000.0)
    np.testing.assert_allclose(softmax_rows(np.array([10.0, 0.0]), 1000.0), hp, atol=1e-12)
    np.testing.assert_allclose(hp, [0.502500, 0.497500], atol=1e-5)

    # input perturbation
    x = np.array([0.3, -0.1])
    np.testing.assert_array_equal(perturb(x, np.array([1.0, -1.0]), 0.0 / np.ones(2)), x)
    np.testing.assert_allclose(
        perturb(np.array([0.2, 0.7]), np.array([2.0, -3.0]), 0.05 / np.ones(2)), [0.15, 0.75],
        atol=1e-12
    )
    np.testing.assert_allclose(
        perturb(np.array([0.2]), np.array([2.0]), 0.05 / np.array([0.5])), [0.1], atol=1e-12
    )

    # inverted class-weighted sampling probabilities: boost weights,
    # normalised by the install
    def distribution(logits, class_index, aggregates):
        state = SamplerState(strategy="boost", rng_seed=0)
        return install_distribution(state, boost_probabilities(logits, class_index, aggregates))

    agg = np.array([0.5, 0.5])
    np.testing.assert_allclose(
        distribution(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), agg),
        [0.5, 0.5],
        atol=1e-12,
    )
    logits = np.log(np.array([[0.5, 0.3, 0.2]] * 3))
    probs = distribution(logits, np.array([0, 1, 2]), np.ones(3))
    np.testing.assert_allclose(probs, oracle_boost_weights([0.5, 0.3, 0.2]), atol=1e-12)
    np.testing.assert_allclose(probs, [0.25, 0.35, 0.40], atol=1e-12)
    extreme = distribution(
        np.array([[40.0, 0.0], [0.5, 0.0], [0.0, 0.5]]),
        np.array([0, 0, 1]),
        np.array([0.5, 0.5]),
    )
    assert extreme[0] < 1e-10

    # score-weighted OOD mass
    profiles = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    perfect = PredictionLog(
        true_labels=np.array([0, 0, 1, 1]),
        predicted_labels=np.array([0, 0, 1, 1]),
        profiles=profiles,
    )
    assert sodc_per_class(perfect)[0] == pytest.approx(0.5)
    assert sodc_per_class(perfect)[1] == pytest.approx(0.5)
    missed = PredictionLog(
        true_labels=np.array([0, 0, 1, 1]),
        predicted_labels=np.array([1, 1, 1, 1]),
        profiles=np.full((4, 2), 0.5),
    )
    assert sodc_per_class(missed)[0] == 0.0
    scored = PredictionLog(
        true_labels=np.array([0, 0, 1, 1]),
        predicted_labels=np.array([0, 0, 1, 0]),
        profiles=np.array([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8], [0.6, 0.4]]),
    )
    assert sodc_per_class(scored)[0] == pytest.approx(0.4)
    assert sodc_per_class(scored)[0] == pytest.approx(
        oracle_sodc_per_class([0, 0, 1, 1], [0, 0, 1, 0], scored.profiles.tolist(), 0)
    )
    assert sodc_total([0.5, 0.5]) == pytest.approx(0.25)
    assert sodc_total([0.4, 0.0, 0.9]) == 0.0
    assert sodc_total([0.4, 0.5, 0.1]) == pytest.approx(0.02)

    # bias scores
    assert mab([80.0, 80.0, 80.0]) == 0.0
    assert mab([90.0, 70.0]) == pytest.approx(10.0)
    assert mab([84.0, 79.0, 88.0, 81.0]) == pytest.approx(oracle_mab([84.0, 79.0, 88.0, 81.0]))
    assert sdb([50.0, 50.0]) == 0.0
    assert sdb([90.0, 70.0]) == pytest.approx(10.0)
    assert sdb([1.0, 2.0, 3.0, 4.0]) == pytest.approx(math.sqrt(1.25))
    assert sdb([1.0, 2.0, 3.0, 4.0]) == pytest.approx(oracle_sdb([1.0, 2.0, 3.0, 4.0]))

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    passed(1, f"equation fidelity suite ({elapsed:.2f}s)")


def test_criterion_2_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(2026)

    for _ in range(60):  # input gradients of the TS-softmax score
        model = random_toy_model(rng)
        x = rng.normal(size=model.num_features)
        c = int(rng.integers(model.num_classes))
        t = float(rng.uniform(1.0, 100.0))
        analytic = score_gradient(model, x, c, t)
        fd = np.array(fd_input_gradient(model, x, c, t, h=1e-5))
        denom = max(np.abs(fd).max(), 1e-8)
        assert np.abs(analytic - fd).max() / denom < 1e-4

    for _ in range(50):  # parameter gradients of mean cross-entropy
        model = random_toy_model(rng)
        n = int(rng.integers(2, 8))
        X = rng.normal(size=(n, model.num_features))
        y = rng.integers(0, model.num_classes, size=n)
        _, analytic = loss_and_gradients(model, X, y)
        d, h, c = model.num_features, model.num_hidden, model.num_classes
        fd = fd_parameter_gradients(ClassifierModel(model.params.copy(), d, h, c), X, y, h=1e-6)
        for name, grad in zip(LAYERS, model.layer_views(analytic)):
            expected = np.array(fd[name]).reshape(grad.shape)
            denom = max(np.abs(expected).max(), 1e-8)
            assert np.abs(grad - expected).max() / denom < 1e-4

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    passed(2, f"gradient correctness, 110 random configurations ({elapsed:.2f}s)")


def test_criterion_3_calibration_invariants():
    rng = np.random.default_rng(33)
    temperatures = (1.0, 2.0, 5.0, 50.0, 1000.0)
    grid = [rng.normal(scale=s, size=k) for s in (0.5, 2.0, 8.0) for k in (2, 4, 7)]

    for logits in grid:
        entropies = []
        ref_argmax = None
        for t in temperatures:
            p = softmax_rows(logits, t)
            assert abs(p.sum() - 1.0) < 1e-9
            entropies.append(float(-(p * np.log(p)).sum()))
            if ref_argmax is None:
                ref_argmax = int(np.argmax(p))
            assert int(np.argmax(p)) == ref_argmax
        assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(softmax_rows(logits, 1.0), e / e.sum(), atol=1e-12)

    passed(3, "calibration invariants over logit grid x temperature set")


def test_criterion_4_sampler_statistics():
    # multinomial frequencies against the target distribution
    state = SamplerState(strategy="random", rng_seed=404)
    p = install_distribution(state, np.array([0.1, 0.2, 0.3, 0.4]))
    draws = draw_batch(state, 100_000)
    counts = np.bincount(draws, minlength=4)
    freq = counts / 100_000
    assert np.abs(freq - p).max() <= 0.01
    p_value = stats.chisquare(counts, f_exp=p * 100_000).pvalue
    assert p_value > 0.001

    # rank inversion on synthetic score sets
    rng = np.random.default_rng(44)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        margins = np.sort(rng.uniform(0.1, 4.0, size=n))
        logits = np.column_stack([margins, np.zeros(n)])
        agg = rng.uniform(0.2, 1.0, size=2)
        probs = boost_probabilities(logits, np.zeros(n, dtype=int), agg)
        assert np.all(np.diff(probs) < 0)

    # distribution validity for every strategy across epochs
    data = make_blobs([30, 20, 10], 2, 2.5, seed=45)
    model = init_model(2, 8, 3, seed=45)
    odin = (2.0, 0.05 / compute_feature_std(data))
    for strategy in STRATEGIES:
        state = SamplerState(strategy=strategy, rng_seed=46)
        for _ in range(4):
            epoch_resample(state, model, data, *odin)
            draw_batch(state, 16)
            p = state.history[-1].probabilities
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-9

    passed(4, "sampler statistics: chi-square, rank inversion, distribution validity")


def test_criterion_5_scheduler():
    defaults = ExperimentConfig()
    trace = [temperature_at(defaults, e) for e in (0, 5, 10, 15, 20, 25)]
    assert trace == [1.0, 5.0, 25.0, 125.0, 625.0, 1000.0]

    rng = np.random.default_rng(55)
    for _ in range(1000):
        kind = "multiplicative" if rng.random() < 0.5 else "inverse-linear"
        sched = ExperimentConfig(
            temp_kind=kind,
            temp_start=float(rng.uniform(0.5, 20.0)),
            temp_scale=float(rng.uniform(1.01, 30.0)),
            temp_interval=int(rng.integers(1, 12)),
            epochs=int(rng.integers(1, 50)),
        )
        values = [temperature_at(sched, e) for e in range(70)]
        assert all(1.0 <= v <= 1000.0 for v in values)
        if kind == "multiplicative":
            assert all(b >= a for a, b in zip(values, values[1:]))
            for e in range(70):
                assert values[e] == values[(e // sched.temp_interval) * sched.temp_interval]
        else:
            assert all(b <= a for a, b in zip(values, values[1:]))

    passed(5, "scheduler clamping, piecewise constancy, monotonicity (1000 configs)")


def _directional_arm(sampler: str, seeds, epochs: int = 20) -> tuple[float, float]:
    recalls, mabs = [], []
    for seed in seeds:
        config = ExperimentConfig(
            blob_counts=(900, 100),
            test_counts=(300, 300),
            blob_dim=2,
            blob_separation=2.5,
            sampler=sampler,
            epochs=epochs,
            batch_size=32,
            learning_rate=0.2,
            hidden_units=8,
            seeds=(seed,),
        )
        record = run_training(config, seed)
        recalls.append(record.metrics.per_class[1]["accuracy"])
        mabs.append(record.metrics.bias["accuracy"]["mab"])
    return float(np.mean(recalls)), float(np.mean(mabs))


def test_criterion_6_directional_debiasing():
    start = time.monotonic()
    seeds = range(5)
    boost_recall, boost_mab = _directional_arm("boost", seeds)
    random_recall, random_mab = _directional_arm("random", seeds)

    assert boost_recall > random_recall, (
        f"minority recall: boost {boost_recall:.3f} vs random {random_recall:.3f}"
    )
    assert boost_mab <= random_mab, (
        f"accuracy MAB: boost {boost_mab:.4f} vs random {random_mab:.4f}"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    passed(
        6,
        "directional debiasing: minority recall "
        f"{boost_recall:.3f} > {random_recall:.3f}, accuracy MAB "
        f"{boost_mab:.4f} <= {random_mab:.4f} ({elapsed:.1f}s)",
    )


@pytest.mark.parametrize("epochs", [
    pytest.param(19, marks=pytest.mark.xfail(strict=True, reason=(
        "parity defect: at 19 epochs boost's minority recall is 0.499 against random's "
        "0.689, and its accuracy MAB 0.249 against 0.149"))),
    pytest.param(21, marks=pytest.mark.xfail(strict=True, reason=(
        "parity defect: at 21 epochs boost's minority recall is 0.493 against random's "
        "0.687, and its accuracy MAB 0.252 against 0.151"))),
])
def test_criterion_6_fails_one_epoch_either_side(epochs):
    """Acceptance 6's statements with nothing changed but the epoch count.
    Should a change make them hold, strict turns the xfail into a failure,
    and they become plain tests."""
    boost_recall, boost_mab = _directional_arm("boost", range(5), epochs)
    random_recall, random_mab = _directional_arm("random", range(5), epochs)
    assert boost_recall > random_recall and boost_mab <= random_mab


def test_criterion_7_long_tail_robustness():
    base_counts = (300, 300, 300, 300)
    resampled = pareto_resample(make_blobs(base_counts, 3, 1.5, seed=0), 0.0, 0)
    ranked = np.sort(resampled.class_counts)[::-1]
    assert ranked[0] == max(base_counts)  # anchor preserved
    assert all(b <= a for a, b in zip(ranked, ranked[1:]))
    np.testing.assert_array_equal(
        pareto_tail_counts(np.array(base_counts), 0.0), [300, 150, 100, 75]
    )

    def arm(sampler):
        values = []
        for seed in range(6):
            config = ExperimentConfig(
                blob_counts=base_counts,
                test_counts=(100, 100, 100, 100),
                blob_dim=3,
                blob_separation=1.5,
                pareto_scale=0.0,
                sampler=sampler,
                epochs=20,
                batch_size=32,
                learning_rate=0.1,
                hidden_units=8,
                seeds=(seed,),
            )
            values.append(run_training(config, seed).metrics.aggregate["macro_f1"])
        return float(np.mean(values))

    boost_f1 = arm("boost")
    random_f1 = arm("random")
    assert boost_f1 >= random_f1, f"macro-F1: boost {boost_f1:.4f} vs random {random_f1:.4f}"
    passed(7, f"long-tail robustness: macro-F1 {boost_f1:.4f} >= {random_f1:.4f}")


def test_criterion_8_sodc_corruption_monotonicity():
    # a perfect classifier on a 200-sample test set
    train = make_blobs([120, 80], 2, 9.0, seed=88)
    test = make_blobs([120, 80], 2, 9.0, seed=89)
    model = init_model(2, 8, 2, seed=88)
    for _ in range(300):
        model, _ = train_step(model, train.features, train.labels, 0.5)
    _, logits = forward_batch(model, test.features)
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    profiles = shifted / shifted.sum(axis=1, keepdims=True)
    predicted = profiles.argmax(axis=1)
    assert np.array_equal(predicted, test.labels), "model must be perfect for the oracle"

    # perfect-classifier value against the hand oracle
    log = PredictionLog(
        true_labels=test.labels,
        predicted_labels=predicted,
        profiles=profiles,
    )
    expected_total = 1.0
    for c in range(2):
        expected_total *= oracle_sodc_per_class(
            test.labels.tolist(), predicted.tolist(), profiles.tolist(), c
        )
    per_class = list(sodc_per_class(log))
    assert sodc_total(per_class) == pytest.approx(expected_total, rel=1e-12)

    # corrupt the first k labels of a fixed order; scores must not increase
    corruption_order = np.random.default_rng(90).permutation(test.n)
    previous = {c: per_class[c] for c in range(2)}
    previous_total = sodc_total(per_class)
    for k in (0, 1, 5, 20):
        labels = test.labels.copy()
        flipped = corruption_order[:k]
        labels[flipped] = (labels[flipped] + 1) % 2
        corrupted = PredictionLog(
            true_labels=labels,
            predicted_labels=predicted,
            profiles=profiles,
        )
        values = list(sodc_per_class(corrupted))
        total = sodc_total(values)
        for c in range(2):
            assert values[c] <= previous[c] + 1e-12
        assert total <= previous_total + 1e-12
        previous = {c: values[c] for c in range(2)}
        previous_total = total

    passed(8, "score-mass monotonicity under label corruption, hand-oracle match")


def test_criterion_9_protocol_isolation(tmp_path):
    def snapshot(m):
        return {
            name: getattr(m, name).copy()
            for name in ("weights_hidden", "bias_hidden", "weights_out", "bias_out")
        }

    def assert_unchanged(m, snap):
        for name, before in snap.items():
            np.testing.assert_array_equal(getattr(m, name), before)

    train = make_blobs([60, 40], 2, 3.0, seed=91)
    test = make_blobs([30, 30], 2, 3.0, seed=92)
    model = init_model(2, 8, 2, seed=91)
    odin = (5.0, 0.05 / compute_feature_std(train))

    snap = snapshot(model)
    run_evaluation(model, test, odin[1], ExperimentConfig(temp_start=5.0, epochs=1))
    assert_unchanged(model, snap)

    for strategy in STRATEGIES:
        state = SamplerState(strategy=strategy, rng_seed=93)
        epoch_resample(state, model, train, *odin)
        assert_unchanged(model, snap)

    # end-to-end byte determinism per (config, seed)
    config = ExperimentConfig(
        blob_counts=(40, 20), blob_dim=2, epochs=3, batch_size=16, hidden_units=8, seeds=(7,)
    )
    export_reports([run_training(config, seed=7)], str(tmp_path / "a"))
    export_reports([run_training(config, seed=7)], str(tmp_path / "b"))
    for name in REPORT_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    doc = json.loads((tmp_path / "a" / "report.json").read_text())
    assert doc["config"]["seed"] == 7

    passed(9, "protocol isolation and byte-deterministic artifacts")
