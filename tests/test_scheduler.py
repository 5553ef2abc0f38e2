import numpy as np
import pytest

from boostlab.calibration import temperature_at
from boostlab.errors import InvalidParameterError
from boostlab.harness import ExperimentConfig


def test_default_trace():
    sched = ExperimentConfig()
    trace = [temperature_at(sched, e) for e in (0, 5, 10, 15, 20, 25)]
    assert trace == [1.0, 5.0, 25.0, 125.0, 625.0, 1000.0]


def test_constant_within_interval():
    sched = ExperimentConfig()
    assert temperature_at(sched, 0) == 1.0
    assert temperature_at(sched, 4) == 1.0
    assert temperature_at(sched, 14) == 25.0


def test_upper_clamp():
    sched = ExperimentConfig()
    assert temperature_at(sched, 100) == 1000.0  # unclamped would be 5**20


def test_clamp_holds_past_the_float_range():
    sched = ExperimentConfig(temp_scale=1e200, temp_interval=1)
    assert [temperature_at(sched, e) for e in range(4)] == [1.0, 1000.0, 1000.0, 1000.0]
    # 1e161**2 overflows on its own, but a start of 1e-320 brings the product back to ~100
    tiny_start = ExperimentConfig(temp_start=1e-320, temp_scale=1e161, temp_interval=1)
    assert temperature_at(tiny_start, 2) == pytest.approx(100.0, rel=1e-3)


def test_inverse_linear_descends_to_min():
    sched = ExperimentConfig(temp_kind="inverse-linear", epochs=10)
    assert temperature_at(sched, 0) == 1000.0
    assert temperature_at(sched, 10) == 1.0
    assert temperature_at(sched, 50) == 1.0
    values = [temperature_at(sched, e) for e in range(12)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    # constant per-epoch steps until the bound
    steps = np.diff(values[:11])
    np.testing.assert_allclose(steps, steps[0])


def test_invalid_configs_rejected():
    with pytest.raises(InvalidParameterError, match="^temp_scale must"):
        ExperimentConfig(temp_scale=1.0)
    with pytest.raises(InvalidParameterError, match="^temp_interval must"):
        ExperimentConfig(temp_interval=0)
    for bad in ({"temp_scale": "5"}, {"temp_interval": 2.5}, {"epochs": 2.5},
                {"temp_start": "1"}, {"temp_start": True}):
        with pytest.raises(InvalidParameterError, match=f"^{next(iter(bad))} must"):
            ExperimentConfig(**bad)
    with pytest.raises(InvalidParameterError, match="^temp_kind must .*, got 'cosine'$"):
        ExperimentConfig(temp_kind="cosine")
    with pytest.raises(InvalidParameterError, match="^epoch must"):
        temperature_at(ExperimentConfig(), -1)


class TestRandomConfigurations:
    def test_clamp_monotone_piecewise(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            kind = "multiplicative" if rng.random() < 0.5 else "inverse-linear"
            sched = ExperimentConfig(
                temp_kind=kind,
                temp_start=float(rng.uniform(0.5, 10.0)),
                temp_scale=float(rng.uniform(1.01, 20.0)),
                temp_interval=int(rng.integers(1, 10)),
                epochs=int(rng.integers(1, 40)),
            )
            values = [temperature_at(sched, e) for e in range(60)]
            assert all(1.0 <= v <= 1000.0 for v in values)
            if kind == "multiplicative":
                assert all(b >= a for a, b in zip(values, values[1:]))
                for e in range(60):
                    bucket = e // sched.temp_interval
                    assert values[e] == values[bucket * sched.temp_interval]
            else:
                assert all(b <= a for a, b in zip(values, values[1:]))
