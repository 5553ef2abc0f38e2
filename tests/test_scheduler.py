import numpy as np
import pytest

from boostlab.errors import InvalidParameterError
from boostlab.scheduler import TemperatureSchedule, temperature_at


def test_default_trace():
    sched = TemperatureSchedule()
    trace = [temperature_at(sched, e) for e in (0, 5, 10, 15, 20, 25)]
    assert trace == [1.0, 5.0, 25.0, 125.0, 625.0, 1000.0]


def test_constant_within_interval():
    sched = TemperatureSchedule()
    assert temperature_at(sched, 0) == 1.0
    assert temperature_at(sched, 4) == 1.0
    assert temperature_at(sched, 14) == 25.0


def test_upper_clamp():
    sched = TemperatureSchedule()
    assert temperature_at(sched, 100) == 1000.0  # unclamped would be 5**20


def test_clamp_holds_past_the_float_range():
    sched = TemperatureSchedule(scale=1e200, interval_epochs=1)
    assert [temperature_at(sched, e) for e in range(4)] == [1.0, 1000.0, 1000.0, 1000.0]
    # 1e161**2 overflows on its own, but a start of 1e-320 brings the product back to ~100
    tiny_start = TemperatureSchedule(start=1e-320, scale=1e161, interval_epochs=1)
    assert temperature_at(tiny_start, 2) == pytest.approx(100.0, rel=1e-3)


def test_inverse_linear_descends_to_min():
    sched = TemperatureSchedule(kind="inverse-linear", horizon_epochs=10)
    assert temperature_at(sched, 0) == 1000.0
    assert temperature_at(sched, 10) == 1.0
    assert temperature_at(sched, 50) == 1.0
    values = [temperature_at(sched, e) for e in range(12)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    # constant per-epoch steps until the bound
    steps = np.diff(values[:11])
    np.testing.assert_allclose(steps, steps[0])


def test_invalid_configs_rejected():
    with pytest.raises(InvalidParameterError):
        TemperatureSchedule(scale=1.0)
    with pytest.raises(InvalidParameterError):
        TemperatureSchedule(interval_epochs=0)
    for bad in ({"scale": "5"}, {"interval_epochs": 2.5}, {"horizon_epochs": 2.5},
                {"start": "1"}, {"start": True}):
        with pytest.raises(InvalidParameterError, match=next(iter(bad))):
            TemperatureSchedule(**bad)
    with pytest.raises(InvalidParameterError):
        TemperatureSchedule(kind="cosine")
    with pytest.raises(InvalidParameterError):
        temperature_at(TemperatureSchedule(), -1)


class TestRandomConfigurations:
    def test_clamp_monotone_piecewise(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            kind = "multiplicative" if rng.random() < 0.5 else "inverse-linear"
            sched = TemperatureSchedule(
                kind=kind,
                start=float(rng.uniform(0.5, 10.0)),
                scale=float(rng.uniform(1.01, 20.0)),
                interval_epochs=int(rng.integers(1, 10)),
                horizon_epochs=int(rng.integers(1, 40)),
            )
            values = [temperature_at(sched, e) for e in range(60)]
            assert all(1.0 <= v <= 1000.0 for v in values)
            if kind == "multiplicative":
                assert all(b >= a for a, b in zip(values, values[1:]))
                for e in range(60):
                    bucket = e // sched.interval_epochs
                    assert values[e] == values[bucket * sched.interval_epochs]
            else:
                assert all(b <= a for a, b in zip(values, values[1:]))
