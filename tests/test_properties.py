"""Property tests: fuzzed configuration values, of any type, either construct
a config whose data and temperatures are finite, or fail with a BoostLabError."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostlab.errors import BoostLabError, NumericOverflowError
from boostlab.harness import ExperimentConfig, build_datasets
from boostlab.scheduler import temperature_at

EDGES = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300, -1e300]
ANY_FLOAT = st.floats() | st.sampled_from(EDGES)  # st.floats() spans the whole range too
ANY_INT = st.integers(min_value=-3, max_value=12)
# values of another type, as a JSON config file can hold them in any field
ANY_TYPE = st.text(max_size=4) | st.lists(ANY_INT, max_size=3) | st.none() | st.booleans()

# name: (values a run might use, values from the whole domain)
FIELDS = {
    "blob_dim": (st.integers(1, 4), ANY_INT),
    "blob_separation": (st.floats(0.1, 10.0), ANY_FLOAT),
    "test_fraction": (st.floats(0.05, 0.95), ANY_FLOAT),
    "pareto_scale": (st.none() | st.floats(-0.9, 3.0), ANY_FLOAT),
    "temp_kind": (st.sampled_from(["multiplicative", "inverse-linear"]),) * 2,
    "temp_start": (st.floats(0.5, 20.0), ANY_FLOAT),
    "temp_scale": (st.floats(1.5, 10.0), ANY_FLOAT),
    "temp_interval": (st.integers(1, 6), ANY_INT),
    "epsilon": (st.floats(0.0, 0.2), ANY_FLOAT),
    "epochs": (st.integers(1, 12), ANY_INT),
    "batch_size": (st.integers(1, 64), ANY_INT),
    "learning_rate": (st.floats(0.0, 1.0), ANY_FLOAT),
    "hidden_units": (st.integers(1, 8), ANY_INT),
    "seeds": (st.tuples(st.integers(0, 5)), st.tuples(ANY_INT)),
}


@pytest.mark.parametrize("fuzzed", sorted(FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_config_is_valid_or_rejected_with_a_typed_error(fuzzed, data):
    fields = {name: data.draw(usual, label=name) for name, (usual, _) in FIELDS.items()}
    fields[fuzzed] = data.draw(FIELDS[fuzzed][1] | ANY_TYPE, label=f"fuzzed {fuzzed}")
    try:
        config = ExperimentConfig(blob_counts=(6, 3), test_counts=(3, 2), **fields)
    except BoostLabError:
        return

    try:
        train, test = build_datasets(config, config.seeds[0])
    except NumericOverflowError:  # e.g. a separation of 1e300 overflows the feature std
        return
    for split in (train, test):
        assert np.isfinite(split.features).all()
        assert np.isfinite(split.feature_std).all() and (split.feature_std > 0).all()

    schedule = config.schedule()
    temperatures = [temperature_at(schedule, epoch) for epoch in range(config.epochs)]
    assert all(1.0 <= t <= 1000.0 for t in temperatures)
