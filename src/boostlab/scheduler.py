"""Training-time temperature scheduling.

The multiplicative kind grows the temperature by a constant factor at a
fixed epoch interval, piecewise constant in between, clamped to
[1, 1000]. The inverse-linear kind walks down from the upper bound to
the lower bound in constant per-epoch steps over the run's epochs.
"""

from __future__ import annotations

import math

from .data import check_int

T_MIN = 1.0
T_MAX = 1000.0

SCHEDULE_KINDS = ("multiplicative", "inverse-linear")


def temperature_at(config, epoch: int) -> float:
    """Temperature for a given epoch under an ExperimentConfig's schedule
    (its temp_kind, temp_start, temp_scale and temp_interval, with its
    epochs as the inverse-linear horizon); total over all epoch >= 0."""
    check_int(epoch, "epoch")
    if config.temp_kind == "multiplicative":
        steps = epoch // config.temp_interval
        try:
            value = config.temp_start * config.temp_scale**steps
        except OverflowError:  # scale**steps is past 1.8e308: weigh start in log space
            log_value = math.log(config.temp_start) + steps * math.log(config.temp_scale)
            value = T_MAX if log_value > math.log(T_MAX) else math.exp(log_value)
    else:
        frac = min(epoch, config.epochs) / config.epochs
        value = T_MAX - (T_MAX - T_MIN) * frac
    return float(min(max(value, T_MIN), T_MAX))
