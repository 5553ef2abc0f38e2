"""Training-time temperature scheduling.

The multiplicative kind grows the temperature by a constant factor at a
fixed epoch interval, piecewise constant in between, clamped to
[1, 1000]. The inverse-linear kind walks down from the upper bound to
the lower bound in constant per-epoch steps over a configured horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import check_int, is_number
from .errors import InvalidParameterError

T_MIN = 1.0
T_MAX = 1000.0

SCHEDULE_KINDS = ("multiplicative", "inverse-linear")


@dataclass
class TemperatureSchedule:
    kind: str = "multiplicative"
    start: float = 1.0
    scale: float = 5.0
    interval_epochs: int = 5
    horizon_epochs: int = 20  # inverse-linear only: epochs to reach T_MIN

    def __post_init__(self):
        # written so that NaN fails each check
        if self.kind not in SCHEDULE_KINDS:
            raise InvalidParameterError(f"kind must be one of {SCHEDULE_KINDS}")
        if not (is_number(self.scale) and 1 < self.scale < math.inf):
            raise InvalidParameterError(f"scale must be finite and above 1, got {self.scale!r}")
        for name in ("interval_epochs", "horizon_epochs"):
            check_int(getattr(self, name), name, 1)
        if not (is_number(self.start) and 0 < self.start < math.inf):
            raise InvalidParameterError(f"start must be finite and positive, got {self.start!r}")


def temperature_at(schedule: TemperatureSchedule, epoch: int) -> float:
    """Temperature for a given epoch; total over all epoch >= 0."""
    check_int(epoch, "epoch")
    if schedule.kind == "multiplicative":
        steps = epoch // schedule.interval_epochs
        try:
            value = schedule.start * schedule.scale**steps
        except OverflowError:  # scale**steps is past 1.8e308: weigh start in log space
            log_value = math.log(schedule.start) + steps * math.log(schedule.scale)
            value = T_MAX if log_value > math.log(T_MAX) else math.exp(log_value)
    else:
        frac = min(epoch, schedule.horizon_epochs) / schedule.horizon_epochs
        value = T_MAX - (T_MAX - T_MIN) * frac
    return float(min(max(value, T_MIN), T_MAX))
