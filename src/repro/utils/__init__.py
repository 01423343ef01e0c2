"""Shared low-level utilities: online statistics, windows, validation."""

from repro.utils.stats import (
    OnlineStats,
    EwmaStats,
    OnlineMinMax,
    ReservoirSampler,
)
from repro.utils.windows import SlidingWindow, DelayedWindowPair
from repro.utils.validation import (
    check_positive,
    check_probability,
    check_fraction,
    check_vector,
)

__all__ = [
    "OnlineStats",
    "EwmaStats",
    "OnlineMinMax",
    "ReservoirSampler",
    "SlidingWindow",
    "DelayedWindowPair",
    "check_positive",
    "check_probability",
    "check_fraction",
    "check_vector",
]
