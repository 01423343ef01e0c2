"""Shared low-level utilities: online statistics, windows, validation."""

from repro.utils.stats import EwmaStats, OnlineMinMax
from repro.utils.validation import check_probability

__all__ = [
    "EwmaStats",
    "OnlineMinMax",
    "check_probability",
]
