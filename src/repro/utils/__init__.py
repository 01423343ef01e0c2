"""Shared low-level utilities: online statistics, windows, validation."""

from repro.utils.stats import EwmaStats, OnlineMinMax
from repro.utils.validation import (
    check_positive,
    check_probability,
    check_fraction,
    check_vector,
)

__all__ = [
    "EwmaStats",
    "OnlineMinMax",
    "check_positive",
    "check_probability",
    "check_fraction",
    "check_vector",
]
