"""Small argument-validation helpers shared across the package."""

from __future__ import annotations


def check_probability(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``0 < value < 1``; return it unchanged."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value
