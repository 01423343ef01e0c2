"""Concept fingerprints: online distributions of fingerprint vectors.

A *fingerprint* is one vector extracted from one window.  A *concept
fingerprint* summarises every fingerprint incorporated while a concept
was active: per-dimension mean, standard deviation and count (the
triple the paper stores per meta-information feature), kept as the
Welford triple ``(counts, means, m2)``.  The mean vector is the
representation compared against fresh fingerprints; the standard
deviations feed the ``w_sigma`` weights; ``reset_dims`` implements the
fingerprint-plasticity mechanism of Section IV.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np


def welford_stds(counts: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Population standard deviations of Welford ``(counts, m2)`` (0 where
    count < 2).

    Every operation is elementwise, so each row of an ``(r, D)`` stack
    is bit-for-bit that row alone.
    """
    # Only measured entries keep their quotient, and their count is
    # the divisor: m2 / count, as a masked division would give.
    variances = np.where(counts >= 2, m2 / np.maximum(counts, 1), 0.0)
    # Welford's m2 can drift a hair below zero in float arithmetic.
    return np.sqrt(np.maximum(variances, 0.0, out=variances), out=variances)


class ConceptFingerprint:
    """Running per-dimension statistics over incorporated fingerprints.

    ``counts``, ``means`` and ``m2`` are the concept's statistics.
    While the concept is stored they are views of its rows in the
    repository's :class:`~repro.core.repository.FingerprintMatrix`;
    otherwise the fingerprint owns them.  Every update writes in place,
    so a stored concept's rows are the only copy of its statistics.
    """

    __slots__ = ("counts", "means", "m2")

    def __init__(self, n_dims: int) -> None:
        if n_dims <= 0:
            raise ValueError(f"n_dims must be positive, got {n_dims}")
        self.counts = np.zeros(n_dims, dtype=np.int64)
        self.means = np.zeros(n_dims, dtype=np.float64)
        self.m2 = np.zeros(n_dims, dtype=np.float64)

    @property
    def n_dims(self) -> int:
        return len(self.counts)

    @property
    def count(self) -> int:
        """Fingerprints incorporated since creation (max over dims)."""
        return int(self.counts.max())

    @property
    def stds(self) -> np.ndarray:
        """Per-dimension deviation across incorporated fingerprints."""
        return welford_stds(self.counts, self.m2)

    def incorporate(self, fingerprint: np.ndarray) -> None:
        """Fold one window fingerprint into the concept representation."""
        fingerprint = np.asarray(fingerprint, dtype=np.float64)
        if not np.all(np.isfinite(fingerprint)):
            raise ValueError("fingerprint contains non-finite values")
        if fingerprint.shape != self.counts.shape:
            raise ValueError(
                f"expected shape {self.counts.shape}, got {fingerprint.shape}"
            )
        self.counts += 1
        delta = fingerprint - self.means
        self.means += delta / self.counts
        self.m2 += delta * (fingerprint - self.means)

    def reset_dims(self, mask: np.ndarray) -> None:
        """Forget classifier-dependent dimensions (plasticity, §IV).

        Counts and spread restart; the means survive as the best
        current estimate until the next incorporation replaces them
        (the count restarts at 0).  Zeroing them would collapse every
        similarity computed before then.
        """
        mask = np.asarray(mask, dtype=bool)
        self.counts[mask] = 0
        self.m2[mask] = 0.0

    def copy(self) -> "ConceptFingerprint":
        """A standalone copy that owns its arrays."""
        clone = ConceptFingerprint(self.n_dims)
        clone.load_state_dict(self.state_dict())
        return clone

    def state_dict(self) -> Dict[str, Any]:
        return {
            "counts": self.counts.copy(),
            "means": self.means.copy(),
            "m2": self.m2.copy(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        counts = np.asarray(state["counts"], dtype=np.int64)
        if counts.shape != self.counts.shape:
            raise ValueError(
                f"state holds {counts.shape[0]} dims, expected {self.n_dims}"
            )
        self.counts[:] = counts
        self.means[:] = np.asarray(state["means"], dtype=np.float64)
        self.m2[:] = np.asarray(state["m2"], dtype=np.float64)

    def __repr__(self) -> str:
        return f"ConceptFingerprint(n_dims={self.n_dims}, count={self.count})"
