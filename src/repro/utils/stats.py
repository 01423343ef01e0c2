"""Online statistics primitives.

FiCSUM is a one-pass streaming algorithm: every distribution it tracks
(meta-information features inside a concept fingerprint, the "normal"
similarity of a concept, the observed range of each fingerprint dimension)
must be maintained in constant space.  This module provides the
building blocks used throughout the code base (the per-dimension
Welford form is :class:`~repro.core.fingerprint.ConceptFingerprint`):

* :class:`EwmaStats` — exponentially-forgetting mean/std, used for the
  "normal similarity" and error-rate records of each concept.
* :class:`OnlineMinMax` — running per-dimension range, used to scale
  fingerprint dimensions into ``[0, 1]`` (Section III-A of the paper),
  with :func:`minmax_scale` the scaling it applies.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

import numpy as np

#
# Checkpointing convention (used throughout the code base): mutable
# state objects expose ``state_dict()`` returning a plain nested dict of
# arrays / scalars / bytes, and ``load_state_dict(state)`` restoring it
# exactly.  The serving layer (``repro.serving.snapshot``) packs these
# trees to disk; restored objects must continue the stream bit-for-bit,
# so every float, counter and ring position is captured verbatim.
#


class EwmaStats:
    """Exponentially-weighted running mean and standard deviation.

    Used for the "normal similarity" records (``mu_c``, ``sigma_c``) of
    a concept: the paper stores these with online mean/std updates, but
    the early similarity values of a freshly created concept are noisy
    (the normalisation ranges and dynamic weights are still training —
    the very staleness problem Section IV discusses).  An exponentially
    forgetting estimate keeps the record describing *recent* stationary
    behaviour while remaining O(1) per update.
    """

    __slots__ = ("alpha", "count", "mean", "_var")

    def __init__(self, alpha: float = 0.05) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.count = 0
        self.mean = 0.0
        self._var = 0.0

    def update(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if self.count == 1:
            self.mean = value
            self._var = 0.0
            return
        delta = value - self.mean
        self.mean += self.alpha * delta
        self._var = (1.0 - self.alpha) * (self._var + self.alpha * delta * delta)

    @property
    def variance(self) -> float:
        return self._var

    @property
    def std(self) -> float:
        return math.sqrt(self._var)

    def reset(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._var = 0.0

    def state_dict(self) -> Dict[str, Any]:
        return {
            "alpha": self.alpha,
            "count": self.count,
            "mean": self.mean,
            "var": self._var,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.alpha = float(state["alpha"])
        self.count = int(state["count"])
        self.mean = float(state["mean"])
        self._var = float(state["var"])

    def __repr__(self) -> str:
        return f"EwmaStats(count={self.count}, mean={self.mean:.4g}, std={self.std:.4g})"


def _usable_span(
    mins: np.ndarray, maxs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(ok, span)`` of the range ``[mins, maxs]``.

    ``ok`` marks the dimensions with a positive, finite spread; ``span``
    is the spread there and 1 elsewhere, a divisor that never warns.
    Zero, infinite, NaN and uninitialised (``inf`` to ``-inf``) ranges
    are all unusable.
    """
    span = maxs - mins
    ok = (span > 0) & np.isfinite(span)
    return ok, np.where(ok, span, 1.0)


def minmax_scale(
    values: np.ndarray, mins: np.ndarray, maxs: np.ndarray
) -> np.ndarray:
    """Map ``values`` into [0, 1] by the range ``[mins, maxs]``, clipping.

    ``mins``/``maxs`` are one shared ``(n_dims,)`` range or one range
    per row of a ``(r, n_dims)`` batch (e.g. the prefixes of
    :meth:`OnlineMinMax.update_rows`).  Dimensions with no usable
    spread map to 0.5 (an uninformative midpoint), so constant
    dimensions never dominate cosine similarity.  Every operation is
    elementwise, so each output row is bit-for-bit that row scaled
    alone.
    """
    ok, span = _usable_span(mins, maxs)
    out = np.where(ok, (values - mins) / span, 0.5)
    return np.clip(out, 0.0, 1.0, out=out)


class OnlineMinMax:
    """Running per-dimension minimum / maximum with ``[0, 1]`` scaling.

    The paper scales "the observed range of each meta-information feature
    ... to the range [0, 1]".  Fingerprints are stored raw and scaled on
    the fly through this object so that stored and fresh fingerprints are
    always expressed in the same, current, normalisation.
    """

    def __init__(self, n_dims: int) -> None:
        if n_dims <= 0:
            raise ValueError(f"n_dims must be positive, got {n_dims}")
        self.n_dims = n_dims
        self.mins = np.full(n_dims, np.inf)
        self.maxs = np.full(n_dims, -np.inf)

    @property
    def initialised(self) -> bool:
        return bool(np.all(np.isfinite(self.mins)))

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        np.minimum(self.mins, values, out=self.mins)
        np.maximum(self.maxs, values, out=self.maxs)

    def update_rows(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Fold a ``(r, n_dims)`` stack in row order, keeping every prefix.

        Returns ``(mins, maxs)``: row ``i`` holds the extrema after rows
        ``0..i`` — what :meth:`update` called row by row holds at that
        row, so scoring row ``i`` against ``(mins[i], maxs[i])`` is the
        sequential update-then-score loop.  Min and max are exact, so
        the accumulated extrema are bit-equal to the loop's, and so are
        the final ``mins`` and ``maxs``.  An empty stack is a no-op.
        """
        values = np.asarray(values, dtype=np.float64)
        if not len(values):
            empty = np.empty((0, self.n_dims))
            return empty, empty
        extended = np.concatenate([self.mins[None], values])
        mins = np.minimum.accumulate(extended, axis=0)
        extended[0] = self.maxs
        maxs = np.maximum.accumulate(extended, axis=0)
        self.mins[:] = mins[-1]
        self.maxs[:] = maxs[-1]
        return mins[1:], maxs[1:]

    # Unused by the engine; kept because perfbench/tracing.py wraps it.
    def contains(self, values: np.ndarray) -> bool:
        """True when every value lies inside the observed ranges.

        Exactly the condition under which :meth:`update` with
        ``values`` would be a no-op.
        """
        return bool(np.all(values >= self.mins) and np.all(values <= self.maxs))

    def scale(self, values: np.ndarray) -> np.ndarray:
        """Map ``values`` into [0, 1] by the observed range, clipping.

        Rows of a batch scale independently (see :func:`minmax_scale`),
        so a ``(r, n_dims)`` batch is bit-for-bit its rows scaled one
        by one.
        """
        return minmax_scale(
            np.asarray(values, dtype=np.float64), self.mins, self.maxs
        )

    def scale_std(self, stds: np.ndarray) -> np.ndarray:
        """Express raw standard deviations in the scaled [0, 1] space.

        ``stds`` is one ``(n_dims,)`` vector or a ``(r, n_dims)``
        stack; each row of a stack is bit-for-bit that row alone.
        Dimensions without a usable range (see :func:`minmax_scale`)
        get 0.
        """
        ok, span = _usable_span(self.mins, self.maxs)
        return np.where(ok, np.asarray(stds, dtype=np.float64) / span, 0.0)

    def state_dict(self) -> Dict[str, Any]:
        return {"mins": self.mins.copy(), "maxs": self.maxs.copy()}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        mins = np.asarray(state["mins"], dtype=np.float64)
        if mins.shape != (self.n_dims,):
            raise ValueError(
                f"state holds {mins.shape[0]} dims, expected {self.n_dims}"
            )
        self.mins = mins.copy()
        self.maxs = np.asarray(state["maxs"], dtype=np.float64).copy()
