"""Online statistics primitives.

FiCSUM is a one-pass streaming algorithm: every distribution it tracks
(meta-information features inside a concept fingerprint, the "normal"
similarity of a concept, the observed range of each fingerprint dimension)
must be maintained in constant space.  This module provides the three
building blocks used throughout the code base:

* :class:`OnlineStats` — Welford mean / variance / count for scalars.
* :class:`OnlineVectorStats` — the same, vectorised over numpy arrays
  (one Welford accumulator per fingerprint dimension).
* :class:`OnlineMinMax` — running per-dimension range, used to scale
  fingerprint dimensions into ``[0, 1]`` (Section III-A of the paper).
* :class:`EwmaStats` — exponentially-forgetting mean/std, used for the
  "normal similarity" records of each concept.
* :class:`ReservoirSampler` — a fixed-size uniform sample (general
  utility; e.g. for subsampling observation windows in user code).
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Generic, List, Optional, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#
# Checkpointing convention (used throughout the code base): mutable
# state objects expose ``state_dict()`` returning a plain nested dict of
# arrays / scalars / bytes, and ``load_state_dict(state)`` restoring it
# exactly.  The serving layer (``repro.serving.snapshot``) packs these
# trees to disk; restored objects must continue the stream bit-for-bit,
# so every float, counter and ring position is captured verbatim.
#


class OnlineStats:
    """Welford's online mean and standard deviation for a scalar stream.

    >>> s = OnlineStats()
    >>> for v in [1.0, 2.0, 3.0]:
    ...     s.update(v)
    >>> s.mean
    2.0
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Population variance of everything seen so far (0 if < 2 values)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def std(self) -> float:
        """Population standard deviation of everything seen so far."""
        return math.sqrt(self.variance)

    def copy(self) -> "OnlineStats":
        clone = OnlineStats()
        clone.count = self.count
        clone.mean = self.mean
        clone._m2 = self._m2
        return clone

    def merge(self, other: "OnlineStats") -> None:
        """Combine another accumulator into this one (Chan et al. merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self._m2 = other.count, other.mean, other._m2
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total

    def reset(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def state_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "mean": self.mean, "m2": self._m2}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.count = int(state["count"])
        self.mean = float(state["mean"])
        self._m2 = float(state["m2"])

    def __repr__(self) -> str:
        return f"OnlineStats(count={self.count}, mean={self.mean:.4g}, std={self.std:.4g})"


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

    def merge(self, other: "EwmaStats") -> None:
        """Count-weighted fold of another record into this one.

        Used when two concepts collapse into one family: the exact
        exponential weighting of the interleaved update sequence is
        unrecoverable, so the family record takes the count-weighted
        mixture mean and the law-of-total-variance spread — the moments
        the two records would report about their pooled history.
        """
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self._var = other.count, other.mean, other._var
            return
        total = self.count + other.count
        wa = self.count / total
        wb = other.count / total
        mean = wa * self.mean + wb * other.mean
        self._var = wa * (self._var + (self.mean - mean) ** 2) + wb * (
            other._var + (other.mean - mean) ** 2
        )
        self.mean = mean
        self.count = total

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


class OnlineVectorStats:
    """Vectorised Welford accumulator: one mean/std/count per dimension.

    This is the storage format of a *concept fingerprint*: the paper
    represents each meta-information feature as the triple
    ``(mu_mi, sigma_mi, count_mi)`` over all incorporated fingerprints.
    ``reset_dims`` supports the fingerprint-plasticity mechanism of
    Section IV (forgetting classifier-dependent dimensions after the
    classifier changes significantly).
    """

    def __init__(self, n_dims: int) -> None:
        if n_dims <= 0:
            raise ValueError(f"n_dims must be positive, got {n_dims}")
        self.n_dims = n_dims
        self.counts = np.zeros(n_dims, dtype=np.int64)
        self.means = np.zeros(n_dims, dtype=np.float64)
        self._m2 = np.zeros(n_dims, dtype=np.float64)
        # Monotone change counter: write-through mirrors (the repository
        # fingerprint matrix) compare it against their last synced value
        # to re-pull only rows whose statistics actually moved.
        self.version = 0

    def update(self, values: np.ndarray) -> None:
        """Fold one vector of observations into the running statistics."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_dims,):
            raise ValueError(
                f"expected shape ({self.n_dims},), got {values.shape}"
            )
        self.version += 1
        self.counts += 1
        delta = values - self.means
        self.means += delta / self.counts
        self._m2 += delta * (values - self.means)

    @property
    def variances(self) -> np.ndarray:
        """Per-dimension population variance (0 where count < 2)."""
        out = np.zeros(self.n_dims)
        mask = self.counts >= 2
        out[mask] = self._m2[mask] / self.counts[mask]
        # Welford's m2 can drift a hair below zero in float arithmetic.
        return np.maximum(out, 0.0)

    @property
    def stds(self) -> np.ndarray:
        return np.sqrt(self.variances)

    @property
    def count(self) -> int:
        """Number of fingerprints incorporated (max across dimensions)."""
        return int(self.counts.max()) if self.n_dims else 0

    def reset_dims(self, dims: np.ndarray, keep_means: bool = True) -> None:
        """Forget the history of a subset of dimensions (boolean mask).

        With ``keep_means`` (default) the running means survive as the
        best current estimate until the next update overwrites them
        (count restarts at 0, so the first new value replaces the mean
        entirely); counts and spread always reset.  Zeroing the means
        would make every similarity computed before the next update
        collapse, which is not what fingerprint plasticity intends.
        """
        dims = np.asarray(dims, dtype=bool)
        self.version += 1
        self.counts[dims] = 0
        if not keep_means:
            self.means[dims] = 0.0
        self._m2[dims] = 0.0

    def copy(self) -> "OnlineVectorStats":
        clone = OnlineVectorStats(self.n_dims)
        clone.counts = self.counts.copy()
        clone.means = self.means.copy()
        clone._m2 = self._m2.copy()
        clone.version = self.version
        return clone

    def merge(self, other: "OnlineVectorStats") -> None:
        """Combine another accumulator into this one, per dimension.

        Chan et al.'s parallel Welford combine (the vector analogue of
        :meth:`OnlineStats.merge`): the result holds exactly the
        mean/m2/count the pooled observation history would produce, so
        folding a concept into a family representative preserves the
        fingerprint moments of both members.
        """
        if other.n_dims != self.n_dims:
            raise ValueError(
                f"cannot merge {other.n_dims}-dim stats into {self.n_dims}-dim"
            )
        self.version += 1
        total = self.counts + other.counts
        mask = total > 0
        delta = other.means - self.means
        self._m2[mask] += (
            other._m2[mask]
            + delta[mask] ** 2 * self.counts[mask] * other.counts[mask] / total[mask]
        )
        self.means[mask] += delta[mask] * other.counts[mask] / total[mask]
        self.counts = total

    def state_dict(self) -> Dict[str, Any]:
        return {
            "counts": self.counts.copy(),
            "means": self.means.copy(),
            "m2": self._m2.copy(),
            "version": self.version,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        counts = np.asarray(state["counts"], dtype=np.int64)
        if counts.shape != (self.n_dims,):
            raise ValueError(
                f"state holds {counts.shape[0]} dims, expected {self.n_dims}"
            )
        self.counts = counts.copy()
        self.means = np.asarray(state["means"], dtype=np.float64).copy()
        self._m2 = np.asarray(state["m2"], dtype=np.float64).copy()
        self.version = int(state["version"])


def minmax_scale(
    values: np.ndarray, mins: np.ndarray, maxs: np.ndarray
) -> np.ndarray:
    """Map ``values`` into [0, 1] by the range ``[mins, maxs]``, clipping.

    ``mins``/``maxs`` are one shared ``(n_dims,)`` range or one range
    per row of a ``(r, n_dims)`` batch (e.g. the prefixes of
    :meth:`OnlineMinMax.update_rows`).  Dimensions with no finite
    spread map to 0.5 (an uninformative midpoint), so constant
    dimensions never dominate cosine similarity.  Every operation is
    elementwise, so each output row is bit-for-bit that row scaled
    alone.
    """
    span = maxs - mins
    ok = (span > 0) & np.isfinite(span)
    out = np.where(ok, (values - mins) / np.where(ok, span, 1.0), 0.5)
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
        # Bumped whenever the observed range actually widens.  Scaled
        # values are a pure function of (input, mins, maxs), so caches
        # of scaled-space quantities stay valid while the version does.
        self.version = 0

    @property
    def initialised(self) -> bool:
        return bool(np.all(np.isfinite(self.mins)))

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if np.any(values < self.mins) or np.any(values > self.maxs):
            self.version += 1
        np.minimum(self.mins, values, out=self.mins)
        np.maximum(self.maxs, values, out=self.maxs)

    def update_many(self, values: np.ndarray) -> None:
        """Fold a batch of vectors (rows) into the running extrema.

        Min/max are order-independent, so the resulting state is
        identical to updating row by row.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        lo = values.min(axis=0)
        hi = values.max(axis=0)
        if np.any(lo < self.mins) or np.any(hi > self.maxs):
            self.version += 1
        np.minimum(self.mins, lo, out=self.mins)
        np.maximum(self.maxs, hi, out=self.maxs)

    def update_rows(
        self, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fold a ``(r, n_dims)`` stack in row order, keeping every prefix.

        Returns ``(mins, maxs, versions)``: row ``i`` holds the extrema
        after rows ``0..i`` and the range version after row ``i`` — what
        :meth:`update` called row by row holds at that row, so scoring
        row ``i`` against ``(mins[i], maxs[i])`` is the sequential
        update-then-score loop.  Min and max are exact, so the
        accumulated extrema are bit-equal to the loop's, and so are the
        final ``mins``, ``maxs`` and ``version``.  An empty stack is a
        no-op.
        """
        values = np.asarray(values, dtype=np.float64)
        if not len(values):
            empty = np.empty((0, self.n_dims))
            return empty, empty, np.empty(0, dtype=np.int64)
        extended = np.concatenate([self.mins[None], values])
        mins = np.minimum.accumulate(extended, axis=0)
        extended[0] = self.maxs
        maxs = np.maximum.accumulate(extended, axis=0)
        widened = np.any(values < mins[:-1], axis=1) | np.any(
            values > maxs[:-1], axis=1
        )
        versions = self.version + np.cumsum(widened)
        self.mins[:] = mins[-1]
        self.maxs[:] = maxs[-1]
        self.version = int(versions[-1])
        return mins[1:], maxs[1:], versions

    # Unused by the engine; kept because perfbench/tracing.py wraps it.
    def contains(self, values: np.ndarray) -> bool:
        """True when every value lies inside the observed ranges.

        Exactly the condition under which :meth:`update` /
        :meth:`update_many` with ``values`` would be a no-op.
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

    scale_many = scale

    def scale_std(self, stds: np.ndarray) -> np.ndarray:
        """Express raw standard deviations in the scaled [0, 1] space."""
        stds = np.asarray(stds, dtype=np.float64)
        span = self.maxs - self.mins
        out = np.zeros_like(stds)
        ok = (span > 0) & np.isfinite(span)
        out[ok] = stds[ok] / span[ok]
        return out

    def scale_std_many(self, stds: np.ndarray) -> np.ndarray:
        """:meth:`scale_std` applied to every row of a batch (bit-equal)."""
        stds = np.asarray(stds, dtype=np.float64)
        span = self.maxs - self.mins
        out = np.zeros(stds.shape)
        ok = (span > 0) & np.isfinite(span)
        out[:, ok] = stds[:, ok] / span[ok]
        return out

    def state_dict(self) -> Dict[str, Any]:
        return {
            "mins": self.mins.copy(),
            "maxs": self.maxs.copy(),
            "version": self.version,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        mins = np.asarray(state["mins"], dtype=np.float64)
        if mins.shape != (self.n_dims,):
            raise ValueError(
                f"state holds {mins.shape[0]} dims, expected {self.n_dims}"
            )
        self.mins = mins.copy()
        self.maxs = np.asarray(state["maxs"], dtype=np.float64).copy()
        self.version = int(state["version"])


class ReservoirSampler(Generic[T]):
    """Fixed-capacity uniform reservoir sample of a stream of items."""

    def __init__(self, capacity: int, seed: Optional[int] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._items: List[T] = []
        self._seen = 0

    def add(self, item: T) -> None:
        self._seen += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self.capacity:
            self._items[slot] = item

    @property
    def items(self) -> List[T]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)
