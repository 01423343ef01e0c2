"""Sliding-window containers for stream processing.

Algorithm 1 of the paper maintains two windows over the labelled
observation stream: the **active window** ``A`` (the ``w`` most recent
observations) and the **buffer window** ``B`` (observations delayed by
``b`` steps, guaranteed to predate any undetected drift; lines 12-15 of
Algorithm 1).

:class:`~repro.core.ficsum.Ficsum` keeps a single
:class:`ObservationWindow` plus a fingerprint cache instead — ``F_B(t)``
equals ``F_A(t - b)`` when ``b`` is aligned to the fingerprint period,
which halves extraction work — and the window's ring buffers expose the
current contents as zero-copy ndarray views, so no Python lists are
rebuilt on the fingerprint hot path.  The plain Algorithm 1 in
``tests/reference.py`` makes the same choice with a dict of recent
active fingerprints, and pins the cache through the traces.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np


class ArrayRing:
    """A numpy ring buffer exposing the trailing window as a zero-copy view.

    Uses the double-write trick: a ``2 * size`` backing array where every
    item is stored at ``i % size`` and ``i % size + size``, so the last
    ``size`` items always occupy one contiguous slice — ``view()`` is
    O(1) and never copies, unlike ``list(deque)`` + ``np.stack``.

    ``width=None`` stores scalars (1-D view); an integer stores rows of
    that width (2-D view, chronological row order).  Views are read-only
    snapshots of the buffer: consumers must not mutate them, and a view
    taken before an ``append`` sees the post-append contents.
    """

    __slots__ = ("size", "_buf", "_n")

    def __init__(
        self, size: int, width: Optional[int] = None, dtype=np.float64
    ) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if width is not None and width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.size = size
        shape = (2 * size,) if width is None else (2 * size, width)
        self._buf = np.zeros(shape, dtype=dtype)
        self._n = 0

    def append(self, value) -> None:
        pos = self._n % self.size
        self._buf[pos] = value
        self._buf[pos + self.size] = value
        self._n += 1

    def extend(self, values: np.ndarray) -> None:
        """Append a block of items with at most four slice writes.

        Equivalent to ``for v in values: self.append(v)`` but the ring
        positions are filled with vectorised slice assignments (split
        at the wrap point) instead of per-item writes.
        """
        values = np.asarray(values, dtype=self._buf.dtype)
        m = values.shape[0]
        if m == 0:
            return
        if m > self.size:
            # Only the trailing window survives; the counter still
            # advances by the full block length.
            self._n += m - self.size
            values = values[m - self.size :]
            m = self.size
        pos = self._n % self.size
        first = min(m, self.size - pos)
        self._buf[pos : pos + first] = values[:first]
        self._buf[pos + self.size : pos + self.size + first] = values[:first]
        rest = m - first
        if rest:
            self._buf[:rest] = values[first:]
            self._buf[self.size : self.size + rest] = values[first:]
        self._n += m

    def clear(self) -> None:
        # Zero the storage too, so a cleared ring's snapshot holds no
        # bytes of the items it forgot.
        self._buf[:] = 0
        self._n = 0

    @property
    def full(self) -> bool:
        return self._n >= self.size

    def __len__(self) -> int:
        return min(self._n, self.size)

    def view(self) -> np.ndarray:
        """The current window, oldest first — a contiguous slice."""
        if self._n <= self.size:
            return self._buf[: self._n]
        start = self._n % self.size
        return self._buf[start : start + self.size]

    def state_dict(self) -> Dict[str, Any]:
        return {"buf": self._buf.copy(), "n": self._n}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        buf = np.asarray(state["buf"], dtype=self._buf.dtype)
        if buf.shape != self._buf.shape:
            raise ValueError(
                f"ring state has shape {buf.shape}, expected {self._buf.shape}"
            )
        self._buf = buf.copy()
        self._n = int(state["n"])


class ObservationWindow:
    """Sliding window of labelled observations with zero-copy array views.

    Instead of rebuilding Python lists and re-stacking arrays at every
    fingerprint period, the three behaviour streams live in ring
    buffers and :meth:`arrays` hands out contiguous ndarray views.
    """

    __slots__ = ("size", "_x", "_y", "_p")

    def __init__(self, size: int, n_features: int) -> None:
        self.size = size
        self._x = ArrayRing(size, n_features)
        self._y = ArrayRing(size, dtype=np.int64)
        self._p = ArrayRing(size, dtype=np.int64)

    def append(self, x: np.ndarray, y: int, prediction: int) -> None:
        self._x.append(x)
        self._y.append(y)
        self._p.append(prediction)

    def extend(
        self, xs: np.ndarray, ys: np.ndarray, predictions: np.ndarray
    ) -> None:
        """Append a block of observations (chunked-engine fast path)."""
        self._x.extend(xs)
        self._y.extend(ys)
        self._p.extend(predictions)

    def clear(self) -> None:
        self._x.clear()
        self._y.clear()
        self._p.clear()

    @property
    def full(self) -> bool:
        return self._x.full

    def __len__(self) -> int:
        return len(self._x)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(xs, ys, predictions)`` views over the current window.

        ``xs`` is ``(n, d)`` float64; ``ys`` / ``predictions`` are
        ``(n,)`` int64.  All three are zero-copy and must be treated as
        read-only; they are invalidated by the next :meth:`append`.
        """
        return self._x.view(), self._y.view(), self._p.view()

    def state_dict(self) -> Dict[str, Any]:
        return {
            "x": self._x.state_dict(),
            "y": self._y.state_dict(),
            "p": self._p.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._x.load_state_dict(state["x"])
        self._y.load_state_dict(state["y"])
        self._p.load_state_dict(state["p"])
