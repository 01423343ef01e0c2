"""Rolling accumulators for window statistics.

The fingerprint hot path recomputes every meta-information function
from the full window each fingerprint period — O(w) per source per
period.  For the functions that admit rolling algebra (the four
distribution moments, ACF/PACF at lags 1-2 and the turning-point rate)
this module maintains the sufficient statistics under a sliding window,
so sliding it by one observation costs a constant amount of work,
however long the window:

* **Shifted power sums** ``M_p = sum((x - K)^p)`` for p = 1..4, from
  which the central moments follow by binomial expansion.  The shift
  ``K`` anchors to the first observation and re-anchors to the window
  mean at every refresh, which keeps the catastrophic cancellation of
  raw power sums at bay.
* **Lag product sums** ``P_k = sum((x_t - K)(x_{t+k} - K))`` over the
  in-window pairs; entering/leaving observations touch exactly one
  boundary pair per lag.
* **Turning indicators** — one boolean per interior triple, held in a
  ring so the count slides exactly with the window.

Floating-point drift from add/subtract updates is bounded by a full
vectorised recomputation every ``window_size`` observations (amortised
constant work per observation), so rolling values track the batch
reference to ~1e-12 relative error — the equivalence the property tests
assert.

:class:`RollingWindowStats` vectorises all statistics across source
rows: one instance tracks the whole ``(n_rows, w)`` window matrix.
:meth:`~RollingWindowStats.push` slides it by one observation with a
handful of numpy operations on ``n_rows``-length vectors;
:meth:`~RollingWindowStats.push_many` slides it by a block with a fixed
number of numpy operations per block, bit for bit the same as the
scalar loop.  Derived values are memoised per push generation, so e.g.
the four moment readers share one central-moment computation per window
position.  :class:`GapStats` is the scalar sibling for the
variable-length distance-between-errors source (plain-float algebra —
cheaper than numpy for a single row), fed by
:class:`ErrorDistanceTracker`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.windows import ArrayRing

_EPS = 1e-12


class RollingWindowStats:
    """Rolling moment / autocorrelation / turning-point statistics.

    Parameters
    ----------
    n_rows:
        Number of parallel source rows (the window-matrix height).
    window_size:
        ``w`` — the sliding-window length.
    """

    def __init__(self, n_rows: int, window_size: int) -> None:
        if n_rows <= 0:
            raise ValueError(f"n_rows must be positive, got {n_rows}")
        if window_size < 3:
            raise ValueError(
                f"window_size must be >= 3, got {window_size}"
            )
        self.n_rows = n_rows
        self.window_size = window_size
        # Block-slide gather plan over the timeline (window, then block):
        # step t evicts C[t], whose lag partners are C[t+1], C[t+2], and
        # enters C[w+t], whose partners are C[w+t-1], C[w+t-2].  Columns
        # interleave (evict_t, enter_t) in the scalar fold's order, each
        # with the sign it is folded in with; a block of m steps reads
        # the first 2m columns.
        steps = np.arange(window_size)[None, :, None]
        offsets = np.array(
            [[0, window_size], [1, window_size - 1], [2, window_size - 2]]
        )
        self._fold_rows = (steps + offsets[:, None, :]).reshape(3, -1)
        self._fold_signs = np.tile([-1.0, 1.0], window_size)[:, None]
        self._ring = ArrayRing(window_size, n_rows)
        self._turn = ArrayRing(window_size - 2, n_rows, dtype=np.int64)
        # Streaming joint-histogram accumulator (sketch-mode MI): off
        # unless a selected component declares ``uses_histogram``.
        self._hist_bins = 0
        self.reset()

    def reset(self) -> None:
        """Forget all observations (stream restart / concept wipe)."""
        self._ring.clear()
        self._turn.clear()
        self._k = np.zeros(self.n_rows)
        # The six running sums (M_1..M_4, P_1, P_2) are the rows of one
        # array, so a block slide folds them with one cumsum; the named
        # attributes are views of those rows, updated in place.
        self._sums = np.zeros((6, self.n_rows))
        self._s1, self._s2, self._s3, self._s4, self._p1, self._p2 = self._sums
        self._turn_count = np.zeros(self.n_rows, dtype=np.int64)
        self._since_refresh = 0
        self._gen = 0
        self._moment_cache: Optional[Tuple[int, tuple]] = None
        self._acf_cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._hist_counts: Optional[np.ndarray] = None
        self._hist_lo: Optional[np.ndarray] = None
        self._hist_scale: Optional[np.ndarray] = None
        self._hist_mi_cache: Optional[Tuple[int, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Streaming joint-histogram (sketch-mode lagged MI)
    # ------------------------------------------------------------------
    def enable_histogram(self, bins: int) -> None:
        """Maintain per-row lag-1 joint-histogram counts under the slide.

        Bin edges freeze per row at the first full window (``lo``/range
        from that window's values); later observations clip into the
        boundary bins.  This is the declared sketch divergence from the
        exact estimator, which re-derives edges from every window — in
        exchange each slide is an O(n_rows) integer count update and
        each read an O(n_rows · bins²) table scan, with no per-window
        ``searchsorted``/``bincount`` rebuild.
        """
        if bins < 2:
            raise ValueError(f"histogram needs >= 2 bins, got {bins}")
        if self._hist_bins not in (0, bins):
            raise ValueError(
                f"histogram already enabled with {self._hist_bins} bins"
            )
        self._hist_bins = bins
        self._hist_offsets = np.arange(self.n_rows) * (bins * bins)

    @property
    def histogram_enabled(self) -> bool:
        return self._hist_bins > 0

    def _hist_index(self, values: np.ndarray) -> np.ndarray:
        """Frozen-edge bin index per row (boundary bins absorb outliers).

        ``values`` is ``(n_rows,)`` or time-major ``(L, n_rows)`` — the
        per-row edges broadcast along the trailing axis.
        """
        idx = np.floor((values - self._hist_lo) * self._hist_scale)
        return np.clip(idx, 0, self._hist_bins - 1).astype(np.int64)

    def _hist_pair_cells(self, values: np.ndarray) -> np.ndarray:
        """Flat count-table cell of every lag-1 pair of ``values``.

        ``values`` is time-major ``(L, n_rows)``; row ``j`` of the
        ``(L - 1, n_rows)`` result holds, per source row, the cell of
        the pair ``(values[j], values[j + 1])`` in the C-order
        flattened ``(n_rows, bins, bins)`` table.
        """
        idx = self._hist_index(values)
        return idx[:-1] * self._hist_bins + idx[1:] + self._hist_offsets

    def _hist_pair_counts(self, cells: np.ndarray) -> np.ndarray:
        """``(n_rows, bins, bins)`` counts of the given pair cells."""
        bins = self._hist_bins
        counts = np.bincount(cells.ravel(), minlength=self.n_rows * bins * bins)
        return counts.reshape(self.n_rows, bins, bins)

    def _hist_freeze(self) -> None:
        """Freeze edges on the first full window and count its pairs."""
        window = self._ring.view()  # (w, n_rows)
        bins = self._hist_bins
        lo = window.min(axis=0)
        hi = window.max(axis=0)
        span = hi - lo
        # Degenerate (constant) rows get a unit span: every value lands
        # in bin 0 and the MI reader reports 0, like the exact guard.
        span[span < _EPS] = 1.0
        self._hist_lo = lo
        self._hist_scale = bins / span
        self._hist_counts = self._hist_pair_counts(self._hist_pair_cells(window))

    def _hist_slide(self, window: np.ndarray, values: np.ndarray) -> None:
        """Slide the pair counts by one push over a full window.

        ``window`` is the pre-append ``(n_rows, w)`` view: the pair
        ``(window[:, 0], window[:, 1])`` leaves and ``(window[:, -1],
        values)`` enters.  Integer counts, so the block path's bincount
        deltas agree exactly.
        """
        cells = self._hist_pair_cells(
            np.stack((window[:, 0], window[:, 1], window[:, -1], values))
        )
        flat = self._hist_counts.reshape(-1)
        flat[cells[0]] -= 1
        flat[cells[2]] += 1

    def histogram_mi(self) -> np.ndarray:
        """Per-row lagged MI (nats) read from the streaming counts.

        Matches the exact estimator's formula on the maintained joint
        table; the sketch divergence is the frozen bin edges (and the
        fixed bin count), not the MI computation itself.  Degenerate
        rows — too few pairs or all mass in one marginal bin — return
        0, mirroring the exact guards.
        """
        if not self.histogram_enabled:
            raise RuntimeError("histogram accumulator not enabled")
        cache = self._hist_mi_cache
        if cache is not None and cache[0] == self._gen:
            return cache[1]
        out = np.zeros(self.n_rows)
        if self._hist_counts is not None:
            joint = self._hist_counts.astype(np.float64)
            total = joint.sum(axis=(1, 2))
            ok = total >= 4
            if ok.any():
                pxy = joint[ok] / total[ok, None, None]
                px = pxy.sum(axis=2, keepdims=True)
                py = pxy.sum(axis=1, keepdims=True)
                # A marginal concentrated in one bin is the frozen-edge
                # image of a constant row: report 0 like the exact
                # estimator's std guard.
                spread = ((px > 0).sum(axis=(1, 2)) > 1) & (
                    (py > 0).sum(axis=(1, 2)) > 1
                )
                indep = px * py
                mask = pxy > 0
                ratio = np.ones_like(pxy)
                np.divide(pxy, indep, out=ratio, where=mask)
                mi = np.where(mask, pxy * np.log(ratio), 0.0).sum(axis=(1, 2))
                out[ok] = np.where(spread, mi, 0.0)
        self._hist_mi_cache = (self._gen, out)
        return out

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Observations currently in the window."""
        return len(self._ring)

    @property
    def full(self) -> bool:
        return len(self._ring) == self.window_size

    def push(self, values: np.ndarray) -> None:
        """Slide the window forward by one ``(n_rows,)`` observation."""
        values = np.asarray(values, dtype=np.float64)
        ring = self._ring
        n = len(ring)
        self._gen += 1
        if n == 0:
            # Anchor the shift to the first observation so the power
            # sums stay cancellation-safe before the first refresh.
            self._k = values.astype(np.float64, copy=True)
        window = ring.view().T  # (n_rows, n) chronological, zero-copy

        if n == self.window_size:  # evict the oldest observation
            y0 = window[:, 0] - self._k
            self._s1 -= y0
            y0p = y0 * y0
            self._s2 -= y0p
            y0p = y0p * y0
            self._s3 -= y0p
            self._s4 -= y0p * y0
            self._p1 -= y0 * (window[:, 1] - self._k)
            self._p2 -= y0 * (window[:, 2] - self._k)
            self._turn_count -= self._turn.view()[0]
            if self._hist_counts is not None:
                self._hist_slide(window, values)

        y = values - self._k
        self._s1 += y
        yp = y * y
        self._s2 += yp
        yp = yp * y
        self._s3 += yp
        self._s4 += yp * y
        if n >= 1:
            self._p1 += y * (window[:, -1] - self._k)
        if n >= 2:
            self._p2 += y * (window[:, -2] - self._k)
            d1 = window[:, -1] - window[:, -2]
            d2 = values - window[:, -1]
            indicator = ((d1 * d2) < 0).astype(np.int64)
            self._turn.append(indicator)
            self._turn_count += indicator

        ring.append(values)
        if (
            self._hist_bins
            and self._hist_counts is None
            and self.full
        ):
            self._hist_freeze()
        self._since_refresh += 1
        if self._since_refresh >= self.window_size and self.full:
            self._refresh()

    def push_many(self, block: np.ndarray) -> None:
        """Slide the window forward by an ``(m, n_rows)`` block.

        State evolution is **bit-for-bit identical** to ``m``
        consecutive :meth:`push` calls.  The scalar update folds each
        sum through an alternating (evict, enter) sequence of IEEE
        additions — ``a -= b`` is exactly ``a + (-b)`` — so the block
        path materialises the same signed contributions in the same
        order and folds all six sums with one ``np.cumsum`` along the
        time axis (ufunc accumulation *is* the sequential fold).  The
        block is cut at refresh boundaries so :meth:`_refresh`
        re-anchors after exactly the same push as the scalar loop, and
        a one-row segment goes through :meth:`push` itself.
        """
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self.n_rows:
            raise ValueError(
                f"block shape {block.shape} does not match (m, {self.n_rows})"
            )
        i = 0
        m = block.shape[0]
        # Warmup (window not yet full) happens once per stream and has
        # per-push branching (anchor, first lag pairs); loop it.
        while i < m and not self.full:
            self.push(block[i])
            i += 1
        while i < m:
            seg = min(m - i, self.window_size - self._since_refresh)
            if seg == 1:
                # One row: the scalar update is cheaper than the block
                # kernel's fixed cost and lands on the same state.
                self.push(block[i])
            else:
                self._push_block_full(block[i : i + seg])
                self._since_refresh += seg
                if self._since_refresh >= self.window_size:
                    self._refresh()
            i += seg

    def _push_block_full(self, block: np.ndarray) -> None:
        """Steady-state block slide (full window, no refresh inside)."""
        m = block.shape[0]
        w = self.window_size
        self._gen += m
        # Time-major timeline: current window, then the entering block.
        timeline = np.concatenate((self._ring.view(), block))  # (w + m, n_rows)
        y = timeline[self._fold_rows[:, : 2 * m]] - self._k  # (3, 2m, n_rows)
        z = y[0]
        # Signed contributions, one slab per running sum (M_1..M_4,
        # P_1, P_2): (+-z)^p is exactly +-(z^p) and (+-z) * partner
        # exactly +-(z * partner) — the scalar update's products.
        contrib = np.empty((6, 2 * m, self.n_rows))
        np.multiply(z, self._fold_signs[: 2 * m], out=contrib[0])
        np.multiply(contrib[0], z, out=contrib[1])
        np.multiply(contrib[1], z, out=contrib[2])
        np.multiply(contrib[2], z, out=contrib[3])
        np.multiply(contrib[0], y[1:], out=contrib[4:])
        # The scalar fold is ((s + c_0) + c_1) + ...: seed the first
        # step with s + c_0, then cumsum accumulates sequentially
        # (ufunc accumulation *is* the scalar loop's order).
        contrib[:, 0] = self._sums + contrib[:, 0]
        self._sums[:] = np.cumsum(contrib, axis=1)[:, -1]
        # Turning indicators are integers: the m oldest entries of the
        # (virtual) indicator timeline leave, m new ones enter — order-
        # free exact arithmetic.
        diffs = np.diff(timeline[w - 2 :], axis=0)  # (m + 1, n_rows)
        indicators = ((diffs[:-1] * diffs[1:]) < 0).astype(np.int64)
        turn_cap = w - 2
        old_turns = self._turn.view()  # (turn_cap, n_rows)
        if m <= turn_cap:
            evicted_turns = old_turns[:m].sum(axis=0)
        else:
            evicted_turns = old_turns.sum(axis=0) + indicators[
                : m - turn_cap
            ].sum(axis=0)
        self._turn_count += indicators.sum(axis=0) - evicted_turns
        self._turn.extend(indicators)
        if self._hist_counts is not None:
            # Bin every timeline value in one call: pairs (C[t], C[t+1])
            # leave and (C[w-1+t], C[w+t]) enter.
            cells = self._hist_pair_cells(timeline)
            self._hist_counts += self._hist_pair_counts(
                cells[w - 1 :]
            ) - self._hist_pair_counts(cells[:m])
        self._ring.extend(block)

    def _refresh(self) -> None:
        """Recompute all sums from the buffer (bounds float drift)."""
        window = self._ring.view().T  # (n_rows, n)
        self._k = window.mean(axis=1)
        y = window - self._k[:, None]
        sums = self._sums
        sums[0] = y.sum(axis=1)
        y2 = y * y
        sums[1] = y2.sum(axis=1)
        y3 = y2 * y
        sums[2] = y3.sum(axis=1)
        sums[3] = (y3 * y).sum(axis=1)
        sums[4] = (y[:, :-1] * y[:, 1:]).sum(axis=1)
        sums[5] = (y[:, :-2] * y[:, 2:]).sum(axis=1)
        self._since_refresh = 0

    # ------------------------------------------------------------------
    # Derived statistics — each matches its batch counterpart in
    # repro.metafeatures.{moments,autocorr,turning_points} (same
    # estimators, same degenerate-case guards).  Shared intermediates
    # are memoised per push generation.
    # ------------------------------------------------------------------
    def _central_moments(self) -> tuple:
        cache = self._moment_cache
        if cache is not None and cache[0] == self._gen:
            return cache[1]
        n = max(len(self._ring), 1)
        d = self._s1 / n
        dd = d * d
        m2 = np.maximum(self._s2 / n - dd, 0.0)
        m3 = self._s3 / n - 3.0 * d * (self._s2 / n) + 2.0 * d * dd
        m4 = (
            self._s4 / n
            - 4.0 * d * (self._s3 / n)
            + 6.0 * dd * (self._s2 / n)
            - 3.0 * dd * dd
        )
        result = (d, m2, m3, m4)
        self._moment_cache = (self._gen, result)
        return result

    def means(self) -> np.ndarray:
        n = max(len(self._ring), 1)
        return self._k + self._s1 / n

    def stds(self) -> np.ndarray:
        _, m2, _, _ = self._central_moments()
        return np.sqrt(m2)

    def skews(self) -> np.ndarray:
        _, m2, m3, _ = self._central_moments()
        out = np.zeros(self.n_rows)
        ok = m2 > _EPS
        out[ok] = m3[ok] / np.power(m2[ok], 1.5)
        return out

    def kurtoses(self) -> np.ndarray:
        _, m2, _, m4 = self._central_moments()
        out = np.zeros(self.n_rows)
        ok = m2 > _EPS
        out[ok] = m4[ok] / (m2[ok] ** 2) - 3.0
        return out

    def _acf_pair(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lag-1 and lag-2 autocorrelations, one shared computation."""
        cache = self._acf_cache
        if cache is not None and cache[0] == self._gen:
            return cache[1], cache[2]
        n = len(self._ring)
        out1 = np.zeros(self.n_rows)
        out2 = np.zeros(self.n_rows)
        if n > 2:
            window = self._ring.view().T
            shifted_edges = window[:, [0, 1, -2, -1]] - self._k[:, None]
            d = self._s1 / n
            denom = self._s2 - n * d * d
            ok = denom > _EPS
            # lag 1: drop one edge value from each end
            head1 = self._s1 - shifted_edges[:, 3]
            tail1 = self._s1 - shifted_edges[:, 0]
            numer1 = self._p1 - d * (head1 + tail1) + (n - 1) * d * d
            out1[ok] = numer1[ok] / denom[ok]
            if n > 3:
                head2 = head1 - shifted_edges[:, 2]
                tail2 = tail1 - shifted_edges[:, 1]
                numer2 = self._p2 - d * (head2 + tail2) + (n - 2) * d * d
                out2[ok] = numer2[ok] / denom[ok]
        self._acf_cache = (self._gen, out1, out2)
        return out1, out2

    def acf(self, lag: int) -> np.ndarray:
        """Rolling lag-``k`` autocorrelation (biased estimator)."""
        if lag not in (1, 2):
            raise ValueError(f"only lags 1 and 2 are maintained, got {lag}")
        pair = self._acf_pair()
        return pair[lag - 1]

    def pacf2(self) -> np.ndarray:
        """Rolling lag-2 partial autocorrelation (Durbin-Levinson)."""
        acf1, acf2 = self._acf_pair()
        denom = 1.0 - acf1 * acf1
        out = np.zeros(self.n_rows)
        ok = np.abs(denom) > _EPS
        out[ok] = (acf2[ok] - acf1[ok] * acf1[ok]) / denom[ok]
        return np.clip(out, -1.0, 1.0)

    def turning_rates(self) -> np.ndarray:
        n = len(self._ring)
        if n < 3:
            return np.zeros(self.n_rows)
        return self._turn_count / (n - 2)

    def state_dict(self) -> Dict[str, Any]:
        state = {
            "ring": self._ring.state_dict(),
            "turn": self._turn.state_dict(),
            "k": self._k.copy(),
            "s1": self._s1.copy(),
            "s2": self._s2.copy(),
            "s3": self._s3.copy(),
            "s4": self._s4.copy(),
            "p1": self._p1.copy(),
            "p2": self._p2.copy(),
            "turn_count": self._turn_count.copy(),
            "since_refresh": self._since_refresh,
            "gen": self._gen,
        }
        if self._hist_counts is not None:
            # Sketch accumulator state: frozen edges + integer counts,
            # so resume under any sketch profile is bit-for-bit.
            state["hist_counts"] = self._hist_counts.copy()
            state["hist_lo"] = self._hist_lo.copy()
            state["hist_scale"] = self._hist_scale.copy()
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._ring.load_state_dict(state["ring"])
        self._turn.load_state_dict(state["turn"])
        self._k = np.asarray(state["k"], dtype=np.float64).copy()
        self._sums[:] = [
            state["s1"], state["s2"], state["s3"], state["s4"],
            state["p1"], state["p2"],
        ]
        self._turn_count = np.asarray(state["turn_count"], dtype=np.int64).copy()
        self._since_refresh = int(state["since_refresh"])
        self._gen = int(state["gen"])
        if "hist_counts" in state:
            self._hist_counts = np.asarray(
                state["hist_counts"], dtype=np.int64
            ).copy()
            self._hist_lo = np.asarray(state["hist_lo"], dtype=np.float64).copy()
            self._hist_scale = np.asarray(
                state["hist_scale"], dtype=np.float64
            ).copy()
        else:
            self._hist_counts = None
            self._hist_lo = None
            self._hist_scale = None
        # Memo caches regenerate from the restored sums on first read —
        # bit-identical, so dropping them preserves equivalence.
        self._moment_cache = None
        self._acf_cache = None
        self._hist_mi_cache = None


class GapStats:
    """Rolling scalar statistics over a variable-length sequence.

    The distance-between-errors source is one sequence whose length
    changes as errors enter and leave the window, so eviction is an
    explicit :meth:`popleft` (driven by the tracker) rather than a
    capacity rule.  Plain-float algebra — for a single row it beats
    numpy's per-call overhead by an order of magnitude.  The derived
    values replicate the ``seq_*`` reference functions including their
    short-sequence guards.
    """

    __slots__ = (
        "_values", "_k", "_s1", "_s2", "_s3", "_s4", "_p1", "_p2",
        "_turns", "_turn_count", "_since_refresh", "_gen", "_acf_cache",
    )

    def __init__(self) -> None:
        self._values: Deque[float] = deque()
        self._turns: Deque[int] = deque()
        self.reset()

    def reset(self) -> None:
        self._values.clear()
        self._turns.clear()
        self._k = 0.0
        self._s1 = self._s2 = self._s3 = self._s4 = 0.0
        self._p1 = self._p2 = 0.0
        self._turn_count = 0
        self._since_refresh = 0
        self._gen = 0
        self._acf_cache = (-1, 0.0, 0.0)

    def __len__(self) -> int:
        return len(self._values)

    def push(self, value: float) -> None:
        self._gen += 1
        values = self._values
        if not values:
            self._k = float(value)
        y = value - self._k
        self._s1 += y
        yp = y * y
        self._s2 += yp
        yp *= y
        self._s3 += yp
        self._s4 += yp * y
        n = len(values)
        if n >= 1:
            self._p1 += y * (values[-1] - self._k)
        if n >= 2:
            self._p2 += y * (values[-2] - self._k)
            d1 = values[-1] - values[-2]
            d2 = value - values[-1]
            turn = 1 if (d1 * d2) < 0 else 0
            self._turns.append(turn)
            self._turn_count += turn
        values.append(float(value))
        self._since_refresh += 1
        if self._since_refresh >= max(len(values), 8):
            self._refresh()

    def popleft(self) -> None:
        """Evict the oldest value (its error left the window)."""
        self._gen += 1
        values = self._values
        y0 = values.popleft() - self._k
        self._s1 -= y0
        y0p = y0 * y0
        self._s2 -= y0p
        y0p *= y0
        self._s3 -= y0p
        self._s4 -= y0p * y0
        if values:
            self._p1 -= y0 * (values[0] - self._k)
        if len(values) >= 2:
            self._p2 -= y0 * (values[1] - self._k)
            self._turn_count -= self._turns.popleft()

    def _refresh(self) -> None:
        values = list(self._values)
        n = len(values)
        self._since_refresh = 0
        if n == 0:
            self.reset()
            return
        self._k = sum(values) / n
        ys = [v - self._k for v in values]
        self._s1 = sum(ys)
        self._s2 = sum(y * y for y in ys)
        self._s3 = sum(y**3 for y in ys)
        self._s4 = sum(y**4 for y in ys)
        self._p1 = sum(a * b for a, b in zip(ys, ys[1:]))
        self._p2 = sum(a * b for a, b in zip(ys, ys[2:]))

    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=np.float64)

    # -- derived values (seq_* reference semantics) --------------------
    def mean(self) -> float:
        n = len(self._values)
        return self._k + self._s1 / n if n else 0.0

    def _m2(self) -> float:
        n = len(self._values)
        if n == 0:
            return 0.0
        d = self._s1 / n
        m2 = self._s2 / n - d * d
        # Gaps are integer distances: genuine variance is 0 or >= ~1/n,
        # so anything at _EPS scale is rolling-update residue (sqrt
        # would amplify it to ~1e-8 where the batch reference says 0).
        return m2 if m2 > _EPS else 0.0

    def std(self) -> float:
        return self._m2() ** 0.5

    def skew(self) -> float:
        n = len(self._values)
        if n < 3:
            return 0.0
        m2 = self._m2()
        if m2 <= _EPS:
            return 0.0
        d = self._s1 / n
        m3 = self._s3 / n - 3.0 * d * (self._s2 / n) + 2.0 * d**3
        return m3 / m2**1.5

    def kurtosis(self) -> float:
        n = len(self._values)
        if n < 4:
            return 0.0
        m2 = self._m2()
        if m2 <= _EPS:
            return 0.0
        d = self._s1 / n
        m4 = (
            self._s4 / n
            - 4.0 * d * (self._s3 / n)
            + 6.0 * d * d * (self._s2 / n)
            - 3.0 * d**4
        )
        return m4 / (m2 * m2) - 3.0

    def acf(self, lag: int) -> float:
        if lag not in (1, 2):
            raise ValueError(f"only lags 1 and 2 are maintained, got {lag}")
        cache = self._acf_cache
        if cache[0] == self._gen:
            return cache[lag]
        r1 = self._acf_raw(1)
        r2 = self._acf_raw(2)
        self._acf_cache = (self._gen, r1, r2)
        return r1 if lag == 1 else r2

    def _acf_raw(self, lag: int) -> float:
        values = self._values
        n = len(values)
        if n <= lag + 1:
            return 0.0
        d = self._s1 / n
        denom = self._s2 - n * d * d
        if denom <= _EPS:
            return 0.0
        head = self._s1
        tail = self._s1
        for i in range(lag):
            head -= values[n - 1 - i] - self._k
            tail -= values[i] - self._k
        p = self._p1 if lag == 1 else self._p2
        numer = p - d * (head + tail) + (n - lag) * d * d
        return numer / denom

    def pacf2(self) -> float:
        r1 = self.acf(1)
        r2 = self.acf(2)
        denom = 1.0 - r1 * r1
        if abs(denom) <= _EPS:
            return 0.0
        return min(1.0, max(-1.0, (r2 - r1 * r1) / denom))

    def turning_rate(self) -> float:
        n = len(self._values)
        if n < 3:
            return 0.0
        return self._turn_count / (n - 2)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "values": np.asarray(self._values, dtype=np.float64),
            "turns": np.asarray(self._turns, dtype=np.int64),
            "k": self._k,
            "s1": self._s1,
            "s2": self._s2,
            "s3": self._s3,
            "s4": self._s4,
            "p1": self._p1,
            "p2": self._p2,
            "turn_count": self._turn_count,
            "since_refresh": self._since_refresh,
            "gen": self._gen,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._values = deque(float(v) for v in np.asarray(state["values"]))
        self._turns = deque(int(t) for t in np.asarray(state["turns"]))
        self._k = float(state["k"])
        self._s1 = float(state["s1"])
        self._s2 = float(state["s2"])
        self._s3 = float(state["s3"])
        self._s4 = float(state["s4"])
        self._p1 = float(state["p1"])
        self._p2 = float(state["p2"])
        self._turn_count = int(state["turn_count"])
        self._since_refresh = int(state["since_refresh"])
        self._gen = int(state["gen"])
        self._acf_cache = (-1, 0.0, 0.0)


class ErrorDistanceTracker:
    """Sliding record of distances between consecutive errors.

    Mirrors the batch extractor's variable-length distance-between-
    errors source: the gaps between error positions inside the current
    window, with the "errors rarer than the window" fallback of a
    single window-length gap.  Updates are O(1) amortised (positions
    enter once and leave once), and a :class:`GapStats` accumulator
    rides along so rolling-capable components read their gap statistics
    without rescanning the sequence.
    """

    def __init__(self, window_size: int) -> None:
        if window_size <= 0:
            raise ValueError(f"window_size must be positive, got {window_size}")
        self.window_size = window_size
        self._positions: Deque[int] = deque()
        self.stats = GapStats()
        self._t = 0

    def reset(self) -> None:
        self._positions.clear()
        self.stats.reset()
        self._t = 0

    @property
    def n_gaps(self) -> int:
        return max(len(self._positions) - 1, 0)

    def push(self, is_error: bool) -> None:
        """Advance one observation; record whether it was an error."""
        positions = self._positions
        if is_error:
            if positions:
                self.stats.push(float(self._t - positions[-1]))
            positions.append(self._t)
        self._t += 1
        horizon = self._t - self.window_size
        while positions and positions[0] < horizon:
            positions.popleft()
            if positions:
                self.stats.popleft()

    def push_many(self, errors: np.ndarray) -> None:
        """Advance a block of observations in one event-driven replay.

        Bit-for-bit identical to looping :meth:`push`: only error
        arrivals and front evictions mutate state, so the replay visits
        exactly those events in chronological order and skips the
        error-free steps (the common case — errors are sparse once a
        classifier converges).  Within a step the scalar path pushes the
        new gap *before* running that step's evictions; position ``p``
        evicts at the step with pre-increment time ``p + window_size``.
        """
        errors = np.asarray(errors, dtype=bool)
        positions = self._positions
        stats = self.stats
        w = self.window_size
        start = self._t
        end = start + len(errors)
        for k in np.flatnonzero(errors):
            te = start + int(k)
            # Evictions from the error-free steps since the last event:
            # cumulative horizon through step te - 1 is te - w.
            while positions and positions[0] < te - w:
                positions.popleft()
                if positions:
                    stats.popleft()
            if positions:
                stats.push(float(te - positions[-1]))
            positions.append(te)
            # This step's own evictions (horizon te + 1 - w).
            while positions and positions[0] < te + 1 - w:
                positions.popleft()
                if positions:
                    stats.popleft()
        # Trailing error-free steps through the end of the block.
        while positions and positions[0] < end - w:
            positions.popleft()
            if positions:
                stats.popleft()
        self._t = end

    def gaps(self) -> np.ndarray:
        """The in-window error gaps (or the window-length fallback)."""
        if len(self._positions) < 2:
            return np.array([float(self.window_size)])
        pos: List[int] = list(self._positions)
        return np.diff(np.asarray(pos, dtype=np.float64))

    def state_dict(self) -> Dict[str, Any]:
        return {
            "positions": np.asarray(self._positions, dtype=np.int64),
            "stats": self.stats.state_dict(),
            "t": self._t,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._positions = deque(int(p) for p in np.asarray(state["positions"]))
        self.stats.load_state_dict(state["stats"])
        self._t = int(state["t"])


__all__ = ["RollingWindowStats", "GapStats", "ErrorDistanceTracker"]
