"""Lagged mutual information meta-information feature.

Following FEDD (Cavalcante et al. 2016), the temporal-dependence MI of a
sequence is the mutual information between the sequence and its lag-1
shift, ``I(x_t ; x_{t+1})``, estimated from a joint histogram.  Unlike
autocorrelation this captures non-linear temporal dependence (e.g. a
deterministic sine overlay), which is why the paper's Table V shows MI
winning on frequency-drift datasets.

Two kernels compute it:

* :func:`row_lagged_mutual_information` estimates every row of an
  ``(R, n)`` window matrix at once — the path of every window matrix
  the fingerprint pipeline builds.  All rows bin at once against
  their own ``linspace`` edges, and one ``bincount`` over row-offset
  joint codes builds every row's joint histogram.  The
  result equals :func:`lagged_mutual_information` on each row bit for
  bit.
* :func:`lagged_mutual_information` estimates one sequence of any
  length — the reference the row kernel is pinned to, and the cheaper
  path for a single variable-length sequence (the distance-between-
  errors source).

Both clamp the estimate at 0: MI is non-negative, but the plug-in sum
can round to a value a few ulps below 0 on nearly independent pairs.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 1e-12


def _n_bins(n: int, bins: int) -> int:
    """``bins``, or ``ceil(sqrt(n/5))`` clipped to [2, 8] when 0."""
    if bins > 0:
        return bins
    return int(np.clip(math.ceil(math.sqrt(n / 5.0)), 2, 8))


def lagged_mutual_information(x: np.ndarray, lag: int = 1, bins: int = 0) -> float:
    """MI (nats) between ``x[:-lag]`` and ``x[lag:]`` via joint histogram.

    ``bins=0`` chooses ``ceil(sqrt(n/5))`` clipped to [2, 8] — few enough
    bins that a 75-observation window gives stable estimates.
    Degenerate sequences (constant, too short) return 0.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size - lag
    if n < 4:
        return 0.0
    a, b = x[:-lag], x[lag:]
    if a.std() < _EPS or b.std() < _EPS:
        return 0.0
    bins = _n_bins(n, bins)
    # Hand-rolled 2-D histogram, bit-identical to
    # ``np.histogram2d(a, b, bins=bins)``: same linspace edges, the same
    # right-side searchsorted with last-edge inclusion, integer counts.
    # Skips histogramdd's generic sample plumbing (~7x faster here).
    edges_a = np.linspace(a.min(), a.max(), bins + 1)
    edges_b = np.linspace(b.min(), b.max(), bins + 1)
    idx_a = np.searchsorted(edges_a, a, side="right")
    idx_b = np.searchsorted(edges_b, b, side="right")
    idx_a[a == edges_a[-1]] -= 1
    idx_b[b == edges_b[-1]] -= 1
    flat = (idx_a - 1) * bins + (idx_b - 1)
    joint = (
        np.bincount(flat, minlength=bins * bins)
        .reshape(bins, bins)
        .astype(np.float64)
    )
    total = joint.sum()
    if total <= 0:
        return 0.0
    pxy = joint / total
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    mask = pxy > 0
    ratio = pxy[mask] / (px @ py)[mask]
    mi = float((pxy[mask] * np.log(ratio)).sum())
    return mi if mi > 0.0 else 0.0


#: Below this many rows, :func:`row_lagged_mutual_information` loops the
#: per-sequence kernel, whose fixed cost is lower for a single row.
MIN_STACK_ROWS = 2


def _row_std(x: np.ndarray) -> np.ndarray:
    """``x.std(axis=1)`` computed as ``np.std`` computes it per row."""
    n = x.shape[1]
    dev = x - x.sum(axis=1, keepdims=True) / n
    return np.sqrt((dev * dev).sum(axis=1) / n)


def _row_bins(values: np.ndarray, step: np.ndarray, low: np.ndarray, bins: int):
    """Zero-based histogram bin of every entry against its row's edges.

    The scalar bins with ``searchsorted(edges, v, side="right") - 1``
    over ``linspace(low, high, bins + 1)`` edges and moves ``v == high``
    into the last bin.  With ``edges[0] == low <= v <= high ==
    edges[-1]`` that is the number of interior edges ``<= v``; those
    edges are ``linspace``'s own ``k * step + low`` values.
    """
    idx = np.zeros(values.shape, dtype=np.intp)
    for k in range(1, bins):
        idx += values >= (k * step + low)[:, None]
    return idx


def row_lagged_mutual_information(
    matrix: np.ndarray, lag: int = 1, bins: int = 0
) -> np.ndarray:
    """:func:`lagged_mutual_information` of every row of ``matrix``.

    Row ``r`` equals ``lagged_mutual_information(matrix[r], lag, bins)``
    bit for bit.  The standard deviations, the per-row marginals and
    the final sum are C-contiguous axis-1 reductions over the same
    entries as the 1-D reductions (numpy's pairwise summation order
    depends only on the entry count, so the plug-in sum groups rows by
    how many non-empty cells they keep); every other step is the
    per-sequence one applied elementwise to a stack.  Fewer than
    :data:`MIN_STACK_ROWS` rows loop the per-sequence kernel instead.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n_rows, width = matrix.shape
    if n_rows < MIN_STACK_ROWS:
        return np.array(
            [lagged_mutual_information(row, lag, bins) for row in matrix],
            dtype=np.float64,
        )
    out = np.zeros(n_rows)
    n = width - lag
    if n < 4:
        return out
    a = np.ascontiguousarray(matrix[:, :-lag])
    b = np.ascontiguousarray(matrix[:, lag:])
    live = (~((_row_std(a) < _EPS) | (_row_std(b) < _EPS))).nonzero()[0]
    if not live.size:
        return out
    if live.size < n_rows:
        a, b = a[live], b[live]
    bins = _n_bins(n, bins)
    cells = bins * bins
    # Every surviving row spans a positive range, so linspace's step
    # (high - low) / bins is non-zero and its edges are k * step + low.
    low_a, low_b = a.min(axis=1), b.min(axis=1)
    step_a = (a.max(axis=1) - low_a) / bins
    step_b = (b.max(axis=1) - low_b) / bins
    codes = _row_bins(a, step_a, low_a, bins) * bins
    codes += _row_bins(b, step_b, low_b, bins)
    codes += np.arange(live.size)[:, None] * cells
    joint = (
        np.bincount(codes.reshape(-1), minlength=live.size * cells)
        .reshape(live.size, bins, bins)
        .astype(np.float64)
    )
    # Every pair lands in one cell, so each row's total count is n.
    pxy = joint / n
    px = pxy.sum(axis=2, keepdims=True)
    py = pxy.sum(axis=1, keepdims=True)
    pxy = pxy.reshape(live.size, cells)
    expected = (px * py).reshape(live.size, cells)
    mask = pxy > 0
    counts = mask.sum(axis=1)
    mi = np.empty(live.size)
    for count in np.unique(counts):
        group = counts == count
        kept = pxy[group][mask[group]].reshape(-1, count)
        ratio = kept / expected[group][mask[group]].reshape(-1, count)
        mi[group] = (kept * np.log(ratio)).sum(axis=1)
    out[live] = np.where(mi > 0.0, mi, 0.0)
    return out
