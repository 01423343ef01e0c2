"""Empirical mode decomposition and IMF energy entropy.

Ding & Luo (2019) — reference [10] of the paper — extract concept-drift
meta-information from the entropy of intrinsic mode functions (IMFs).
An IMF is obtained by *sifting*: repeatedly subtracting the mean of the
upper and lower extrema envelopes until the residue is locally
symmetric.  FiCSUM uses the energy entropy of the first two IMFs as two
of its 13 meta-information functions; they respond to changes in the
timescale structure of a behaviour source (e.g. an injected sine
overlay) that moment features cannot see.

Envelopes interpolate linearly between the extrema (clamped at both
ends), and sifting depth is capped (``max_siftings``) to keep the
per-window cost bounded — the paper's complexity analysis likewise
treats fingerprinting as O(w log w).

Two kernels compute the entropies:

* :func:`row_imf_entropies` decomposes every row of an ``(R, n)``
  window matrix at once — the path of every window matrix the
  fingerprint pipeline builds.  All rows sift in lockstep: extrema come
  from row-wise sign masks, both envelopes of every still-sifting row
  come from **one** :func:`numpy.interp` call over row-offset knots, and
  per-row stop masks retire rows exactly where the per-sequence loop
  would break.  The result equals :func:`imf_entropies` on each row bit
  for bit (see :func:`row_imf_entropies` for why).
* :func:`imf_entropies` decomposes one sequence of any length — the
  reference the row kernel is pinned to, and the cheaper path for a
  single variable-length sequence (the distance-between-errors source).
"""

from __future__ import annotations

from typing import List

import numpy as np

_EPS = 1e-12
#: Sifting depth cap and stop threshold on the normalised squared
#: difference between successive sifts.
_MAX_SIFTINGS = 4
_TOLERANCE = 0.2

#: Below this many rows, :func:`row_imf_entropies` loops the
#: per-sequence kernel: the lockstep sift's fixed cost per iteration
#: (about a dozen numpy calls) only pays for itself across several rows.
MIN_LOCKSTEP_ROWS = 3


def _local_extrema(x: np.ndarray) -> tuple:
    """Indices of strict local maxima and minima of a sequence."""
    diff = np.diff(x)
    rising = diff > 0
    falling = diff < 0
    maxima = np.where(rising[:-1] & falling[1:])[0] + 1
    minima = np.where(falling[:-1] & rising[1:])[0] + 1
    return maxima, minima


def _envelope(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Linear envelope through the extrema, clamped at both ends."""
    n = x.size
    # Extrema indices are strictly increasing interior positions, so
    # prepending 0 and appending n-1 already yields a sorted unique
    # knot vector — no dedup pass needed.
    knots = np.concatenate(([0], idx, [n - 1]))
    return np.interp(np.arange(n), knots, x[knots])


def empirical_mode_decomposition(
    x: np.ndarray,
    max_imfs: int = 2,
    max_siftings: int = _MAX_SIFTINGS,
    tolerance: float = _TOLERANCE,
) -> List[np.ndarray]:
    """Extract up to ``max_imfs`` intrinsic mode functions.

    Returns a (possibly shorter) list of IMFs; a monotonic or
    feature-less residue stops the decomposition early.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 8:
        return []
    residue = x.copy()
    imfs: List[np.ndarray] = []
    for _ in range(max_imfs):
        maxima, minima = _local_extrema(residue)
        if maxima.size < 2 or minima.size < 2:
            break
        h = residue.copy()
        for sifting in range(max_siftings):
            if sifting:  # first pass reuses the extrema of h == residue
                maxima, minima = _local_extrema(h)
                if maxima.size < 2 or minima.size < 2:
                    break
            upper = _envelope(h, maxima)
            lower = _envelope(h, minima)
            mean_env = 0.5 * (upper + lower)
            h_new = h - mean_env
            denom = float((h * h).sum())
            if denom > _EPS:
                sd = float(((h - h_new) ** 2).sum()) / denom
                h = h_new
                if sd < tolerance:
                    break
            else:
                h = h_new
                break
        imfs.append(h)
        residue = residue - h
    return imfs


def imf_energy_entropy(imf: np.ndarray) -> float:
    """Shannon entropy (nats) of an IMF's normalised energy distribution.

    With ``p_i = x_i^2 / sum_j x_j^2``, the entropy ``-sum p_i ln p_i``
    is maximal for energy spread evenly across the window and small when
    energy concentrates in few samples.
    """
    imf = np.asarray(imf, dtype=np.float64)
    energy = imf * imf
    total = energy.sum()
    if total <= _EPS:
        return 0.0
    p = energy / total
    p = p[p > _EPS]
    return float(-(p * np.log(p)).sum())


def imf_entropies(x: np.ndarray, n_imfs: int = 2) -> np.ndarray:
    """Energy entropy of the first ``n_imfs`` IMFs (0 where missing)."""
    out = np.zeros(n_imfs)
    imfs = empirical_mode_decomposition(x, max_imfs=n_imfs)
    for i, imf in enumerate(imfs):
        out[i] = imf_energy_entropy(imf)
    return out


# ----------------------------------------------------------------------
# Row kernel
# ----------------------------------------------------------------------
def _row_extrema(h: np.ndarray) -> tuple:
    """``(A, n-2)`` interior max / min masks of each row of ``h``."""
    diff = h[:, 1:] - h[:, :-1]
    rising = diff > 0
    falling = diff < 0
    return rising[:, :-1] & falling[:, 1:], falling[:, :-1] & rising[:, 1:]


def _extrema_ok(maxima: np.ndarray, minima: np.ndarray) -> np.ndarray:
    """Rows with at least two maxima and two minima (sifting can run)."""
    return (maxima.sum(axis=1) >= 2) & (minima.sum(axis=1) >= 2)


def _row_envelope_means(
    h: np.ndarray, maxima: np.ndarray, minima: np.ndarray
) -> np.ndarray:
    """Mean of the upper and lower linear envelopes of every row.

    Both envelopes of all ``A`` rows come from one :func:`numpy.interp`
    call: the ``2A`` knot rows (``[0, extrema, n-1]`` of each) are laid
    end to end at offsets ``k * n``, so every sample position lies
    between two knots of its own row.  ``interp`` evaluates
    ``slope * (t - t_j) + y_j`` with ``slope = (y_{j+1} - y_j) /
    (t_{j+1} - t_j)``; the offsets cancel exactly in both differences
    (integers far below 2**53), so each row gets the very values a
    per-row ``interp`` would, and knot positions themselves return
    ``y_j`` unchanged on both paths.
    """
    a, n = h.shape
    knots = np.ones((2, a, n), dtype=bool)
    knots[0, :, 1:-1] = maxima
    knots[1, :, 1:-1] = minima
    flat = knots.reshape(-1).nonzero()[0]
    values = h.reshape(-1)[flat % (a * n)]
    env = np.interp(np.arange(2 * a * n), flat, values).reshape(2, a, n)
    return 0.5 * (env[0] + env[1])


def _row_energy_entropies(imfs: np.ndarray) -> np.ndarray:
    """:func:`imf_energy_entropy` of every row of a C-contiguous matrix.

    The scalar sums ``p ln p`` over the compacted ``p > eps`` entries,
    and numpy's pairwise summation order depends on how many entries
    that is.  Rows are therefore grouped by kept-entry count, and each
    group sums as a C-contiguous ``(G, count)`` row reduction over the
    same entries in the same order.
    """
    energy = imfs * imfs
    total = energy.sum(axis=1)
    out = np.zeros(imfs.shape[0])
    live = (~(total <= _EPS)).nonzero()[0]
    if not live.size:
        return out
    p = energy[live] / total[live, None]
    keep = p > _EPS
    counts = keep.sum(axis=1)
    for count in np.unique(counts):
        group = counts == count
        kept = p[group][keep[group]].reshape(group.sum(), count)
        out[live[group]] = -(kept * np.log(kept)).sum(axis=1)
    return out


def row_imf_entropies(matrix: np.ndarray, n_imfs: int = 2) -> np.ndarray:
    """``(R, n_imfs)`` IMF energy entropies of every row of ``matrix``.

    Row ``r`` equals ``imf_entropies(matrix[r], n_imfs)`` bit for bit.
    Every elementwise step is the per-sequence one applied to a stack,
    every row sum is a C-contiguous axis-1 reduction over the row's
    ``n`` entries (the same pairwise summation as the 1-D ``sum``), and
    the envelopes replay :func:`numpy.interp` exactly (see
    :func:`_row_envelope_means`).  Fewer than :data:`MIN_LOCKSTEP_ROWS`
    rows loop the per-sequence kernel instead.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n_rows = matrix.shape[0]
    if n_rows < MIN_LOCKSTEP_ROWS:
        out = np.zeros((n_rows, n_imfs))
        for r in range(n_rows):
            out[r] = imf_entropies(matrix[r], n_imfs)
        return out
    return _lockstep_imf_entropies(matrix, n_imfs)


def _lockstep_imf_entropies(matrix: np.ndarray, n_imfs: int) -> np.ndarray:
    n_rows, n = matrix.shape
    out = np.zeros((n_rows, n_imfs))
    if n < 8 or not n_rows:
        return out
    residue = np.array(matrix, dtype=np.float64, order="C")
    rows = np.arange(n_rows)  # rows still decomposing
    for mode in range(n_imfs):
        maxima, minima = _row_extrema(residue)
        ok = _extrema_ok(maxima, minima)
        if not ok.all():
            rows, residue = rows[ok], residue[ok]
            maxima, minima = maxima[ok], minima[ok]
            if not rows.size:
                break
        h = residue
        # Rows of h still sifting; None while that is every row.
        sifting = None
        for step in range(_MAX_SIFTINGS):
            current = h if sifting is None else h[sifting]
            if step:  # the first pass reuses the residue's extrema
                maxima, minima = _row_extrema(current)
                ok = _extrema_ok(maxima, minima)
                if not ok.all():
                    sifting = ok.nonzero()[0] if sifting is None else sifting[ok]
                    if not sifting.size:
                        break
                    current, maxima, minima = current[ok], maxima[ok], minima[ok]
            h_new = current - _row_envelope_means(current, maxima, minima)
            denom = (current * current).sum(axis=1)
            # Rows at or below the energy floor stop after this pass.
            cont = denom > _EPS
            if cont.any():
                diff = current[cont] - h_new[cont]
                sd = (diff * diff).sum(axis=1) / denom[cont]
                cont[cont] = ~(sd < _TOLERANCE)
            if sifting is None:
                h = h_new
                if not cont.all():
                    sifting = cont.nonzero()[0]
            else:
                h[sifting] = h_new
                sifting = sifting[cont]
            if sifting is not None and not sifting.size:
                break
        out[rows, mode] = _row_energy_entropies(h)
        residue = residue - h
    return out
