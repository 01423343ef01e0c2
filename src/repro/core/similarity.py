"""Fingerprint similarity measures (Section III-B).

Multi-dimensional fingerprints are compared with *weighted cosine
similarity*:

    Sim(F_a, F_b, W) = (W F_a) . (W F_b) / (||W F_a|| ||W F_b||)

where ``W`` re-scales each meta-information dimension by its learned
importance.  Inputs are expected in the normalised [0, 1] fingerprint
space, so the similarity itself lies in [0, 1].

The single-dimension case (the ER variant: a fingerprint that *is* the
error rate) degenerates — cosine similarity of scalars is always 1 —
so it uses the paper's univariate example instead: the inverse absolute
difference ``1 / |M - P|``, capped for numerical safety.  This is also
what gives the ER rows of Table III their characteristically huge
discrimination magnitudes.

Two API layers share the same arithmetic:

* **validating wrappers** (:func:`weighted_cosine_similarity`,
  :func:`similarity`) — coerce dtypes, check shapes, dispatch; the
  public entry points.
* **trusted kernels** (:func:`cosine_kernel`, :func:`sim_fast`, and the
  batched :func:`weighted_cosine_many` / :func:`sim_many` /
  :func:`sim_pairs_many`) — no ``asarray``, no copies, no shape checks;
  callers guarantee contiguous 1-D/2-D ``float64`` inputs of matching
  width.  The batched kernels score every candidate in one call and are
  **bit-for-bit** equal to looping the scalar kernel over rows: the
  row reductions go through :func:`numpy.vecdot` (the same inner loop
  as the 1-D ``np.dot``/``np.linalg.norm`` the scalar path uses), and
  everything else is elementwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_NORM_EPS = 1e-12
#: Cap on the inverse-absolute-difference similarity (sim of identical
#: univariate fingerprints).
UNIVARIATE_SIM_CAP = 1e3

if hasattr(np, "vecdot"):
    _vecdot = np.vecdot
else:  # pragma: no cover - numpy < 2.0

    def _vecdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.broadcast_arrays(a, b)
        return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def cosine_kernel(
    a: np.ndarray, b: np.ndarray, weights: Optional[np.ndarray] = None
) -> float:
    """Trusted weighted-cosine kernel: no validation, no input copies.

    ``a``/``b`` must already be equal-length 1-D ``float64`` arrays
    (hot paths feed normalised fingerprints straight from
    ``OnlineMinMax.scale``).  The arithmetic is exactly that of
    :func:`weighted_cosine_similarity`.
    """
    if weights is not None:
        a = a * weights
        b = b * weights
    norm = float(np.linalg.norm(a) * np.linalg.norm(b))
    if norm < _NORM_EPS:
        return 0.0
    return float(np.dot(a, b) / norm)


def weighted_cosine_similarity(
    a: np.ndarray, b: np.ndarray, weights: Optional[np.ndarray] = None
) -> float:
    """Cosine similarity after per-dimension re-weighting.

    Validating public wrapper over :func:`cosine_kernel`.  Returns 0
    when either re-weighted vector is (numerically) zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    return cosine_kernel(a, b, weights)


def inverse_difference_similarity(a: float, b: float) -> float:
    """Univariate similarity ``1 / |a - b|`` capped at the safety limit."""
    diff = abs(float(a) - float(b))
    if diff < 1.0 / UNIVARIATE_SIM_CAP:
        return UNIVARIATE_SIM_CAP
    return 1.0 / diff


def similarity(
    a: np.ndarray, b: np.ndarray, weights: Optional[np.ndarray] = None
) -> float:
    """Dispatch: weighted cosine for vectors, inverse-difference for scalars."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if a.size == 1 and b.size == 1:
        return inverse_difference_similarity(float(a[0]), float(b[0]))
    return weighted_cosine_similarity(a, b, weights)


def sim_fast(
    a: np.ndarray, b: np.ndarray, weights: Optional[np.ndarray] = None
) -> float:
    """Trusted-caller :func:`similarity`: same dispatch, no re-validation.

    ``a``/``b`` must be equal-length 1-D ``float64`` arrays.
    """
    if a.size == 1:
        return inverse_difference_similarity(a[0], b[0])
    return cosine_kernel(a, b, weights)


# ----------------------------------------------------------------------
# Batched trusted kernels: all candidates in one call
# ----------------------------------------------------------------------
def _cosines(dots: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``dots / norms``, with 0 where the norm product is ``< _NORM_EPS``.

    The zero test is :func:`cosine_kernel`'s, so a row whose norm
    product is NaN or infinite gets the quotient the scalar kernel
    returns (NaN for a NaN row), not 0.
    """
    small = norms < _NORM_EPS
    return np.where(small, 0.0, dots / np.where(small, 1.0, norms))


def weighted_cosine_many(
    A: np.ndarray, b: np.ndarray, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Weighted cosine of every row of ``(r, d)`` ``A`` against ``b``.

    Bit-for-bit equal to ``[weighted_cosine_similarity(A[i], b, w)]``:
    one elementwise re-weighting plus one batched matrix product.
    """
    if weights is not None:
        A = A * weights
        b = b * weights
    norms = np.sqrt(_vecdot(A, A)) * np.linalg.norm(b)
    return _cosines(_vecdot(A, b), norms)


def weighted_cosine_pairs(
    A: np.ndarray, B: np.ndarray, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row-paired weighted cosine: ``out[i] = Sim(A[i], B[i], w)``.

    Bit-for-bit equal to looping :func:`weighted_cosine_similarity`
    over the row pairs.
    """
    if weights is not None:
        A = A * weights
        B = B * weights
    norms = np.sqrt(_vecdot(A, A)) * np.sqrt(_vecdot(B, B))
    return _cosines(_vecdot(A, B), norms)


def inverse_difference_many(a: np.ndarray, b) -> np.ndarray:
    """Vectorised :func:`inverse_difference_similarity` (elementwise)."""
    diff = np.abs(a - b)
    out = np.full(diff.shape, UNIVARIATE_SIM_CAP)
    ok = diff >= 1.0 / UNIVARIATE_SIM_CAP
    out[ok] = 1.0 / diff[ok]
    return out


def sim_many(
    A: np.ndarray, b: np.ndarray, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Batched :func:`similarity` of every row of ``A`` against ``b``."""
    if A.shape[1] == 1:
        return inverse_difference_many(A[:, 0], b[0])
    return weighted_cosine_many(A, b, weights)


def sim_pairs_many(
    A: np.ndarray, B: np.ndarray, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Batched :func:`similarity` over row pairs ``(A[i], B[i])``."""
    if A.shape[1] == 1:
        return inverse_difference_many(A[:, 0], B[:, 0])
    return weighted_cosine_pairs(A, B, weights)


def bounded(sim: float) -> float:
    """Map a similarity to [0, 1] for the ADWIN detector.

    Weighted cosine values are already in [0, 1]; the unbounded
    univariate similarity is squashed by ``s / (1 + s)``.
    """
    if 0.0 <= sim <= 1.0:
        return sim
    return sim / (1.0 + sim)
