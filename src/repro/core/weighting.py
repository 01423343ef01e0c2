"""Dynamic meta-information weighting (Section III-B).

Each fingerprint dimension ``mi`` gets weight ``w_mi = w_sigma * w_d``:

* ``w_sigma = 1 / sigma_mi`` re-expresses deviations in units of the
  dimension's normal standard deviation inside the active concept, so
  stable dimensions (tiny sigma) amplify small changes and noisy ones
  are damped.
* ``w_d = max(v_s, v_sc)`` is a Fisher-score style discrimination
  weight with two components:

  - **inter-concept variation** ``v_s``: how much the dimension's mean
    varies *across* stored concept fingerprints, relative to the
    largest within-concept deviation — dimensions that separate stored
    concepts matter for model selection;
  - **intra-classifier variation** ``v_sc``: how far each stored
    classifier's behaviour on the *current* concept's observations
    (the non-active fingerprint ``F_SC``) sits from its self-behaviour
    ``F_S``, relative to the non-active deviation — dimensions that
    move when a classifier meets foreign data matter for drift
    detection.

All statistics enter in the normalised [0, 1] fingerprint space so the
two Fisher terms are comparable across dimensions.  The stored
concepts' statistics are read from the repository's
:class:`~repro.core.repository.FingerprintMatrix`, gathered in
repository order, one batched scale per term.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.core.fingerprint import welford_stds
from repro.utils.stats import OnlineMinMax

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.repository import ConceptState, FingerprintMatrix

# Floor on per-dimension sigma (in the scaled [0, 1] fingerprint space)
# and cap on any single weight.  Without a floor, near-constant
# dimensions receive weights thousands of times larger than informative
# ones and the weighted cosine collapses onto them (a drift in any other
# dimension becomes invisible).
_SIGMA_EPS = 0.05
_WEIGHT_CAP = 1e3


def sigma_weights(scaled_stds: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``w_sigma = 1 / sigma`` with an epsilon guard.

    Dimensions with fewer than 2 incorporated fingerprints have no
    measured deviation yet and get weight 1 (neutral).
    """
    out = np.ones_like(scaled_stds)
    measured = counts >= 2
    out[measured] = 1.0 / np.maximum(scaled_stds[measured], _SIGMA_EPS)
    return np.minimum(out, _WEIGHT_CAP)


def inter_concept_variation_matrix(
    matrix: "FingerprintMatrix", normalizer: OnlineMinMax
) -> np.ndarray:
    """``v_s``: Fisher score of dimension means across stored concepts.

    ``v_s = std_S(mu_S) / max_S(sigma_S)`` per dimension, computed over
    the stored concepts with trained fingerprints (repository order).
    Needs at least two such concepts; otherwise every dimension gets a
    neutral 1.
    """
    rows = matrix.rows
    trained = rows[matrix.fp_counts[rows].max(axis=1) >= 2]
    if len(trained) < 2:
        return np.ones(normalizer.n_dims)
    means = normalizer.scale(matrix.fp_means[trained])
    stds = normalizer.scale_std(
        welford_stds(matrix.fp_counts[trained], matrix.fp_m2[trained])
    )
    between = means.std(axis=0)
    within = np.maximum(stds.max(axis=0), _SIGMA_EPS)
    return np.minimum(between / within, _WEIGHT_CAP)


def intra_classifier_variation_matrix(
    matrix: "FingerprintMatrix", normalizer: OnlineMinMax
) -> np.ndarray:
    """``v_sc``: self vs non-active behaviour gap per stored classifier.

    For each stored concept ``S`` with both a trained self fingerprint
    ``F_S`` and a trained non-active fingerprint ``F_SC`` (its
    classifier's behaviour on other concepts' observations), the
    dimension-wise deviation between the two means relative to the
    non-active sigma — averaged over such concepts.  Neutral 1 when no
    concept qualifies.
    """
    rows = matrix.rows
    both = rows[
        (matrix.fp_counts[rows].max(axis=1) >= 2)
        & (matrix.na_counts[rows].max(axis=1) >= 2)
    ]
    if not len(both):
        return np.ones(normalizer.n_dims)
    mu_self = normalizer.scale(matrix.fp_means[both])
    mu_cross = normalizer.scale(matrix.na_means[both])
    sigma_cross = np.maximum(
        normalizer.scale_std(
            welford_stds(matrix.na_counts[both], matrix.na_m2[both])
        ),
        _SIGMA_EPS,
    )
    # std of the two-point set {mu_self, mu_cross} is |diff| / 2.
    ratios = np.abs(mu_self - mu_cross) / (2.0 * sigma_cross)
    return np.minimum(np.mean(ratios, axis=0), _WEIGHT_CAP)


def make_weights(
    mode: str,
    active_state: "ConceptState",
    states: List["ConceptState"],
    normalizer: OnlineMinMax,
    matrix: "FingerprintMatrix",
) -> np.ndarray:
    """The full dynamic weight vector ``w = w_sigma * max(v_s, v_sc)``.

    ``mode`` selects the ablation: "full", "sigma", "fisher" or "none".
    Cosine similarity is invariant to a global rescaling of the weight
    vector, so no normalisation is applied.  ``states`` are the
    repository's stored concepts, in order, and ``matrix`` is the
    repository's storage of their statistics, which the Fisher terms
    read.
    """
    n_dims = normalizer.n_dims
    if mode == "none":
        return np.ones(n_dims)
    fingerprint = active_state.fingerprint
    w_sigma = sigma_weights(
        normalizer.scale_std(fingerprint.stds), fingerprint.counts
    )
    if mode == "sigma":
        return w_sigma
    w_d = np.maximum(
        inter_concept_variation_matrix(matrix, normalizer),
        intra_classifier_variation_matrix(matrix, normalizer),
    )
    if mode == "fisher":
        return w_d
    return np.minimum(w_sigma * w_d, _WEIGHT_CAP)
