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
two Fisher terms are comparable across dimensions.  A weight refresh
reads the repository's
:class:`~repro.core.repository.FingerprintMatrix` once: the concept and
non-active statistics of every stored concept, gathered in repository
order as one block, go through one standard-deviation pass and one
batched scale, and every term is a slice of that block.
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
    vector, so no normalisation is applied.

    ``matrix`` is the repository's storage of its stored concepts'
    statistics, and ``active_state`` one of those concepts (eviction
    protects the active one); ``states`` is the repository's state list,
    which the weights do not read.  The concept (``F_S``) and
    non-active (``F_SC``) rows of every stored concept form one
    ``(2R, D)`` block in repository order, scaled once.  In that scaled
    space, with ``eps`` the sigma floor and ``cap`` the weight cap:

    * ``w_sigma = min(1 / max(sigma_c, eps), cap)`` from the active
      concept's row; neutral 1 on dimensions with fewer than two
      incorporations.
    * ``v_s = min(std_S(mu_S) / max(max_S(sigma_S), eps), cap)``, the
      Fisher score of the dimension means across the concepts with a
      trained fingerprint (two or more incorporations); neutral 1 with
      fewer than two such concepts.
    * ``v_sc = min(mean_S(|mu_S - mu_SC| / (2 max(sigma_SC, eps))), cap)``
      over the concepts trained on both sides: how far each classifier's
      behaviour on other concepts' observations sits from its
      self-behaviour (the std of the two-point set ``{mu_S, mu_SC}`` is
      ``|mu_S - mu_SC| / 2``); neutral 1 when no concept qualifies.

    Every reduction runs over the same rows in the same order as a loop
    over the stored concepts would, and everything else is elementwise,
    so the weights are bit for bit that loop's.
    """
    n_dims = normalizer.n_dims
    if mode == "none":
        return np.ones(n_dims)
    rows = matrix.rows
    n = len(rows)
    counts = np.concatenate((matrix.fp_counts[rows], matrix.na_counts[rows]))
    stds = normalizer.scale_std(
        welford_stds(
            counts, np.concatenate((matrix.fp_m2[rows], matrix.na_m2[rows]))
        )
    )
    active = matrix.state_ids.index(active_state.state_id)
    w_sigma = np.minimum(
        np.where(
            counts[active] >= 2,
            1.0 / np.maximum(stds[active], _SIGMA_EPS),
            1.0,
        ),
        _WEIGHT_CAP,
    )
    if mode == "sigma":
        return w_sigma
    fp_means, na_means = normalizer.scale(
        np.concatenate((matrix.fp_means[rows], matrix.na_means[rows]))
    ).reshape(2, n, n_dims)
    fp_stds, na_stds = stds.reshape(2, n, n_dims)
    fp_trained, na_trained = (counts.max(axis=1) >= 2).reshape(2, n)
    v_s = np.ones(n_dims)
    if np.count_nonzero(fp_trained) >= 2:
        between = fp_means[fp_trained].std(axis=0)
        within = np.maximum(fp_stds[fp_trained].max(axis=0), _SIGMA_EPS)
        v_s = np.minimum(between / within, _WEIGHT_CAP)
    v_sc = np.ones(n_dims)
    both = fp_trained & na_trained
    if both.any():
        ratios = np.abs(fp_means[both] - na_means[both]) / (
            2.0 * np.maximum(na_stds[both], _SIGMA_EPS)
        )
        v_sc = np.minimum(np.mean(ratios, axis=0), _WEIGHT_CAP)
    w_d = np.maximum(v_s, v_sc)
    if mode == "fisher":
        return w_d
    return np.minimum(w_sigma * w_d, _WEIGHT_CAP)
