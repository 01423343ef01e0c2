"""Window-level Shapley-style feature importance.

Reference [1] of the paper (L-CODE) uses per-feature Shapley values of
the current classifier as supervised meta-information.  Exact Shapley
values are exponential in the feature count, so — as is standard for
streaming settings — we use a *permutation importance* approximation:
the importance of feature ``j`` over a window is the fraction of window
predictions that change when ``j`` is replaced by a within-window
shuffle of itself (breaking its association with everything else while
preserving its marginal).  Like a Shapley value this is 0 for features
the classifier ignores and grows with the feature's marginal
contribution to the decision function; it only requires a ``predict``
function, so it works for every classifier in the repository.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import Classifier


def window_permutation_importance(
    classifier: Classifier,
    window_x: np.ndarray,
    max_eval: int = 12,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Per-feature prediction-change rate under single-feature shuffles.

    Parameters
    ----------
    classifier:
        Any trained classifier exposing ``predict_batch``.
    window_x:
        ``(w, d)`` window of feature vectors.
    max_eval:
        Number of window rows to evaluate (subsampled for speed; the
        fingerprint hot path calls this once per fingerprint).
    rng:
        Randomness source; defaults to a fixed-seed generator so
        fingerprints are reproducible given the same window.
    """
    window_x = np.asarray(window_x, dtype=np.float64)
    w, d = window_x.shape
    if rng is None:
        rng = np.random.default_rng(0)
    if w == 0:
        return np.zeros(d)
    eval_idx = (
        np.arange(w)
        if w <= max_eval
        else rng.choice(w, size=max_eval, replace=False)
    )
    base_x = window_x[eval_idx]
    n_eval = len(eval_idx)
    importances = np.zeros(d)
    # One within-window shuffle per feature, drawn in feature order.
    # Features whose shuffle matches the evaluated rows (np.allclose)
    # cannot change a prediction and are skipped; the evaluated rows and
    # every remaining feature's perturbed copy ride one predict_batch
    # call.  Per-row predictions are independent, so each equals the
    # one a separate call would give, and with nothing to perturb the
    # classifier is not called at all.
    shuffled = np.empty((d, n_eval))
    for j in range(d):
        shuffled[j] = window_x[rng.permutation(w)[:n_eval], j]
    features = np.flatnonzero(~np.isclose(shuffled, base_x.T).all(axis=1))
    k = features.size
    if k:
        probes = np.repeat(base_x[None], k + 1, axis=0)
        probes[np.arange(1, k + 1), :, features] = shuffled[features]
        preds = classifier.predict_batch(probes.reshape(-1, d)).reshape(
            k + 1, n_eval
        )
        importances[features] = (preds[1:] != preds[0]).mean(axis=1)
    return importances
