"""Hoeffding Tree (VFDT) with Gaussian numeric attribute estimators.

Re-implementation of the Very Fast Decision Tree of Domingos & Hulten
(KDD 2000) in the scikit-multiflow configuration the paper relies on:

* numeric attributes summarised per (leaf, class, feature) by Gaussian
  estimators (Welford mean/variance + observed range),
* information-gain split criterion evaluated on ``n_split_points``
  candidate thresholds per feature,
* the Hoeffding bound ``eps = sqrt(R^2 ln(1/delta) / 2n)`` with a tie
  threshold,
* adaptive naive-Bayes leaves (predict with whichever of
  majority-class / naive-Bayes has been more accurate at that leaf).

Each leaf keeps the naive-Bayes terms its scores read (variances, their
logs, log priors, total weight) current as it learns, instead of
recomputing them for every scored row, and the split search scores
every feature × threshold in one vectorised pass.  Both are bit-equal
to recomputing per row and walking thresholds one by one; the plain
tree lives in ``tests/reference.py`` as the reference for that.

The tree is its arrays: node tables with the root at row 0, and leaf
blocks with one row per leaf slot holding every leaf's statistics and
naive-Bayes terms.  Each :class:`_LeafNode` is a set of views of its
slot, so learning, :class:`~repro.classifiers.bank.ClassifierBank`
routing and :meth:`HoeffdingTree.state_dict` share one copy.

Two extensions serve the rest of the reproduction:

* :attr:`n_splits` is a monotone structural-change counter — FiCSUM's
  fingerprint-plasticity trigger ("a decision tree has grown a new
  branch", Section IV) — surfaced through :meth:`change_marker`.
* ``max_features`` restricts split evaluation at each leaf to a random
  feature subspace, which is what Adaptive Random Forest needs.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.classifiers.base import Classifier

_MIN_VAR = 1e-9
_SQRT2 = math.sqrt(2.0)

#: Leaf slots a new tree allocates; the blocks double when full.
_INITIAL_SLOTS = 4

#: One row per node: a split's feature (``-1`` on a leaf), threshold
#: and children (``-1`` on a leaf), and a leaf's slot (``-1`` on a split).
_NODE_TABLES = ("feature", "threshold", "left", "right", "leaf_of")

#: What a leaf learns and a tree saves.  The naive-Bayes terms are
#: derived from these and rebuilt on load.
_LEAF_STATISTICS = (
    "class_counts", "means", "m2", "mins", "maxs",
    "weight_at_last_attempt", "leaf_depth", "mc_correct", "nb_correct",
)

#: The tables and blocks holding integers.
_INTEGER_ARRAYS = ("feature", "left", "right", "leaf_of", "leaf_depth", "feature_subset")

#: Constructor arguments a saved tree is rebuilt with.
_PARAMETERS = (
    "n_classes", "n_features", "grace_period", "split_confidence",
    "tie_threshold", "leaf_prediction", "n_split_points", "max_depth",
    "max_leaves", "max_features",
)

#: The leaf blocks a :class:`_LeafNode` holds as views of its row.
_LEAF_VIEWS = (
    "class_counts", "means", "m2", "mins", "maxs",
    "nb_variances", "nb_log_variances", "nb_log_prior",
)


# Cephes ``ndtr.c`` (S. L. Moshier): the coefficient tables of the
# rational approximations behind ``erf`` and ``erfc``, highest power
# first.  ``_ERF_U``, ``_ERFC_Q`` and ``_ERFC_S`` omit their leading 1.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0,
    5.01905042251180477414e0, 6.16021097993053585195e0,
    7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0,
    1.20489539808096656605e1, 1.70814450747565897222e1,
    9.60896809063285878198e0, 3.36907645100081516050e0,
)
#: Cephes ``MAXLOG``: ``exp(-x*x)`` is taken as 0 once ``x*x`` exceeds it.
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: np.ndarray, coef: Tuple[float, ...]) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule, ``ans = ans * x + c``."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: Tuple[float, ...]) -> np.ndarray:
    """Cephes ``p1evl``: :func:`_polevl` with an implicit leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(z: np.ndarray) -> np.ndarray:
    """Cephes ``erf``, the one ``scipy.special.erf`` evaluates, bit for bit.

    Every operation is the one Cephes performs, in the same order, so
    every rounding is the same.  ``|z| <= 1`` takes
    ``|z| T(z²) / U(z²)``.  Above 1, ``erf = 1 - erfc`` with
    ``erfc = exp(-z²) P(|z|) / Q(|z|)`` below 8, ``R / S`` from 8 on,
    and 0 once ``z²`` exceeds :data:`_MAXLOG`.  ``exp`` is libm's,
    taken through :func:`math.exp` one value at a time as Cephes takes
    it: numpy's vectorised ``exp`` differs from libm in the last bit on
    some inputs.  ``copysign`` restores the sign, so ``erf(-0.0)`` is
    ``-0.0``, and NaN passes through.
    """
    x = np.abs(z)
    out = np.where(x > 1.0, 1.0, x)
    small = x <= 1.0
    xs = x[small]
    sq = xs * xs
    out[small] = xs * _polevl(sq, _ERF_T) / _p1evl(sq, _ERF_U)
    # x * x overflows past ~1.3e154, far past MAXLOG.
    with np.errstate(over="ignore"):
        tail = (x > 1.0) & (x * x <= _MAXLOG)
    xt = x[tail]
    near = xt < 8.0
    p = np.where(near, _polevl(xt, _ERFC_P), _polevl(xt, _ERFC_R))
    q = np.where(near, _p1evl(xt, _ERFC_Q), _p1evl(xt, _ERFC_S))
    e = np.array([math.exp(-s) for s in (xt * xt).tolist()])
    out[tail] = 1.0 - e * p / q
    return np.copysign(out, z)


def _gaussian_cdf(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Vectorised normal CDF through :func:`_erf`.

    :func:`_erf` gives ``scipy.special.erf``'s bits without loading
    scipy, so a stream process never imports it.  ``math.erf`` is no
    substitute: on some inputs its last bits are not scipy's, which
    would move split thresholds' masses and the priors a split seeds.
    """
    std = np.maximum(std, 1e-9)
    z = (x - mean) / (std * _SQRT2)
    return 0.5 * (1.0 + _erf(z))


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of a vector of non-negative class counts."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    probs = counts[counts > 0] / total
    return float(-(probs * np.log2(probs)).sum())


def _entropies(counts: np.ndarray) -> np.ndarray:
    """:func:`_entropy` of every class vector along the last axis.

    Bit-equal to :func:`_entropy` per vector.  The rows are made
    contiguous, so each total is numpy's pairwise sum over the classes,
    as ``counts.sum()`` of one vector is.  ``p log2 p`` is summed over
    only the positive classes, in class order, and numpy groups a
    pairwise sum by its length: so each row's positive terms are moved
    to its front, and rows with equally many are summed together.
    """
    counts = np.ascontiguousarray(counts)
    total = counts.sum(axis=-1)
    positive = counts > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = counts / total[..., None]
        terms = probs * np.log2(probs)
    front = np.argsort(~positive, axis=-1, kind="stable")
    terms = np.take_along_axis(terms, front, axis=-1)
    n_positive = positive.sum(axis=-1)
    sums = np.zeros(total.shape)
    for k in np.unique(n_positive):
        rows = n_positive == k
        sums[rows] = terms[rows][:, :k].sum(axis=-1)
    return np.where(total <= 0, 0.0, -sums)


class _LeafNode:
    """A learning leaf with per-class Gaussian attribute estimators.

    A leaf is a set of views of its slot in the tree's leaf blocks: the
    array attributes (:data:`_LEAF_VIEWS` and ``feature_subset``) are
    views of the slot's rows, and the per-leaf scalars
    (``total_weight``, ``weight_at_last_attempt``, ``leaf_depth``,
    ``mc_correct``, ``nb_correct``) are read and written at the slot's
    entry of the tree's arrays, so everything a leaf learns lands in
    the tree's arrays.

    Beside its statistics a leaf keeps the naive-Bayes terms that every
    score reads: the per-class variances ``nb_variances`` and their logs
    ``nb_log_variances``, the log priors ``nb_log_prior`` and the
    ``total_weight``.  Each term is one elementwise expression of the
    statistics (:meth:`HoeffdingTree._refresh_nb_terms`), so
    :meth:`learn` recomputes only the learned class's row and prior, and
    the terms stay equal to a full recompute.

    A leaf holds no reference to its tree: the tree passes itself to
    every method that reads its per-leaf scalars, so a tree and its
    leaves form no reference cycle and a dropped tree is freed at once.
    """

    __slots__ = ("slot", *_LEAF_VIEWS, "feature_subset")

    def __init__(self, tree: "HoeffdingTree", slot: int) -> None:
        self.slot = slot
        self.point(tree)

    def point(self, tree: "HoeffdingTree") -> None:
        """Make the array attributes views of the slot's current rows."""
        slot = self.slot
        for name in _LEAF_VIEWS:
            setattr(self, name, getattr(tree, name)[slot])
        subsets = tree.feature_subset
        self.feature_subset = None if subsets is None else subsets[slot]

    # -- learning ------------------------------------------------------
    def learn(
        self,
        tree: "HoeffdingTree",
        x: np.ndarray,
        y: int,
        use_nb_adaptive: bool,
        nb_scores: Optional[np.ndarray] = None,
    ) -> None:
        """Absorb one observation.

        ``nb_scores`` are this leaf's :meth:`_nb_log_scores` of ``x``
        when the caller already computed them on the current statistics
        (the test step of test-then-train); they are computed here
        otherwise.
        """
        slot = self.slot
        class_counts = self.class_counts
        if use_nb_adaptive and tree.total_weight[slot] > 0:
            # Evaluate both leaf predictors on the incoming example
            # *before* learning from it (test-then-train at leaf level).
            if class_counts.argmax() == y:
                tree.mc_correct[slot] += 1.0
            if nb_scores is None:
                nb_scores = self._nb_log_scores(x)
            if nb_scores.argmax() == y:
                tree.nb_correct[slot] += 1.0
        class_counts[y] += 1.0
        count = class_counts[y]
        means = self.means[y]
        delta = x - means
        means += delta / count
        m2 = self.m2[y]
        m2 += delta * (x - means)
        np.minimum(self.mins, x, out=self.mins)
        np.maximum(self.maxs, x, out=self.maxs)
        # Row y of the tree's _refresh_nb_terms: only class y's
        # statistics moved.
        variances = self.nb_variances[y]
        np.maximum(m2 / max(count, 1.0), _MIN_VAR, out=variances)
        np.log(variances, out=self.nb_log_variances[y])
        if count > 0:
            prior = self.nb_log_prior[y : y + 1]
            np.log(np.maximum(class_counts[y : y + 1], 1e-12), out=prior)
        else:  # a NaN count, which np.where sends to the else branch
            self.nb_log_prior[y] = -1e9
        tree.total_weight[slot] = class_counts.sum()

    # -- prediction ----------------------------------------------------
    def _nb_log_scores(self, x: np.ndarray) -> np.ndarray:
        diff = x - self.means
        log_pdf = -0.5 * (self.nb_log_variances + diff * diff / self.nb_variances)
        return self.nb_log_prior + log_pdf.sum(axis=1)

    def _nb_log_scores_batch(self, X: np.ndarray) -> np.ndarray:
        """``(n, n_classes)`` naive-Bayes scores, one row per input row.

        Elementwise/reduction structure matches :meth:`_nb_log_scores`
        exactly (same ops, same contiguous-axis summation order), so
        every row is bit-identical to the scalar path.
        """
        diff = X[:, None, :] - self.means
        log_pdf = -0.5 * (self.nb_log_variances + diff * diff / self.nb_variances)
        return self.nb_log_prior + log_pdf.sum(axis=2)

    def predict_proba(
        self,
        tree: "HoeffdingTree",
        x: np.ndarray,
        mode: str,
        nb_scores: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Class probabilities of ``x`` (``nb_scores`` as in :meth:`learn`)."""
        slot = self.slot
        n_classes = len(self.class_counts)
        if tree.total_weight[slot] == 0:
            return np.full(n_classes, 1.0 / n_classes)
        use_nb = mode == "nb" or (
            mode == "nba" and tree.nb_correct[slot] >= tree.mc_correct[slot]
        )
        if use_nb:
            scores = self._nb_log_scores(x) if nb_scores is None else nb_scores
            scores = scores - scores.max()
            probs = np.exp(scores)
        else:
            probs = self.class_counts.copy()
        total = probs.sum()
        if total <= 0 or not math.isfinite(total):
            return np.full(n_classes, 1.0 / n_classes)
        return probs / total

    def predict_proba_batch(
        self, tree: "HoeffdingTree", X: np.ndarray, mode: str
    ) -> np.ndarray:
        """Vectorised :meth:`predict_proba` over the rows of ``X``.

        Bit-identical per row to the scalar path: the leaf-predictor
        choice (majority vs naive Bayes) is a property of the leaf, so
        it is hoisted out of the row dimension, and the NB scores come
        from :meth:`_nb_log_scores_batch`.
        """
        slot = self.slot
        n = X.shape[0]
        n_classes = len(self.class_counts)
        if tree.total_weight[slot] == 0:
            return np.full((n, n_classes), 1.0 / n_classes)
        use_nb = mode == "nb" or (
            mode == "nba" and tree.nb_correct[slot] >= tree.mc_correct[slot]
        )
        if not use_nb:
            probs = self.class_counts.copy()
            total = probs.sum()
            if total <= 0 or not np.isfinite(total):
                probs = np.full(n_classes, 1.0 / n_classes)
            else:
                probs = probs / total
            return np.broadcast_to(probs, (n, n_classes)).copy()
        scores = self._nb_log_scores_batch(X)
        scores = scores - scores.max(axis=1, keepdims=True)
        probs = np.exp(scores)
        totals = probs.sum(axis=1)
        bad = (totals <= 0) | ~np.isfinite(totals)
        if bad.any():
            probs[bad] = 1.0 / n_classes
            totals[bad] = 1.0
        return probs / totals[:, None]

    # -- split search ----------------------------------------------------
    def best_splits(self, tree: "HoeffdingTree", n_split_points: int) -> List[tuple]:
        """Rank candidate binary splits by information gain.

        Returns a list of ``(gain, feature, threshold)`` sorted best
        first; includes the "no split" option as ``(0.0, -1, nan)``.
        Each feature with a finite, non-empty range offers its first
        threshold at its best gain when that gain is positive.  Every
        feature × threshold is scored in one pass, with the arithmetic
        of a per-threshold loop over :func:`_entropy`: the thresholds
        are each feature's ``np.linspace(lo, hi, n_split_points + 2)``
        interior, the side masses sum over the class axis as
        ``(classes, thresholds).sum(axis=0)`` does, and thresholds
        leaving under ``1e-9`` on a side, or with a NaN gain, are
        skipped.
        """
        parent_entropy = _entropy(self.class_counts)
        total = tree.total_weight[self.slot]
        candidates: List[tuple] = [(0.0, -1, math.nan)]
        if total <= 0:
            return candidates
        features = (
            self.feature_subset
            if self.feature_subset is not None
            else np.arange(self.means.shape[1])
        )
        lo, hi = self.mins[features], self.maxs[features]
        keep = np.isfinite(lo) & np.isfinite(hi) & (hi > lo)
        features, lo, hi = features[keep], lo[keep], hi[keep]
        if features.size == 0 or n_split_points < 1:
            return candidates
        # np.linspace's interior points, one feature per row: i * step +
        # lo, or (i / div) * delta + lo where the step underflows to 0.
        div = n_split_points + 1
        grid = np.arange(1, div, dtype=np.float64)
        delta = (hi - lo)[:, None]
        step = delta / div
        thresholds = (
            np.where(step == 0, grid / div * delta, grid * step) + lo[:, None]
        )
        # (features, classes, thresholds): the mass of each class at or
        # below each threshold.
        cdf = _gaussian_cdf(
            thresholds[:, None, :],
            self.means[:, features].T[:, :, None],
            np.sqrt(self.nb_variances[:, features]).T[:, :, None],
        )
        left = self.class_counts[:, None] * cdf
        right = self.class_counts[:, None] - left
        left_totals = left.sum(axis=1)
        right_totals = right.sum(axis=1)
        child = (
            left_totals / total * _entropies(left.transpose(0, 2, 1))
            + right_totals / total * _entropies(right.transpose(0, 2, 1))
        )
        gains = parent_entropy - child
        usable = (left_totals >= 1e-9) & (right_totals >= 1e-9) & ~np.isnan(gains)
        gains = np.where(usable, gains, -np.inf)
        best = gains.argmax(axis=1)  # the first threshold at the best gain
        best_gains = gains[np.arange(len(best)), best]
        for i in np.flatnonzero(best_gains > 0):
            candidates.append(
                (best_gains[i], int(features[i]), float(thresholds[i, best[i]]))
            )
        candidates.sort(key=lambda c: c[0], reverse=True)
        return candidates


class HoeffdingTree(Classifier):
    """Incremental VFDT classifier.

    Parameters
    ----------
    n_classes, n_features:
        Stream metadata.
    grace_period:
        Observations a leaf accumulates between split attempts.
    split_confidence:
        ``delta`` of the Hoeffding bound (probability of a wrong split).
    tie_threshold:
        Split anyway when the bound falls below this (tie breaking).
    leaf_prediction:
        ``"mc"`` majority class, ``"nb"`` naive Bayes, ``"nba"`` adaptive.
    max_depth / max_leaves:
        Resource bounds; leaves beyond them keep learning but stop
        splitting.
    max_features:
        When set, each leaf evaluates splits on a random subset of this
        many features (ARF's random-subspace mechanism).
    """

    def __init__(
        self,
        n_classes: int,
        n_features: int,
        grace_period: int = 50,
        split_confidence: float = 1e-5,
        tie_threshold: float = 0.05,
        leaf_prediction: str = "nba",
        n_split_points: int = 10,
        max_depth: int = 20,
        max_leaves: int = 512,
        max_features: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(n_classes)
        if leaf_prediction not in ("mc", "nb", "nba"):
            raise ValueError(f"unknown leaf_prediction {leaf_prediction!r}")
        self.n_features = n_features
        self.grace_period = grace_period
        self.split_confidence = split_confidence
        self.tie_threshold = tie_threshold
        self.leaf_prediction = leaf_prediction
        self.n_split_points = n_split_points
        self.max_depth = max_depth
        self.max_leaves = max_leaves
        self.max_features = max_features
        self._rng = np.random.default_rng(seed)
        self.feature_importances = np.zeros(n_features, dtype=np.float64)
        self._empty(_INITIAL_SLOTS)
        self._new_leaf(0, 0, 0, 0.0)
        self._leaves.append(_LeafNode(self, 0))
        self.n_leaves = 1

    # -- storage ---------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Live rows of the node tables: every leaf and every split."""
        return self.n_leaves + self.n_splits

    def _empty(self, n_slots: int) -> None:
        """Zeroed node tables and leaf blocks for ``n_slots`` leaves, no
        row live."""
        self.n_splits = 0
        self.n_leaves = 0
        self._leaves: List[_LeafNode] = []
        self.feature_subset: Optional[np.ndarray] = None
        self._resize(n_slots)

    def _resize(self, n_slots: int) -> None:
        """Reallocate the node tables for ``2 * n_slots`` nodes and the
        leaf blocks for ``n_slots`` leaves, zero-filled, keeping the live
        rows, and re-point every leaf's views: the only step that moves
        them."""
        n_classes, n_features = self.n_classes, self.n_features
        per_class = (n_classes, n_features)
        rows: Dict[str, tuple] = {name: () for name in _NODE_TABLES}
        rows.update(
            class_counts=(n_classes,),
            nb_log_prior=(n_classes,),
            means=per_class,
            m2=per_class,
            nb_variances=per_class,
            nb_log_variances=per_class,
            mins=(n_features,),
            maxs=(n_features,),
            weight_at_last_attempt=(),
            leaf_depth=(),
            mc_correct=(),
            nb_correct=(),
            total_weight=(),
        )
        if self.max_features is not None and self.max_features < n_features:
            rows["feature_subset"] = (self.max_features,)
        n_nodes, n_leaves = self.n_nodes, self.n_leaves
        for name, row in rows.items():
            node_table = name in _NODE_TABLES
            grown = np.zeros(
                ((2 if node_table else 1) * n_slots, *row),
                dtype=np.int64 if name in _INTEGER_ARRAYS else np.float64,
            )
            live = n_nodes if node_table else n_leaves
            if live:
                grown[:live] = getattr(self, name)[:live]
            setattr(self, name, grown)
        for leaf in self._leaves:
            leaf.point(self)

    def _saved_blocks(self) -> Tuple[str, ...]:
        if self.feature_subset is None:
            return _LEAF_STATISTICS
        return (*_LEAF_STATISTICS, "feature_subset")

    def _new_leaf(
        self, node: int, slot: int, depth: int, class_counts: Any
    ) -> None:
        """Make ``node`` a fresh leaf in ``slot``, its class counts seeded."""
        if self.feature_subset is not None:
            self.feature_subset[slot] = self._rng.choice(
                self.n_features, size=self.max_features, replace=False
            )
        self._set_node(node, -1, 0.0, -1, -1, slot)
        self.class_counts[slot] = class_counts
        self.means[slot] = 0.0
        self.m2[slot] = 0.0
        self.mins[slot] = np.inf
        self.maxs[slot] = -np.inf
        self.weight_at_last_attempt[slot] = 0.0
        self.leaf_depth[slot] = depth
        self.mc_correct[slot] = 0.0
        self.nb_correct[slot] = 0.0
        self._refresh_nb_terms(slot)

    def _set_node(
        self, node: int, feature: int, threshold: float, left: int, right: int,
        slot: int,
    ) -> None:
        """Write row ``node`` of the node tables."""
        self.feature[node], self.threshold[node] = feature, threshold
        self.left[node], self.right[node] = left, right
        self.leaf_of[node] = slot

    def _refresh_nb_terms(self, slots: Any) -> None:
        """Recompute the naive-Bayes terms of ``slots`` (one slot or a
        slice of them) from their statistics.

        Each term is one elementwise expression of the statistics, and
        the total sums the contiguous class axis, so the terms of a
        slice of slots equal each slot's own bit for bit.
        """
        class_counts = self.class_counts[slots]
        counts = np.maximum(class_counts, 1.0)[..., None]
        variances = np.maximum(self.m2[slots] / counts, _MIN_VAR)
        self.nb_variances[slots] = variances
        self.nb_log_variances[slots] = np.log(variances)
        self.nb_log_prior[slots] = np.where(
            class_counts > 0, np.log(np.maximum(class_counts, 1e-12)), -1e9
        )
        self.total_weight[slots] = class_counts.sum(axis=-1)

    def _reach(self, x: np.ndarray) -> int:
        """The leaf node ``x`` descends to."""
        feature, node = self.feature, 0
        while feature[node] >= 0:
            went_left = x[feature[node]] <= self.threshold[node]
            node = self.left[node] if went_left else self.right[node]
        return node

    def _leaf_at(self, node: int) -> _LeafNode:
        return self._leaves[self.leaf_of[node]]

    def _sort_to_leaf(self, x: np.ndarray) -> _LeafNode:
        return self._leaf_at(self._reach(x))

    def _hoeffding_bound(self, n: float) -> float:
        value_range = math.log2(max(self.n_classes, 2))
        return math.sqrt(
            value_range * value_range * math.log(1.0 / self.split_confidence) / (2.0 * n)
        )

    # ------------------------------------------------------------------
    def learn(self, x: np.ndarray, y: int) -> None:
        x = np.asarray(x, dtype=np.float64)
        if not 0 <= y < self.n_classes:
            raise ValueError(f"label {y} out of range [0, {self.n_classes})")
        node = self._reach(x)
        leaf = self._leaf_at(node)
        leaf.learn(self, x, y, use_nb_adaptive=self.leaf_prediction == "nba")
        if self._split_due(leaf):
            self._attempt_split(node, leaf)

    def _split_due(self, leaf: _LeafNode) -> bool:
        """Has ``leaf`` gathered a grace period since its last attempt?"""
        slot = leaf.slot
        return (
            self.leaf_depth[slot] < self.max_depth
            and self.n_leaves < self.max_leaves
            and self.total_weight[slot] - self.weight_at_last_attempt[slot]
            >= self.grace_period
        )

    def _attempt_split(self, node: int, leaf: _LeafNode) -> bool:
        """Split ``leaf`` (at ``node``) when the Hoeffding bound allows;
        True if it did."""
        weight = self.total_weight[leaf.slot]
        self.weight_at_last_attempt[leaf.slot] = weight
        if np.count_nonzero(leaf.class_counts) < 2:
            return False  # pure leaf: nothing to gain
        ranked = leaf.best_splits(self, self.n_split_points)
        if len(ranked) < 2 or ranked[0][1] == -1:
            return False
        best, second = ranked[0], ranked[1]
        bound = self._hoeffding_bound(weight)
        if best[0] - second[0] > bound or bound < self.tie_threshold:
            self._split_leaf(node, leaf, best)
            return True
        return False

    def _split_leaf(self, node: int, leaf: _LeafNode, best: tuple) -> None:
        """Turn ``node`` into a split on ``best`` over two fresh leaves.

        The left child takes over ``leaf``'s slot, so everything the
        split takes from the leaf — the children's seeded class counts,
        their depth and the weight credited to the feature's importance
        — is read before any slot is written or the blocks grow.
        """
        gain, feature, threshold = best
        # Seed the children's class priors with the parent's split masses
        # so predictions don't collapse to uniform right after a split.
        cdf = _gaussian_cdf(
            np.array([[threshold]]), leaf.means[:, feature][:, None],
            np.sqrt(leaf.nb_variances[:, feature])[:, None],
        )[:, 0]
        slot, new_slot = leaf.slot, self.n_leaves
        left_counts = leaf.class_counts * cdf
        right_counts = leaf.class_counts * (1.0 - cdf)
        depth = self.leaf_depth[slot] + 1
        weight = self.total_weight[slot]
        if new_slot == len(self.total_weight):
            self._resize(2 * new_slot)
        left, right = self.n_nodes, self.n_nodes + 1
        self._set_node(node, feature, threshold, left, right, -1)
        self._new_leaf(left, slot, depth, left_counts)
        self._new_leaf(right, new_slot, depth, right_counts)
        self._leaves.append(_LeafNode(self, new_slot))
        self.n_splits += 1
        self.n_leaves += 1
        self.feature_importances[feature] += gain * weight

    # ------------------------------------------------------------------
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        leaf = self._sort_to_leaf(x)
        return leaf.predict_proba(self, x, self.leaf_prediction)

    # -- vectorised batch paths ------------------------------------------
    def _leaf_groups(self, X: np.ndarray) -> List[tuple]:
        """Partition row indices of ``X`` onto leaves with mask routing.

        One boolean mask per split node on the visited path replaces
        the per-row ``_sort_to_leaf`` walks; returns ``(leaf, indices)``
        pairs covering every row (indices in ascending row order).
        """
        groups: List[tuple] = []
        if X.shape[0] == 0:
            return groups
        stack: List[tuple] = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            feature = self.feature[node]
            if feature >= 0:
                mask = X[idx, feature] <= self.threshold[node]
                stack.append((self.left[node], idx[mask]))
                stack.append((self.right[node], idx[~mask]))
            else:
                groups.append((self._leaf_at(node), idx))
        return groups

    def predict_proba_batch(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities for every row, via mask-based routing.

        Rows are partitioned down the split nodes with boolean masks
        and each leaf scores its group with vectorised naive-Bayes /
        majority arithmetic — bit-identical per row to
        :meth:`predict_proba`.
        """
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((X.shape[0], self.n_classes))
        for leaf, idx in self._leaf_groups(X):
            out[idx] = leaf.predict_proba_batch(self, X[idx], self.leaf_prediction)
        return out

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.int64)
        for leaf, idx in self._leaf_groups(X):
            probs = leaf.predict_proba_batch(self, X[idx], self.leaf_prediction)
            out[idx] = np.argmax(probs, axis=1)
        return out

    def predict_learn_batch(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Exact chunked test-then-train with shared routing.

        Routes the whole chunk down the tree once with boolean masks,
        then processes each leaf's rows in chronological order.  Leaf
        statistics are independent across leaves and predictions depend
        only on the owning leaf, so grouping by leaf preserves the
        per-observation semantics exactly; when a leaf splits mid-chunk
        its node becomes the split and its remaining rows are re-routed
        from there.  The single caveat: when the ``max_leaves`` bound is
        *reached inside one chunk*, the order in which competing leaves
        claim the final split slots can differ from the per-observation
        order.

        Trees with ``max_features`` random subspaces (ARF's mechanism)
        fall back to the per-observation loop: every split draws a
        feature subset from the tree's rng, so the leaf-grouped split
        order would reorder those draws and break the equivalence.
        """
        if self.max_features is not None:
            return super().predict_learn_batch(X, y)
        X = np.asarray(X, dtype=np.float64)
        labels = np.asarray(y, dtype=np.int64).tolist()
        n = len(labels)
        out = np.empty(n, dtype=np.int64)
        if n == 0:
            return out
        if min(labels) < 0 or max(labels) >= self.n_classes:
            bad = next(v for v in labels if not 0 <= v < self.n_classes)
            raise ValueError(f"label {bad} out of range [0, {self.n_classes})")
        if n == 1:
            # A lone row (every row of Ficsum.process) descends by plain
            # comparisons and needs no index arrays.
            x = X[0]
            out[0], _ = self._test_then_train(self._reach(x), x, labels[0])
            return out
        stack: List[tuple] = [(0, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            while self.feature[node] >= 0:
                mask = X[idx, self.feature[node]] <= self.threshold[node]
                right_idx = idx[~mask]
                if right_idx.size:
                    stack.append((self.right[node], right_idx))
                node, idx = self.left[node], idx[mask]
            if idx.size == 0:
                continue
            rows = idx.tolist()
            for pos, i in enumerate(rows, 1):
                out[i], split = self._test_then_train(node, X[i], labels[i])
                if split:
                    # The leaf's node became a split node: re-route the
                    # rest of this group from it.
                    if pos < len(rows):
                        stack.append((node, idx[pos:]))
                    break
        return out

    def _test_then_train(
        self, node: int, x: np.ndarray, y: int
    ) -> Tuple[int, bool]:
        """Predict ``x`` at leaf ``node``, learn it, then split if due.

        Returns the prediction and whether the leaf split.
        """
        leaf = self._leaf_at(node)
        mode = self.leaf_prediction
        # Every leaf predictor but majority class reads the leaf's
        # naive-Bayes scores of a row, and the adaptive bookkeeping in
        # learn() reads them again: score once, before learning.
        scores = (
            leaf._nb_log_scores(x)
            if mode != "mc" and self.total_weight[leaf.slot] > 0
            else None
        )
        prediction = leaf.predict_proba(self, x, mode, scores).argmax()
        leaf.learn(self, x, y, mode == "nba", scores)
        split = self._split_due(leaf) and self._attempt_split(node, leaf)
        return prediction, split

    def change_marker(self) -> int:
        """Structural-change counter: advances when a branch is grown."""
        return self.n_splits

    @property
    def depth(self) -> int:
        """Maximum depth of the current tree."""
        return int(self.leaf_depth[: self.n_leaves].max())

    # -- checkpointing ---------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """The tree as plain data: its constructor arguments, counters,
        rng state and the live rows of its node tables and leaf
        statistics.

        The naive-Bayes terms are derived state and are not saved;
        :meth:`load_state_dict` rebuilds them.  Pickling goes through
        this pair, so an unpickled tree's leaves are views of its own
        blocks.
        """
        n_nodes, n_leaves = self.n_nodes, self.n_leaves
        return {
            "parameters": {name: getattr(self, name) for name in _PARAMETERS},
            "rng": self._rng.bit_generator.state,
            "n_splits": self.n_splits,
            "feature_importances": self.feature_importances.copy(),
            "nodes": {
                name: getattr(self, name)[:n_nodes].copy() for name in _NODE_TABLES
            },
            "leaves": {
                name: getattr(self, name)[:n_leaves].copy()
                for name in self._saved_blocks()
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        nodes, leaves = state["nodes"], state["leaves"]
        n_splits = int(state["n_splits"])
        n_leaves = len(leaves["class_counts"])
        if n_leaves != n_splits + 1:
            raise ValueError(
                f"tree state holds {n_leaves} leaves for {n_splits} splits"
            )
        parameters = state["parameters"]
        for name in _PARAMETERS:
            setattr(self, name, parameters[name])
        self._rng = np.random.default_rng(0)
        self._rng.bit_generator.state = state["rng"]
        # Zeros, then the saved values: every array of a loaded tree has
        # numpy's own dtype instance, as a constructed tree's do, so the
        # two pickle to the same bytes.
        self.feature_importances = np.zeros(self.n_features)
        self.feature_importances[:] = state["feature_importances"]
        self._empty(max(_INITIAL_SLOTS, n_leaves))
        for name in _NODE_TABLES:
            getattr(self, name)[: n_leaves + n_splits] = nodes[name]
        for name in self._saved_blocks():
            getattr(self, name)[:n_leaves] = leaves[name]
        self._refresh_nb_terms(slice(0, n_leaves))
        self.n_splits, self.n_leaves = n_splits, n_leaves
        self._leaves = [_LeafNode(self, slot) for slot in range(n_leaves)]

    def __getstate__(self) -> Dict[str, Any]:
        return self.state_dict()

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.load_state_dict(state)

    def __repr__(self) -> str:
        return (
            f"HoeffdingTree(n_leaves={self.n_leaves}, n_splits={self.n_splits}, "
            f"leaf_prediction={self.leaf_prediction!r})"
        )
