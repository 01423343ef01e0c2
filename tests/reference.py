"""A plain, deliberately slow FiCSUM: Algorithm 1 one observation at a time.

The engine in :mod:`repro.core.ficsum` reaches its speed through
restructured machinery: chunked processing, a shared-window extraction
cache, one-pass forest routing over a classifier bank, batched
candidate scoring over a fingerprint matrix and a per-step memo of
re-expressed similarity records.  This module restates the same
algorithm without any of it, so the engine can be pinned against
something other than itself:

* per observation: predict, learn, slide the windows;
* every ``P_C`` observations: fingerprint the active window, re-weight
  from the stored concepts one state at a time, fold the buffer
  fingerprint into the active concept, test for drift;
* on drift: fingerprint the window under every candidate's classifier
  with one full batch extraction each, score candidates one by one and
  select one or start a new concept;
* every ``P_S`` observations: fingerprint the window under every other
  stored classifier (non-active fingerprints, discrimination samples).

Beyond the paper's text the engine adds a handful of mechanisms; each
is restated here with a one-line comment naming the paper section it
implements or marking it as a reproduction choice.

Primitives used: :class:`FingerprintPipeline` (``extract_incremental``
for the active window, ``extract`` per candidate) with an eager
``push`` (:class:`EagerPipeline`: every observation slides the rolling
accumulators at once, where the engine queues rows and folds them per
read), standalone :class:`ConceptState` records (each owning its
statistics) kept in :class:`ReferenceStore`, a plain dict with LRU
eviction (the engine's repository stores every concept's statistics in
one matrix), :class:`OnlineMinMax` ``update`` / ``scale`` /
``scale_std``, :func:`sim_fast` and :class:`Adwin`.  Label-outage
mode is outside the paper's algorithm and is not restated.

The module also restates two kernels plainly.
:class:`ReferenceHoeffdingTree` is the engine's VFDT with Gaussian
estimators and adaptive naive-Bayes leaves as it was before its leaves
kept their naive-Bayes terms: every score recomputes a leaf's variances,
their logs and the log priors, and the split search walks every
threshold with a scalar entropy.  :func:`reference_permutation_importance`
is the per-feature loop that
:func:`~repro.metafeatures.shapley.window_permutation_importance`
vectorises.  And it drives the reference with its own prequential loop,
:func:`reference_prequential_run`, so the engine's loop
(:class:`~repro.serving.runner.StreamRunner`) is pinned too.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np
from scipy.special import erf as _erf

from repro.classifiers.base import Classifier
from repro.core.config import FicsumConfig
from repro.core.repository import ConceptState, RepositoryFullError, rescale_record
from repro.core.similarity import sim_fast
from repro.detectors import Adwin
from repro.evaluation.metrics import ConfusionMatrix, co_occurrence_f1
from repro.evaluation.prequential import RunResult
from repro.metafeatures import FingerprintPipeline
from repro.streams.base import Stream
from repro.system import AdaptiveSystem
from repro.utils.stats import OnlineMinMax


# ----------------------------------------------------------------------
# The Hoeffding tree, plainly: every score recomputes its leaf's terms
# ----------------------------------------------------------------------
_MIN_VAR = 1e-9
_SQRT2 = math.sqrt(2.0)


def _gaussian_cdf(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Vectorised normal CDF via ``scipy.special.erf``."""
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


class _LeafNode:
    """A learning leaf with per-class Gaussian attribute estimators."""

    __slots__ = (
        "class_counts",
        "means",
        "m2",
        "mins",
        "maxs",
        "weight_at_last_attempt",
        "depth",
        "feature_subset",
        "mc_correct",
        "nb_correct",
    )

    def __init__(
        self,
        n_classes: int,
        n_features: int,
        depth: int,
        feature_subset: Optional[np.ndarray],
    ) -> None:
        self.class_counts = np.zeros(n_classes, dtype=np.float64)
        self.means = np.zeros((n_classes, n_features), dtype=np.float64)
        self.m2 = np.zeros((n_classes, n_features), dtype=np.float64)
        self.mins = np.full(n_features, np.inf)
        self.maxs = np.full(n_features, -np.inf)
        self.weight_at_last_attempt = 0.0
        self.depth = depth
        self.feature_subset = feature_subset
        self.mc_correct = 0.0
        self.nb_correct = 0.0

    # -- learning ------------------------------------------------------
    def learn(
        self,
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
        if use_nb_adaptive and self.total_weight > 0:
            # Evaluate both leaf predictors on the incoming example
            # *before* learning from it (test-then-train at leaf level).
            if int(np.argmax(self.class_counts)) == y:
                self.mc_correct += 1.0
            if nb_scores is None:
                nb_scores = self._nb_log_scores(x)
            if int(np.argmax(nb_scores)) == y:
                self.nb_correct += 1.0
        self.class_counts[y] += 1.0
        count = self.class_counts[y]
        delta = x - self.means[y]
        self.means[y] += delta / count
        self.m2[y] += delta * (x - self.means[y])
        np.minimum(self.mins, x, out=self.mins)
        np.maximum(self.maxs, x, out=self.maxs)

    @property
    def total_weight(self) -> float:
        return float(self.class_counts.sum())

    # -- prediction ----------------------------------------------------
    def _nb_log_scores(self, x: np.ndarray) -> np.ndarray:
        counts = np.maximum(self.class_counts, 1.0)[:, None]
        variances = np.maximum(self.m2 / counts, _MIN_VAR)
        diff = x[None, :] - self.means
        log_pdf = -0.5 * (np.log(variances) + diff * diff / variances)
        log_prior = np.where(
            self.class_counts > 0,
            np.log(np.maximum(self.class_counts, 1e-12)),
            -1e9,
        )
        return log_prior + log_pdf.sum(axis=1)

    def _nb_log_scores_batch(self, X: np.ndarray) -> np.ndarray:
        """``(n, n_classes)`` naive-Bayes scores, one row per input row.

        Elementwise/reduction structure matches :meth:`_nb_log_scores`
        exactly (same ops, same contiguous-axis summation order), so
        every row is bit-identical to the scalar path.
        """
        counts = np.maximum(self.class_counts, 1.0)[:, None]
        variances = np.maximum(self.m2 / counts, _MIN_VAR)
        diff = X[:, None, :] - self.means[None, :, :]
        log_pdf = -0.5 * (
            np.log(variances)[None, :, :] + diff * diff / variances[None, :, :]
        )
        log_prior = np.where(
            self.class_counts > 0,
            np.log(np.maximum(self.class_counts, 1e-12)),
            -1e9,
        )
        return log_prior[None, :] + log_pdf.sum(axis=2)

    def predict_proba(
        self, x: np.ndarray, mode: str, nb_scores: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Class probabilities of ``x`` (``nb_scores`` as in :meth:`learn`)."""
        n_classes = len(self.class_counts)
        if self.total_weight == 0:
            return np.full(n_classes, 1.0 / n_classes)
        use_nb = mode == "nb" or (mode == "nba" and self.nb_correct >= self.mc_correct)
        if use_nb:
            scores = self._nb_log_scores(x) if nb_scores is None else nb_scores
            scores = scores - scores.max()
            probs = np.exp(scores)
        else:
            probs = self.class_counts.copy()
        total = probs.sum()
        if total <= 0 or not np.isfinite(total):
            return np.full(n_classes, 1.0 / n_classes)
        return probs / total

    def predict_proba_batch(self, X: np.ndarray, mode: str) -> np.ndarray:
        """Vectorised :meth:`predict_proba` over the rows of ``X``.

        Bit-identical per row to the scalar path: the leaf-predictor
        choice (majority vs naive Bayes) is a property of the leaf, so
        it is hoisted out of the row dimension, and the NB scores come
        from :meth:`_nb_log_scores_batch`.
        """
        n = X.shape[0]
        n_classes = len(self.class_counts)
        if self.total_weight == 0:
            return np.full((n, n_classes), 1.0 / n_classes)
        use_nb = mode == "nb" or (mode == "nba" and self.nb_correct >= self.mc_correct)
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
    def best_splits(self, n_split_points: int) -> List[tuple]:
        """Rank candidate binary splits by information gain.

        Returns a list of ``(gain, feature, threshold)`` sorted best
        first; includes the "no split" option as ``(0.0, -1, nan)``.
        """
        parent_entropy = _entropy(self.class_counts)
        total = self.total_weight
        candidates: List[tuple] = [(0.0, -1, math.nan)]
        if total <= 0:
            return candidates
        features = (
            self.feature_subset
            if self.feature_subset is not None
            else np.arange(self.means.shape[1])
        )
        counts = np.maximum(self.class_counts, 1.0)[:, None]
        stds = np.sqrt(np.maximum(self.m2 / counts, _MIN_VAR))
        for f in features:
            lo, hi = self.mins[f], self.maxs[f]
            if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
                continue
            thresholds = np.linspace(lo, hi, n_split_points + 2)[1:-1]
            # mass of each class falling at or below each threshold
            cdf = _gaussian_cdf(
                thresholds[None, :], self.means[:, f][:, None], stds[:, f][:, None]
            )
            left = self.class_counts[:, None] * cdf
            right = self.class_counts[:, None] - left
            left_totals = left.sum(axis=0)
            right_totals = right.sum(axis=0)
            best_gain, best_thr = -1.0, None
            for j, thr in enumerate(thresholds):
                lt, rt = left_totals[j], right_totals[j]
                if lt < 1e-9 or rt < 1e-9:
                    continue
                child = (
                    lt / total * _entropy(left[:, j])
                    + rt / total * _entropy(right[:, j])
                )
                gain = parent_entropy - child
                if gain > best_gain:
                    best_gain, best_thr = gain, thr
            if best_thr is not None and best_gain > 0:
                candidates.append((best_gain, int(f), float(best_thr)))
        candidates.sort(key=lambda c: c[0], reverse=True)
        return candidates


class _SplitNode:
    """Internal binary split on ``feature <= threshold``."""

    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature: int, threshold: float) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left: object = None
        self.right: object = None

    def route(self, x: np.ndarray) -> object:
        return self.left if x[self.feature] <= self.threshold else self.right


class ReferenceHoeffdingTree(Classifier):
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
        self.n_splits = 0
        self.n_leaves = 1
        self.feature_importances = np.zeros(n_features, dtype=np.float64)
        self._root: object = self._new_leaf(depth=0)

    # ------------------------------------------------------------------
    def _new_leaf(self, depth: int) -> _LeafNode:
        subset = None
        if self.max_features is not None and self.max_features < self.n_features:
            subset = self._rng.choice(
                self.n_features, size=self.max_features, replace=False
            )
        return _LeafNode(self.n_classes, self.n_features, depth, subset)

    def _sort_to_leaf(self, x: np.ndarray) -> _LeafNode:
        node = self._root
        while isinstance(node, _SplitNode):
            node = node.route(x)
        return node

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
        parent: Optional[_SplitNode] = None
        went_left = False
        node = self._root
        while isinstance(node, _SplitNode):
            parent = node
            went_left = x[node.feature] <= node.threshold
            node = node.left if went_left else node.right
        leaf: _LeafNode = node
        leaf.learn(x, y, use_nb_adaptive=self.leaf_prediction == "nba")
        if (
            leaf.depth < self.max_depth
            and self.n_leaves < self.max_leaves
            and leaf.total_weight - leaf.weight_at_last_attempt >= self.grace_period
        ):
            self._attempt_split(leaf, parent, went_left)

    def _attempt_split(
        self, leaf: _LeafNode, parent: Optional[_SplitNode], went_left: bool
    ) -> None:
        leaf.weight_at_last_attempt = leaf.total_weight
        if np.count_nonzero(leaf.class_counts) < 2:
            return  # pure leaf: nothing to gain
        ranked = leaf.best_splits(self.n_split_points)
        if len(ranked) < 2 or ranked[0][1] == -1:
            return
        best, second = ranked[0], ranked[1]
        bound = self._hoeffding_bound(leaf.total_weight)
        if best[0] - second[0] > bound or bound < self.tie_threshold:
            self._split_leaf(leaf, parent, went_left, best)

    def _split_leaf(
        self,
        leaf: _LeafNode,
        parent: Optional[_SplitNode],
        went_left: bool,
        best: tuple,
    ) -> None:
        gain, feature, threshold = best
        split = _SplitNode(feature, threshold)
        split.left = self._new_leaf(leaf.depth + 1)
        split.right = self._new_leaf(leaf.depth + 1)
        # Seed the children's class priors with the parent's split masses
        # so predictions don't collapse to uniform right after a split.
        counts = np.maximum(leaf.class_counts, 1.0)[:, None]
        stds = np.sqrt(np.maximum(leaf.m2 / counts, _MIN_VAR))
        cdf = _gaussian_cdf(
            np.array([[threshold]]), leaf.means[:, feature][:, None],
            stds[:, feature][:, None],
        )[:, 0]
        split.left.class_counts = leaf.class_counts * cdf
        split.right.class_counts = leaf.class_counts * (1.0 - cdf)
        if parent is None:
            self._root = split
        elif went_left:
            parent.left = split
        else:
            parent.right = split
        self.n_splits += 1
        self.n_leaves += 1
        self.feature_importances[feature] += gain * leaf.total_weight

    # ------------------------------------------------------------------
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        leaf = self._sort_to_leaf(x)
        return leaf.predict_proba(x, self.leaf_prediction)

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
        stack: List[tuple] = [(self._root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if isinstance(node, _SplitNode):
                mask = X[idx, node.feature] <= node.threshold
                stack.append((node.left, idx[mask]))
                stack.append((node.right, idx[~mask]))
            else:
                groups.append((node, idx))
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
            out[idx] = leaf.predict_proba_batch(X[idx], self.leaf_prediction)
        return out

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.int64)
        for leaf, idx in self._leaf_groups(X):
            probs = leaf.predict_proba_batch(X[idx], self.leaf_prediction)
            out[idx] = np.argmax(probs, axis=1)
        return out

    def predict_learn_batch(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Exact chunked test-then-train with shared routing.

        Routes the whole chunk down the tree once with boolean masks,
        then processes each leaf's rows in chronological order.  Leaf
        statistics are independent across leaves and predictions depend
        only on the owning leaf, so grouping by leaf preserves the
        per-observation semantics exactly; when a leaf splits mid-chunk
        its remaining rows are re-routed through the new subtree.  The
        single caveat: when the ``max_leaves`` bound is *reached inside
        one chunk*, the order in which competing leaves claim the final
        split slots can differ from the per-observation order.

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
        use_nba = self.leaf_prediction == "nba"
        mode = self.leaf_prediction
        # Every leaf predictor but majority class reads the leaf's
        # naive-Bayes scores of a row, and the adaptive bookkeeping in
        # learn() reads them again: score once, before learning.
        scored = mode != "mc"
        grace = self.grace_period
        stack: List[tuple] = [(self._root, None, False, np.arange(n))]
        while stack:
            node, parent, went_left, idx = stack.pop()
            while isinstance(node, _SplitNode):
                if idx.size == 1:
                    # A lone row (every row of Ficsum.process) descends
                    # by plain comparisons, without mask arrays.
                    parent = node
                    went_left = X[idx[0], node.feature] <= node.threshold
                    node = node.left if went_left else node.right
                    continue
                mask = X[idx, node.feature] <= node.threshold
                right_idx = idx[~mask]
                if right_idx.size:
                    stack.append((node.right, node, False, right_idx))
                parent, went_left = node, True
                node, idx = node.left, idx[mask]
            if idx.size == 0:
                continue
            leaf: _LeafNode = node
            may_split = leaf.depth < self.max_depth
            rows = idx.tolist()
            for pos, i in enumerate(rows, 1):
                x = X[i]
                scores = (
                    leaf._nb_log_scores(x)
                    if scored and leaf.total_weight > 0
                    else None
                )
                out[i] = leaf.predict_proba(x, mode, scores).argmax()
                leaf.learn(x, labels[i], use_nba, scores)
                if (
                    may_split
                    and self.n_leaves < self.max_leaves
                    and leaf.total_weight - leaf.weight_at_last_attempt >= grace
                ):
                    splits_before = self.n_splits
                    self._attempt_split(leaf, parent, went_left)
                    if self.n_splits != splits_before:
                        # The leaf became a split node: re-route the
                        # rest of this group through the new subtree.
                        if pos < len(rows):
                            grown = (
                                self._root
                                if parent is None
                                else (parent.left if went_left else parent.right)
                            )
                            stack.append((grown, parent, went_left, idx[pos:]))
                        break
        return out

    def change_marker(self) -> int:
        """Structural-change counter: advances when a branch is grown."""
        return self.n_splits

    @property
    def depth(self) -> int:
        """Maximum depth of the current tree."""
        def walk(node: object) -> int:
            if isinstance(node, _SplitNode):
                return 1 + max(walk(node.left), walk(node.right))
            return 0

        return walk(self._root)

    def __repr__(self) -> str:
        return (
            f"ReferenceHoeffdingTree(n_leaves={self.n_leaves}, n_splits={self.n_splits}, "
            f"leaf_prediction={self.leaf_prediction!r})"
        )


# ----------------------------------------------------------------------
# Concept storage: standalone states in a dict
# ----------------------------------------------------------------------
class ReferenceStore:
    """Stored concepts: a plain dict of standalone concept states.

    Insertion order is the iteration order; an insertion past
    ``max_size`` evicts the least recently active state not in
    ``protect`` (the new state is always protected), and raises
    :class:`RepositoryFullError` when every state is protected.
    """

    def __init__(self, max_size: int) -> None:
        self.max_size = max_size
        self._states: Dict[int, ConceptState] = {}
        self._next_id = 0

    def create(
        self,
        n_dims: int,
        classifier: Classifier,
        step: int,
        sim_record_samples: int,
        sim_record_decay: float,
        protect: Tuple[int, ...],
    ) -> ConceptState:
        state = ConceptState(
            self._next_id, n_dims, classifier, sim_record_samples, sim_record_decay
        )
        state.last_active_step = step
        self._states[state.state_id] = state
        self._next_id += 1
        keep = {state.state_id, *protect}
        while len(self._states) > self.max_size:
            evictable = [s for s in self._states.values() if s.state_id not in keep]
            if not evictable:
                raise RepositoryFullError(
                    f"{len(self._states)} states, max_size={self.max_size}, "
                    f"all protected ({sorted(keep)})"
                )
            victim = min(evictable, key=lambda s: s.last_active_step)
            del self._states[victim.state_id]
        return state

    def states(self) -> List[ConceptState]:
        return list(self._states.values())

    def remove(self, state_id: int) -> None:
        self._states.pop(state_id, None)

    def __contains__(self, state_id: int) -> bool:
        return state_id in self._states


def rescaled_similarity_record(
    state: ConceptState, sim_fn: Callable[[np.ndarray, np.ndarray], float]
) -> Tuple[float, float]:
    """The state's recorded (mu, sigma) re-expressed under ``sim_fn``.

    Section IV: each retained fingerprint pair is re-scored one at a
    time with the *current* weighting/normalisation, and the record
    moves through :func:`rescale_record`.  Falls back to the raw record
    when no pairs are retained.
    """
    mu, sigma = state.sim_stats.mean, state.sim_stats.std
    n = len(state.sim_pairs)
    if not n:
        return mu, sigma
    pairs_a, pairs_b, old_sims = state.sim_pairs.views()
    sims = np.array([sim_fn(pairs_a[i], pairs_b[i]) for i in range(n)])
    return rescale_record(mu, sigma, sims, old_sims, state.sim_pairs.n_dims == 1)


# ----------------------------------------------------------------------
# Dynamic weights (Section III-B), one stored concept at a time
# ----------------------------------------------------------------------
#: Reproduction choice: a sigma floor and a weight cap (in the scaled
#: [0, 1] space) keep near-constant dimensions from dominating.
SIGMA_EPS = 0.05
WEIGHT_CAP = 1e3


def inter_concept_variation(
    states: List[ConceptState], normalizer: OnlineMinMax
) -> np.ndarray:
    """``v_s``: Fisher score of dimension means across stored concepts.

    ``v_s = std_S(mu_S) / max_S(sigma_S)`` per dimension, computed over
    stored concepts with trained fingerprints.  Needs at least two such
    concepts; otherwise every dimension gets a neutral 1.
    """
    trained = [s for s in states if s.fingerprint.count >= 2]
    if len(trained) < 2:
        return np.ones(normalizer.n_dims)
    means = np.stack([normalizer.scale(s.fingerprint.means) for s in trained])
    stds = np.stack([normalizer.scale_std(s.fingerprint.stds) for s in trained])
    between = means.std(axis=0)
    within = np.maximum(stds.max(axis=0), SIGMA_EPS)
    return np.minimum(between / within, WEIGHT_CAP)


def intra_classifier_variation(
    states: List[ConceptState], normalizer: OnlineMinMax
) -> np.ndarray:
    """``v_sc``: self vs non-active behaviour gap per stored classifier.

    For each stored concept with a trained self fingerprint ``F_S`` and
    a trained non-active fingerprint ``F_SC``, the dimension-wise
    deviation between the two means relative to the non-active sigma,
    averaged over such concepts.  Neutral 1 when no concept qualifies.
    """
    ratios = []
    for state in states:
        if state.fingerprint.count < 2 or state.nonactive.count < 2:
            continue
        mu_self = normalizer.scale(state.fingerprint.means)
        mu_cross = normalizer.scale(state.nonactive.means)
        sigma_cross = np.maximum(
            normalizer.scale_std(state.nonactive.stds), SIGMA_EPS
        )
        # std of the two-point set {mu_self, mu_cross} is |diff| / 2.
        ratios.append(np.abs(mu_self - mu_cross) / (2.0 * sigma_cross))
    if not ratios:
        return np.ones(normalizer.n_dims)
    return np.minimum(np.mean(ratios, axis=0), WEIGHT_CAP)


def reference_weights(
    mode: str,
    active: ConceptState,
    states: List[ConceptState],
    normalizer: OnlineMinMax,
) -> np.ndarray:
    """``w = w_sigma * max(v_s, v_sc)`` (or one ablated factor)."""
    if mode == "none":
        return np.ones(normalizer.n_dims)
    # w_sigma = 1 / sigma_c; neutral 1 until a dimension has a deviation.
    scaled_stds = normalizer.scale_std(active.fingerprint.stds)
    measured = active.fingerprint.counts >= 2
    w_sigma = np.ones_like(scaled_stds)
    w_sigma[measured] = 1.0 / np.maximum(scaled_stds[measured], SIGMA_EPS)
    w_sigma = np.minimum(w_sigma, WEIGHT_CAP)
    if mode == "sigma":
        return w_sigma
    w_d = np.maximum(
        inter_concept_variation(states, normalizer),
        intra_classifier_variation(states, normalizer),
    )
    if mode == "fisher":
        return w_d
    return np.minimum(w_sigma * w_d, WEIGHT_CAP)


# ----------------------------------------------------------------------
# Permutation importance (the supervised Table I function), per feature
# ----------------------------------------------------------------------
def reference_permutation_importance(
    classifier,
    window_x: np.ndarray,
    max_eval: int = 12,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """One shuffle, one ``np.allclose`` and one prediction per feature.

    Same draws in the same order as the production kernel: the
    evaluation subsample, then one ``rng.permutation(w)`` per feature.
    """
    window_x = np.asarray(window_x, dtype=np.float64)
    w, d = window_x.shape
    if rng is None:
        rng = np.random.default_rng(0)
    if w == 0:
        return np.zeros(d)
    if w <= max_eval:
        eval_idx = np.arange(w)
    else:
        eval_idx = rng.choice(w, size=max_eval, replace=False)
    base_x = window_x[eval_idx]
    base_pred = classifier.predict_batch(base_x)
    importances = np.zeros(d)
    for j in range(d):
        shuffled = window_x[rng.permutation(w)[: len(eval_idx)], j]
        if np.allclose(shuffled, base_x[:, j]):
            continue
        perturbed = base_x.copy()
        perturbed[:, j] = shuffled
        importances[j] = np.mean(classifier.predict_batch(perturbed) != base_pred)
    return importances


# ----------------------------------------------------------------------
# The active window's accumulators, slid one observation at a time
# ----------------------------------------------------------------------
class EagerPipeline(FingerprintPipeline):
    """A :class:`FingerprintPipeline` whose pushes slide at once.

    Each push builds the observation's source row and slides the
    rolling accumulators and the error-distance tracker by it, with
    their scalar updates; nothing is ever queued.
    """

    def push(self, x: np.ndarray, y: int, prediction: int) -> None:
        if self._rolling is None:
            raise RuntimeError("no window attached")
        error = float(y != prediction)
        if self.source_set == "all":
            row = np.empty(self.n_features + 3)
            row[: self.n_features] = x
            row[self.n_features] = y
            row[self.n_features + 1] = prediction
            row[self.n_features + 2] = error
        elif self.source_set == "supervised":
            row = np.array([float(y), float(prediction), error])
        elif self.source_set == "unsupervised":
            row = np.asarray(x, dtype=np.float64)
        else:  # error_rate
            row = np.array([error])
        self._rolling.push(row)
        if self._error_tracker is not None:
            self._error_tracker.push(bool(error))

    def push_many(
        self, xs: np.ndarray, ys: np.ndarray, predictions: np.ndarray
    ) -> None:
        for x, y, prediction in zip(xs, ys, predictions):
            self.push(x, int(y), int(prediction))


# ----------------------------------------------------------------------
# Algorithm 1
# ----------------------------------------------------------------------
class ReferenceFicsum(AdaptiveSystem):
    """Algorithm 1, per observation and per candidate."""

    def __init__(
        self, n_features: int, n_classes: int, config: FicsumConfig
    ) -> None:
        self.config = cfg = config
        self.n_features = n_features
        self.n_classes = n_classes
        self.pipeline = EagerPipeline(
            n_features,
            metafeatures=cfg.metafeatures,
            source_set=cfg.source_set,
            shapley_max_eval=cfg.shapley_max_eval,
            window_size=cfg.window_size,
            sketch_profile=cfg.sketch_profile,
        )
        self.n_dims = self.pipeline.n_dims
        dims = self.pipeline.schema.dims
        self._error_dim = dims.index(("errors", "mean")) if ("errors", "mean") in dims else -1
        self.normalizer = OnlineMinMax(self.n_dims)
        self.repository = ReferenceStore(cfg.max_repository_size)
        self._window: Deque[Tuple[np.ndarray, int, int]] = deque(
            maxlen=cfg.window_size
        )
        self._classifier_seed = cfg.seed
        self._step = 0
        self._weights = np.ones(self.n_dims)
        self.selection_events = 0
        self.drift_points: List[int] = []
        self.discrimination_samples: List[float] = []
        self._active = self._new_state()
        self._change_marker = self._active.classifier.change_marker()
        self._detector = self._new_detector()
        self._pending_recheck: Optional[int] = None
        self._created_at_drift: Optional[int] = None
        period = cfg.fingerprint_period
        # Reproduction choice: the buffer delay b is rounded up to a
        # multiple of P_C, so F_B(t) is exactly F_A(t - b).
        self._buffer_delay = max(
            period, int(np.ceil(cfg.buffer_delay / period)) * period
        )
        self._recent_fa: Dict[int, np.ndarray] = {}
        self._switch_step = 0
        # Reproduction choice (motivated by Section IV): no drift is
        # signalled while a freshly (re)activated classifier warms up.
        self._warmup = int(cfg.drift_warmup_windows * cfg.window_size)
        # Reproduction choice: a window's worth of consecutive abnormal
        # similarities triggers drift (ADWIN only cuts on transitions),
        # and the record freezes for at most twice that long.
        self._streak_trigger = max(4, cfg.window_size // period)
        self._freeze_limit = 2 * self._streak_trigger
        self._abnormal_streak = 0
        self._freeze_streak = 0

    # -- construction helpers ---------------------------------------------
    def _new_detector(self) -> Adwin:
        return Adwin(self.config.adwin_delta, min_clock=1)

    def _new_state(self, protect: Tuple[int, ...] = ()) -> ConceptState:
        cfg = self.config
        self._classifier_seed += 1
        classifier = ReferenceHoeffdingTree(
            self.n_classes,
            self.n_features,
            grace_period=cfg.grace_period,
            split_confidence=cfg.split_confidence,
            tie_threshold=cfg.tie_threshold,
            seed=self._classifier_seed,
        )
        return self.repository.create(
            self.n_dims,
            classifier,
            self._step,
            cfg.sim_record_samples,
            cfg.sim_record_decay,
            protect,
        )

    # -- AdaptiveSystem ---------------------------------------------------
    @property
    def active_state_id(self) -> int:
        return self._active.state_id

    @property
    def n_drifts_detected(self) -> int:
        return len(self.drift_points)

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    def signal_drift(self) -> None:
        if self.config.oracle_drift:
            self._on_drift()

    def process(self, x: np.ndarray, y: int) -> int:
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        classifier = self._active.classifier
        prediction = int(classifier.predict(x))
        classifier.learn(x, y)
        self._window.append((x, int(y), prediction))
        self.pipeline.push(x, int(y), prediction)
        self._step += 1
        self._active.last_active_step = self._step
        # Section IV (plasticity): a new branch resets the
        # classifier-dependent fingerprint statistics; meaningless for
        # a univariate fingerprint.
        if cfg.plasticity and self.n_dims > 1:
            marker = classifier.change_marker()
            if marker != self._change_marker:
                self._change_marker = marker
                self._active.fingerprint.reset_dims(
                    self.pipeline.schema.classifier_dependent
                )
        full = len(self._window) == cfg.window_size
        if full and self._step % cfg.fingerprint_period == 0:
            self._fingerprint_step()
        if full and self._step % cfg.repository_period == 0:
            self._repository_step()
        if self._pending_recheck is not None and self._step >= self._pending_recheck:
            self._pending_recheck = None
            if cfg.second_selection:
                self._second_selection()
        return prediction

    # -- primitives -------------------------------------------------------
    def _arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        xs = np.array([x for x, _, _ in self._window], dtype=np.float64)
        ys = np.array([y for _, y, _ in self._window], dtype=np.int64)
        ps = np.array([p for _, _, p in self._window], dtype=np.int64)
        return xs, ys, ps

    def _sim(self, a: np.ndarray, b: np.ndarray) -> float:
        """Weighted similarity in the normalised fingerprint space."""
        return sim_fast(self.normalizer.scale(a), self.normalizer.scale(b), self._weights)

    def _record(self, state: ConceptState) -> Tuple[float, float]:
        """(mu_s, sigma_s) re-expressed under the current weights."""
        mu, sigma = rescaled_similarity_record(state, self._sim)
        # Reproduction choice: a floor on sigma keeps acceptance
        # possible for ultra-stable concepts.
        floor = self.config.min_similarity_std * max(1.0, abs(mu))
        return mu, max(sigma, floor)

    def _fingerprint_under(self, state: ConceptState) -> np.ndarray:
        """F_A re-labelled by ``state``'s classifier: one full extraction."""
        xs, ys, _ = self._arrays()
        preds = state.classifier.predict_batch(xs)
        return self.pipeline.extract(xs, ys, preds, state.classifier)

    def _error_gate(self, state: ConceptState, fp: np.ndarray) -> bool:
        """Reproduction choice: a candidate whose classifier errs far
        more than its record says cannot be accepted."""
        if self._error_dim < 0 or state.error_stats.count < 5:
            return True
        sigma = max(state.error_stats.std, 0.03)
        bound = state.error_stats.mean + self.config.similarity_gate * sigma
        return float(fp[self._error_dim]) <= bound

    def _accepts(self, state: ConceptState, fp: np.ndarray) -> Tuple[bool, float]:
        """Section III-A gate: |Sim - mu_s| <= 2 sigma_s, plus the error gate."""
        sim = self._sim(state.fingerprint.means, fp)
        mu, sigma = self._record(state)
        inside = abs(sim - mu) <= self.config.similarity_gate * sigma
        return inside and self._error_gate(state, fp), sim

    @property
    def _in_warmup(self) -> bool:
        return self._step - self._switch_step < self._warmup

    # -- Step III-A: fingerprints, incorporation, drift detection ----------
    def _fingerprint_step(self) -> None:
        cfg = self.config
        active = self._active
        xs, ys, ps = self._arrays()
        fp_active = self.pipeline.extract_incremental(xs, ys, ps, active.classifier)
        self.normalizer.update(fp_active)
        # Algorithm 1's buffer: only windows drawn entirely after the
        # last concept switch may later be incorporated.
        if self._step - cfg.window_size >= self._switch_step:
            self._recent_fa[self._step] = fp_active
        stale = self._step - 2 * self._buffer_delay
        self._recent_fa = {t: fp for t, fp in self._recent_fa.items() if t > stale}
        fp_buffer = self._recent_fa.get(self._step - self._buffer_delay)

        # Section III-B: dynamic weights.
        self._weights = reference_weights(
            cfg.weighting, active, self.repository.states(), self.normalizer
        )
        if fp_buffer is not None:
            self._incorporate(fp_buffer)

        if (
            active.fingerprint.count < 2
            or active.sim_stats.count < 3
            or self._in_warmup
        ):
            return
        sim = self._sim(active.fingerprint.means, fp_active)
        mu, sigma = self._record(active)
        z = abs(sim - mu) / (cfg.similarity_gate * sigma)
        if self.n_dims == 1:
            # Reproduction choice: ER feeds ADWIN the bounded |M - P|.
            gap = self.normalizer.scale(active.fingerprint.means) - self.normalizer.scale(
                fp_active
            )
            alert = self._detector.update(min(1.0, float(abs(gap[0]))))
        else:
            # Section III-A: ADWIN monitors how abnormal Sim(F_c, F_A) is.
            alert = self._detector.update(z / (1.0 + z))
        if z > 1.0 and active.sim_stats.count >= 10:
            self._abnormal_streak += 1
        else:
            self._abnormal_streak = 0
        if self._abnormal_streak >= self._streak_trigger:
            alert = True
        if alert and not cfg.oracle_drift:
            self._on_drift()

    def _incorporate(self, fp_buffer: np.ndarray) -> None:
        """Fold F_B into F_c and record Sim(F_c, F_B) (Section III-A)."""
        active = self._active
        if active.fingerprint.count >= 1:
            sim = self._sim(active.fingerprint.means, fp_buffer)
            if active.sim_stats.count >= 10 and not self._in_warmup:
                mu, sigma = self._record(active)
                if abs(sim - mu) / (self.config.similarity_gate * sigma) > 1.0:
                    # Reproduction choice: abnormal buffers are held out
                    # until the freeze limit, then the record restarts.
                    if self._freeze_streak < self._freeze_limit:
                        self._freeze_streak += 1
                        return
                    active.reset_similarity_record()
            self._freeze_streak = 0
            active.record_similarity(active.fingerprint.means, fp_buffer, sim)
        if self._error_dim >= 0:
            active.error_stats.update(float(fp_buffer[self._error_dim]))
        active.fingerprint.incorporate(fp_buffer)

    # -- Step III-A: model selection ----------------------------------------
    def _model_select(self) -> Optional[ConceptState]:
        """The accepted candidate with the highest similarity, if any."""
        if len(self._window) < self.config.window_size:
            return None
        self.selection_events += 1
        best: Optional[Tuple[float, ConceptState]] = None
        for state in self.repository.states():
            if state.fingerprint.count < 2 or state.sim_stats.count < 2:
                continue
            fp = self._fingerprint_under(state)
            self.normalizer.update(fp)
            accepted, sim = self._accepts(state, fp)
            if accepted and (best is None or sim > best[0]):
                best = (sim, state)
        return None if best is None else best[1]

    def _set_active(self, state: ConceptState) -> None:
        self._active = state
        state.last_active_step = self._step
        self._change_marker = state.classifier.change_marker()
        self._switch_step = self._step
        self._recent_fa = {}
        self._abnormal_streak = 0
        self._freeze_streak = 0
        self._detector = self._new_detector()

    def _new_concept(self) -> ConceptState:
        # Eviction never takes the active concept unless it must.
        protect = (self._active.state_id,) if self.config.max_repository_size > 1 else ()
        return self._new_state(protect)

    def _on_drift(self) -> None:
        self.drift_points.append(self._step)
        selected = self._model_select()
        if selected is None:
            state = self._new_concept()
            self._created_at_drift = state.state_id
            self._set_active(state)
        else:
            self._created_at_drift = None
            self._set_active(selected)
        # Reproduction choice: re-check once A is fully post-drift.
        self._pending_recheck = self._step + self.config.window_size

    def _second_selection(self) -> None:
        """The re-check: switch, keep, or start over; a state created at
        drift time is removed as spurious when a recurrence wins."""
        selected = self._model_select()
        created, self._created_at_drift = self._created_at_drift, None
        if selected is None:
            active = self._active
            if active.fingerprint.count >= 2 and active.sim_stats.count >= 2:
                accepted, _ = self._accepts(active, self._fingerprint_under(active))
                if not accepted:
                    self._set_active(self._new_concept())
            return
        if selected.state_id == self._active.state_id:
            return
        spurious = created is not None and self._active.state_id == created
        self._set_active(selected)
        if spurious and created in self.repository:
            self.repository.remove(created)

    # -- Step III-B support: non-active fingerprints -------------------------
    def _repository_step(self) -> None:
        track = self.config.track_discrimination
        z_others: List[float] = []
        for state in self.repository.states():
            if state.state_id == self._active.state_id or state.fingerprint.count < 1:
                continue
            fp = self._fingerprint_under(state)
            self.normalizer.update(fp)
            state.nonactive.incorporate(fp)
            if track and state.sim_stats.count >= 2:
                # Tables III / V: z-score of the window under this concept.
                mu, sigma = self._record(state)
                z_others.append((self._sim(state.fingerprint.means, fp) - mu) / sigma)
        active = self._active
        if (
            z_others
            and active.fingerprint.count >= 2
            and active.sim_stats.count >= 2
        ):
            fp = self._fingerprint_under(active)
            mu, sigma = self._record(active)
            z_active = (self._sim(active.fingerprint.means, fp) - mu) / sigma
            self.discrimination_samples.append(float(z_active - np.mean(z_others)))


# ----------------------------------------------------------------------
# The prequential loop
# ----------------------------------------------------------------------
def reference_prequential_run(
    system: ReferenceFicsum, stream: Stream, oracle_drift: bool = False
) -> RunResult:
    """Test-then-train over the whole stream, one observation at a time.

    The paper's evaluation protocol without the engine's loop (no
    buffer, checkpoints or fault sites): under oracle drift, signal
    drift when the ground-truth concept changes, then process the
    observation, score its prediction and record the traces.
    """
    confusion = ConfusionMatrix(stream.meta.n_classes)
    concept_ids: List[int] = []
    state_ids: List[int] = []
    previous_concept: Optional[int] = None
    start = time.perf_counter()
    for x, y, concept_id in stream:
        if oracle_drift and previous_concept is not None and concept_id != previous_concept:
            system.signal_drift()
        previous_concept = concept_id
        prediction = system.process(x, y)
        confusion.update(y, prediction)
        concept_ids.append(concept_id)
        state_ids.append(system.active_state_id)
    return RunResult(
        accuracy=confusion.accuracy,
        kappa=confusion.kappa,
        c_f1=co_occurrence_f1(concept_ids, state_ids),
        runtime_s=time.perf_counter() - start,
        n_observations=len(state_ids),
        n_drifts=system.n_drifts_detected,
        n_states=len(set(state_ids)),
        discrimination=list(system.discrimination_samples),
        concept_ids=concept_ids,
        state_ids=state_ids,
    )
