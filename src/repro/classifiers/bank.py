"""One-pass forest routing over a bank of Hoeffding trees.

Model selection re-labels the active window with *every* stored
concept's classifier.  Per-tree :meth:`HoeffdingTree.predict_batch` is
already vectorised within one tree, but a repository of ``R`` concepts
still pays ``R`` Python round-trips — one mask descent and one group of
naive-Bayes leaf kernels per tree — exactly where the framework should
be flat in ``R``.

The :class:`ClassifierBank` removes that fan-out.  A Hoeffding tree is
stored as arrays — node tables (split feature / threshold / child
indices / leaf slot) and stacked per-leaf naive-Bayes terms (class
counts, means, the variances, their logs and the log priors, total
weights) — so the bank reads the trees themselves.  On every call
:meth:`ClassifierBank.predict_batch_many` concatenates the requested
trees' live rows with index offsets, adds each leaf's predictor choice,
and

1. routes the ``(W, F)`` window through **all** trees simultaneously —
   an iterative frontier of ``(R, W)`` node indices descends one split
   level per pass, so the whole forest costs ``O(max_depth)`` numpy
   operations instead of ``O(total split nodes)`` Python visits, and
2. scores every ``(tree, row)`` pair's leaf with **one** batched
   naive-Bayes kernel over the gathered sufficient statistics (plus
   one vectorised majority / uniform pass for the non-NB leaves),

returning an ``(R, W)`` prediction block.

Equivalence is the hard constraint, not a best effort: every float
comparison and reduction replays the per-tree path's operations
elementwise (descent comparisons, the log-pdf over the leaves' own
terms, sums over the contiguous feature axis, the exp-normalise-argmax
tail of :meth:`_LeafNode.predict_proba_batch`), so the block is
**bit-for-bit** ``np.stack([tree.predict_batch(X) for tree in trees])``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.classifiers.base import Classifier
from repro.classifiers.hoeffding_tree import HoeffdingTree


def _uses_nb(tree: HoeffdingTree) -> np.ndarray:
    """Each live leaf's predictor choice, hoisted exactly as
    :meth:`_LeafNode.predict_proba_batch` hoists it out of the rows."""
    n_leaves = tree.n_leaves
    if tree.leaf_prediction == "nba":
        return tree.nb_correct[:n_leaves] >= tree.mc_correct[:n_leaves]
    return np.full(n_leaves, tree.leaf_prediction == "nb")


class _StackedForest:
    """The concatenated node tables + leaf statistics of one request.

    Node/leaf indices are in the concatenated frame (per-tree offsets
    already applied); ``roots`` holds each tree's root node index.
    """

    def __init__(self, trees: List[HoeffdingTree]) -> None:
        n_nodes = np.array([t.n_nodes for t in trees])
        n_leaves = [t.n_leaves for t in trees]
        self.roots = np.concatenate(([0], np.cumsum(n_nodes)[:-1]))
        leaf_off = np.concatenate(([0], np.cumsum(n_leaves)[:-1]))
        rep_node = np.repeat(self.roots, n_nodes)

        def nodes(name: str) -> np.ndarray:
            return np.concatenate([getattr(t, name)[: t.n_nodes] for t in trees])

        def leaves(name: str) -> np.ndarray:
            return np.concatenate([getattr(t, name)[: t.n_leaves] for t in trees])

        self.feature = nodes("feature")
        self.threshold = nodes("threshold")
        # Child / leaf indices shift into the concatenated frame; the
        # -1 markers of leaf nodes shift too, but are never read (the
        # descent only follows children of split nodes).
        self.left = nodes("left") + rep_node
        self.right = nodes("right") + rep_node
        self.leaf_global = nodes("leaf_of") + np.repeat(leaf_off, n_nodes)
        self.class_counts = leaves("class_counts")
        self.means = leaves("means")
        self.nb_variances = leaves("nb_variances")
        self.nb_log_variances = leaves("nb_log_variances")
        self.nb_log_prior = leaves("nb_log_prior")
        self.total_weight = leaves("total_weight")
        self.use_nb = np.concatenate([_uses_nb(t) for t in trees])


class ClassifierBank:
    """Hoeffding trees keyed by state id.

    :meth:`~repro.core.repository.Repository.bank` adds every stored
    tree to a fresh bank per call.  :meth:`predict_batch_many` is the
    one read path: it stacks the requested trees' live rows on every
    call, so whatever the trees learned or grew before the call is what
    it scores, and nothing is kept in sync.
    """

    def __init__(self) -> None:
        self._trees: Dict[int, HoeffdingTree] = {}

    def add(self, key: int, classifier: Classifier) -> None:
        """Add a tree; any other classifier raises ``TypeError``."""
        if not isinstance(classifier, HoeffdingTree):
            raise TypeError(
                f"ClassifierBank holds Hoeffding trees, got "
                f"{type(classifier).__name__}"
            )
        self._trees[key] = classifier

    # -- the one-pass read path -----------------------------------------
    def predict_batch_many(
        self, keys: Sequence[int], X: np.ndarray
    ) -> np.ndarray:
        """``(R, W)`` predictions of every requested tree on ``X``.

        Bit-for-bit identical to stacking each requested tree's
        ``predict_batch(X)`` over ``keys``.
        """
        X = np.asarray(X, dtype=np.float64)
        trees = [self._trees[k] for k in keys]
        n_trees = len(trees)
        n_rows = X.shape[0]
        if n_trees == 0:
            return np.empty((0, n_rows), dtype=np.int64)
        shapes = {(t.n_classes, t.n_features) for t in trees}
        if len(shapes) != 1:
            raise ValueError(
                f"bank trees disagree on (n_classes, n_features): "
                f"{sorted(shapes)}"
            )
        (n_classes, _), = shapes
        if n_rows == 0:
            return np.empty((n_trees, 0), dtype=np.int64)
        forest = _StackedForest(trees)
        leaf_global = self._route(forest, X)
        return self._score_leaves(forest, X, leaf_global, n_classes)

    # ------------------------------------------------------------------
    @staticmethod
    def _route(forest: _StackedForest, X: np.ndarray) -> np.ndarray:
        """Mask-descend ``X`` through all trees at once.

        Returns the ``(R, W)`` global leaf index of every (tree, row)
        pair.  Per level, one gather reads each frontier node's split
        feature/threshold and one comparison advances every pair — the
        same ``X[idx, feature] <= threshold`` comparisons
        :meth:`HoeffdingTree._leaf_groups` makes tree by tree.
        """
        n_rows = X.shape[0]
        cur = np.repeat(forest.roots[:, None], n_rows, axis=1)
        cols = np.arange(n_rows)[None, :]
        while True:
            feat = forest.feature[cur]
            on_split = feat >= 0
            if not on_split.any():
                break
            x_vals = X[cols, np.where(on_split, feat, 0)]
            go_left = x_vals <= forest.threshold[cur]
            nxt = np.where(go_left, forest.left[cur], forest.right[cur])
            cur = np.where(on_split, nxt, cur)
        return forest.leaf_global[cur]

    @staticmethod
    def _score_leaves(
        forest: _StackedForest,
        X: np.ndarray,
        leaf_global: np.ndarray,
        n_classes: int,
    ) -> np.ndarray:
        """Batched leaf scoring of every (tree, row) pair.

        Three leaf categories, dispatched by mask exactly as
        :meth:`_LeafNode.predict_proba_batch` branches per leaf:
        unseen leaves predict uniformly (argmax 0), majority leaves
        share one per-leaf argmax, naive-Bayes leaves run one kernel
        over the gathered leaf terms whose elementwise operations and
        contiguous-axis reductions replay
        :meth:`_LeafNode._nb_log_scores_batch` and the exp-normalise
        tail lane for lane.
        """
        out = np.empty(leaf_global.shape, dtype=np.int64)
        pair_weight = forest.total_weight[leaf_global]
        pair_nb = forest.use_nb[leaf_global]
        unseen = pair_weight == 0
        majority = ~unseen & ~pair_nb
        nb = ~unseen & pair_nb

        # total_weight == 0: uniform probabilities, argmax row -> 0.
        out[unseen] = 0

        if majority.any():
            # probs = class_counts / class_counts.sum(); the per-leaf
            # argmax is shared by every row routed to that leaf.  The
            # stacked total_weight holds each leaf's total_weight, which
            # is that sum.
            counts = forest.class_counts
            totals = forest.total_weight
            bad = (totals <= 0) | ~np.isfinite(totals)
            probs = counts / np.where(bad, 1.0, totals)[:, None]
            probs[bad] = 1.0 / n_classes
            out[majority] = np.argmax(probs, axis=1)[leaf_global[majority]]

        if nb.any():
            g = leaf_global[nb]
            rows = np.broadcast_to(
                np.arange(X.shape[0])[None, :], leaf_global.shape
            )[nb]
            diff = X[rows][:, None, :] - forest.means[g]
            log_pdf = -0.5 * (
                forest.nb_log_variances[g] + diff * diff / forest.nb_variances[g]
            )
            scores = forest.nb_log_prior[g] + log_pdf.sum(axis=2)
            scores = scores - scores.max(axis=1, keepdims=True)
            probs = np.exp(scores)
            totals = probs.sum(axis=1)
            bad = (totals <= 0) | ~np.isfinite(totals)
            if bad.any():
                probs[bad] = 1.0 / n_classes
                totals[bad] = 1.0
            probs = probs / totals[:, None]
            out[nb] = np.argmax(probs, axis=1)
        return out


__all__ = ["ClassifierBank"]
