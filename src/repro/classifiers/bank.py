"""One-pass forest routing over a bank of Hoeffding trees.

Model selection re-labels the active window with *every* stored
concept's classifier.  Per-tree :meth:`HoeffdingTree.predict_batch` is
already vectorised within one tree, but a repository of ``R`` concepts
still pays ``R`` Python round-trips — one recursive mask descent and
one group of naive-Bayes leaf kernels per tree — exactly where the
framework should be flat in ``R``.

The :class:`ClassifierBank` removes that fan-out.  Each tree is
flattened once into a :class:`TreePlan` — contiguous per-node arrays
(split feature / threshold / child indices) plus contiguous per-leaf
naive-Bayes terms (class counts, means, the variances, their logs and
the log priors each leaf keeps, total weights, the leaf-predictor
choice) — and invalidated by version counters
(``n_splits`` for structure, ``n_learns`` for statistics).
:meth:`ClassifierBank.predict_batch_many` then
concatenates the requested plans with index offsets and

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

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.classifiers.base import Classifier
from repro.classifiers.hoeffding_tree import HoeffdingTree, _LeafNode, _SplitNode


class TreePlan:
    """Flattened routing table + leaf statistics of one Hoeffding tree.

    Node arrays use local (per-tree) indices with the root at 0;
    ``feature == -1`` marks a leaf and ``leaf_local`` maps it into the
    plan's leaf-statistics arrays.  :meth:`sync` re-flattens when the
    tree grew a branch (``n_splits`` moved) and re-pulls the leaf
    naive-Bayes terms when the tree learned (``n_learns`` moved) —
    inactive concepts' plans therefore stay valid across selection
    events for free.
    """

    __slots__ = (
        "tree",
        "n_nodes",
        "n_leaves",
        "feature",
        "threshold",
        "left",
        "right",
        "leaf_local",
        "_leaves",
        "class_counts",
        "means",
        "nb_variances",
        "nb_log_variances",
        "nb_log_prior",
        "total_weight",
        "use_nb",
        "_structure_version",
        "_stats_version",
    )

    def __init__(self, tree: HoeffdingTree) -> None:
        self.tree = tree
        self._structure_version = -1
        self._stats_version = -1
        self.sync()

    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Bring the plan up to date with the backing tree."""
        if self.tree.n_splits != self._structure_version:
            self._flatten()
            self._pull_stats()
            self._structure_version = self.tree.n_splits
            self._stats_version = self.tree.n_learns
        elif self.tree.n_learns != self._stats_version:
            self._pull_stats()
            self._stats_version = self.tree.n_learns

    def _flatten(self) -> None:
        """Preorder walk of the tree into contiguous node arrays."""
        features: List[int] = []
        thresholds: List[float] = []
        lefts: List[int] = []
        rights: List[int] = []
        leaf_ids: List[int] = []
        leaves: List[_LeafNode] = []

        def visit(node: object) -> int:
            idx = len(features)
            features.append(-1)
            thresholds.append(0.0)
            lefts.append(-1)
            rights.append(-1)
            leaf_ids.append(-1)
            if isinstance(node, _SplitNode):
                features[idx] = node.feature
                thresholds[idx] = node.threshold
                lefts[idx] = visit(node.left)
                rights[idx] = visit(node.right)
            else:
                leaf_ids[idx] = len(leaves)
                leaves.append(node)
            return idx

        visit(self.tree._root)
        self.n_nodes = len(features)
        self.n_leaves = len(leaves)
        self.feature = np.array(features, dtype=np.int64)
        self.threshold = np.array(thresholds, dtype=np.float64)
        self.left = np.array(lefts, dtype=np.int64)
        self.right = np.array(rights, dtype=np.int64)
        self.leaf_local = np.array(leaf_ids, dtype=np.int64)
        self._leaves = leaves

    def _pull_stats(self) -> None:
        """Copy every leaf's naive-Bayes terms into one block."""
        tree = self.tree
        n_classes = tree.n_classes
        n_features = tree.n_features
        n = self.n_leaves
        self.class_counts = np.empty((n, n_classes))
        self.means = np.empty((n, n_classes, n_features))
        self.nb_variances = np.empty((n, n_classes, n_features))
        self.nb_log_variances = np.empty((n, n_classes, n_features))
        self.nb_log_prior = np.empty((n, n_classes))
        self.total_weight = np.empty(n)
        use_nb = np.empty(n, dtype=bool)
        mode = tree.leaf_prediction
        for i, leaf in enumerate(self._leaves):
            self.class_counts[i] = leaf.class_counts
            self.means[i] = leaf.means
            self.nb_variances[i] = leaf.nb_variances
            self.nb_log_variances[i] = leaf.nb_log_variances
            self.nb_log_prior[i] = leaf.nb_log_prior
            self.total_weight[i] = leaf.total_weight
            # The per-leaf predictor choice, hoisted exactly as
            # _LeafNode.predict_proba_batch hoists it out of the rows.
            use_nb[i] = mode == "nb" or (
                mode == "nba" and leaf.nb_correct >= leaf.mc_correct
            )
        self.use_nb = use_nb


class _StackedForest:
    """The concatenated node tables + leaf statistics of one request.

    Node/leaf indices are in the concatenated frame (per-plan offsets
    already applied); ``roots`` holds each tree's root node index.
    """

    __slots__ = (
        "roots",
        "feature",
        "threshold",
        "left",
        "right",
        "leaf_global",
        "class_counts",
        "means",
        "nb_variances",
        "nb_log_variances",
        "nb_log_prior",
        "total_weight",
        "use_nb",
    )

    def __init__(self, plans: List[TreePlan]) -> None:
        n_nodes = np.array([p.n_nodes for p in plans])
        self.roots = np.concatenate(([0], np.cumsum(n_nodes)[:-1]))
        leaf_off = np.concatenate(
            ([0], np.cumsum([p.n_leaves for p in plans])[:-1])
        )
        rep_node = np.repeat(self.roots, n_nodes)
        self.feature = np.concatenate([p.feature for p in plans])
        self.threshold = np.concatenate([p.threshold for p in plans])
        # Child / leaf indices shift into the concatenated frame; the
        # -1 markers of leaf slots shift too, but are never read (the
        # descent only follows children of split nodes).
        self.left = np.concatenate([p.left for p in plans]) + rep_node
        self.right = np.concatenate([p.right for p in plans]) + rep_node
        self.leaf_global = np.concatenate([p.leaf_local for p in plans])
        self.leaf_global += np.repeat(leaf_off, n_nodes)
        self.class_counts = np.concatenate([p.class_counts for p in plans])
        self.means = np.concatenate([p.means for p in plans])
        self.nb_variances = np.concatenate([p.nb_variances for p in plans])
        self.nb_log_variances = np.concatenate(
            [p.nb_log_variances for p in plans]
        )
        self.nb_log_prior = np.concatenate([p.nb_log_prior for p in plans])
        self.total_weight = np.concatenate([p.total_weight for p in plans])
        self.use_nb = np.concatenate([p.use_nb for p in plans])


class ClassifierBank:
    """Write-through store of :class:`TreePlan`\\ s keyed by state id.

    The repository adds and removes a state's plan whenever it stores
    or drops the state; :meth:`predict_batch_many` is the one
    read path and refreshes stale plans lazily through their version
    counters.  The concatenated request tables are memoised on the
    requested keys plus every plan's version pair, so the steady state
    — same candidate set, only the active tree learning — re-stacks
    nothing for the inactive trees' sake.
    """

    def __init__(self) -> None:
        self._plans: Dict[int, TreePlan] = {}
        self._stack_key: object = None
        self._stack: Optional[_StackedForest] = None

    # -- membership ----------------------------------------------------
    @staticmethod
    def supports(classifier: Classifier) -> bool:
        """Can this classifier join the bank?"""
        return isinstance(classifier, HoeffdingTree)

    def add(self, key: int, classifier: Classifier) -> None:
        if not self.supports(classifier):
            raise TypeError(
                f"ClassifierBank holds Hoeffding trees, got "
                f"{type(classifier).__name__}"
            )
        self._plans[key] = TreePlan(classifier)

    def remove(self, key: int) -> None:
        self._plans.pop(key, None)

    def __contains__(self, key: int) -> bool:
        return key in self._plans

    def __len__(self) -> int:
        return len(self._plans)

    # -- the one-pass read path -----------------------------------------
    def predict_batch_many(
        self, keys: Sequence[int], X: np.ndarray
    ) -> np.ndarray:
        """``(R, W)`` predictions of every requested tree on ``X``.

        Bit-for-bit identical to stacking
        ``self._plans[k].tree.predict_batch(X)`` over ``keys``.
        """
        X = np.asarray(X, dtype=np.float64)
        plans = [self._plans[k] for k in keys]
        n_trees = len(plans)
        n_rows = X.shape[0]
        if n_trees == 0:
            return np.empty((0, n_rows), dtype=np.int64)
        for plan in plans:
            plan.sync()
        shapes = {
            (p.tree.n_classes, p.tree.n_features) for p in plans
        }
        if len(shapes) != 1:
            raise ValueError(
                f"bank trees disagree on (n_classes, n_features): "
                f"{sorted(shapes)}"
            )
        (n_classes, _), = shapes
        if n_rows == 0:
            return np.empty((n_trees, 0), dtype=np.int64)

        stack_key = (
            tuple(keys),
            tuple((p._structure_version, p._stats_version) for p in plans),
        )
        if stack_key != self._stack_key:
            self._stack = _StackedForest(plans)
            self._stack_key = stack_key
        forest = self._stack
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


__all__ = ["ClassifierBank", "TreePlan"]
