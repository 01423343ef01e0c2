"""The Hoeffding tree's kernels equal the plain tree of ``tests/reference.py``.

:class:`~repro.classifiers.HoeffdingTree` leaves keep their naive-Bayes
terms (variances, their logs, log priors, total weight) current as they
learn, and the split search scores every feature × threshold in one
pass.  :class:`reference.ReferenceHoeffdingTree` recomputes the terms
for every score and walks the thresholds one by one with a scalar
entropy.  On random streams the two must agree byte for byte:
test-then-train predictions, ``predict_batch``,
``predict_proba_batch``, :meth:`ClassifierBank.predict_batch_many`
blocks and every ranked split list an attempt computes.  Every leaf's
statistics, read from the tree's arrays, must equal the reference
leaf's, and its stored terms a recompute from those statistics alone,
also after a pickle or ``state_dict`` round trip, from which the tree
must learn on identically.

Stream seeds honour ``REPRO_SEED`` (see :mod:`equivalence`), so CI's
equivalence matrix draws three distinct sets of streams.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from typing import Iterator, List

import numpy as np
import pytest
import reference
from equivalence import SEED_OFFSET
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import ReferenceHoeffdingTree

from repro.classifiers import ClassifierBank, HoeffdingTree
from repro.classifiers import hoeffding_tree

STATISTICS = ("class_counts", "means", "m2", "mins", "maxs")
#: Each leaf scalar of the reference and the tree's per-leaf array of it.
SCALARS = (
    ("weight_at_last_attempt", "weight_at_last_attempt"),
    ("depth", "leaf_depth"),
    ("mc_correct", "mc_correct"),
    ("nb_correct", "nb_correct"),
)


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _ranked_bytes(ranked: List[tuple]) -> List[tuple]:
    return [(_bytes(gain), feature, _bytes(thr)) for gain, feature, thr in ranked]


@contextmanager
def recorded_splits(leaf_class) -> Iterator[List[list]]:
    """Record every ranked split list ``leaf_class.best_splits`` returns."""
    calls: List[list] = []
    original = leaf_class.best_splits

    def record(leaf, *args):
        ranked = original(leaf, *args)
        calls.append(_ranked_bytes(ranked))
        return ranked

    leaf_class.best_splits = record
    try:
        yield calls
    finally:
        leaf_class.best_splits = original


def leaf_slots(tree: HoeffdingTree) -> List[int]:
    """The tree's leaf slots, left to right, walking its node tables."""
    found, stack = [], [0]
    while stack:
        node = stack.pop()
        if tree.feature[node] >= 0:
            stack += [tree.right[node], tree.left[node]]
        else:
            found.append(int(tree.leaf_of[node]))
    return found


def ref_leaves(ref: ReferenceHoeffdingTree) -> list:
    """The reference tree's leaf objects, left to right."""
    found, stack = [], [ref._root]
    while stack:
        node = stack.pop()
        if isinstance(node, reference._SplitNode):
            stack += [node.right, node.left]
        else:
            found.append(node)
    return found


def recomputed_terms(class_counts: np.ndarray, m2: np.ndarray) -> tuple:
    """A leaf's naive-Bayes terms, computed from its statistics alone."""
    counts = np.maximum(class_counts, 1.0)[:, None]
    variances = np.maximum(m2 / counts, 1e-9)
    log_prior = np.where(
        class_counts > 0,
        np.log(np.maximum(class_counts, 1e-12)),
        -1e9,
    )
    return variances, np.log(variances), log_prior, class_counts.sum()


def assert_leaves_match(tree: HoeffdingTree, ref: ReferenceHoeffdingTree) -> None:
    """Same leaves with the same statistics, read from the tree's
    arrays; its stored terms equal a recompute."""
    slots = leaf_slots(tree)
    want = ref_leaves(ref)
    assert len(slots) == len(want)
    assert sorted(slots) == list(range(tree.n_leaves))
    for slot, ref_leaf in zip(slots, want):
        for name in STATISTICS:
            got = getattr(tree, name)[slot]
            assert _bytes(got) == _bytes(getattr(ref_leaf, name)), name
        for name, block in SCALARS:
            assert getattr(tree, block)[slot] == getattr(ref_leaf, name), name
        if ref_leaf.feature_subset is None:
            assert tree.feature_subset is None
        else:
            assert np.array_equal(tree.feature_subset[slot], ref_leaf.feature_subset)
        class_counts = tree.class_counts[slot]
        variances, log_variances, log_prior, total = recomputed_terms(
            class_counts, tree.m2[slot]
        )
        assert _bytes(tree.nb_variances[slot]) == _bytes(variances)
        assert _bytes(tree.nb_log_variances[slot]) == _bytes(log_variances)
        assert _bytes(tree.nb_log_prior[slot]) == _bytes(log_prior)
        assert _bytes(tree.total_weight[slot]) == _bytes(total)
        assert _bytes(tree.total_weight[slot]) == _bytes(ref_leaf.total_weight)


def assert_trees_match(tree: HoeffdingTree, ref: ReferenceHoeffdingTree) -> None:
    assert (tree.n_splits, tree.n_leaves) == (ref.n_splits, ref.n_leaves)
    assert _bytes(tree.feature_importances) == _bytes(ref.feature_importances)
    assert_leaves_match(tree, ref)


def make_stream(
    seed: int,
    n_rows: int,
    n_classes: int,
    exponents: List[int],
    constant: List[bool],
    prefix: int,
) -> tuple:
    """Rows at per-feature magnitudes ``10**exponent``, labels from a
    random linear rule, the first ``prefix`` rows all of one class."""
    rng = np.random.default_rng(seed + SEED_OFFSET)
    n_features = len(exponents)
    unit = rng.normal(size=(n_rows, n_features))
    unit[:, constant] = rng.normal(size=int(np.sum(constant)))
    weights = rng.normal(size=n_features)
    score = unit @ weights + 0.3 * rng.normal(size=n_rows)
    cuts = np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1])
    y = np.digitize(score, cuts).astype(np.int64)
    y[:prefix] = rng.integers(n_classes)
    X = unit * 10.0 ** np.asarray(exponents, dtype=np.float64)
    return X, y


@st.composite
def tree_cases(draw):
    n_classes = draw(st.integers(2, 4))
    n_features = draw(st.integers(1, 12))
    exponents = draw(
        st.lists(st.integers(-8, 8), min_size=n_features, max_size=n_features)
    )
    constant = draw(
        st.lists(st.booleans(), min_size=n_features, max_size=n_features)
    )
    n_rows = draw(st.integers(1, 400))
    X, y = make_stream(
        draw(st.integers(0, 2**32 - 1)),
        n_rows + 60,
        n_classes,
        exponents,
        constant,
        prefix=draw(st.integers(0, 120)),
    )
    params = dict(
        n_classes=n_classes,
        n_features=n_features,
        grace_period=draw(st.integers(5, 50)),
        leaf_prediction=draw(st.sampled_from(["mc", "nb", "nba"])),
        max_features=draw(
            st.one_of(st.none(), st.none(), st.integers(1, n_features))
        ),
        seed=draw(st.integers(0, 1000)),
    )
    return X, y, n_rows, params, draw(st.sampled_from([1, 7, 37]))


def train_both(X, y, params, chunk) -> tuple:
    """Test-then-train both trees over ``X`` in chunks; every ranked
    split list and every chunk's predictions must match."""
    tree = HoeffdingTree(**params)
    ref = ReferenceHoeffdingTree(**params)
    with recorded_splits(hoeffding_tree._LeafNode) as got_splits:
        with recorded_splits(reference._LeafNode) as want_splits:
            for start in range(0, len(y), chunk):
                rows = slice(start, start + chunk)
                got = tree.predict_learn_batch(X[rows], y[rows])
                want = ref.predict_learn_batch(X[rows], y[rows])
                assert got.tobytes() == want.tobytes()
    assert got_splits == want_splits
    return tree, ref


def assert_reads_match(trees, refs, X) -> None:
    """Batch reads and the bank's one-pass block equal the reference."""
    for tree, ref in zip(trees, refs):
        assert tree.predict_batch(X).tobytes() == ref.predict_batch(X).tobytes()
        assert (
            tree.predict_proba_batch(X).tobytes()
            == ref.predict_proba_batch(X).tobytes()
        )
    bank = ClassifierBank()
    for key, tree in enumerate(trees):
        bank.add(key, tree)
    block = bank.predict_batch_many(list(range(len(trees))), X)
    want = np.stack([ref.predict_batch(X) for ref in refs])
    assert block.tobytes() == want.tobytes()


@given(tree_cases())
@settings(max_examples=80, deadline=None)
def test_tree_equals_reference(case):
    X, y, n_rows, params, chunk = case
    tree, ref = train_both(X[:n_rows], y[:n_rows], params, chunk)
    assert_trees_match(tree, ref)
    probe = X[n_rows:]
    # A fresh tree (every leaf unseen) and a half-trained one share the
    # bank with the trained tree.
    fresh = HoeffdingTree(**params), ReferenceHoeffdingTree(**params)
    half = train_both(X[: n_rows // 2], y[: n_rows // 2], params, chunk)
    assert_reads_match([tree, fresh[0], half[0]], [ref, fresh[1], half[1]], probe)

    # Unpickled or loaded from its state dict, a tree rebuilds its terms
    # and learns on identically, its leaves views of its own arrays.
    loaded = HoeffdingTree(**params)
    loaded.load_state_dict(tree.state_dict())
    for restored in (pickle.loads(pickle.dumps(tree)), loaded):
        twin = pickle.loads(pickle.dumps(ref))
        assert_trees_match(restored, twin)
        got = restored.predict_learn_batch(probe, y[n_rows:])
        want = twin.predict_learn_batch(probe, y[n_rows:])
        assert got.tobytes() == want.tobytes()
        assert_trees_match(restored, twin)
        assert_reads_match([restored], [twin], X[:n_rows])


@pytest.mark.parametrize("n_split_points", [1, 2, 10])
@pytest.mark.parametrize("n_classes", [3, 10])
@pytest.mark.parametrize("mode", ["mc", "nb", "nba"])
def test_many_classes_and_split_points(mode, n_classes, n_split_points):
    """Up to 10 classes (Arabic's), whose entropy sums over 8 or more
    positive classes group differently in numpy's pairwise sum, and
    one, two or ten thresholds per feature."""
    X, y = make_stream(
        11 + n_classes, 1400, n_classes, [0, 3, -2, 0, 5, 0], [False] * 6, 0
    )
    params = dict(
        n_classes=n_classes,
        n_features=6,
        grace_period=20,
        leaf_prediction=mode,
        n_split_points=n_split_points,
        split_confidence=0.01,
        tie_threshold=0.5,
        seed=3,
    )
    tree, ref = train_both(X[:1200], y[:1200], params, chunk=7)
    assert tree.n_splits >= 1
    assert_trees_match(tree, ref)
    assert_reads_match([tree], [ref], X[1200:])
    # Loading sums every leaf's class counts as the leaf itself does.
    assert_trees_match(pickle.loads(pickle.dumps(tree)), ref)
