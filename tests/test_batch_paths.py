"""Vectorised classifier batch paths must match the scalar paths exactly.

The chunked stream engine and the shared-window extraction cache both
lean on ``predict_batch`` / ``predict_proba_batch`` /
``predict_learn_batch`` being *bit-identical* to the per-observation
loops they replace — these tests pin that contract for every
classifier, including post-split trees and empty-leaf edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.classifiers import HoeffdingTree
from repro.classifiers.base import Classifier
from repro.classifiers.majority import MajorityClass
from repro.classifiers.naive_bayes import GaussianNaiveBayes
from repro.utils.windows import ArrayRing, ObservationWindow

N_FEATURES = 5
N_CLASSES = 3


def make_stream(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, N_FEATURES))
    y = np.digitize(X[:, 0] + 0.5 * X[:, 1], [-0.5, 0.5]).astype(np.int64)
    return X, y


def classifier_cases():
    return [
        ("ht-nba", lambda: HoeffdingTree(N_CLASSES, N_FEATURES, grace_period=30, seed=3), 1500),
        ("ht-mc", lambda: HoeffdingTree(N_CLASSES, N_FEATURES, leaf_prediction="mc", grace_period=30, seed=3), 1500),
        ("ht-nb", lambda: HoeffdingTree(N_CLASSES, N_FEATURES, leaf_prediction="nb", grace_period=30, seed=3), 1500),
        ("ht-empty", lambda: HoeffdingTree(N_CLASSES, N_FEATURES, seed=3), 0),
        ("gnb", lambda: GaussianNaiveBayes(N_CLASSES, N_FEATURES), 500),
        ("gnb-empty", lambda: GaussianNaiveBayes(N_CLASSES, N_FEATURES), 0),
        ("majority", lambda: MajorityClass(N_CLASSES), 50),
        ("majority-empty", lambda: MajorityClass(N_CLASSES), 0),
    ]


@pytest.mark.parametrize(
    "name,factory,n_train", classifier_cases(), ids=[c[0] for c in classifier_cases()]
)
def test_predict_batch_matches_scalar_loop(name, factory, n_train):
    clf = factory()
    X, y = make_stream(max(n_train, 1), seed=7)
    for i in range(n_train):
        clf.learn(X[i], int(y[i]))
    if name.startswith("ht") and not name.endswith("empty"):
        assert clf.n_splits >= 1  # the batch router must cross split nodes

    Xt, _ = make_stream(150, seed=8)
    Xt[10] = Xt[11]  # exact duplicates exercise score ties

    batch = clf.predict_batch(Xt)
    loop = np.array([clf.predict(x) for x in Xt], dtype=np.int64)
    assert np.array_equal(batch, loop)

    proba_batch = clf.predict_proba_batch(Xt)
    proba_loop = np.stack([clf.predict_proba(x) for x in Xt])
    assert np.array_equal(proba_batch, proba_loop)


@pytest.mark.parametrize("mode", ["nba", "mc", "nb"])
def test_predict_learn_batch_matches_sequential(mode):
    """Chunked test-then-train == per-observation loop, splits included."""
    t_seq = HoeffdingTree(N_CLASSES, N_FEATURES, grace_period=25, leaf_prediction=mode, seed=11)
    t_batch = HoeffdingTree(N_CLASSES, N_FEATURES, grace_period=25, leaf_prediction=mode, seed=11)
    X, y = make_stream(2500, seed=12)

    expected = np.empty(len(y), dtype=np.int64)
    for i in range(len(y)):
        expected[i] = t_seq.predict(X[i])
        t_seq.learn(X[i], int(y[i]))
    got = t_batch.predict_learn_batch(X, y)

    assert np.array_equal(expected, got)
    assert t_seq.n_splits == t_batch.n_splits >= 1
    assert t_seq.n_leaves == t_batch.n_leaves
    probe, _ = make_stream(200, seed=13)
    assert np.array_equal(t_seq.predict_batch(probe), t_batch.predict_batch(probe))


def _leaf_slots(tree):
    """The tree's leaf slots, left to right, walking its node tables."""
    slots, stack = [], [0]
    while stack:
        node = stack.pop()
        if tree.feature[node] >= 0:
            stack += [tree.right[node], tree.left[node]]
        else:
            slots.append(tree.leaf_of[node])
    return slots


def _adaptive_counts(tree):
    """Every leaf's ``(mc_correct, nb_correct)``, left to right."""
    return [(tree.mc_correct[s], tree.nb_correct[s]) for s in _leaf_slots(tree)]


@pytest.mark.parametrize("chunk", [1, 37])
@pytest.mark.parametrize("mode", ["mc", "nb", "nba"])
def test_predict_learn_batch_chunked_sequence_matches(mode, chunk):
    """Feeding chunks equals one long per-observation run.

    One-row chunks are what ``Ficsum.process`` sends; the trees start
    empty, so the first rows meet a zero-weight leaf.  Every leaf's
    adaptive bookkeeping (scored once per row on the chunked path)
    must match the per-observation tree's.
    """
    t_seq = HoeffdingTree(
        N_CLASSES, N_FEATURES, grace_period=20, leaf_prediction=mode, seed=5
    )
    t_batch = HoeffdingTree(
        N_CLASSES, N_FEATURES, grace_period=20, leaf_prediction=mode, seed=5
    )
    X, y = make_stream(1200, seed=6)
    expected = np.empty(len(y), dtype=np.int64)
    for i in range(len(y)):
        expected[i] = t_seq.predict(X[i])
        t_seq.learn(X[i], int(y[i]))
    got = []
    for start in range(0, len(y), chunk):
        got.append(
            t_batch.predict_learn_batch(
                X[start : start + chunk], y[start : start + chunk]
            )
        )
    assert np.array_equal(expected, np.concatenate(got))
    assert t_seq.n_splits == t_batch.n_splits >= 1
    assert _adaptive_counts(t_seq) == _adaptive_counts(t_batch)


def test_predict_learn_batch_max_features_falls_back_to_loop():
    """Random-subspace trees must keep per-observation rng draw order."""
    t_seq = HoeffdingTree(
        N_CLASSES, N_FEATURES, grace_period=10, max_features=3, tie_threshold=0.2, seed=7
    )
    t_batch = HoeffdingTree(
        N_CLASSES, N_FEATURES, grace_period=10, max_features=3, tie_threshold=0.2, seed=7
    )
    X, y = make_stream(2000, seed=15)
    expected = np.empty(len(y), dtype=np.int64)
    for i in range(len(y)):
        expected[i] = t_seq.predict(X[i])
        t_seq.learn(X[i], int(y[i]))
    got = t_batch.predict_learn_batch(X, y)
    assert np.array_equal(expected, got)
    assert t_seq.n_splits == t_batch.n_splits >= 1


def test_predict_learn_batch_default_loop():
    """The base-class fallback loops predict/learn in order."""
    a = GaussianNaiveBayes(N_CLASSES, N_FEATURES)
    b = GaussianNaiveBayes(N_CLASSES, N_FEATURES)
    X, y = make_stream(200, seed=20)
    expected = np.empty(len(y), dtype=np.int64)
    for i in range(len(y)):
        expected[i] = a.predict(X[i])
        a.learn(X[i], int(y[i]))
    got = Classifier.predict_learn_batch(b, X, y)
    assert np.array_equal(expected, got)


def test_predict_learn_batch_rejects_bad_labels():
    tree = HoeffdingTree(N_CLASSES, N_FEATURES, seed=1)
    X, y = make_stream(10, seed=1)
    y = y.copy()
    y[4] = N_CLASSES
    with pytest.raises(ValueError, match="out of range"):
        tree.predict_learn_batch(X, y)


def test_predict_batch_empty_input():
    tree = HoeffdingTree(N_CLASSES, N_FEATURES, seed=1)
    assert tree.predict_batch(np.empty((0, N_FEATURES))).shape == (0,)
    assert tree.predict_proba_batch(np.empty((0, N_FEATURES))).shape == (0, N_CLASSES)


# ----------------------------------------------------------------------
# Ring-buffer block writes (chunked-engine plumbing)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("block", [1, 3, 7, 12, 40])
def test_array_ring_extend_matches_append(block):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(131, 4))
    ring_a = ArrayRing(12, 4)
    ring_b = ArrayRing(12, 4)
    for start in range(0, len(values), block):
        chunk = values[start : start + block]
        for row in chunk:
            ring_a.append(row)
        ring_b.extend(chunk)
        assert len(ring_a) == len(ring_b)
        assert np.array_equal(ring_a.view(), ring_b.view())


def test_array_ring_extend_oversized_block():
    ring = ArrayRing(5)
    ring.extend(np.arange(23, dtype=np.float64))
    assert np.array_equal(ring.view(), np.arange(18, 23, dtype=np.float64))
    ref = ArrayRing(5)
    for v in np.arange(23, dtype=np.float64):
        ref.append(v)
    assert np.array_equal(ring.view(), ref.view())


def test_observation_window_extend_matches_append():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(60, 3))
    ys = rng.integers(0, 2, size=60)
    ps = rng.integers(0, 2, size=60)
    win_a = ObservationWindow(20, 3)
    win_b = ObservationWindow(20, 3)
    for i in range(60):
        win_a.append(xs[i], int(ys[i]), int(ps[i]))
    for start in range(0, 60, 9):
        win_b.extend(xs[start : start + 9], ys[start : start + 9], ps[start : start + 9])
    for a, b in zip(win_a.arrays(), win_b.arrays()):
        assert np.array_equal(a, b)
    assert win_a.full and win_b.full
