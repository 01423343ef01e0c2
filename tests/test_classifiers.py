"""Tests for the incremental classifiers."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.classifiers import GaussianNaiveBayes, HoeffdingTree, MajorityClass
from repro.streams.synthetic import HyperplaneConcept, StaggerConcept


def prequential_accuracy(classifier, concept, rng, n=1000, skip=100):
    correct = 0
    counted = 0
    for i in range(n):
        x, y = concept.sample(rng)
        if i >= skip:
            correct += classifier.predict(x) == y
            counted += 1
        classifier.learn(x, y)
    return correct / counted


class TestHoeffdingTree:
    def test_proba_is_distribution(self, rng):
        tree = HoeffdingTree(n_classes=3, n_features=4)
        for _ in range(50):
            tree.learn(rng.random(4), int(rng.integers(0, 3)))
        probs = tree.predict_proba(rng.random(4))
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)

    def test_learns_stagger(self, rng):
        tree = HoeffdingTree(n_classes=2, n_features=3, grace_period=25)
        acc = prequential_accuracy(tree, StaggerConcept(0), rng, n=1500)
        assert acc > 0.9, f"HT only reached {acc:.3f} on STAGGER"

    def test_learns_hyperplane(self, rng):
        tree = HoeffdingTree(n_classes=2, n_features=3, grace_period=25)
        concept = HyperplaneConcept(seed=0, n_features=3, noise=0.0)
        acc = prequential_accuracy(tree, concept, rng, n=2000)
        assert acc > 0.85, f"HT only reached {acc:.3f} on a hyperplane"

    def test_beats_majority_class(self, rng):
        tree = HoeffdingTree(n_classes=2, n_features=3, grace_period=25)
        majority = MajorityClass(n_classes=2)
        concept = StaggerConcept(1)
        tree_acc = prequential_accuracy(tree, concept, rng, n=1200)
        maj_acc = prequential_accuracy(majority, concept, rng, n=1200)
        assert tree_acc > maj_acc + 0.1

    def test_grows_splits(self, rng):
        tree = HoeffdingTree(
            n_classes=2, n_features=3, grace_period=25, tie_threshold=0.2
        )
        concept = StaggerConcept(0)
        for _ in range(2000):
            x, y = concept.sample(rng)
            tree.learn(x, y)
        assert tree.n_splits > 0
        assert tree.n_leaves == tree.n_splits + 1

    def test_freed_without_cyclic_collector(self, rng):
        """A leaf holds no reference to its tree, so a dropped split
        tree is freed at once, with the cyclic collector off."""
        tree = HoeffdingTree(
            n_classes=2, n_features=3, grace_period=25, tie_threshold=0.2
        )
        concept = StaggerConcept(0)
        for _ in range(2000):
            x, y = concept.sample(rng)
            tree.learn(x, y)
        assert tree.n_splits > 0
        ref = weakref.ref(tree)
        gc.disable()
        try:
            del tree
            assert ref() is None
        finally:
            gc.enable()

    def test_change_marker_monotone(self, rng):
        tree = HoeffdingTree(
            n_classes=2, n_features=3, grace_period=25, tie_threshold=0.2
        )
        markers = []
        concept = StaggerConcept(0)
        for _ in range(2000):
            x, y = concept.sample(rng)
            tree.learn(x, y)
            markers.append(tree.change_marker())
        assert markers == sorted(markers)
        assert markers[-1] > 0

    def test_max_depth_respected(self, rng):
        tree = HoeffdingTree(
            n_classes=2, n_features=3, grace_period=10, max_depth=2
        )
        concept = StaggerConcept(0)
        for _ in range(3000):
            x, y = concept.sample(rng)
            tree.learn(x, y)
        assert tree.depth <= 2

    def test_max_leaves_respected(self, rng):
        tree = HoeffdingTree(
            n_classes=2, n_features=5, grace_period=10, max_leaves=8
        )
        for _ in range(3000):
            tree.learn(rng.random(5), int(rng.random() < rng.random()))
        assert tree.n_leaves <= 8

    def test_feature_subspace_restricts_splits(self, rng):
        # Label depends only on feature 0; with the subspace forced to
        # exclude it at the root the tree must split elsewhere or not at
        # all -> importances on feature 0 stay 0 whenever max_features=1
        # and the sampled subset misses it.  Statistical smoke check:
        tree = HoeffdingTree(
            n_classes=2, n_features=6, grace_period=25, max_features=2, seed=3
        )
        for _ in range(1500):
            x = rng.random(6)
            tree.learn(x, int(x[0] > 0.5))
        leaf = tree._sort_to_leaf(rng.random(6))
        assert leaf.feature_subset is not None
        assert len(leaf.feature_subset) == 2

    def test_feature_importance_identifies_signal(self, rng):
        tree = HoeffdingTree(n_classes=2, n_features=5, grace_period=25)
        for _ in range(2000):
            x = rng.random(5)
            tree.learn(x, int(x[2] > 0.5))
        assert np.argmax(tree.feature_importances) == 2

    def test_predict_batch_matches_predict(self, trained_tree, rng):
        X = rng.random((20, 3)) * 2
        batch = trained_tree.predict_batch(X)
        single = np.array([trained_tree.predict(x) for x in X])
        np.testing.assert_array_equal(batch, single)

    def test_label_validation(self):
        tree = HoeffdingTree(n_classes=2, n_features=2)
        with pytest.raises(ValueError):
            tree.learn(np.zeros(2), 5)

    def test_invalid_leaf_prediction(self):
        with pytest.raises(ValueError):
            HoeffdingTree(n_classes=2, n_features=2, leaf_prediction="bogus")

    def test_uniform_before_training(self):
        tree = HoeffdingTree(n_classes=4, n_features=2)
        probs = tree.predict_proba(np.zeros(2))
        np.testing.assert_allclose(probs, 0.25)


class TestGaussianNaiveBayes:
    def test_separable_blobs(self, rng):
        nb = GaussianNaiveBayes(n_classes=2, n_features=2)
        for _ in range(400):
            y = int(rng.random() < 0.5)
            x = rng.normal(loc=3.0 * y, scale=0.5, size=2)
            nb.learn(x, y)
        assert nb.predict(np.array([0.0, 0.0])) == 0
        assert nb.predict(np.array([3.0, 3.0])) == 1

    def test_proba_normalised(self, rng):
        nb = GaussianNaiveBayes(n_classes=3, n_features=4)
        for _ in range(60):
            nb.learn(rng.random(4), int(rng.integers(0, 3)))
        probs = nb.predict_proba(rng.random(4))
        assert probs.sum() == pytest.approx(1.0)

    def test_unseen_class_gets_negligible_probability(self, rng):
        nb = GaussianNaiveBayes(n_classes=3, n_features=2)
        for _ in range(100):
            nb.learn(rng.normal(size=2), int(rng.integers(0, 2)))  # class 2 never
        probs = nb.predict_proba(np.zeros(2))
        assert probs[2] < 1e-6

    def test_uniform_before_training(self):
        nb = GaussianNaiveBayes(n_classes=2, n_features=2)
        np.testing.assert_allclose(nb.predict_proba(np.zeros(2)), 0.5)

    def test_constant_feature_does_not_crash(self):
        nb = GaussianNaiveBayes(n_classes=2, n_features=1)
        for y in (0, 1, 0, 1):
            nb.learn(np.array([1.0]), y)
        probs = nb.predict_proba(np.array([1.0]))
        assert np.all(np.isfinite(probs))


class TestMajorityClass:
    def test_predicts_mode(self):
        m = MajorityClass(n_classes=3)
        for y in (0, 1, 1, 2, 1):
            m.learn(np.zeros(1), y)
        assert m.predict(np.zeros(1)) == 1

    def test_label_validation(self):
        m = MajorityClass(n_classes=2)
        with pytest.raises(ValueError):
            m.learn(np.zeros(1), -1)
