"""One-pass forest routing: bank exactness, pipeline block extraction
and FiCSUM wiring.

Three layers, each pinned bit-for-bit against a plain per-candidate
computation:

* :class:`ClassifierBank` — property tests over random grown trees
  (fresh/empty leaves, single-class leaves, post-split trees with
  seeded children, random-subspace trees, trees learning, growing and
  round-tripping between reads) assert the ``(R, W)`` block equals
  stacking per-tree :meth:`predict_batch` exactly;
* :meth:`FingerprintPipeline.extract_partial_many` — the all-candidate
  dependent-dims extraction equals sequential ``extract_partial`` (and
  the batch-reference ``extract``) including the permutation-importance
  rng stream, for every source set;
* the framework — on every whole-run scenario the bank serves the
  candidate stacks and the run is the plain Algorithm 1 of
  ``tests/reference.py`` observation for observation (ADWIN detection,
  the univariate ER variant, the full Table I component set, eviction
  pressure); a repository holding a non-tree classifier is refused.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from equivalence import (
    assert_identical_traces,
    build_system,
    run_config,
    run_scenario,
    scenario_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers import ClassifierBank, HoeffdingTree, MajorityClass
from repro.classifiers.bank import _StackedForest
from repro.evaluation.prequential import prequential_run
from repro.metafeatures import FingerprintPipeline


def _grown_tree(seed, n_classes=2, n_features=4, n_train=400, max_features=None):
    """A tree trained on a seeded linearly-separable-ish stream."""
    rng = np.random.default_rng(seed)
    tree = HoeffdingTree(
        n_classes,
        n_features,
        grace_period=25,
        max_features=max_features,
        seed=seed,
    )
    X = rng.normal(size=(n_train, n_features))
    y = (
        (X[:, 0] + 0.5 * X[:, seed % n_features]) > 0
    ).astype(np.int64) % n_classes
    for i in range(n_train):
        tree.learn(X[i], int(y[i]))
    return tree


def _assert_node_tables(tree):
    """The live node rows form one binary tree: every node is reached
    once from the root, split nodes number ``n_splits``, and each live
    leaf slot is mapped by exactly one leaf node."""
    assert tree.n_nodes == tree.n_leaves + tree.n_splits
    reached, slots, stack = [], [], [0]
    while stack:
        node = stack.pop()
        reached.append(node)
        if tree.feature[node] >= 0:
            assert tree.leaf_of[node] == -1
            stack += [tree.left[node], tree.right[node]]
        else:
            slots.append(tree.leaf_of[node])
    assert sorted(reached) == list(range(tree.n_nodes))
    assert sorted(slots) == list(range(tree.n_leaves))
    assert (tree.feature[: tree.n_nodes] >= 0).sum() == tree.n_splits


def _assert_bank_matches(trees, X):
    bank = ClassifierBank()
    for i, tree in enumerate(trees):
        bank.add(i, tree)
    block = bank.predict_batch_many(range(len(trees)), X)
    reference = np.stack([tree.predict_batch(X) for tree in trees])
    np.testing.assert_array_equal(block, reference)
    return bank


# ----------------------------------------------------------------------
# ClassifierBank: routing + batched NB scoring == per-tree predict_batch
# ----------------------------------------------------------------------
class TestClassifierBank:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_grown_trees_match_per_tree_batch(self, seed):
        """The property pin: any mix of grown trees, any window."""
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 5))
        n_features = int(rng.integers(2, 7))
        trees = [
            _grown_tree(
                seed * 31 + t,
                n_classes=n_classes,
                n_features=n_features,
                n_train=int(rng.integers(0, 600)),
            )
            for t in range(int(rng.integers(1, 6)))
        ]
        X = rng.normal(size=(int(rng.integers(1, 90)), n_features)) * 2.0
        _assert_bank_matches(trees, X)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_subspace_trees_match(self, seed):
        """ARF-style ``max_features`` trees route identically (the
        subspace only affects split *search*, never prediction)."""
        rng = np.random.default_rng(seed)
        n_features = int(rng.integers(3, 8))
        trees = [
            _grown_tree(
                seed * 17 + t,
                n_features=n_features,
                max_features=max(1, n_features // 2),
                n_train=800,
            )
            for t in range(3)
        ]
        X = rng.normal(size=(40, n_features))
        _assert_bank_matches(trees, X)

    def test_empty_trees_predict_uniform_argmax(self):
        """Fresh trees (zero-weight root leaf): uniform probabilities,
        argmax 0 — exactly the per-tree path."""
        trees = [HoeffdingTree(3, 2, seed=t) for t in range(3)]
        X = np.random.default_rng(0).normal(size=(10, 2))
        bank = _assert_bank_matches(trees, X)
        assert np.array_equal(
            bank.predict_batch_many([0, 1, 2], X), np.zeros((3, 10), np.int64)
        )

    def test_single_class_leaves(self):
        """Trees that only ever saw one label predict it everywhere."""
        rng = np.random.default_rng(3)
        trees = []
        for label in (0, 1, 2):
            tree = HoeffdingTree(3, 3, grace_period=10, seed=label)
            for _ in range(60):
                tree.learn(rng.normal(size=3), label)
            trees.append(tree)
        X = rng.normal(size=(25, 3))
        bank = _assert_bank_matches(trees, X)
        block = bank.predict_batch_many([0, 1, 2], X)
        for label in (0, 1, 2):
            assert np.all(block[label] == label)

    def test_post_split_trees_with_seeded_children(self):
        """Splits seed children's priors from the parent's split masses;
        freshly split trees must still match exactly."""
        trees = [_grown_tree(s, n_train=900) for s in (1, 2, 3)]
        assert all(t.n_splits >= 1 for t in trees)
        X = np.random.default_rng(9).normal(size=(60, 4)) * 3.0
        _assert_bank_matches(trees, X)

    def test_structure_and_stats_version_invalidation(self):
        """No version counters remain: the bank stacks the tree's live
        rows on every call, so a read right after the tree learns
        (statistics) or splits (structure) already sees the change."""
        tree = HoeffdingTree(2, 2, grace_period=25, leaf_prediction="mc", seed=0)
        bank = ClassifierBank()
        bank.add(0, tree)
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 2)) * 2.0
        for _ in range(5):
            tree.learn(rng.normal(size=2), 0)
        assert np.all(bank.predict_batch_many([0], X) == 0)

        # Learning without splitting flips the majority class.
        for _ in range(10):
            tree.learn(rng.normal(size=2), 1)
        assert tree.n_splits == 0
        read = bank.predict_batch_many([0], X)[0]
        np.testing.assert_array_equal(read, tree.predict_batch(X))
        assert np.all(read == 1)

        # Growing a branch: the routing tables change under the bank.
        while tree.n_splits == 0:
            x = rng.normal(size=2)
            tree.learn(x, int(x[0] > 0))
        read = bank.predict_batch_many([0], X)[0]
        np.testing.assert_array_equal(read, tree.predict_batch(X))
        assert set(read.tolist()) == {0, 1}

    def test_chunked_learning_moves_the_stats_version(self):
        """``predict_learn_batch`` bypasses ``learn()`` and writes the
        leaf blocks in place; the next bank read scores those rows."""
        tree = HoeffdingTree(2, 4, grace_period=500, leaf_prediction="mc", seed=7)
        bank = ClassifierBank()
        bank.add(0, tree)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 4))
        tree.predict_learn_batch(rng.normal(size=(20, 4)), np.zeros(20, np.int64))
        assert np.all(bank.predict_batch_many([0], X) == 0)
        tree.predict_learn_batch(rng.normal(size=(50, 4)), np.ones(50, np.int64))
        assert tree.n_splits == 0
        np.testing.assert_array_equal(tree.class_counts[0], [20.0, 50.0])
        assert tree.total_weight[0] == 70.0
        read = bank.predict_batch_many([0], X)[0]
        np.testing.assert_array_equal(read, tree.predict_batch(X))
        assert np.all(read == 1)

    def test_plan_covers_every_leaf(self):
        """The tree's own node tables, which the bank stacks, cover
        every leaf, and so does the stacked forest of two trees."""
        trees = [_grown_tree(13, n_train=900), _grown_tree(14, n_train=900)]
        for tree in trees:
            assert tree.n_splits >= 1
            _assert_node_tables(tree)
        forest = _StackedForest(trees)
        n_nodes = sum(t.n_nodes for t in trees)
        n_leaves = sum(t.n_leaves for t in trees)
        assert len(forest.feature) == n_nodes
        assert (forest.feature >= 0).sum() == sum(t.n_splits for t in trees)
        on_leaf = forest.feature < 0
        assert sorted(forest.leaf_global[on_leaf]) == list(range(n_leaves))
        assert len(forest.class_counts) == n_leaves

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_bank_reads_trees_through_learning_and_round_trips(self, seed):
        """The bank reads the trees' own arrays.  Across a random
        interleaving of test-then-train chunks (which grow branches) and
        pickle / ``state_dict`` round trips over R trees, every read
        equals stacking per-tree ``predict_batch``, and every tree's
        node tables stay one tree over its live leaf slots."""
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 4))
        n_features = int(rng.integers(2, 6))
        params = dict(
            n_classes=n_classes,
            n_features=n_features,
            grace_period=int(rng.integers(5, 30)),
            split_confidence=0.01,
            leaf_prediction=str(rng.choice(["mc", "nb", "nba"])),
        )
        trees = [HoeffdingTree(**params, seed=t) for t in range(rng.integers(1, 5))]
        bank = ClassifierBank()
        for key, tree in enumerate(trees):
            bank.add(key, tree)
        keys = list(range(len(trees)))
        X = rng.normal(size=(int(rng.integers(1, 60)), n_features)) * 2.0
        for _ in range(16):
            key = int(rng.integers(len(trees)))
            step = rng.random()
            if step < 0.6:
                rows = rng.normal(size=(int(rng.integers(1, 90)), n_features))
                labels = np.digitize(
                    rows[:, 0] + 0.5 * rows[:, -1], [-0.8, -0.2, 0.4, 1.0]
                ) % n_classes
                trees[key].predict_learn_batch(rows, labels)
            elif step < 0.8:
                trees[key] = pickle.loads(pickle.dumps(trees[key]))
            else:
                loaded = HoeffdingTree(**params)
                loaded.load_state_dict(trees[key].state_dict())
                trees[key] = loaded
            bank.add(key, trees[key])
            for tree in trees:
                _assert_node_tables(tree)
            np.testing.assert_array_equal(
                bank.predict_batch_many(keys, X),
                np.stack([tree.predict_batch(X) for tree in trees]),
            )

    def test_leaf_prediction_modes(self):
        """mc / nb / nba leaf predictors all route through the bank."""
        rng = np.random.default_rng(21)
        for mode in ("mc", "nb", "nba"):
            trees = []
            for t in range(3):
                tree = HoeffdingTree(
                    2, 3, grace_period=20, leaf_prediction=mode, seed=t
                )
                X = rng.normal(size=(250, 3))
                for i in range(250):
                    tree.learn(X[i], int(X[i, 0] > 0))
                trees.append(tree)
            _assert_bank_matches(trees, rng.normal(size=(30, 3)))

    def test_rejects_non_tree_classifiers(self):
        bank = ClassifierBank()
        with pytest.raises(TypeError):
            bank.add(0, MajorityClass(2))

    def test_rejects_mismatched_tree_shapes(self):
        bank = ClassifierBank()
        bank.add(0, HoeffdingTree(2, 3, seed=0))
        bank.add(1, HoeffdingTree(3, 3, seed=1))
        with pytest.raises(ValueError):
            bank.predict_batch_many([0, 1], np.zeros((4, 3)))

    def test_membership_and_empty_requests(self):
        bank = ClassifierBank()
        tree = _grown_tree(1)
        bank.add(7, tree)
        assert bank.predict_batch_many([], np.zeros((5, 4))).shape == (0, 5)
        assert bank.predict_batch_many([7], np.zeros((0, 4))).shape == (1, 0)
        with pytest.raises(KeyError):
            bank.predict_batch_many([8], np.zeros((5, 4)))


# ----------------------------------------------------------------------
# Pipeline block extraction == sequential partial extraction
# ----------------------------------------------------------------------
class TestExtractPartialMany:
    @pytest.fixture(scope="class")
    def window(self):
        rng = np.random.default_rng(0)
        W, D = 60, 5
        X = rng.normal(size=(W, D))
        ys = rng.integers(0, 2, size=W).astype(np.int64)
        trees = [_grown_tree(t, n_features=D, n_train=350) for t in range(6)]
        preds = np.stack([t.predict_batch(X) for t in trees])
        return X, ys, preds, trees

    @pytest.mark.parametrize(
        "source_set", ["all", "supervised", "unsupervised", "error_rate"]
    )
    def test_block_equals_sequential_partials(self, window, source_set):
        X, ys, preds, trees = window
        D = X.shape[1]
        ref_pipe = FingerprintPipeline(D, source_set=source_set)
        shared = ref_pipe.extract_shared(X, ys)
        reference = np.stack(
            [
                ref_pipe.extract_partial(
                    X, ys, preds[r], trees[r], shared=shared
                )
                for r in range(len(trees))
            ]
        )
        block = FingerprintPipeline(
            D, source_set=source_set
        ).extract_partial_many(X, ys, preds, trees)
        np.testing.assert_array_equal(block, reference)

    def test_block_equals_batch_reference(self, window):
        """Transitively: the block equals full ``extract`` per row,
        with the permutation-importance rng advancing in lockstep."""
        X, ys, preds, trees = window
        D = X.shape[1]
        full_pipe = FingerprintPipeline(D)
        reference = np.stack(
            [
                full_pipe.extract(X, ys, preds[r], trees[r])
                for r in range(len(trees))
            ]
        )
        block = FingerprintPipeline(D).extract_partial_many(
            X, ys, preds, trees
        )
        np.testing.assert_array_equal(block, reference)

    def test_empty_block(self, window):
        X, ys, _, _ = window
        pipe = FingerprintPipeline(X.shape[1])
        out = pipe.extract_partial_many(X, ys, np.empty((0, len(ys))), [])
        assert out.shape == (0, pipe.n_dims)

    def test_shape_validation(self, window):
        X, ys, preds, trees = window
        pipe = FingerprintPipeline(X.shape[1])
        with pytest.raises(ValueError):
            pipe.extract_partial_many(X, ys, preds[:, :-1], trees)
        with pytest.raises(ValueError):
            pipe.extract_partial_many(X, ys, preds, trees[:-1])


# ----------------------------------------------------------------------
# FiCSUM wiring: the bank path is taken, runs match the reference, a
# non-tree classifier is refused
# ----------------------------------------------------------------------
def _assert_routed_run_matches_reference(monkeypatch, scenario):
    """Run a scenario with the bank spied: it routed the candidate
    stacks, and the run is the reference's.  Returns the engine's
    trace.  (Whether a scenario's stacks fan out to several candidates
    depends on the stream seed; the default run's fan-outs are pinned
    by ``test_forest_path_actually_taken``.)"""
    reference = scenario_reference(scenario)
    calls = {"n": 0}
    original_many = ClassifierBank.predict_batch_many

    def spy_many(self, keys, X):
        calls["n"] += 1
        return original_many(self, keys, X)

    monkeypatch.setattr(ClassifierBank, "predict_batch_many", spy_many)
    engine = run_scenario(scenario)
    assert calls["n"] > 0
    assert_identical_traces(engine, reference)
    return engine


class TestForestRoutingEquivalence:
    def test_multi_concept_recurring_stream(self, monkeypatch):
        _assert_routed_run_matches_reference(monkeypatch, "oracle-recurring")

    def test_adwin_detection_path(self, monkeypatch):
        _assert_routed_run_matches_reference(monkeypatch, "adwin")

    def test_univariate_er_variant(self, monkeypatch):
        _assert_routed_run_matches_reference(monkeypatch, "er-variant")

    def test_full_component_set_including_shapley(self, monkeypatch):
        """The full Table I set exercises the classifier-backed
        permutation importance, whose rng stream must interleave
        exactly as the reference's per-candidate extraction."""
        _assert_routed_run_matches_reference(monkeypatch, "table1-shapley")

    def test_under_eviction_pressure(self, monkeypatch):
        engine = _assert_routed_run_matches_reference(monkeypatch, "eviction")
        repo = engine.system.repository
        assert len(repo) <= 3
        # The bank holds exactly the trees LRU eviction left stored.
        bank = repo.bank()
        assert sorted(bank._trees) == sorted(s.state_id for s in repo.states())

    def test_chunked_engine_composes_with_forest_routing(self):
        a = run_config()
        b = run_config(chunk_size=64)
        assert_identical_traces(a, b)

    def test_forest_path_actually_taken(self):
        """Guard against the bank silently going unused: it serves
        the multi-candidate stacks of a default run."""
        system, stream = build_system()
        bank_calls = {"n": 0, "rows": 0}

        import repro.classifiers.bank as bank_module

        original_many = bank_module.ClassifierBank.predict_batch_many

        def spy_many(self, keys, X):
            out = original_many(self, keys, X)
            bank_calls["n"] += 1
            bank_calls["rows"] += len(out)
            return out

        bank_module.ClassifierBank.predict_batch_many = spy_many
        try:
            prequential_run(system, stream, oracle_drift=True)
        finally:
            bank_module.ClassifierBank.predict_batch_many = original_many

        assert bank_calls["n"] > 0
        assert bank_calls["rows"] > bank_calls["n"]  # real fan-outs batched
        assert system.selection_events > 0

    def test_non_tree_repository_is_refused(self):
        """FiCSUM stores only Hoeffding trees, and candidate stacks have
        one prediction path: a non-tree classifier in the repository
        makes stacking raise, and removing it restores the stack."""
        trace = run_config(max_observations=400)
        system = trace.system
        repo = system.repository
        xa, ya, _ = system.window.arrays()
        states = list(repo.states())
        before = system._stack_window_fingerprints(xa, ya, states)
        intruder = repo.new_state(system.n_dims, MajorityClass(2), step=0)
        with pytest.raises(TypeError, match="Hoeffding trees"):
            system._stack_window_fingerprints(xa, ya, states)
        repo.remove(intruder.state_id)
        after = system._stack_window_fingerprints(xa, ya, states)
        np.testing.assert_array_equal(after, before)
