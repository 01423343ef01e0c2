"""Cross-cutting property-based tests (hypothesis).

These pin down invariants that the unit tests only spot-check:
determinism under fixed seeds, metric invariances, schedule laws and
similarity-measure properties.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers import HoeffdingTree
from repro.core.similarity import weighted_cosine_similarity
from repro.evaluation.metrics import co_occurrence_f1
from repro.metafeatures import FingerprintPipeline
from repro.streams.recurrence import build_schedule


class TestScheduleProperties:
    @given(st.integers(2, 8), st.integers(1, 9), st.integers(0, 1000))
    @settings(max_examples=60)
    def test_counts_preserved(self, n_concepts, n_repeats, seed):
        rng = np.random.default_rng(seed)
        schedule = build_schedule(n_concepts, n_repeats, rng)
        assert len(schedule) == n_concepts * n_repeats
        for c in range(n_concepts):
            assert schedule.count(c) == n_repeats

    @given(st.integers(2, 6), st.integers(2, 9), st.integers(0, 500))
    @settings(max_examples=60)
    def test_self_transitions_rare(self, n_concepts, n_repeats, seed):
        rng = np.random.default_rng(seed)
        schedule = build_schedule(n_concepts, n_repeats, rng)
        adjacent = sum(
            schedule[i] == schedule[i - 1] for i in range(1, len(schedule))
        )
        assert adjacent <= 1  # reshuffle + repair leaves at most a tail tie


class TestCoOccurrenceF1Properties:
    @given(
        st.lists(st.integers(0, 3), min_size=5, max_size=80),
        st.integers(0, 100),
    )
    @settings(max_examples=60)
    def test_bounded(self, concepts, seed):
        rng = np.random.default_rng(seed)
        states = list(rng.integers(0, 4, len(concepts)))
        value = co_occurrence_f1(concepts, states)
        assert 0.0 <= value <= 1.0

    @given(st.lists(st.integers(0, 3), min_size=5, max_size=80))
    @settings(max_examples=40)
    def test_identity_mapping_is_perfect(self, concepts):
        assert co_occurrence_f1(concepts, concepts) == pytest.approx(1.0)

    @given(
        st.lists(st.integers(0, 3), min_size=5, max_size=60),
        st.integers(0, 100),
    )
    @settings(max_examples=40)
    def test_invariant_under_state_relabelling(self, concepts, seed):
        rng = np.random.default_rng(seed)
        states = list(rng.integers(0, 4, len(concepts)))
        relabelled = [s + 1000 for s in states]
        assert co_occurrence_f1(concepts, states) == pytest.approx(
            co_occurrence_f1(concepts, relabelled)
        )


class TestSimilarityProperties:
    vectors = st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=3,
        max_size=20,
    )

    @given(vectors, vectors)
    @settings(max_examples=60)
    def test_symmetry(self, a, b):
        n = min(len(a), len(b))
        va, vb = np.array(a[:n]), np.array(b[:n])
        assert weighted_cosine_similarity(va, vb) == pytest.approx(
            weighted_cosine_similarity(vb, va)
        )

    @given(vectors, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40)
    def test_self_similarity_is_one_or_zero(self, a, scale):
        v = np.array(a) * scale
        sim = weighted_cosine_similarity(v, v)
        if np.linalg.norm(v) < 1e-6:
            assert sim == 0.0
        else:
            assert sim == pytest.approx(1.0)


class TestDeterminism:
    def test_hoeffding_tree_deterministic(self, rng):
        data = [(rng.random(4), int(rng.integers(0, 2))) for _ in range(500)]

        def train():
            tree = HoeffdingTree(2, 4, grace_period=25, seed=5)
            preds = []
            for x, y in data:
                preds.append(tree.predict(x))
                tree.learn(x, y)
            return preds

        assert train() == train()

    def test_extractor_deterministic(self, trained_tree, rng):
        ex_a = FingerprintPipeline(3)
        ex_b = FingerprintPipeline(3)
        xs = rng.random((75, 3)) * 2
        ys = rng.integers(0, 2, 75)
        preds = trained_tree.predict_batch(xs)
        fp_a = ex_a.extract(xs, ys, preds, trained_tree)
        fp_b = ex_b.extract(xs, ys, preds, trained_tree)
        np.testing.assert_allclose(fp_a, fp_b)

    def test_full_system_deterministic(self):
        from repro.core import FicsumConfig
        from repro.evaluation import run_on_dataset

        cfg = FicsumConfig(fingerprint_period=10, repository_period=100)
        a = run_on_dataset(
            "ficsum", "STAGGER", seed=4, segment_length=150, n_repeats=1,
            config=cfg,
        )
        b = run_on_dataset(
            "ficsum", "STAGGER", seed=4, segment_length=150, n_repeats=1,
            config=cfg,
        )
        assert a.kappa == b.kappa
        assert a.n_drifts == b.n_drifts
