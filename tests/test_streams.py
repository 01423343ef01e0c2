"""Tests for stream generators, drift injection and the recurrence
scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streams import (
    FeatureDrift,
    DriftingConcept,
    RecurrentStream,
    build_schedule,
    dataset_names,
    dataset_info,
    make_dataset,
)
from repro.streams.datasets import PAPER_DATASETS, SYNTH_DATASETS
from repro.streams.synthetic import (
    HyperplaneConcept,
    RandomRbfConcept,
    RandomTreeConcept,
    StaggerConcept,
)
from repro.streams.transforms import drifting_pool


ALL_GENERATORS = [
    StaggerConcept(0),
    RandomRbfConcept(seed=1),
    RandomTreeConcept(seed=1),
    HyperplaneConcept(seed=1),
]


class TestGeneratorContracts:
    @pytest.mark.parametrize("concept", ALL_GENERATORS, ids=lambda c: type(c).__name__)
    def test_sample_shapes_and_labels(self, concept, rng):
        for _ in range(50):
            x, y = concept.sample(rng)
            assert x.shape == (concept.n_features,)
            assert 0 <= y < concept.n_classes

    @pytest.mark.parametrize("concept", ALL_GENERATORS, ids=lambda c: type(c).__name__)
    def test_deterministic_given_seeded_rng(self, concept):
        a = concept.take(30, np.random.default_rng(5))
        concept.reset_temporal_state()
        b = concept.take(30, np.random.default_rng(5))
        np.testing.assert_allclose(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("concept", ALL_GENERATORS, ids=lambda c: type(c).__name__)
    def test_both_classes_appear(self, concept, rng):
        _, ys = concept.take(400, rng)
        assert len(np.unique(ys)) >= 2


class TestStagger:
    def test_function_semantics(self, rng):
        # function 2: size medium or large
        concept = StaggerConcept(2)
        for _ in range(100):
            x, y = concept.sample(rng)
            assert y == int(x[0] in (1, 2))

    def test_functions_disagree(self, rng):
        c0, c2 = StaggerConcept(0), StaggerConcept(2)
        disagreements = 0
        for _ in range(300):
            x = rng.integers(0, 3, size=3).astype(float)
            y0 = int(x[0] == 0 and x[1] == 0)
            y2 = int(x[0] in (1, 2))
            disagreements += y0 != y2
        assert disagreements > 50

    def test_invalid_function(self):
        with pytest.raises(ValueError):
            StaggerConcept(3)


class TestRandomTree:
    def test_classify_deterministic(self, rng):
        concept = RandomTreeConcept(seed=3)
        x = rng.random(concept.n_features)
        assert concept.classify(x) == concept.classify(x)

    def test_different_seeds_differ(self, rng):
        a, b = RandomTreeConcept(seed=1), RandomTreeConcept(seed=2)
        xs = rng.random((300, a.n_features))
        labels_a = [a.classify(x) for x in xs]
        labels_b = [b.classify(x) for x in xs]
        assert np.mean(np.array(labels_a) != np.array(labels_b)) > 0.05

    def test_all_classes_reachable(self, rng):
        concept = RandomTreeConcept(seed=5, n_classes=4)
        _, ys = concept.take(2000, rng)
        assert set(np.unique(ys)) == {0, 1, 2, 3}


class TestRbf:
    def test_label_tied_to_centroid(self):
        concept = RandomRbfConcept(seed=1, n_centroids=5)
        assert len(concept.labels) == 5
        assert concept.weights.sum() == pytest.approx(1.0)

    def test_requires_centroid_per_class(self):
        with pytest.raises(ValueError):
            RandomRbfConcept(seed=1, n_classes=5, n_centroids=3)


class TestHyperplane:
    def test_roughly_balanced(self, rng):
        concept = HyperplaneConcept(seed=2, noise=0.0)
        _, ys = concept.take(2000, rng)
        assert 0.25 < ys.mean() < 0.75

    def test_noise_flips_labels(self, rng):
        clean = HyperplaneConcept(seed=2, noise=0.0)
        flips = 0
        for _ in range(1000):
            x = rng.random(clean.n_features)
            label = clean.classify(x)
            noisy_label = label if rng.random() >= 0.3 else 1 - label
            flips += noisy_label != label
        assert 200 < flips < 400


class TestFeatureDrift:
    def test_identity_by_default(self):
        drift = FeatureDrift()
        assert drift.identity
        x = np.array([0.3, 0.7])
        np.testing.assert_allclose(drift.transform_distribution(x), x)

    def test_distribution_shift_moves_mean(self, rng):
        base = RandomTreeConcept(seed=1, n_features=4)
        drift = FeatureDrift.random(rng, 4, distribution=True)
        wrapped = DriftingConcept(base, drift)
        xs_base, _ = base.take(2000, np.random.default_rng(0))
        xs_drift, _ = wrapped.take(2000, np.random.default_rng(0))
        assert np.abs(xs_base.mean(axis=0) - xs_drift.mean(axis=0)).max() > 0.05

    def test_autocorrelation_injection_raises_acf(self, rng):
        base = RandomTreeConcept(seed=1, n_features=3)
        drift = FeatureDrift.random(rng, 3, autocorrelation=True)
        wrapped = DriftingConcept(base, drift)
        xs, _ = wrapped.take(1500, np.random.default_rng(0))
        col = xs[:, 0] - xs[:, 0].mean()
        acf1 = (col[:-1] * col[1:]).sum() / (col**2).sum()
        assert acf1 > 0.25, f"acf1={acf1:.3f} despite AR injection"

    def test_frequency_injection_adds_oscillation(self, rng):
        base = RandomTreeConcept(seed=1, n_features=3)
        drift = FeatureDrift.random(rng, 3, frequency=True)
        wrapped = DriftingConcept(base, drift)
        xs, _ = wrapped.take(400, np.random.default_rng(0))
        # the sine overlay shifts spectral mass: compare dominant FFT
        # magnitude (excluding DC) against the base stream's
        base.reset_temporal_state()
        xs_base, _ = base.take(400, np.random.default_rng(0))
        spec_drift = np.abs(np.fft.rfft(xs[:, 0] - xs[:, 0].mean()))
        spec_base = np.abs(np.fft.rfft(xs_base[:, 0] - xs_base[:, 0].mean()))
        assert spec_drift.max() > spec_base.max() * 1.3

    def test_relabelling_keeps_labelling_function_fixed(self, rng):
        base = RandomTreeConcept(seed=1, n_features=4)
        drift = FeatureDrift.random(rng, 4, distribution=True)
        wrapped = DriftingConcept(base, drift)
        for _ in range(100):
            x, y = wrapped.sample(rng)
            assert y == base.classify(x)

    def test_reset_temporal_state(self, rng):
        base = RandomTreeConcept(seed=1, n_features=3)
        drift = FeatureDrift.random(rng, 3, autocorrelation=True, frequency=True)
        wrapped = DriftingConcept(base, drift)
        a = wrapped.take(50, np.random.default_rng(9))
        wrapped.reset_temporal_state()
        b = wrapped.take(50, np.random.default_rng(9))
        np.testing.assert_allclose(a[0], b[0])

    def test_drifting_pool_first_concept_identity(self, rng):
        base = RandomTreeConcept(seed=1, n_features=3)
        pool = drifting_pool([base] * 4, seed=0, distribution=True)
        assert pool[0].drift.identity
        assert not pool[1].drift.identity


class TestSchedule:
    def test_each_concept_appears_n_repeats_times(self, rng):
        schedule = build_schedule(4, 5, rng)
        assert len(schedule) == 20
        for c in range(4):
            assert schedule.count(c) == 5

    def test_avoids_self_transitions(self):
        for seed in range(20):
            schedule = build_schedule(3, 9, np.random.default_rng(seed))
            repeats = sum(
                schedule[i] == schedule[i - 1] for i in range(1, len(schedule))
            )
            assert repeats <= 1  # best-effort repair

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            build_schedule(0, 5, rng)


class TestRecurrentStream:
    def test_meta_and_length(self):
        stream = make_dataset("STAGGER", seed=0, segment_length=100, n_repeats=2)
        meta = stream.meta
        assert meta.n_features == 3
        assert meta.n_concepts == 3
        observations = list(stream)
        assert len(observations) == meta.length == 600

    def test_concept_ids_follow_schedule(self):
        stream = make_dataset("STAGGER", seed=0, segment_length=50, n_repeats=2)
        cids = [cid for _, _, cid in stream]
        for i, expected in enumerate(stream.schedule):
            segment = cids[i * 50 : (i + 1) * 50]
            assert all(c == expected for c in segment)

    def test_deterministic_given_seed(self):
        a = list(make_dataset("RBF", seed=3, segment_length=30, n_repeats=1))
        b = list(make_dataset("RBF", seed=3, segment_length=30, n_repeats=1))
        for (xa, ya, ca), (xb, yb, cb) in zip(a, b):
            np.testing.assert_allclose(xa, xb)
            assert ya == yb and ca == cb

    def test_mixed_pool_rejected(self):
        with pytest.raises(ValueError):
            RecurrentStream(
                [StaggerConcept(0), RandomTreeConcept(seed=1)], segment_length=10
            )

    def test_drift_points(self):
        stream = make_dataset("STAGGER", seed=0, segment_length=100, n_repeats=2)
        points = stream.drift_points
        assert all(p % 100 == 0 for p in points)
        assert len(points) <= len(stream.schedule) - 1


class TestDatasetRegistry:
    def test_all_paper_datasets_registered(self):
        for name in PAPER_DATASETS + SYNTH_DATASETS:
            assert name in dataset_names()

    @pytest.mark.parametrize("name", PAPER_DATASETS)
    def test_table2_characteristics(self, name):
        spec = dataset_info(name)
        stream = make_dataset(name, seed=0, segment_length=20, n_repeats=1)
        meta = stream.meta
        assert meta.n_features == spec.n_features
        assert meta.n_concepts == spec.n_contexts
        x, y, cid = next(iter(stream))
        assert x.shape == (spec.n_features,)
        assert 0 <= y < spec.n_classes

    @pytest.mark.parametrize("name", SYNTH_DATASETS)
    def test_synth_datasets_build(self, name):
        stream = make_dataset(name, seed=0, segment_length=20, n_repeats=1)
        observations = list(stream)
        assert len(observations) == stream.meta.length

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            make_dataset("nope")

    def test_realworld_drift_types(self):
        assert dataset_info("AQSex").drift_type == "p(y|X)"
        assert dataset_info("UCI-Wine").drift_type == "p(X)"
