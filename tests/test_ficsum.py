"""Integration tests for the FiCSUM framework."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import Ficsum, FicsumConfig
from repro.core.variants import (
    make_error_rate_variant,
    make_ficsum,
    make_single_function_variant,
    make_supervised_variant,
    make_unsupervised_variant,
)
from repro.evaluation import prequential_run
from repro.streams import make_dataset

FAST = FicsumConfig(fingerprint_period=5, repository_period=50, window_size=50)


def small_stream(name="STAGGER", seed=0, segment_length=300, n_repeats=2):
    return make_dataset(
        name, seed=seed, segment_length=segment_length, n_repeats=n_repeats
    )


class TestConfigValidation:
    def test_defaults_match_paper(self):
        cfg = FicsumConfig()
        assert cfg.window_size == 75
        assert cfg.fingerprint_period == 3
        assert cfg.repository_period == 25
        assert cfg.buffer_ratio == 0.25
        assert cfg.buffer_delay == 19

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_size": 2},
            {"buffer_ratio": -0.1},
            {"fingerprint_period": 0},
            {"repository_period": 0},
            {"weighting": "magic"},
            {"similarity_gate": 0.0},
            {"max_repository_size": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            FicsumConfig(**kwargs)


class TestVariantConstruction:
    def test_full_dims(self):
        system = make_ficsum(5, 2, FAST)
        assert system.n_dims == 13 * 9

    def test_er_dims(self):
        system = make_error_rate_variant(5, 2, FAST)
        assert system.n_dims == 1

    def test_smi_dims(self):
        system = make_supervised_variant(5, 2, FAST)
        assert system.n_dims == 13 * 4

    def test_umi_dims(self):
        system = make_unsupervised_variant(5, 2, FAST)
        assert system.n_dims == 13 * 5

    def test_single_function_dims(self):
        system = make_single_function_variant("imf_entropy", 5, 2, FAST)
        assert system.n_dims == 2 * 9

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            make_single_function_variant("vibes", 5, 2, FAST)


class TestFicsumBehaviour:
    def test_runs_and_learns(self):
        stream = small_stream()
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, FAST)
        result = prequential_run(system, stream)
        assert result.accuracy > 0.55
        assert result.n_observations == stream.meta.length

    def test_trained_system_freed_without_cyclic_collector(self):
        """A dropped FiCSUM and every tree it stored are freed at once,
        with the cyclic collector off: nothing it holds is a cycle."""
        stream = small_stream()
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, FAST)
        prequential_run(system, stream)
        refs = [weakref.ref(system)] + [
            weakref.ref(state.classifier) for state in system.repository.states()
        ]
        assert len(refs) > 2
        gc.disable()
        try:
            del system
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_detects_drift_on_stagger(self):
        stream = make_dataset(
            "STAGGER", seed=1, segment_length=400, n_repeats=3
        )
        cfg = FicsumConfig(fingerprint_period=3, repository_period=50)
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
        result = prequential_run(system, stream)
        assert result.n_drifts >= 2, "no drift detected across 8 boundaries"
        assert result.n_states >= 2

    def test_umi_blind_to_label_only_drift(self):
        """U-MI cannot see STAGGER drift (pure p(y|X)): the paper's
        central failure case."""
        stream = make_dataset(
            "STAGGER", seed=1, segment_length=400, n_repeats=2
        )
        cfg = FicsumConfig(fingerprint_period=5, repository_period=50)
        system = make_unsupervised_variant(
            stream.meta.n_features, stream.meta.n_classes, cfg
        )
        result = prequential_run(system, stream)
        # at most a rare false alarm; the real boundaries stay invisible
        assert result.n_drifts <= 1
        assert result.n_states <= 2

    def test_oracle_drift_mode(self):
        stream = small_stream(segment_length=250)
        cfg = FicsumConfig(
            fingerprint_period=5, repository_period=50, oracle_drift=True
        )
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
        result = prequential_run(system, stream, oracle_drift=True)
        assert result.n_drifts == len(stream.drift_points)

    def test_oracle_mode_ignores_adwin(self):
        stream = small_stream(segment_length=250)
        cfg = FicsumConfig(
            fingerprint_period=5, repository_period=50, oracle_drift=True
        )
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
        result = prequential_run(system, stream, oracle_drift=False)
        assert result.n_drifts == 0  # no oracle calls, ADWIN disabled

    def test_repository_bounded(self):
        stream = small_stream(segment_length=250, n_repeats=3)
        cfg = FicsumConfig(
            fingerprint_period=5,
            repository_period=50,
            max_repository_size=3,
        )
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
        prequential_run(system, stream)
        assert len(system.repository) <= 3

    def test_discrimination_tracking(self):
        stream = small_stream(segment_length=300, n_repeats=3)
        cfg = FicsumConfig(
            fingerprint_period=5,
            repository_period=40,
            track_discrimination=True,
            oracle_drift=True,
        )
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
        result = prequential_run(system, stream, oracle_drift=True)
        assert len(result.discrimination) > 0
        assert all(np.isfinite(result.discrimination))

    def test_weights_shape_and_positive(self):
        stream = small_stream(segment_length=200, n_repeats=1)
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, FAST)
        prequential_run(system, stream)
        weights = system.weights
        assert weights.shape == (system.n_dims,)
        # constant dimensions (e.g. Shapley on supervised sources) are
        # legitimately suppressed to exactly zero by the Fisher term
        assert np.all(weights >= 0)
        assert np.count_nonzero(weights) > system.n_dims // 2

    def test_weighting_none_is_uniform(self):
        stream = small_stream(segment_length=200, n_repeats=1)
        cfg = FicsumConfig(
            fingerprint_period=5, repository_period=50, weighting="none"
        )
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
        prequential_run(system, stream)
        np.testing.assert_allclose(system.weights, 1.0)

    def test_active_state_id_in_repository(self):
        stream = small_stream(segment_length=250, n_repeats=2)
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, FAST)
        for x, y, _ in stream:
            system.process(x, y)
            assert system.active_state_id in system.repository

    def test_plasticity_resets_classifier_dims(self):
        stream = small_stream(segment_length=400, n_repeats=1)
        # Eager tree growth so split events actually occur in a short
        # stream (default Hoeffding parameters split rarely).
        cfg = FicsumConfig(
            fingerprint_period=5,
            repository_period=100,
            grace_period=25,
            tie_threshold=0.3,
        )
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
        mask = system.pipeline.schema.classifier_dependent
        observed_reset = False
        prev_marker = 0
        for i, (x, y, _) in enumerate(stream):
            system.process(x, y)
            marker = system._active.classifier.change_marker()
            if marker > prev_marker and i > 150:
                # counts on classifier dims must be freshly reset
                counts = system._active.fingerprint.counts
                if counts[~mask].max() > 0:
                    assert counts[mask].max() <= 1
                    observed_reset = True
                    break
            prev_marker = marker
        assert observed_reset

    def test_second_selection_can_be_disabled(self):
        stream = small_stream(segment_length=300, n_repeats=2)
        cfg = FicsumConfig(
            fingerprint_period=5, repository_period=50, second_selection=False
        )
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
        prequential_run(system, stream)  # just exercise the path

    def test_recurrence_reuses_state_with_oracle(self):
        """With perfect drift signals on long segments, a recurring
        STAGGER concept should eventually re-select a stored state."""
        stream = make_dataset(
            "STAGGER", seed=3, segment_length=500, n_repeats=3
        )
        cfg = FicsumConfig(
            fingerprint_period=5, repository_period=50, oracle_drift=True
        )
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
        result = prequential_run(system, stream, oracle_drift=True)
        n_segments = len(stream.schedule)
        assert result.n_states < n_segments, (
            "every segment produced a fresh state: no recurrence was "
            "ever identified"
        )


class TestIncrementalPipeline:
    def test_hot_path_matches_batch_reference(self):
        """After a real run, the accumulators must still agree with a
        batch recomputation over the final window (shared tolerance)."""
        stream = small_stream(segment_length=250, n_repeats=2)
        system = Ficsum(stream.meta.n_features, stream.meta.n_classes, FAST)
        for x, y, _ in stream:
            system.process(x, y)
        xa, ya, la = system.window.arrays()
        incremental = system.pipeline.extract_incremental(
            xa, ya, la, system._active.classifier
        )
        # identical classifier => identical Shapley draws need a fresh
        # rng state; compare only classifier-free dimensions
        batch = system.pipeline.extract(xa, ya, la, None)
        reference = system.pipeline.extract_incremental(xa, ya, la, None)
        np.testing.assert_allclose(reference, batch, rtol=1e-7, atol=1e-8)
        assert incremental.shape == batch.shape
