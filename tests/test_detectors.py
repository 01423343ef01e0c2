"""Tests for the drift detectors (ADWIN, DDM, EDDM)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors import Adwin, Ddm, Eddm


def bernoulli_stream(rng, p, n):
    return (rng.random(n) < p).astype(float)


def run_detector(detector, values):
    """Feed values, returning the indices at which drift was flagged."""
    hits = []
    for i, v in enumerate(values):
        if detector.update(float(v)):
            hits.append(i)
    return hits


class TestAdwin:
    def test_no_drift_on_stationary(self, rng):
        adwin = Adwin()
        hits = run_detector(adwin, bernoulli_stream(rng, 0.2, 3000))
        assert len(hits) <= 1  # rare false positives tolerated

    def test_detects_abrupt_shift(self, rng):
        adwin = Adwin()
        stream = np.concatenate(
            [bernoulli_stream(rng, 0.1, 1000), bernoulli_stream(rng, 0.6, 1000)]
        )
        hits = run_detector(adwin, stream)
        assert hits, "ADWIN missed a 0.1 -> 0.6 shift"
        assert 1000 <= hits[0] < 1400, f"detection at {hits[0]} too late/early"

    def test_window_shrinks_after_drift(self, rng):
        adwin = Adwin()
        stream = np.concatenate(
            [bernoulli_stream(rng, 0.1, 1000), bernoulli_stream(rng, 0.9, 300)]
        )
        run_detector(adwin, stream)
        assert adwin.width < 1300  # old regime dropped

    def test_mean_tracks_current_regime(self, rng):
        adwin = Adwin()
        stream = np.concatenate(
            [bernoulli_stream(rng, 0.1, 1000), bernoulli_stream(rng, 0.9, 500)]
        )
        run_detector(adwin, stream)
        assert adwin.mean > 0.6

    def test_detects_real_valued_shift(self, rng):
        adwin = Adwin()
        stream = np.concatenate(
            [rng.normal(0.3, 0.05, 800), rng.normal(0.7, 0.05, 800)]
        )
        stream = np.clip(stream, 0, 1)
        hits = run_detector(adwin, stream)
        assert hits and hits[0] < 1100

    def test_width_bounded_by_input_count(self, rng):
        adwin = Adwin()
        values = bernoulli_stream(rng, 0.5, 500)
        run_detector(adwin, values)
        assert adwin.width <= 500

    def test_reset(self, rng):
        adwin = Adwin()
        run_detector(adwin, bernoulli_stream(rng, 0.5, 100))
        adwin.reset()
        assert adwin.width == 0
        assert adwin.mean == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Adwin(delta=0.0)
        with pytest.raises(ValueError):
            Adwin(max_buckets=1)

    def test_total_matches_inserted_sum(self, rng):
        adwin = Adwin(delta=1e-7)  # conservative: no cuts expected
        values = rng.random(200)
        for v in values:
            adwin.update(float(v))
        assert adwin.total == pytest.approx(values.sum(), rel=1e-9)


class TestDdm:
    def test_no_drift_on_improving_classifier(self, rng):
        ddm = Ddm()
        # error rate decaying from 0.5 to 0.1 -> no drift signal
        errors = (rng.random(2000) < np.linspace(0.5, 0.1, 2000)).astype(float)
        assert run_detector(ddm, errors) == []

    def test_detects_error_increase(self, rng):
        ddm = Ddm()
        stream = np.concatenate(
            [bernoulli_stream(rng, 0.1, 1000), bernoulli_stream(rng, 0.5, 500)]
        )
        hits = run_detector(ddm, stream)
        assert hits and 1000 <= hits[0] < 1300

    def test_warning_precedes_drift(self, rng):
        ddm = Ddm()
        warned_before_drift = False
        stream = np.concatenate(
            [bernoulli_stream(rng, 0.1, 1000), bernoulli_stream(rng, 0.5, 500)]
        )
        for v in stream:
            drift = ddm.update(float(v))
            if drift:
                break
            if ddm.in_warning:
                warned_before_drift = True
        assert warned_before_drift

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            Ddm(warning_level=3.0, drift_level=2.0)


class TestEddm:
    def test_no_drift_on_stationary(self, rng):
        eddm = Eddm()
        hits = run_detector(eddm, bernoulli_stream(rng, 0.2, 4000))
        assert len(hits) <= 1

    def test_detects_shorter_error_distances(self, rng):
        eddm = Eddm()
        stream = np.concatenate(
            [bernoulli_stream(rng, 0.05, 2000), bernoulli_stream(rng, 0.5, 800)]
        )
        hits = run_detector(eddm, stream)
        # EDDM is known for occasional false alarms; require that the
        # real change is caught promptly.
        assert any(2000 <= h < 2400 for h in hits)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            Eddm(alpha=0.8, beta=0.9)


class TestResetAfterDrift:
    """All detectors must be reusable across multiple drifts."""

    @pytest.mark.parametrize("factory", [Adwin, Ddm, Eddm])
    def test_detects_two_successive_drifts(self, factory, rng):
        detector = factory()
        stream = np.concatenate(
            [
                bernoulli_stream(rng, 0.05, 1500),
                bernoulli_stream(rng, 0.5, 2500),
                bernoulli_stream(rng, 0.05, 1500),
                bernoulli_stream(rng, 0.5, 2500),
            ]
        )
        hits = run_detector(detector, stream)
        assert len(hits) >= 2
