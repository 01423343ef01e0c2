"""Unit and property tests for the online statistics primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import ConceptFingerprint
from repro.utils.stats import EwmaStats, OnlineMinMax

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestEwmaStats:
    def test_first_value_initialises(self):
        s = EwmaStats(alpha=0.1)
        s.update(4.0)
        assert s.mean == 4.0
        assert s.std == 0.0

    def test_converges_to_level(self):
        s = EwmaStats(alpha=0.2)
        for _ in range(200):
            s.update(7.0)
        assert s.mean == pytest.approx(7.0)
        assert s.std == pytest.approx(0.0, abs=1e-9)

    def test_tracks_level_shift(self):
        s = EwmaStats(alpha=0.1)
        for _ in range(100):
            s.update(0.0)
        for _ in range(100):
            s.update(10.0)
        assert s.mean > 9.5  # forgot the old level

    def test_std_reflects_noise(self, rng):
        s = EwmaStats(alpha=0.05)
        for v in rng.normal(0.0, 2.0, size=3000):
            s.update(float(v))
        assert 1.0 < s.std < 3.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            EwmaStats(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaStats(alpha=1.5)

    def test_reset(self):
        s = EwmaStats()
        s.update(1.0)
        s.reset()
        assert s.count == 0


class TestOnlineVectorStats:
    """Per-dimension online statistics over vectors: the Welford triple
    a :class:`ConceptFingerprint` keeps."""

    def test_shape_validation(self):
        fp = ConceptFingerprint(3)
        with pytest.raises(ValueError):
            fp.incorporate(np.zeros(4))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            ConceptFingerprint(0)

    @given(st.integers(2, 30), st.integers(2, 8))
    @settings(max_examples=30)
    def test_matches_numpy_columns(self, n_rows, n_dims):
        data = np.random.default_rng(n_rows * 31 + n_dims).normal(
            size=(n_rows, n_dims)
        )
        fp = ConceptFingerprint(n_dims)
        for row in data:
            fp.incorporate(row)
        np.testing.assert_allclose(fp.means, data.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(fp.stds, data.std(axis=0), atol=1e-8)
        assert fp.count == n_rows

    def test_reset_dims_keeps_means_by_default(self):
        fp = ConceptFingerprint(4)
        fp.incorporate(np.array([1.0, 2.0, 3.0, 4.0]))
        fp.incorporate(np.array([3.0, 4.0, 5.0, 6.0]))
        fp.reset_dims(np.array([True, False, True, False]))
        assert fp.counts[0] == 0 and fp.counts[1] == 2
        assert fp.means[0] == 2.0  # mean preserved as estimate
        assert fp.stds[0] == 0.0  # spread forgotten

    def test_update_after_reset_replaces_mean(self):
        fp = ConceptFingerprint(1)
        fp.incorporate(np.array([10.0]))
        fp.incorporate(np.array([10.0]))
        fp.reset_dims(np.array([True]))
        fp.incorporate(np.array([2.0]))
        assert fp.means[0] == 2.0

    def test_variances_never_negative(self):
        fp = ConceptFingerprint(2)
        for _ in range(50):
            fp.incorporate(np.array([1e-9, 1e9]))
        assert np.all(fp.stds >= 0.0)


class TestOnlineMinMax:
    def test_scale_midpoint_for_degenerate_dims(self):
        m = OnlineMinMax(2)
        m.update(np.array([1.0, 5.0]))
        m.update(np.array([1.0, 7.0]))
        scaled = m.scale(np.array([1.0, 6.0]))
        assert scaled[0] == 0.5  # constant dimension -> midpoint
        assert scaled[1] == pytest.approx(0.5)

    def test_scale_clips_out_of_range(self):
        m = OnlineMinMax(1)
        m.update(np.array([0.0]))
        m.update(np.array([10.0]))
        assert m.scale(np.array([-5.0]))[0] == 0.0
        assert m.scale(np.array([15.0]))[0] == 1.0

    @given(st.lists(finite_floats, min_size=2, max_size=50))
    @settings(max_examples=40)
    def test_scaled_values_in_unit_interval(self, values):
        m = OnlineMinMax(1)
        for v in values:
            m.update(np.array([v]))
        for v in values:
            scaled = m.scale(np.array([v]))[0]
            assert 0.0 <= scaled <= 1.0

    def test_scale_std(self):
        m = OnlineMinMax(1)
        m.update(np.array([0.0]))
        m.update(np.array([4.0]))
        assert m.scale_std(np.array([2.0]))[0] == pytest.approx(0.5)

    def test_initialised_flag(self):
        m = OnlineMinMax(2)
        assert not m.initialised
        m.update(np.array([1.0, 2.0]))
        assert m.initialised
