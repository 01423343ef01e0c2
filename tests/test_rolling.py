"""Incremental accumulators vs batch recomputation (property tests).

The incremental fingerprint path is only admissible because its rolling
algebra reproduces the batch reference within floating-point tolerance.
These tests pin that equivalence down over random streams — including
window resets, constant sequences, large offsets (the cancellation
trap) and the degenerate-case guard paths — plus the registry-derived
schema metadata the pipeline builds on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import EagerPipeline

from repro.metafeatures import (
    ErrorDistanceTracker,
    FingerprintPipeline,
    MetaFeature,
    RollingWindowStats,
    compute_scalar_function,
    expand_functions,
)
from repro.metafeatures.autocorr import row_acf, row_pacf2
from repro.metafeatures.moments import (
    row_kurtoses,
    row_means,
    row_skews,
    row_stds,
)
from repro.metafeatures.rolling import GapStats
from repro.metafeatures.turning_points import row_turning_rates
from repro.registry import METAFEATURES, register_metafeature
from repro.utils.windows import ArrayRing, ObservationWindow

TOL = dict(rtol=1e-7, atol=1e-8)


def batch_reference(matrix: np.ndarray) -> dict:
    """All rolling-capable statistics recomputed from scratch."""
    acf1 = row_acf(matrix, 1)
    acf2 = row_acf(matrix, 2)
    return {
        "means": row_means(matrix),
        "stds": row_stds(matrix),
        "skews": row_skews(matrix),
        "kurtoses": row_kurtoses(matrix),
        "acf1": acf1,
        "acf2": acf2,
        "pacf2": row_pacf2(acf1, acf2),
        "turning": row_turning_rates(matrix),
    }


def assert_matches(stats: RollingWindowStats, matrix: np.ndarray) -> None:
    ref = batch_reference(matrix)
    np.testing.assert_allclose(stats.means(), ref["means"], **TOL)
    np.testing.assert_allclose(stats.stds(), ref["stds"], **TOL)
    np.testing.assert_allclose(stats.skews(), ref["skews"], **TOL)
    np.testing.assert_allclose(stats.kurtoses(), ref["kurtoses"], **TOL)
    np.testing.assert_allclose(stats.acf(1), ref["acf1"], **TOL)
    np.testing.assert_allclose(stats.acf(2), ref["acf2"], **TOL)
    np.testing.assert_allclose(stats.pacf2(), ref["pacf2"], **TOL)
    np.testing.assert_allclose(stats.turning_rates(), ref["turning"], **TOL)


class TestArrayRing:
    def test_view_tracks_last_items(self):
        ring = ArrayRing(3)
        for i in range(7):
            ring.append(float(i))
            expected = [max(0, i - 2) + j for j in range(min(i + 1, 3))]
            np.testing.assert_array_equal(ring.view(), expected)

    def test_two_dimensional_rows(self):
        ring = ArrayRing(2, width=3)
        ring.append([1, 2, 3])
        ring.append([4, 5, 6])
        ring.append([7, 8, 9])
        np.testing.assert_array_equal(ring.view(), [[4, 5, 6], [7, 8, 9]])

    def test_view_is_contiguous_and_zero_copy(self):
        ring = ArrayRing(4, width=2)
        for i in range(9):
            ring.append([i, i])
        view = ring.view()
        assert view.flags["C_CONTIGUOUS"]
        assert view.base is not None  # a view, not a copy

    def test_clear(self):
        ring = ArrayRing(3)
        ring.append(1.0)
        ring.clear()
        assert len(ring) == 0 and not ring.full

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ArrayRing(0)
        with pytest.raises(ValueError):
            ArrayRing(3, width=0)


class TestObservationWindow:
    def test_arrays_match_appended(self, rng):
        win = ObservationWindow(5, 2)
        xs = rng.random((9, 2))
        for i in range(9):
            win.append(xs[i], i % 3, (i + 1) % 2)
        wx, wy, wp = win.arrays()
        np.testing.assert_array_equal(wx, xs[4:])
        np.testing.assert_array_equal(wy, [i % 3 for i in range(4, 9)])
        np.testing.assert_array_equal(wp, [(i + 1) % 2 for i in range(4, 9)])
        assert wy.dtype == np.int64 and wx.dtype == np.float64


class TestRollingWindowStats:
    @given(
        st.integers(0, 10_000),
        st.integers(3, 40),
        st.integers(1, 4),
        st.floats(-1e3, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_batch_on_random_streams(self, seed, window, rows, offset):
        rng = np.random.default_rng(seed)
        stats = RollingWindowStats(rows, window)
        history = []
        for t in range(3 * window):
            value = rng.normal(loc=offset, scale=rng.uniform(0.1, 5.0), size=rows)
            stats.push(value)
            history.append(value)
            if t >= 2:  # partial windows included
                matrix = np.stack(history[-window:]).T
                assert_matches(stats, matrix)

    def test_reset_restarts_cleanly(self, rng):
        stats = RollingWindowStats(2, 10)
        for _ in range(25):
            stats.push(rng.normal(size=2))
        stats.reset()
        assert stats.count == 0
        history = []
        for _ in range(15):
            value = rng.normal(size=2)
            stats.push(value)
            history.append(value)
        assert_matches(stats, np.stack(history[-10:]).T)

    def test_constant_sequence_guards(self):
        """Degenerate guards: constant rows yield exactly 0, not NaN."""
        stats = RollingWindowStats(1, 8)
        for _ in range(20):
            stats.push(np.array([3.14]))
        assert stats.stds()[0] == 0.0
        assert stats.skews()[0] == 0.0
        assert stats.kurtoses()[0] == 0.0
        assert stats.acf(1)[0] == 0.0
        assert stats.pacf2()[0] == 0.0
        assert stats.turning_rates()[0] == 0.0

    def test_large_offset_cancellation(self):
        """Near-constant data on a huge offset must not explode."""
        rng = np.random.default_rng(0)
        stats = RollingWindowStats(1, 12)
        history = []
        for _ in range(40):
            value = np.array([1e6 + rng.normal(scale=1e-3)])
            stats.push(value)
            history.append(value)
        matrix = np.stack(history[-12:]).T
        np.testing.assert_allclose(stats.means(), row_means(matrix), rtol=1e-12)
        np.testing.assert_allclose(
            stats.stds(), row_stds(matrix), rtol=1e-6, atol=1e-9
        )

    def test_alternating_turning_rate_is_one(self):
        stats = RollingWindowStats(1, 6)
        for i in range(14):
            stats.push(np.array([float(i % 2)]))
        assert stats.turning_rates()[0] == pytest.approx(1.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RollingWindowStats(0, 10)
        with pytest.raises(ValueError):
            RollingWindowStats(1, 2)
        stats = RollingWindowStats(1, 5)
        with pytest.raises(ValueError):
            stats.acf(3)


class TestGapStats:
    @given(st.integers(0, 5_000), st.integers(5, 60))
    @settings(max_examples=60, deadline=None)
    def test_tracker_matches_batch_gap_functions(self, seed, window):
        """Tracker gap statistics == scalar reference on the gap array."""
        rng = np.random.default_rng(seed)
        tracker = ErrorDistanceTracker(window)
        errors = rng.random(3 * window) < rng.uniform(0.05, 0.6)
        for is_err in errors:
            tracker.push(bool(is_err))
        gaps = tracker.gaps()
        if tracker.n_gaps >= 1:
            stats = tracker.stats
            np.testing.assert_allclose(stats.values(), gaps)
            for name, value in (
                ("mean", stats.mean()),
                ("std", stats.std()),
                ("skew", stats.skew()),
                ("kurtosis", stats.kurtosis()),
                ("acf1", stats.acf(1)),
                ("acf2", stats.acf(2)),
                ("pacf1", stats.acf(1)),
                ("pacf2", stats.pacf2()),
                ("turning_rate", stats.turning_rate()),
            ):
                expected = compute_scalar_function(name, gaps)
                assert value == pytest.approx(expected, rel=1e-7, abs=1e-8), name

    def test_no_errors_falls_back_to_window_gap(self):
        tracker = ErrorDistanceTracker(20)
        for _ in range(50):
            tracker.push(False)
        np.testing.assert_array_equal(tracker.gaps(), [20.0])

    def test_reset(self):
        tracker = ErrorDistanceTracker(10)
        for i in range(30):
            tracker.push(i % 2 == 0)
        tracker.reset()
        assert tracker.n_gaps == 0
        assert len(tracker.stats) == 0

    def test_constant_gaps(self):
        stats = GapStats()
        for _ in range(12):
            stats.push(4.0)
        assert stats.mean() == pytest.approx(4.0)
        assert stats.std() == 0.0
        assert stats.skew() == 0.0
        assert stats.acf(1) == 0.0


class TestBlockPush:
    """Block updates are bit-for-bit the scalar push loop."""

    @given(
        st.integers(0, 10_000),
        st.integers(3, 25),
        st.integers(1, 4),
        st.lists(st.integers(1, 60), min_size=1, max_size=6),
        st.floats(-1e3, 1e3),
    )
    # One row right after warmup (8 rows, window 7): numpy 2.4 ufuncs
    # writing through a strided one-row ``out=`` view fill the wrong
    # elements, so a block kernel that did so would fail here.
    @example(0, 7, 2, [8], 0.0)
    @settings(max_examples=60, deadline=None)
    def test_push_many_matches_push_exactly(
        self, seed, window, rows, chunk_sizes, offset
    ):
        """Arbitrary chunkings (warmup, refresh straddles, >w blocks)."""
        rng = np.random.default_rng(seed)
        scalar = RollingWindowStats(rows, window)
        blocked = RollingWindowStats(rows, window)
        for size in chunk_sizes:
            chunk = rng.normal(loc=offset, scale=2.0, size=(size, rows))
            for value in chunk:
                scalar.push(value)
            blocked.push_many(chunk)
            for a, b in (
                (scalar.means(), blocked.means()),
                (scalar.stds(), blocked.stds()),
                (scalar.skews(), blocked.skews()),
                (scalar.kurtoses(), blocked.kurtoses()),
                (scalar.acf(1), blocked.acf(1)),
                (scalar.acf(2), blocked.acf(2)),
                (scalar.pacf2(), blocked.pacf2()),
                (scalar.turning_rates(), blocked.turning_rates()),
            ):
                np.testing.assert_array_equal(a, b)
        assert scalar.count == blocked.count

    @given(st.integers(0, 10_000), st.integers(5, 30))
    @settings(max_examples=40, deadline=None)
    def test_push_many_histogram_matches_push(self, seed, window):
        rng = np.random.default_rng(seed)
        scalar = RollingWindowStats(2, window)
        blocked = RollingWindowStats(2, window)
        scalar.enable_histogram(4)
        blocked.enable_histogram(4)
        stream = rng.normal(size=(4 * window, 2))
        for value in stream:
            scalar.push(value)
        blocked.push_many(stream[: window // 2])  # warmup split
        blocked.push_many(stream[window // 2 :])
        np.testing.assert_array_equal(
            scalar._hist_counts, blocked._hist_counts
        )
        np.testing.assert_array_equal(
            scalar.histogram_mi(), blocked.histogram_mi()
        )

    @given(st.integers(0, 10_000), st.integers(5, 40), st.floats(0.02, 0.7))
    @settings(max_examples=60, deadline=None)
    def test_error_tracker_push_many_matches_push(self, seed, window, rate):
        rng = np.random.default_rng(seed)
        errors = rng.random(5 * window) < rate
        scalar = ErrorDistanceTracker(window)
        blocked = ErrorDistanceTracker(window)
        for is_err in errors:
            scalar.push(bool(is_err))
        mid = len(errors) // 3
        blocked.push_many(errors[:mid])
        blocked.push_many(errors[mid:])
        np.testing.assert_array_equal(scalar.gaps(), blocked.gaps())
        assert scalar.n_gaps == blocked.n_gaps
        if scalar.n_gaps >= 1:
            assert scalar.stats.values().tolist() == (
                blocked.stats.values().tolist()
            )
            assert scalar.stats.mean() == blocked.stats.mean()
            assert scalar.stats.acf(1) == blocked.stats.acf(1)

    def test_pipeline_push_many_matches_push(self, rng):
        """The chunk entry point: same state, same fingerprints."""
        w, d = 20, 3
        for source_set in ("all", "supervised", "unsupervised", "error_rate"):
            a = FingerprintPipeline(d, source_set=source_set, window_size=w)
            b = FingerprintPipeline(d, source_set=source_set, window_size=w)
            xs = rng.normal(size=(3 * w, d))
            ys = rng.integers(0, 2, size=3 * w)
            ps = rng.integers(0, 2, size=3 * w)
            for i in range(3 * w):
                a.push(xs[i], int(ys[i]), int(ps[i]))
            b.push_many(xs[:7], ys[:7], ps[:7])
            b.push_many(xs[7:], ys[7:], ps[7:])
            win_x, win_y, win_p = xs[-w:], ys[-w:], ps[-w:]
            np.testing.assert_array_equal(
                a.extract_incremental(win_x, win_y, win_p, None),
                b.extract_incremental(win_x, win_y, win_p, None),
            )


def _assert_same_tree(a, b, path="state"):
    """Two state trees are equal down to the bytes of every array."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), path
        for key in a:
            _assert_same_tree(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), path
        assert (a.dtype, a.shape) == (b.dtype, b.shape), path
        assert a.tobytes() == b.tobytes(), path
    else:
        assert type(a) is type(b) and a == b, path


#: One step of a queued/eager pipeline drive: the operation, and for
#: ``push_many`` its row count as a multiple of the window (0 to 2).
#: Pushes and reads are drawn more often than snapshots and resets.
PIPELINE_OPS = st.tuples(
    st.sampled_from(
        ["push"] * 3 + ["push_many"] * 3 + ["extract"] * 3
        + ["n_observed", "snapshot", "reset"]
    ),
    st.floats(0.0, 2.0),
)


class TestQueuedPipeline:
    """The push queue, folded per read, is the eager per-row slide."""

    @given(
        seed=st.integers(0, 10_000),
        window=st.integers(5, 12),
        source_set=st.sampled_from(
            ["all", "supervised", "unsupervised", "error_rate"]
        ),
        profile=st.sampled_from(["exact", "fast"]),
        ops=st.lists(PIPELINE_OPS, min_size=10, max_size=40),
    )
    # More than w pushes with no read: the queue folds when full.
    @example(
        seed=0, window=5, source_set="all", profile="fast",
        ops=[("push", 0.0)] * 11 + [("extract", 0.0)],
    )
    # A fold of exactly one row between two reads.
    @example(
        seed=1, window=6, source_set="supervised", profile="exact",
        ops=[("push_many", 1.0), ("extract", 0.0), ("push", 0.0),
             ("extract", 0.0)],
    )
    @settings(max_examples=120, deadline=None)
    def test_queue_matches_eager_at_every_read(
        self, seed, window, source_set, profile, ops
    ):
        rng = np.random.default_rng(seed)
        d = 3

        def build(cls):
            return cls(
                d, source_set=source_set, window_size=window,
                sketch_profile=profile,
            )

        queued, eager = build(FingerprintPipeline), build(EagerPipeline)
        win = ObservationWindow(window, d)
        seen = 0
        for op, scale in ops + [("snapshot", 0.0)]:
            if op in ("push", "push_many"):
                m = 1 if op == "push" else int(round(scale * window))
                xs = rng.normal(loc=3.0, scale=2.0, size=(m, d))
                ys = rng.integers(0, 3, size=m)
                ps = np.where(rng.random(m) < 0.7, ys, rng.integers(0, 3, size=m))
                if op == "push":
                    queued.push(xs[0], int(ys[0]), int(ps[0]))
                    eager.push(xs[0], int(ys[0]), int(ps[0]))
                else:
                    queued.push_many(xs, ys, ps)
                    eager.push_many(xs, ys, ps)
                win.extend(xs, ys, ps)
                seen += m
            elif op == "extract" and seen >= window:
                arrays = win.arrays()
                a = queued.extract_incremental(*arrays, None)
                b = eager.extract_incremental(*arrays, None)
                assert a.tobytes() == b.tobytes()
            elif op == "n_observed":
                assert queued.n_observed == eager.n_observed == min(seen, window)
            elif op == "snapshot":
                state = queued.state_dict()
                _assert_same_tree(state, eager.state_dict())
                queued, fresh_eager = build(FingerprintPipeline), build(EagerPipeline)
                queued.load_state_dict(state)
                fresh_eager.load_state_dict(eager.state_dict())
                eager = fresh_eager
                _assert_same_tree(queued.state_dict(), eager.state_dict())
            elif op == "reset":
                queued.reset_stream()
                eager.reset_stream()
                win = ObservationWindow(window, d)
                seen = 0


class TestPipelineEquivalence:
    @pytest.mark.parametrize(
        "source_set", ["all", "supervised", "unsupervised", "error_rate"]
    )
    def test_incremental_matches_batch(self, source_set, rng):
        w, d = 30, 3
        pipe = FingerprintPipeline(d, source_set=source_set, window_size=w)
        win = ObservationWindow(w, d)
        checked = 0
        for t in range(150):
            x = rng.normal(loc=np.sin(t / 20) * 4, scale=1.5, size=d)
            y = int(rng.random() < 0.5)
            p = int(rng.random() < 0.3)
            win.append(x, y, p)
            pipe.push(x, y, p)
            if win.full and t % 3 == 0:
                xs, ys, ls = win.arrays()
                batch = pipe.extract(xs, ys, ls, None)
                incremental = pipe.extract_incremental(xs, ys, ls, None)
                np.testing.assert_allclose(incremental, batch, **TOL)
                checked += 1
        assert checked > 20

    def test_perfect_predictions_use_fallback_gap(self, rng):
        """The <2-errors fallback must agree between the two paths."""
        w, d = 20, 2
        pipe = FingerprintPipeline(
            d, metafeatures=["mean", "std"], window_size=w
        )
        win = ObservationWindow(w, d)
        for t in range(40):
            x = rng.random(d)
            win.append(x, 1, 1)  # never an error
            pipe.push(x, 1, 1)
        xs, ys, ls = win.arrays()
        batch = pipe.extract(xs, ys, ls, None)
        incremental = pipe.extract_incremental(xs, ys, ls, None)
        np.testing.assert_allclose(incremental, batch, **TOL)
        idx = pipe.schema.index_of("error_dists", "mean")
        assert batch[idx] == float(w)

    def test_stream_reset(self, rng):
        w, d = 15, 2
        pipe = FingerprintPipeline(d, window_size=w)
        for _ in range(20):
            pipe.push(rng.random(d), 0, 1)
        pipe.reset_stream()
        assert pipe.n_observed == 0
        win = ObservationWindow(w, d)
        for t in range(30):
            x = rng.random(d)
            y, p = int(rng.random() < 0.5), int(rng.random() < 0.5)
            win.append(x, y, p)
            pipe.push(x, y, p)
        xs, ys, ls = win.arrays()
        np.testing.assert_allclose(
            pipe.extract_incremental(xs, ys, ls, None),
            pipe.extract(xs, ys, ls, None),
            **TOL,
        )

    def test_incremental_requires_full_window(self, rng):
        pipe = FingerprintPipeline(2, window_size=10)
        with pytest.raises(RuntimeError, match="full window"):
            pipe.extract_incremental(
                rng.random((10, 2)), np.zeros(10), np.zeros(10), None
            )

    def test_incremental_requires_attached_window(self, rng):
        pipe = FingerprintPipeline(2)
        with pytest.raises(RuntimeError, match="attach_window"):
            pipe.push(rng.random(2), 0, 1)

    def test_window_length_mismatch_rejected(self, rng):
        pipe = FingerprintPipeline(2, window_size=10)
        for _ in range(12):
            pipe.push(rng.random(2), 0, 1)
        with pytest.raises(ValueError, match="does not match"):
            pipe.extract_incremental(
                rng.random((8, 2)), np.zeros(8), np.zeros(8), None
            )


class TestSchemaFromRegistry:
    def test_masks_derive_from_component_metadata(self):
        pipe = FingerprintPipeline(2)
        schema = pipe.schema
        mask = schema.classifier_dependent
        assert mask[schema.index_of("preds", "mean")]
        assert mask[schema.index_of("error_dists", "skew")]
        assert mask[schema.index_of("f0", "shapley")]  # component flag
        assert not mask[schema.index_of("f0", "mean")]
        assert not mask[schema.index_of("labels", "mean")]
        supervised = schema.supervised_dims
        assert supervised[schema.index_of("labels", "mean")]
        assert not supervised[schema.index_of("f1", "std")]

    def test_source_set_masks_round_trip(self):
        """Restricted-variant schemas are consistent with the masks the
        full schema derives for the same sources."""
        full = FingerprintPipeline(3).schema
        smi = FingerprintPipeline(3, source_set="supervised").schema
        umi = FingerprintPipeline(3, source_set="unsupervised").schema
        assert set(smi.source_names) == {
            s for s, m in zip(full.source_names, [False] * 3 + [True] * 4) if m
        }
        assert all(smi.supervised_dims)
        assert not any(umi.supervised_dims)
        er = FingerprintPipeline(3, source_set="error_rate").schema
        assert er.dims == (("errors", "mean"),)
        assert all(er.supervised_dims)

    def test_custom_component_extends_schema_and_masks(self, rng):
        @register_metafeature
        class WindowRange(MetaFeature):
            name = "test_range"
            incremental = False

            def batch_scalar(self, seq):
                return float(seq.max() - seq.min()) if seq.size else 0.0

        try:
            assert expand_functions(["test_range"]) == ("test_range",)
            pipe = FingerprintPipeline(
                2, metafeatures=["mean", "test_range"], window_size=12
            )
            assert pipe.n_dims == 2 * (2 + 4)
            idx = pipe.schema.index_of("f1", "test_range")
            win = ObservationWindow(12, 2)
            for t in range(15):
                x = rng.random(2)
                win.append(x, 0, t % 2)
                pipe.push(x, 0, t % 2)
            xs, ys, ls = win.arrays()
            batch = pipe.extract(xs, ys, ls, None)
            assert batch[idx] == pytest.approx(np.ptp(xs[:, 1]))
            np.testing.assert_allclose(
                pipe.extract_incremental(xs, ys, ls, None), batch, **TOL
            )
            # the custom dim is not classifier-dependent on features
            assert not pipe.schema.classifier_dependent[idx]
        finally:
            METAFEATURES.unregister("test_range")

    def test_unknown_metafeature_rejected(self):
        with pytest.raises(ValueError, match="unknown meta-information"):
            FingerprintPipeline(2, metafeatures=["entropy_of_vibes"])
