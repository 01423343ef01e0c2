"""Sketch-mode meta-features: declared bounds, knob wiring, pinning.

Four layers of guarantees:

* **Declared error bounds** (hypothesis property tests): the projection
  sketch's cosine similarity stays within its declared tolerance of the
  exact detail-signal cosine; the fixed-bin histogram MI equals the
  exact estimator whenever the adaptive bin choice coincides (w=75, the
  paper's window); the streaming (frozen-edge) histogram MI equals the
  batch fixed-bin estimator on the freezing window; subsampled IMF
  entropy is deterministic and equals the decimated batch reference.
* **Knob wiring**: profile substitution maps resolved selections
  through the registry; every sketch component declares complete
  RPR007 metadata pointing at a registered exact reference; config and
  spec validate and round-trip the profile.
* **Exact-profile pinning**: ``sketch_profile="exact"`` is bit-for-bit
  the default path across all five execution toggles, and the chunked
  engine (which drives the vectorised block-push accumulators) is
  bit-for-bit the per-observation engine under *every* profile.
* **Checkpoint resume**: interrupted runs restore bit-for-bit under
  every profile — the sketch accumulator state (streaming histogram
  counts and edges) rides the state_dict contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from equivalence import (
    SCENARIOS,
    RunTrace,
    assert_equivalent_configs,
    assert_identical_traces,
    build_system,
    run_config,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FicsumConfig
from repro.evaluation.prequential import RunResult
from repro.experiments.artifacts import RunArtifact, aggregate
from repro.experiments.spec import ExperimentSpec, RunCell
from repro.metafeatures import FingerprintPipeline, RollingWindowStats
from repro.metafeatures.emd import imf_entropies
from repro.metafeatures.mutual_info import lagged_mutual_information
from repro.metafeatures.sketch import (
    HISTOGRAM_BINS,
    SKETCH_PROFILE_NAMES,
    SKETCH_PROFILES,
    HistogramMi,
    ProjectionEntropy,
    SubsampledImfEntropy,
    apply_sketch_profile,
)
from repro.registry import METAFEATURES
from repro.serving.runner import StreamRunner

#: A small selection touching every sketchable component family, so
#: profile runs stay fast while exercising substitution end to end.
SKETCHABLE = ["mean", "std", "autocorrelation", "mutual_information",
              "imf_entropy"]


# ----------------------------------------------------------------------
# Knob wiring
# ----------------------------------------------------------------------
class TestProfileWiring:
    def test_exact_profile_is_identity(self):
        names = ("mean", "mi", "imf1_entropy", "shapley")
        assert apply_sketch_profile(names, "exact") == names

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="sketch_profile"):
            apply_sketch_profile(("mean",), "warp")
        with pytest.raises(ValueError, match="sketch_profile"):
            FicsumConfig(sketch_profile="warp")

    def test_profiles_map_to_registered_sketches(self):
        for profile, table in SKETCH_PROFILES.items():
            for source, target in table.items():
                exact = METAFEATURES[source]
                sketch = METAFEATURES[target]
                assert exact.exact, (profile, source)
                assert not sketch.exact, (profile, target)
                assert sketch.accuracy_knob, target
                assert sketch.exact_reference == source

    def test_pipeline_substitutes_and_enables_histogram(self):
        pipe = FingerprintPipeline(
            3, metafeatures=SKETCHABLE, window_size=10,
            sketch_profile="balanced",
        )
        assert "mi_hist" in pipe.schema.function_names
        assert "imf1_entropy_sub" in pipe.schema.function_names
        assert pipe._rolling.histogram_enabled
        exact = FingerprintPipeline(3, metafeatures=SKETCHABLE, window_size=10)
        assert "mi" in exact.schema.function_names
        assert not exact._rolling.histogram_enabled

    def test_spec_sugar_and_conflicts(self):
        spec = ExperimentSpec(
            systems=["ficsum"], datasets=["STAGGER"], sketch_profile="fast"
        )
        assert spec.config == {"sketch_profile": "fast"}
        cell = spec.expand()[0]
        assert cell.config().sketch_profile == "fast"
        with pytest.raises(ValueError, match="sketch_profile"):
            ExperimentSpec(
                systems=["ficsum"], datasets=["STAGGER"],
                sketch_profile="fast", config={"sketch_profile": "balanced"},
            )
        round_trip = ExperimentSpec.from_dict(
            {"systems": ["ficsum"], "datasets": ["STAGGER"],
             "sketch_profile": "fast"}
        )
        assert round_trip.config == {"sketch_profile": "fast"}

    def test_aggregate_reports_accuracy_delta(self):
        def artifact(profile, accuracy, seed):
            overrides = (
                (("sketch_profile", profile),) if profile != "exact" else ()
            )
            cell = RunCell(
                system="ficsum", dataset="STAGGER", seed=seed,
                config_overrides=overrides,
            )
            result = RunResult(
                accuracy=accuracy, kappa=0.5, c_f1=0.5, runtime_s=0.1,
                n_observations=100, n_drifts=1, n_states=2,
            )
            return RunArtifact(
                key=cell.key(), spec_hash="s", cell=cell, result=result
            )

        rows = aggregate(
            [
                artifact("exact", 0.90, 0),
                artifact("exact", 0.92, 1),
                artifact("fast", 0.89, 0),
                artifact("fast", 0.91, 1),
            ],
            metrics=("accuracy",),
        )
        by_profile = {r.sketch_profile: r for r in rows}
        assert by_profile["exact"].accuracy_delta_pp is None
        assert by_profile["fast"].accuracy_delta_pp == pytest.approx(-1.0)


# ----------------------------------------------------------------------
# Declared error bounds
# ----------------------------------------------------------------------
class TestSketchBounds:
    @pytest.mark.parametrize("mode", [1, 2])
    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_projection_cosine_within_declared_tolerance(self, mode, seed):
        comp = ProjectionEntropy(mode)
        rng = np.random.default_rng(seed)
        w = int(rng.integers(20, 120))
        a = rng.normal(size=w) * rng.uniform(0.5, 3.0)
        b = rng.normal(size=w) * rng.uniform(0.5, 3.0)
        if rng.random() < 0.5:  # include the correlated regime
            b = a + rng.normal(scale=0.3, size=w)
        da, db = comp.detail(a), comp.detail(b)
        sa, sb = comp.project(a), comp.project(b)
        exact = da @ db / (np.linalg.norm(da) * np.linalg.norm(db))
        sketch = sa @ sb / (np.linalg.norm(sa) * np.linalg.norm(sb))
        assert abs(exact - sketch) <= comp.cosine_tolerance

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_histogram_mi_equals_exact_at_paper_window(self, seed):
        """w=75 makes the exact estimator pick 4 bins == the sketch's."""
        rng = np.random.default_rng(seed)
        seq = rng.normal(size=75)
        assert HistogramMi().batch_scalar(seq) == (
            lagged_mutual_information(seq)
        )

    @given(st.integers(0, 100_000), st.integers(8, 40))
    @settings(max_examples=60, deadline=None)
    def test_streaming_mi_equals_batch_when_edges_coincide(self, seed, w):
        """Frozen edges == batch edges on the window that froze them.

        Integer-valued rows hitting the extremes in both lag slices make
        the streaming floor-binning and the batch searchsorted binning
        provably identical, so the MI values must agree.
        """
        rng = np.random.default_rng(seed)
        values = rng.integers(0, HISTOGRAM_BINS, size=(w, 2)).astype(
            np.float64
        ) * 3.0
        # Extremes present in x[:-1] and x[1:] of both rows.
        values[1] = 0.0
        values[2] = 3.0 * (HISTOGRAM_BINS - 1)
        stats = RollingWindowStats(2, w)
        stats.enable_histogram(HISTOGRAM_BINS)
        stats.push_many(values)
        streamed = stats.histogram_mi()
        for row in range(2):
            batch = lagged_mutual_information(
                values[:, row], bins=HISTOGRAM_BINS
            )
            assert streamed[row] == pytest.approx(batch, rel=1e-12, abs=1e-12)

    @given(st.integers(0, 100_000), st.integers(12, 90))
    @settings(max_examples=60, deadline=None)
    def test_subsampled_imf_is_deterministic(self, seed, w):
        rng = np.random.default_rng(seed)
        seq = rng.normal(size=w) + np.sin(np.arange(w) / 3.0)
        for mode in (1, 2):
            comp_a = SubsampledImfEntropy(mode)
            comp_b = SubsampledImfEntropy(mode)
            value = comp_a.batch_scalar(seq)
            assert comp_b.batch_scalar(seq) == value  # instance-independent
            assert comp_a.batch_scalar(seq) == value  # call-independent
            assert value == imf_entropies(seq[::2], 2)[mode - 1]

    def test_projection_sketch_is_deterministic(self):
        rng = np.random.default_rng(3)
        seq = rng.normal(size=75)
        for mode in (1, 2):
            a = ProjectionEntropy(mode)
            b = ProjectionEntropy(mode)
            np.testing.assert_array_equal(a.project(seq), b.project(seq))
            assert a.batch_scalar(seq) == b.batch_scalar(seq)

    def test_batch_rows_match_batch_scalar(self, rng):
        """Vectorised row kernels == per-row scalars for every sketch."""
        from repro.metafeatures.components import WindowContext

        matrix = rng.normal(size=(4, 75))
        ctx = WindowContext(matrix)
        for comp in (
            HistogramMi(),
            SubsampledImfEntropy(1),
            SubsampledImfEntropy(2),
            ProjectionEntropy(1),
            ProjectionEntropy(2),
        ):
            rows = comp.batch_rows(ctx)
            for i in range(matrix.shape[0]):
                assert rows[i] == pytest.approx(
                    comp.batch_scalar(matrix[i]), rel=1e-12, abs=1e-12
                ), comp.name


# ----------------------------------------------------------------------
# Projection memo
# ----------------------------------------------------------------------
def _projection_matrix(mode: int, length: int) -> np.ndarray:
    """The projection matrix as first defined: ``(2 s - 1) / sqrt(n)``."""
    rng = np.random.default_rng(7_654_321 + 1_000 * mode + length)
    signs = rng.integers(0, 2, size=(ProjectionEntropy.n_projections, length))
    return (2.0 * signs - 1.0) / np.sqrt(length)


class TestProjectionMemo:
    @pytest.mark.parametrize("mode", [1, 2])
    def test_both_paths_give_the_defined_sketches(self, mode, rng):
        """:meth:`project` builds its matrix per call from a sign
        pattern; :meth:`batch_rows` reads a memoised matrix.  Both are
        byte for byte the matrix as first defined, for every length."""
        comp = ProjectionEntropy(mode)
        for length in range(2, 200):
            defined = _projection_matrix(mode, length)
            seq = rng.normal(size=length + mode)
            assert comp.project(seq).tobytes() == (
                defined @ comp.detail(seq)
            ).tobytes()
            assert comp.vectors(length).tobytes() == defined.tobytes()

    def test_float_memo_holds_window_lengths_only(self, monkeypatch):
        """After a ``serve-fast`` stream the float matrices are the
        window's detail lengths; the error-gap lengths keep sign
        patterns only."""
        comps = [METAFEATURES.get(f"imf{mode}_entropy_proj") for mode in (1, 2)]
        for comp in comps:
            monkeypatch.setattr(comp, "_vectors", {})
            monkeypatch.setattr(comp, "_signs", {})
        overrides, kwargs = SCENARIOS["serve-fast"]
        run_config(overrides, **kwargs)
        w = FicsumConfig().window_size
        for comp in comps:
            assert sorted(comp._vectors) == [w - comp.mode]
            assert len(comp._signs) > 10


# ----------------------------------------------------------------------
# Exact-profile pinning
# ----------------------------------------------------------------------
class TestExactProfilePinned:
    def test_exact_profile_is_current_path(self):
        """Explicit sketch_profile="exact" never perturbs a run."""
        assert_equivalent_configs({}, {"sketch_profile": "exact"})

    @pytest.mark.parametrize("profile", SKETCH_PROFILE_NAMES)
    def test_chunked_equals_per_observation(self, profile):
        """The chunked engine drives the vectorised block-push
        accumulators (including the streaming histogram); it must be
        bit-for-bit the per-observation engine under every profile."""
        overrides = {"sketch_profile": profile, "metafeatures": SKETCHABLE}
        a = run_config(overrides)
        b = run_config(overrides, chunk_size=16)
        assert_identical_traces(a, b)


# ----------------------------------------------------------------------
# Checkpoint resume under every profile
# ----------------------------------------------------------------------
class TestCheckpointResumeUnderProfiles:
    @pytest.mark.parametrize("profile", SKETCH_PROFILE_NAMES)
    def test_interrupt_restore_identical(self, profile, tmp_path):
        overrides = {"sketch_profile": profile, "metafeatures": SKETCHABLE}
        reference = run_config(overrides)
        system, stream = build_system(overrides)
        runner = StreamRunner(
            system, stream, oracle_drift=system.config.oracle_drift
        )
        runner.run(max_observations=350)
        path = runner.save_checkpoint(tmp_path / "ckpt")
        _, fresh_stream = build_system(overrides)
        restored = StreamRunner.restore(path, fresh_stream)
        result = restored.run()
        assert_identical_traces(
            RunTrace(result, restored.system), reference
        )
