"""Tests for the high-level experiment runner."""

from __future__ import annotations

import pytest

from repro.core import FicsumConfig
from repro.evaluation import build_system, prequential_run, run_on_dataset
from repro.evaluation import runner
from repro.registry import SYSTEMS
from repro.streams import make_dataset
from repro.system import AdaptiveSystem

FAST = FicsumConfig(
    fingerprint_period=10, repository_period=100, window_size=50
)

CORE_SYSTEMS = ["ficsum", "er", "smi", "umi", "htcd", "rcd", "dwm", "arf", "cpf"]

#: The Table VI systems: FiCSUM, its ER variant and the five baselines.
TABLE6_SYSTEMS = ["ficsum", "er", "htcd", "rcd", "dwm", "arf", "cpf"]

#: Small windows and periods, so FiCSUM detects drift on short streams.
CELL_CONFIG = FicsumConfig(
    window_size=40, fingerprint_period=4, repository_period=20,
    grace_period=30, drift_warmup_windows=1.0,
)


class TestBuilders:
    def test_all_core_systems_registered(self):
        for name in CORE_SYSTEMS:
            assert name in SYSTEMS

    def test_table5_function_variants_registered(self):
        for group in (
            "mean",
            "std",
            "skew",
            "kurtosis",
            "autocorrelation",
            "partial_autocorrelation",
            "mutual_information",
            "turning_point_rate",
            "imf_entropy",
            "shapley",
        ):
            assert f"fn:{group}" in SYSTEMS

    @pytest.mark.parametrize("name", CORE_SYSTEMS)
    def test_build_system(self, name):
        stream = make_dataset("STAGGER", seed=0, segment_length=20, n_repeats=1)
        system = build_system(name, stream.meta, config=FAST, seed=1)
        assert isinstance(system, AdaptiveSystem)

    def test_unknown_system(self):
        stream = make_dataset("STAGGER", seed=0, segment_length=20, n_repeats=1)
        with pytest.raises(KeyError):
            build_system("gpt", stream.meta)


class TestRunOnDataset:
    @pytest.mark.parametrize("name", ["htcd", "dwm"])
    def test_fast_systems_run(self, name):
        result = run_on_dataset(
            name, "STAGGER", seed=0, segment_length=100, n_repeats=1
        )
        assert result.n_observations == 300
        assert 0.0 <= result.accuracy <= 1.0

    def test_ficsum_runs(self):
        result = run_on_dataset(
            "ficsum",
            "STAGGER",
            seed=0,
            segment_length=120,
            n_repeats=1,
            config=FAST,
        )
        assert result.n_observations == 360

    def test_seed_changes_stream(self):
        a = run_on_dataset("htcd", "RBF", seed=0, segment_length=100, n_repeats=1)
        b = run_on_dataset("htcd", "RBF", seed=1, segment_length=100, n_repeats=1)
        assert a.accuracy != b.accuracy

    def test_same_seed_reproducible(self):
        a = run_on_dataset("htcd", "RBF", seed=5, segment_length=100, n_repeats=1)
        b = run_on_dataset("htcd", "RBF", seed=5, segment_length=100, n_repeats=1)
        assert a.accuracy == b.accuracy
        assert a.kappa == b.kappa

    def test_oracle_flag(self):
        result = run_on_dataset(
            "htcd",
            "STAGGER",
            seed=0,
            segment_length=100,
            n_repeats=2,
            oracle_drift=True,
        )
        assert result.n_states >= 4


class TestChunkedCells:
    @pytest.mark.parametrize("oracle", [False, True], ids=["detected", "oracle"])
    @pytest.mark.parametrize("dataset", ["STAGGER", "RBF"])
    @pytest.mark.parametrize("name", TABLE6_SYSTEMS)
    def test_cell_equals_per_observation_run(
        self, name, dataset, oracle, monkeypatch
    ):
        """``run_on_dataset`` runs a cell in chunks of
        ``runner.CHUNK_SIZE``; its result and drift points equal the
        per-observation run of the same cell."""
        kwargs = dict(
            seed=3, segment_length=80, n_repeats=2, config=CELL_CONFIG,
            oracle_drift=oracle,
        )
        prepare = runner.prepare_run
        chunks = []
        built = []

        def capture(*args, **kw):
            system, stream = prepare(*args, **kw)
            process_chunk = system.process_chunk

            def counted(X, y, state_ids_out=None):
                chunks.append(len(y))
                return process_chunk(X, y, state_ids_out=state_ids_out)

            system.process_chunk = counted
            built.append(system)
            return system, stream

        monkeypatch.setattr(runner, "prepare_run", capture)
        chunked = run_on_dataset(name, dataset, keep_history=True, **kwargs)
        system, stream = prepare(name, dataset, **kwargs)
        per_obs = prequential_run(
            system, stream, oracle_drift=oracle, keep_history=True
        )
        assert max(chunks) == runner.CHUNK_SIZE > 1
        for field in (
            "accuracy", "kappa", "c_f1", "n_observations", "n_drifts",
            "n_states", "discrimination", "concept_ids", "state_ids",
        ):
            assert getattr(chunked, field) == getattr(per_obs, field), field
        assert getattr(built[0], "drift_points", None) == getattr(
            system, "drift_points", None
        )
