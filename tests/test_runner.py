"""Tests for the high-level experiment runner."""

from __future__ import annotations

import pytest

from repro.core import FicsumConfig
from repro.evaluation import build_system, run_on_dataset
from repro.registry import SYSTEMS
from repro.streams import make_dataset
from repro.system import AdaptiveSystem

FAST = FicsumConfig(
    fingerprint_period=10, repository_period=100, window_size=50
)

CORE_SYSTEMS = ["ficsum", "er", "smi", "umi", "htcd", "rcd", "dwm", "arf", "cpf"]


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
