"""Tests for the extension modules: CPF, delayed-label adaptation and
the CLI."""

from __future__ import annotations

import pytest

from repro.baselines import Cpf, Htcd
from repro.cli import main as cli_main
from repro.core import DelayedLabelAdapter, Ficsum, FicsumConfig
from repro.evaluation import prequential_run
from repro.streams import make_dataset


class TestCpf:
    def test_learns(self):
        stream = make_dataset("STAGGER", seed=0, segment_length=400, n_repeats=2)
        system = Cpf(stream.meta.n_features, stream.meta.n_classes)
        result = prequential_run(system, stream)
        assert result.accuracy > 0.6

    def test_reuses_equivalent_classifier(self):
        """With oracle drift signals on recurring STAGGER concepts, the
        prediction-equivalence test must re-select a stored profile."""
        stream = make_dataset("STAGGER", seed=3, segment_length=500, n_repeats=3)
        system = Cpf(stream.meta.n_features, stream.meta.n_classes)
        result = prequential_run(system, stream, oracle_drift=True)
        assert result.n_states < len(stream.schedule)

    def test_pool_bounded(self):
        stream = make_dataset("STAGGER", seed=0, segment_length=250, n_repeats=3)
        system = Cpf(
            stream.meta.n_features, stream.meta.n_classes, max_pool_size=3
        )
        prequential_run(system, stream, oracle_drift=True)
        assert len(system._pool) <= 3

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Cpf(3, 2, buffer_size=5)
        with pytest.raises(ValueError):
            Cpf(3, 2, similarity_margin=0.3)

    def test_registered_in_runner(self):
        from repro.registry import SYSTEMS

        assert "cpf" in SYSTEMS


class TestDelayedLabels:
    def _run(self, delay, missing=0.0):
        stream = make_dataset("STAGGER", seed=1, segment_length=400, n_repeats=2)
        inner = Htcd(stream.meta.n_features, stream.meta.n_classes)
        system = DelayedLabelAdapter(inner, delay=delay, missing_rate=missing)
        result = prequential_run(system, stream)
        system.flush()
        return result, system

    def test_zero_delay_equivalent_path(self):
        result, system = self._run(delay=0)
        assert system.n_labels_delivered == result.n_observations

    def test_delay_degrades_accuracy(self):
        instant, _ = self._run(delay=0)
        delayed, _ = self._run(delay=300)
        assert delayed.accuracy < instant.accuracy

    def test_missing_labels_are_dropped(self):
        result, system = self._run(delay=10, missing=0.5)
        total = system.n_labels_delivered + len(system._queue)
        assert system.n_labels_dropped > 0
        assert system.n_labels_dropped + total == result.n_observations

    def test_wraps_ficsum(self):
        stream = make_dataset("STAGGER", seed=1, segment_length=300, n_repeats=1)
        inner = Ficsum(
            stream.meta.n_features,
            stream.meta.n_classes,
            FicsumConfig(fingerprint_period=10, repository_period=100),
        )
        system = DelayedLabelAdapter(inner, delay=50)
        result = prequential_run(system, stream)
        assert result.n_observations == stream.meta.length
        assert system.active_state_id == inner.active_state_id

    def test_invalid_args(self):
        inner = Htcd(3, 2)
        with pytest.raises(ValueError):
            DelayedLabelAdapter(inner, delay=-1)
        with pytest.raises(ValueError):
            DelayedLabelAdapter(inner, missing_rate=1.0)


class TestCli:
    def test_datasets_command(self, capsys):
        assert cli_main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "STAGGER" in out and "UCI-Wine" in out

    def test_systems_command(self, capsys):
        assert cli_main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "ficsum" in out and "arf" in out

    def test_run_command(self, capsys):
        code = cli_main(
            [
                "run",
                "--system", "htcd",
                "--dataset", "STAGGER",
                "--segment-length", "100",
                "--n-repeats", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kappa" in out

    def test_run_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--system", "nope", "--dataset", "STAGGER"])
