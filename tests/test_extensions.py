"""Tests for the extension modules: AGRAWAL/LED generators, CPF,
delayed-label adaptation and the CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import Cpf, Htcd
from repro.cli import main as cli_main
from repro.core import DelayedLabelAdapter, Ficsum, FicsumConfig
from repro.evaluation import prequential_run
from repro.streams import RecurrentStream, make_dataset
from repro.streams.synthetic import (
    AgrawalConcept,
    LedConcept,
    agrawal_concepts,
    led_concepts,
)


class TestAgrawal:
    def test_shapes_and_labels(self, rng):
        concept = AgrawalConcept(0)
        for _ in range(100):
            x, y = concept.sample(rng)
            assert x.shape == (9,)
            assert y in (0, 1)

    def test_function0_semantics(self, rng):
        concept = AgrawalConcept(0)
        for _ in range(200):
            x, y = concept.sample(rng)
            age = x[2]
            assert y == int(age < 40 or age >= 60)

    def test_commission_rule(self, rng):
        concept = AgrawalConcept(0)
        for _ in range(300):
            x, _ = concept.sample(rng)
            salary, commission = x[0], x[1]
            if salary >= 75000:
                assert commission == 0.0

    @pytest.mark.parametrize("function", range(10))
    def test_all_functions_produce_both_classes(self, function, rng):
        concept = AgrawalConcept(function)
        _, ys = concept.take(800, rng)
        assert len(np.unique(ys)) == 2

    def test_perturbation_changes_features_not_labels(self):
        clean = AgrawalConcept(6, perturbation=0.0)
        noisy = AgrawalConcept(6, perturbation=0.3)
        xs_c, ys_c = clean.take(200, np.random.default_rng(1))
        xs_n, ys_n = noisy.take(200, np.random.default_rng(1))
        assert not np.allclose(xs_c[:, 0], xs_n[:, 0])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            AgrawalConcept(10)
        with pytest.raises(ValueError):
            AgrawalConcept(0, perturbation=2.0)

    def test_pool_and_stream(self):
        pool = agrawal_concepts(4)
        stream = RecurrentStream(pool, segment_length=50, n_repeats=2, seed=0)
        observations = list(stream)
        assert len(observations) == stream.meta.length


class TestLed:
    def test_shapes(self, rng):
        concept = LedConcept(seed=1)
        x, y = concept.sample(rng)
        assert x.shape == (24,)
        assert 0 <= y < 10

    def test_noiseless_display_is_decodable(self, rng):
        concept = LedConcept(seed=2, noise=0.0, n_irrelevant=0)
        inverse = np.argsort(concept.permutation)
        from repro.streams.synthetic.led import _SEGMENTS

        for _ in range(100):
            x, y = concept.sample(rng)
            segments = x[inverse]
            np.testing.assert_array_equal(segments, _SEGMENTS[y])

    def test_permutations_differ_between_concepts(self):
        pool = led_concepts(3, seed=5)
        assert not np.array_equal(pool[0].permutation, pool[1].permutation)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            LedConcept(seed=0, noise=0.7)
        with pytest.raises(ValueError):
            LedConcept(seed=0, n_irrelevant=-1)

    def test_all_digits_appear(self, rng):
        concept = LedConcept(seed=0, noise=0.05)
        _, ys = concept.take(500, rng)
        assert len(np.unique(ys)) == 10


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
