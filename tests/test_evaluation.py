"""Tests for metrics, prequential harness and significance tests."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import (
    ConfusionMatrix,
    average_ranks,
    co_occurrence_f1,
    cohens_kappa,
    friedman_test,
    nemenyi_cd,
    prequential_run,
)
from repro.evaluation.discrimination import (
    DiscriminationSummary,
    summarize_discrimination,
)
from repro.evaluation.stats import significantly_better
import repro
from repro.streams import make_dataset
from repro.baselines import Htcd


class TestKappa:
    def test_perfect_agreement(self):
        y = [0, 1, 0, 1, 1, 0]
        assert cohens_kappa(y, y, 2) == pytest.approx(1.0)

    def test_chance_level_is_zero(self, rng):
        y_true = rng.integers(0, 2, 20000)
        y_pred = rng.integers(0, 2, 20000)
        assert abs(cohens_kappa(y_true, y_pred, 2)) < 0.05

    def test_majority_predictor_is_zero(self):
        y_true = [0] * 70 + [1] * 30
        y_pred = [0] * 100
        assert cohens_kappa(y_true, y_pred, 2) == pytest.approx(0.0)

    def test_known_value(self):
        # classic 2x2 example: po=0.7, pe=0.5 -> kappa=0.4
        y_true = [0] * 50 + [1] * 50
        y_pred = [0] * 35 + [1] * 15 + [1] * 35 + [0] * 15
        assert cohens_kappa(y_true, y_pred, 2) == pytest.approx(0.4)

    def test_accuracy(self):
        cm = ConfusionMatrix(2)
        for t, p in [(0, 0), (0, 1), (1, 1), (1, 1)]:
            cm.update(t, p)
        assert cm.accuracy == pytest.approx(0.75)

    def test_empty(self):
        cm = ConfusionMatrix(3)
        assert cm.accuracy == 0.0
        assert cm.kappa == 0.0

    def test_invalid_classes(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(1)

    @given(
        st.lists(st.integers(0, 2), min_size=10, max_size=100),
    )
    @settings(max_examples=40)
    def test_kappa_bounded(self, y_true):
        rng = np.random.default_rng(len(y_true))
        y_pred = rng.integers(0, 3, len(y_true))
        kappa = cohens_kappa(y_true, list(y_pred), 3)
        assert -1.0 - 1e-9 <= kappa <= 1.0 + 1e-9


class TestCoOccurrenceF1:
    def test_perfect_tracking(self):
        concepts = [0, 0, 1, 1, 0, 0]
        states = [5, 5, 9, 9, 5, 5]
        assert co_occurrence_f1(concepts, states) == pytest.approx(1.0)

    def test_single_state_for_everything(self):
        concepts = [0] * 50 + [1] * 50
        states = [0] * 100
        # each concept: precision 0.5, recall 1 -> F1 = 2/3
        assert co_occurrence_f1(concepts, states) == pytest.approx(2.0 / 3.0)

    def test_fresh_state_per_segment(self):
        # HTCD-style: concept 0 appears in 2 segments with 2 state ids
        concepts = [0] * 10 + [1] * 10 + [0] * 10
        states = [0] * 10 + [1] * 10 + [2] * 10
        # best M for concept 0 covers half its occurrences
        expected_c0 = 2 * (1.0 * 0.5) / 1.5
        expected_c1 = 1.0
        assert co_occurrence_f1(concepts, states) == pytest.approx(
            (expected_c0 + expected_c1) / 2
        )

    def test_empty(self):
        assert co_occurrence_f1([], []) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            co_occurrence_f1([0], [0, 1])

    def test_split_state_penalised(self):
        concepts = [0] * 40
        split = [1] * 20 + [2] * 20
        whole = [1] * 40
        assert co_occurrence_f1(concepts, whole) > co_occurrence_f1(
            concepts, split
        )


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout;
    return what it printed."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    return result.stdout.strip()


class TestStats:
    def test_streaming_imports_leave_scipy_stats_unloaded(self):
        """The significance tests and RCD import scipy.stats when called:
        a process that only streams never loads it."""
        code = (
            "import sys\n"
            "import repro.serving.runner, repro.core.ficsum\n"
            "import repro.evaluation.prequential\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        assert _fresh_interpreter(code) == "False"

    def test_engine_leaves_scipy_unloaded(self):
        """The Hoeffding tree's split search has its own erf: a stream
        process loads no scipy module, through a split of the active
        tree and a snapshot save and restore."""
        code = (
            "import sys, tempfile\n"
            "from repro.core import Ficsum, FicsumConfig\n"
            "from repro.serving.snapshot import load_system, save_system\n"
            "from repro.streams.datasets import make_dataset\n"
            "stream = make_dataset('RBF', seed=1, segment_length=600, n_repeats=1)\n"
            "meta = stream.meta\n"
            "system = Ficsum(meta.n_features, meta.n_classes, FicsumConfig())\n"
            "for x, y, _ in stream:\n"
            "    system.process(x, y)\n"
            "    if system._active.classifier.n_splits:\n"
            "        break\n"
            "print(system._active.classifier.n_splits)\n"
            "with tempfile.TemporaryDirectory() as root:\n"
            "    save_system(system, root + '/snapshot')\n"
            "    load_system(root + '/snapshot')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        splits, modules = _fresh_interpreter(code).splitlines()
        assert int(splits) > 0
        assert modules == "[]"

    def test_average_ranks_higher_better(self):
        scores = np.array([[0.9, 0.5, 0.1], [0.8, 0.6, 0.2]])
        ranks = average_ranks(scores)
        np.testing.assert_allclose(ranks, [1.0, 2.0, 3.0])

    def test_average_ranks_ties(self):
        scores = np.array([[0.5, 0.5, 0.1]])
        ranks = average_ranks(scores)
        np.testing.assert_allclose(ranks, [1.5, 1.5, 3.0])

    def test_friedman_detects_consistent_winner(self, rng):
        base = rng.random((12, 3)) * 0.1
        base[:, 0] += 0.5  # system 0 always wins
        base[:, 2] -= 0.05
        result = friedman_test(base)
        assert result.p_value < 0.01
        assert result.ranks[0] == pytest.approx(1.0)

    def test_friedman_null_case(self, rng):
        scores = rng.random((10, 4))
        result = friedman_test(scores)
        assert result.p_value > 0.0001  # unlikely to be extreme

    def test_nemenyi_cd_formula(self):
        # k=4, N=11 (the paper's Table IV setting)
        cd = nemenyi_cd(4, 11)
        assert cd == pytest.approx(2.569 * np.sqrt(4 * 5 / (6 * 11)), rel=1e-6)

    def test_nemenyi_invalid(self):
        with pytest.raises(ValueError):
            nemenyi_cd(15, 10)
        with pytest.raises(ValueError):
            nemenyi_cd(4, 10, alpha=0.10)

    def test_significantly_better(self):
        ranks = [1.2, 3.5, 1.8]
        worse = significantly_better(ranks, cd=1.0, reference=0)
        assert worse == [1]


class TestDiscriminationSummary:
    def test_basic(self):
        s = summarize_discrimination([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.n_samples == 3

    def test_filters_non_finite(self):
        s = summarize_discrimination([1.0, np.inf, np.nan, 3.0])
        assert s.n_samples == 2

    def test_empty(self):
        s = summarize_discrimination([])
        assert s.n_samples == 0
        assert s.formatted() == "-"

    def test_formatted_clip(self):
        s = DiscriminationSummary(mean=750.0, std=20.0, n_samples=5)
        assert s.formatted() == ">500 (20.00)"


class TestPrequentialRun:
    def test_counts_and_history(self):
        stream = make_dataset("STAGGER", seed=0, segment_length=60, n_repeats=1)
        system = Htcd(stream.meta.n_features, stream.meta.n_classes)
        result = prequential_run(system, stream)
        assert result.n_observations == stream.meta.length
        assert len(result.concept_ids) == result.n_observations
        assert len(result.state_ids) == result.n_observations
        assert 0.0 <= result.accuracy <= 1.0

    def test_max_observations(self):
        stream = make_dataset("STAGGER", seed=0, segment_length=100, n_repeats=2)
        system = Htcd(stream.meta.n_features, stream.meta.n_classes)
        result = prequential_run(system, stream, max_observations=150)
        assert result.n_observations == 150

    def test_oracle_mode_triggers_resets(self):
        stream = make_dataset("STAGGER", seed=0, segment_length=100, n_repeats=2)
        system = Htcd(stream.meta.n_features, stream.meta.n_classes)
        result = prequential_run(system, stream, oracle_drift=True)
        # HTCD resets on every oracle signal -> distinct state per segment
        n_segments_with_change = len(stream.drift_points) + 1
        assert result.n_states == n_segments_with_change

    def test_keep_history_false(self):
        stream = make_dataset("STAGGER", seed=0, segment_length=50, n_repeats=1)
        system = Htcd(stream.meta.n_features, stream.meta.n_classes)
        result = prequential_run(system, stream, keep_history=False)
        assert result.concept_ids == []
        assert result.c_f1 >= 0.0  # still computed before dropping history
