"""Chunked stream engine: exact equivalence with per-observation runs.

The one prequential loop (:class:`~repro.serving.runner.StreamRunner`,
which ``prequential_run`` builds) reaches the system through two entry
points: ``process`` per observation, ``process_chunk`` when given a
``chunk_size``.  ``Ficsum.process_chunk`` is a pure execution
restructuring — these tests assert that predictions, drift points,
state-id traces and every reported metric are identical between the
two on seeded streams, for ADWIN-detected and oracle drifts alike,
across chunk sizes.  The run-and-compare cases go through the shared
:mod:`equivalence` harness (``chunk_size`` is the only thing that
differs between twins); ``tests/test_reference.py`` pins both against
the reference's own per-observation loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from equivalence import assert_identical_traces, build_system, run_config

from repro.classifiers import HoeffdingTree
from repro.evaluation.metrics import ConfusionMatrix
from repro.system import AdaptiveSystem

#: The chunked-engine equivalence setup: smaller window and offset
#: periods so sub-chunk boundaries land mid-chunk for every chunk size
#: under test.
CHUNK_KWARGS = dict(dataset="RBF", segment_length=200)
CHUNK_OVERRIDES = {
    "window_size": 30,
    "fingerprint_period": 5,
    "repository_period": 15,
    "grace_period": 25,
    "oracle_drift": False,
    "track_discrimination": False,
}


def run_chunked(chunk_size=None, overrides=None, **kwargs):
    merged = dict(CHUNK_OVERRIDES)
    merged.update(overrides or {})
    run_kwargs = dict(CHUNK_KWARGS)
    run_kwargs.update(kwargs)
    return run_config(merged, chunk_size=chunk_size, **run_kwargs)


@pytest.mark.parametrize("chunk_size", [1, 53, 500])
def test_prequential_chunked_equals_per_observation(chunk_size):
    ref = run_chunked()
    chk = run_chunked(chunk_size=chunk_size)
    assert_identical_traces(ref, chk)
    assert ref.system.n_drifts_detected >= 1  # drifts actually happened


def test_prequential_chunked_oracle_equals_per_observation():
    """Oracle signals fire at the same timesteps on the chunked path."""
    ref = run_chunked(overrides={"oracle_drift": True})
    chk = run_chunked(chunk_size=100, overrides={"oracle_drift": True})
    assert_identical_traces(ref, chk)
    assert len(ref.system.drift_points) >= 3


def test_prequential_chunked_full_metafeature_set():
    ref = run_chunked(
        overrides={"metafeatures": None}, seed=2, max_observations=500
    )
    chk = run_chunked(
        chunk_size=77, overrides={"metafeatures": None}, seed=2,
        max_observations=500,
    )
    assert_identical_traces(ref, chk)


def test_prequential_chunked_respects_max_observations():
    chk = run_chunked(chunk_size=50, max_observations=137)
    assert chk.result.n_observations == 137
    assert len(chk.result.state_ids) == 137


def test_process_chunk_matches_process_directly():
    """Raw process_chunk vs process, including the state-id trace."""
    sys_ref, stream = build_system(CHUNK_OVERRIDES, seed=9, **CHUNK_KWARGS)
    sys_chk, _ = build_system(CHUNK_OVERRIDES, seed=9, **CHUNK_KWARGS)
    data = [(x, y) for x, y, _ in stream]
    X = np.stack([x for x, _ in data])
    Y = np.array([y for _, y in data], dtype=np.int64)

    ref_preds = np.empty(len(Y), dtype=np.int64)
    ref_sids = np.empty(len(Y), dtype=np.int64)
    for i in range(len(Y)):
        ref_preds[i] = sys_ref.process(X[i], int(Y[i]))
        ref_sids[i] = sys_ref.active_state_id

    chk_preds = np.empty(len(Y), dtype=np.int64)
    chk_sids = np.empty(len(Y), dtype=np.int64)
    for start in range(0, len(Y), 83):
        stop = min(start + 83, len(Y))
        out = np.empty(stop - start, dtype=np.int64)
        chk_preds[start:stop] = sys_chk.process_chunk(
            X[start:stop], Y[start:stop], state_ids_out=out
        )
        chk_sids[start:stop] = out

    assert np.array_equal(ref_preds, chk_preds)
    assert np.array_equal(ref_sids, chk_sids)
    assert sys_ref.drift_points == sys_chk.drift_points
    assert sys_ref._step == sys_chk._step


def test_default_process_chunk_loops_process():
    """Systems without an override ride the base-class loop."""

    class TreeSystem(AdaptiveSystem):
        def __init__(self):
            self.tree = HoeffdingTree(2, 3, grace_period=20, seed=4)

        def process(self, x, y):
            prediction = self.tree.predict(x)
            self.tree.learn(x, int(y))
            return prediction

        @property
        def active_state_id(self):
            return 0

    rng = np.random.default_rng(3)
    X = rng.normal(size=(400, 3))
    Y = (X[:, 0] > 0).astype(np.int64)

    ref = TreeSystem()
    expected = np.array([ref.process(X[i], Y[i]) for i in range(len(Y))])
    chk = TreeSystem()
    sids = np.empty(len(Y), dtype=np.int64)
    got = chk.process_chunk(X, Y, state_ids_out=sids)
    assert np.array_equal(expected, got)
    assert np.all(sids == 0)


def test_confusion_update_many_matches_update():
    rng = np.random.default_rng(8)
    y_true = rng.integers(0, 4, size=300)
    y_pred = rng.integers(0, 4, size=300)
    a = ConfusionMatrix(4)
    b = ConfusionMatrix(4)
    for t, p in zip(y_true, y_pred):
        a.update(int(t), int(p))
    b.update_many(y_true, y_pred)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.accuracy == b.accuracy
    assert a.kappa == b.kappa
