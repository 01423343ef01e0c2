"""Warm/cold concept tiering: archive on evict, rehydrate on shortlist.

Three contracts pin :class:`~repro.core.store.TieredConceptStore`:

* **Round trip** — an evicted state's serialized payload, archived as a
  manifest-verified cold artifact and rebuilt through
  :meth:`ConceptState.from_state_dict`, is ``state_dict``-identical to
  the original (classifier pickle bytes included).
* **Loud corruption** — a missing or tampered cold artifact raises
  :class:`~repro.serving.manifest.SnapshotError` at rehydration time;
  tier damage must never surface as a silently absent concept.
* **Checkpointable** — a run under eviction pressure with tiering
  attached, interrupted mid-stream and restored into a fresh system +
  fresh store over the same cold root, finishes bit-for-bit identical
  to the uninterrupted run.
"""

from __future__ import annotations

import numpy as np
import pytest
from equivalence import build_system

from repro.classifiers import HoeffdingTree
from repro.core import Repository, TieredConceptStore
from repro.serving.manifest import SnapshotError
from repro.serving.metrics import StatsCollector

N_DIMS = 6

#: Tier-pressure configuration: ADWIN drift on a recurring stream with
#: a repository far too small for the repertoire, prefilter on so cold
#: concepts are sketch-scored (and rehydrated) during selection.
TIER_CONFIG = {
    "oracle_drift": False,
    "max_repository_size": 3,
    "ann_prefilter": True,
}


def _tree(seed: int, n_features: int = 4, n_train: int = 120):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_train, n_features))
    tree = HoeffdingTree(2, n_features, grace_period=20, seed=seed)
    for i in range(n_train):
        tree.learn(X[i], int(X[i, 0] > 0))
    return tree


def _stocked_states(*seeds: int):
    """Concept states (one repository, distinct ids) with real
    fingerprint history and classifiers."""
    repo = Repository(8)
    states = []
    for seed in seeds:
        state = repo.new_state(N_DIMS, _tree(seed), step=0)
        rng = np.random.default_rng(50 + seed)
        for _ in range(5):
            state.fingerprint.incorporate(rng.normal(size=N_DIMS))
        states.append(state)
    return states


def _stocked_state(seed: int = 1):
    return _stocked_states(seed)[0]


def _assert_payloads_equal(a, b, path="", ignore=()):
    """Recursive exact equality over nested state-dict payloads.

    ``ignore`` names keys to skip — used for classifier pickle blobs,
    whose bytes legitimately vary with serialization history (pickle
    memo structure), and which are compared behaviourally instead.
    """
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: key mismatch"
        for key in a:
            if key in ignore:
                continue
            _assert_payloads_equal(a[key], b[key], f"{path}.{key}", ignore)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length mismatch"
        for i, (ai, bi) in enumerate(zip(a, b)):
            _assert_payloads_equal(ai, bi, f"{path}[{i}]", ignore)
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=path)
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


class TestRoundTrip:
    def test_state_dict_identical_after_rehydration(self, tmp_path):
        state = _stocked_state()
        payload = state.state_dict()
        store = TieredConceptStore(tmp_path / "tier")
        store.store(state.state_id, payload, step=7)
        loaded = store.load(state.state_id)
        _assert_payloads_equal(loaded.state_dict(), payload)

    def test_rehydrated_classifier_predicts_identically(self, tmp_path):
        state = _stocked_state(seed=3)
        store = TieredConceptStore(tmp_path / "tier")
        store.store(state.state_id, state.state_dict())
        loaded = store.load(state.state_id)
        X = np.random.default_rng(9).normal(size=(32, 4))
        for x in X:
            assert loaded.classifier.predict(x) == state.classifier.predict(x)

    def test_warm_index_tracks_archived_means(self, tmp_path):
        store = TieredConceptStore(tmp_path / "tier")
        states = _stocked_states(1, 2)
        # Archive in reverse id order; warm_entries must sort.
        for state in reversed(states):
            store.store(state.state_id, state.state_dict())
        ids, means = store.warm_entries()
        assert ids == sorted(s.state_id for s in states)
        assert store.writes == 2 and len(store) == 2
        for i, sid in enumerate(ids):
            assert sid in store
            src = next(s for s in states if s.state_id == sid)
            np.testing.assert_array_equal(means[i], src.fingerprint.means)

    def test_forget_drops_warm_but_keeps_cold_artifact(self, tmp_path):
        state = _stocked_state()
        store = TieredConceptStore(tmp_path / "tier")
        store.store(state.state_id, state.state_dict())
        store.forget(state.state_id)
        assert state.state_id not in store and len(store) == 0
        # The stale artifact survives on disk and still loads clean.
        assert store.path_of(state.state_id).is_dir()
        assert store.load(state.state_id).state_id == state.state_id


class TestCorruption:
    def test_missing_artifact_raises_snapshot_error(self, tmp_path):
        store = TieredConceptStore(tmp_path / "tier")
        with pytest.raises(SnapshotError):
            store.load(404)

    def test_tampered_payload_raises_snapshot_error(self, tmp_path):
        state = _stocked_state()
        store = TieredConceptStore(tmp_path / "tier")
        path = store.store(state.state_id, state.state_dict())
        blob = path / "objects.pkl"
        blob.write_bytes(b"\x00" + blob.read_bytes()[1:])
        with pytest.raises(SnapshotError):
            store.load(state.state_id)

    def test_deleted_payload_file_raises_snapshot_error(self, tmp_path):
        state = _stocked_state()
        store = TieredConceptStore(tmp_path / "tier")
        path = store.store(state.state_id, state.state_dict())
        (path / "arrays.npz").unlink()
        with pytest.raises(SnapshotError):
            store.load(state.state_id)

    def test_undecodable_classifier_raises_snapshot_error(self, tmp_path):
        """An artifact whose digests verify but whose classifier blob
        does not unpickle (here: truncated) is a SnapshotError too."""
        state = _stocked_state()
        payload = state.state_dict()
        payload["classifier"] = payload["classifier"][:-20]
        store = TieredConceptStore(tmp_path / "tier")
        store.store(state.state_id, payload)
        with pytest.raises(SnapshotError, match="undecodable"):
            store.load(state.state_id)


def _drive(system, observations):
    """Process observations, returning the prediction trace."""
    return [system.process(obs[0], obs[1]) for obs in observations]


def _tiered_system(tmp_path, name):
    system, stream = build_system(TIER_CONFIG, n_repeats=4)
    store = TieredConceptStore(tmp_path / name)
    system.attach_tier_store(store)
    return system, store, list(stream)


class TestCheckpointUnderTiering:
    def test_interrupt_restore_identical(self, tmp_path):
        # Reference: uninterrupted run under eviction pressure.
        ref_system, ref_store, observations = _tiered_system(
            tmp_path, "ref"
        )
        ref_preds = _drive(ref_system, observations)
        assert ref_store.writes > 0, "scenario must exercise the tier"
        assert ref_store.rehydrated > 0, "scenario must rehydrate"

        # Twin: run half, snapshot system + store, restore into a
        # fresh pair over the same cold root, finish the stream.
        half = len(observations) // 2
        twin_system, twin_store, _ = _tiered_system(tmp_path, "twin")
        head = _drive(twin_system, observations[:half])
        system_state = twin_system.state_dict()
        store_state = twin_store.state_dict()

        restored, _ = build_system(TIER_CONFIG, n_repeats=4)
        fresh_store = TieredConceptStore(tmp_path / "twin")
        fresh_store.load_state_dict(store_state)
        restored.attach_tier_store(fresh_store)
        restored.load_state_dict(system_state)
        tail = _drive(restored, observations[half:])

        assert head + tail == ref_preds
        assert restored.drift_points == ref_system.drift_points
        assert restored._active.state_id == ref_system._active.state_id
        # Classifier blobs are compared behaviourally below: pickle
        # bytes vary with serialization history, behaviour must not.
        _assert_payloads_equal(
            restored.repository.state_dict(),
            ref_system.repository.state_dict(),
            ignore=("classifier",),
        )
        probe = np.asarray([obs[0] for obs in observations[:32]])
        for res_state, ref_state in zip(
            restored.repository.states(), ref_system.repository.states()
        ):
            assert res_state.state_id == ref_state.state_id
            np.testing.assert_array_equal(
                res_state.classifier.predict_batch(probe),
                ref_state.classifier.predict_batch(probe),
            )
        _assert_payloads_equal(
            fresh_store.state_dict(), ref_store.state_dict()
        )

    def test_store_state_dict_round_trip(self, tmp_path):
        store = TieredConceptStore(tmp_path / "tier")
        for state in _stocked_states(1, 2):
            store.store(state.state_id, state.state_dict())
        store.rehydrated = 3
        clone = TieredConceptStore(tmp_path / "tier")
        clone.load_state_dict(store.state_dict())
        _assert_payloads_equal(clone.state_dict(), store.state_dict())


class TestRehydrationCapacity:
    def test_admissions_capped_by_repository_capacity(self, tmp_path):
        """A shortlist full of perfect-scoring cold concepts must not
        protect more states than the repository can hold.

        Regression: rehydration once protected the active state plus
        every admission of the selection, so admitting
        ``max_repository_size`` cold concepts in one selection left
        nothing evictable and raised :class:`RepositoryFullError`.
        """
        system, stream = build_system(TIER_CONFIG, n_repeats=4)
        store = TieredConceptStore(tmp_path / "tier")
        system.attach_tier_store(store)
        observations = list(stream)
        for obs in observations[: system.config.window_size]:
            system.process(obs[0], obs[1])
        assert system.window.full
        xa, ya, _ = system.window.arrays()
        query = system._window_fingerprint(xa, ya, system._active)
        # Five cold concepts whose means equal the query: all of them
        # out-score every hot candidate, so the combined shortlist is
        # dominated by warm entries.
        scratch = Repository(8)
        for i in range(5):
            state = scratch.new_state(
                system.n_dims, system._new_classifier(), step=0
            )
            state.fingerprint.incorporate(query)
            payload = state.state_dict()
            payload["state_id"] = 100 + i
            store.store(100 + i, payload)
        max_size = system.repository.max_size
        candidates = system._prefilter_candidates(
            xa, ya, system._candidate_states()
        )
        assert len(system.repository) <= max_size
        assert len(candidates) <= max_size
        # At most capacity-minus-active admissions per selection; the
        # rest stay warm and compete again next time.
        assert store.rehydrated <= max_size - 1
        assert store.rehydrated >= 1


class TestSystemIntegration:
    @pytest.mark.parametrize("tier_first", [False, True])
    def test_eviction_archives_instead_of_dropping(
        self, tmp_path, tier_first
    ):
        """With a tier attached (either hook order) nothing is lost."""
        system, stream = build_system(TIER_CONFIG, n_repeats=4)
        store = TieredConceptStore(tmp_path / "tier")
        collector = StatsCollector()
        if tier_first:
            system.attach_tier_store(store)
            system.attach_observability(metrics=collector)
        else:
            system.attach_observability(metrics=collector)
            system.attach_tier_store(store)
        _drive(system, list(stream))
        assert store.writes > 0
        assert store.rehydrated > 0
        assert system.repository.evicted_dropped == 0
        assert collector.counters["repository.evictions"] == store.writes
        assert collector.counters["repository.tiered"] == store.writes
        assert collector.counters["tier.rehydrated"] == store.rehydrated
        assert "repository.evicted_dropped" not in collector.counters
