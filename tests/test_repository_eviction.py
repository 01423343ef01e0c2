"""Repository eviction edge cases and storage / bank alignment.

PR 4 introduced eviction protection (``protect=``) and the
:class:`RepositoryFullError` escape hatch; this module covers the
corners the original equivalence runs only grazed: capacity-1 pressure
with and without protection, protection of already-evicted ids,
eviction cascades, and that the fingerprint matrix (the storage of
every stored state's statistics) and the classifier bank stay aligned
with the surviving states through removals, re-adds and whole-run LRU
churn.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from equivalence import run_config, run_config_observed

from repro.classifiers import HoeffdingTree, MajorityClass
from repro.core.repository import ConceptState, Repository, RepositoryFullError


def _tree(seed, n_features=3, n_train=150):
    rng = np.random.default_rng(seed)
    tree = HoeffdingTree(2, n_features, grace_period=20, seed=seed)
    X = rng.normal(size=(n_train, n_features))
    for i in range(n_train):
        tree.learn(X[i], int(X[i, 0] > 0))
    return tree


class TestCapacityOnePressure:
    def test_unprotected_active_rotates_through_capacity_one(self):
        """At capacity 1 every insertion retires the previous state —
        the framework never protects the active state there, so churn
        must never raise."""
        repo = Repository(max_size=1)
        last = repo.new_state(2, MajorityClass(2), step=0)
        for step in range(1, 6):
            state = repo.new_state(2, MajorityClass(2), step=step)
            assert last.state_id not in repo
            assert state.state_id in repo
            assert len(repo) == 1
            last = state

    def test_protecting_the_sole_survivor_raises(self):
        repo = Repository(max_size=1)
        keep = repo.new_state(2, MajorityClass(2), step=0)
        with pytest.raises(RepositoryFullError) as excinfo:
            repo.new_state(2, MajorityClass(2), step=1, protect=(keep.state_id,))
        # The error names the capacity and the protected set.
        assert "max_size=1" in str(excinfo.value)
        assert len(repo) == 2  # nothing was dropped on the failed insert

    def test_ficsum_survives_capacity_one_drift_churn(self):
        """End to end: a capacity-1 FiCSUM run drifts repeatedly (each
        drift must evict the active state) without ever tripping the
        protection error, and its mirrors track the single survivor."""
        trace = run_config({"max_repository_size": 1})
        system = trace.system
        assert len(system.drift_points) >= 2
        repo = system.repository
        assert len(repo) == 1
        (state,) = repo.states()
        matrix = repo.matrix()
        assert matrix.state_ids == [state.state_id]
        assert sorted(repo.bank()._trees) == [state.state_id]

    def test_active_protected_when_capacity_allows(self):
        """With capacity > 1 FiCSUM protects the active state; under a
        last-active-step tie the unprotected sibling is the victim."""
        trace = run_config({"max_repository_size": 2})
        system = trace.system
        repo = system.repository
        assert len(repo) <= 2
        assert system.active_state_id in repo


class TestProtectSemantics:
    def test_protect_multiple_ids(self):
        """With two of three ids protected, the third is the victim —
        even though an unprotected state was more recently active."""
        repo = Repository(max_size=3)
        a = repo.new_state(2, MajorityClass(2), step=0)
        b = repo.new_state(2, MajorityClass(2), step=1)
        c = repo.new_state(2, MajorityClass(2), step=5)  # most recent
        repo.new_state(
            2, MajorityClass(2), step=6, protect=(a.state_id, b.state_id)
        )
        assert a.state_id in repo and b.state_id in repo
        assert c.state_id not in repo

    def test_protect_everything_raises(self):
        repo = Repository(max_size=2)
        a = repo.new_state(2, MajorityClass(2), step=0)
        b = repo.new_state(2, MajorityClass(2), step=1)
        with pytest.raises(RepositoryFullError):
            repo.new_state(
                2, MajorityClass(2), step=2, protect=(a.state_id, b.state_id)
            )

    def test_protect_unknown_id_is_harmless(self):
        repo = Repository(max_size=1)
        repo.new_state(2, MajorityClass(2), step=0)
        state = repo.new_state(2, MajorityClass(2), step=1, protect=(999,))
        assert state.state_id in repo
        assert len(repo) == 1

    def test_eviction_cascade_respects_lru_order(self):
        """Shrinking capacity evicts strictly least-recently-active."""
        repo = Repository(max_size=4)
        states = [
            repo.new_state(2, MajorityClass(2), step=i) for i in range(4)
        ]
        states[0].last_active_step = 10  # state 0 became recent again
        repo.max_size = 2
        repo.new_state(2, MajorityClass(2), step=11)
        surviving = {s.state_id for s in repo.states()}
        assert states[0].state_id in surviving  # refreshed, kept
        assert states[1].state_id not in surviving
        assert states[2].state_id not in surviving


class TestEvictedDroppedAccounting:
    """Every eviction destroys its victim and is counted, never silent.

    Regression for the original ``_evict_if_needed``, which threw the
    victim away without a trace whenever no ``on_evict`` consumer was
    attached.  The repository counts each eviction itself, so the
    count is the same with or without a hook.
    """

    def test_bare_eviction_counts_the_drop(self):
        repo = Repository(max_size=1)
        assert repo.evicted_dropped == 0
        for step in range(1, 4):
            repo.new_state(2, MajorityClass(2), step=step)
        assert repo.evicted_dropped == 2

    def test_hooked_eviction_is_counted(self):
        """A hook on ``on_evict`` sees each victim, and the repository
        still counts every eviction."""
        repo = Repository(max_size=1)
        victims = []
        repo.on_evict = lambda victim: victims.append(victim.state_id)
        for step in range(1, 4):
            repo.new_state(2, MajorityClass(2), step=step)
        assert victims == [0, 1]
        assert repo.evicted_dropped == 2

    def test_drop_counter_survives_checkpoint(self):
        repo = Repository(max_size=1)
        for step in range(1, 4):
            repo.new_state(2, MajorityClass(2), step=step)
        restored = Repository(1)
        restored.load_state_dict(repo.state_dict())
        assert restored.evicted_dropped == 2

    def test_observed_run_counts_every_eviction(self):
        """The metrics counter and the repository's own tally agree,
        and no concept state is serialized to report an eviction."""
        with mock.patch.object(
            ConceptState,
            "state_dict",
            autospec=True,
            side_effect=AssertionError("an eviction serialized its victim"),
        ) as state_dict:
            trace, collector = run_config_observed({"max_repository_size": 2})
        evictions = collector.counters.get("repository.evictions", 0)
        assert evictions > 0, "scenario must evict"
        state_dict.assert_not_called()
        assert trace.system.repository.evicted_dropped == evictions
        assert "repository.evicted_dropped" not in collector.counters


class TestMirrorAlignmentAfterCompaction:
    def _repo_with_trees(self, n, max_size=16):
        repo = Repository(max_size=max_size)
        states = [
            repo.new_state(3, _tree(i), step=i) for i in range(n)
        ]
        for i, s in enumerate(states):
            s.fingerprint.incorporate(np.full(3, float(i)))
        return repo, states

    def _assert_mirrors_aligned(self, repo, X):
        states = repo.states()
        matrix = repo.matrix()
        assert matrix.state_ids == [s.state_id for s in states]
        for row, s in zip(matrix.rows, states):
            assert np.shares_memory(s.fingerprint.means, matrix.fp_means[row])
        bank = repo.bank()
        assert sorted(bank._trees) == sorted(s.state_id for s in states)
        block = bank.predict_batch_many([s.state_id for s in states], X)
        reference = np.stack(
            [s.classifier.predict_batch(X) for s in states]
        )
        np.testing.assert_array_equal(block, reference)

    def test_bank_and_matrix_track_mid_row_removal(self):
        repo, states = self._repo_with_trees(6)
        X = np.random.default_rng(0).normal(size=(20, 3))
        self._assert_mirrors_aligned(repo, X)
        repo.remove(states[2].state_id)
        repo.remove(states[4].state_id)
        self._assert_mirrors_aligned(repo, X)

    def test_bank_and_matrix_track_readd_after_eviction(self):
        repo, states = self._repo_with_trees(5)
        X = np.random.default_rng(1).normal(size=(20, 3))
        self._assert_mirrors_aligned(repo, X)
        repo.remove(states[0].state_id)
        readded = repo.new_state(3, _tree(99), step=99)
        readded.fingerprint.incorporate(np.array([9.0, 9.0, 9.0]))
        self._assert_mirrors_aligned(repo, X)
        # Capacity pressure compacts both mirrors in lockstep.
        repo.max_size = 3
        repo.new_state(3, _tree(100), step=100)
        assert len(repo) == 3
        self._assert_mirrors_aligned(repo, X)

    def test_mixed_classifier_disables_bank_only(self):
        """A non-tree classifier makes the bank refuse the repository,
        but not the matrix."""
        repo, _ = self._repo_with_trees(3)
        repo.new_state(3, MajorityClass(2), step=50)
        with pytest.raises(TypeError, match="Hoeffding trees"):
            repo.bank()
        matrix = repo.matrix()  # the matrix only cares about dims
        assert matrix.state_ids == [s.state_id for s in repo.states()]

    def test_whole_run_alignment_under_lru_churn(self):
        """A real eviction-pressure run leaves both mirrors aligned."""
        trace = run_config(
            {"max_repository_size": 3}, seed=7, segment_length=130
        )
        repo = trace.system.repository
        assert len(repo) <= 3
        xa, _, _ = trace.system.window.arrays()
        self._assert_mirrors_aligned(repo, xa)
