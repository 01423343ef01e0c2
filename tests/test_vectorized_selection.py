"""Vectorized repository / selection engine: kernels, matrix store,
array-backed similarity records, eviction protection, the gated-record
memo, and whole runs in which the batched scoring path selects and the
trace is the plain Algorithm 1 of ``tests/reference.py``.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from equivalence import (
    assert_identical_traces,
    run_config,
    run_scenario,
    scenario_reference,
)
from reference import reference_weights

from repro.classifiers import MajorityClass
from repro.core.repository import (
    ConceptState,
    FingerprintMatrix,
    Repository,
    RepositoryFullError,
    SimPairRecord,
)
from repro.core.similarity import (
    inverse_difference_many,
    inverse_difference_similarity,
    sim_many,
    sim_pairs_many,
    similarity,
    weighted_cosine_many,
    weighted_cosine_pairs,
    weighted_cosine_similarity,
)
from repro.core.weighting import make_weights
from repro.utils.stats import OnlineMinMax

RNG = np.random.default_rng(42)


# ----------------------------------------------------------------------
# Batched kernels: bit-for-bit against the scalar loop
# ----------------------------------------------------------------------
class TestBatchedKernels:
    def test_weighted_cosine_many_matches_scalar(self):
        A = RNG.normal(size=(17, 23))
        b = RNG.normal(size=23)
        w = np.abs(RNG.normal(size=23))
        batch = weighted_cosine_many(A, b, w)
        scalar = [weighted_cosine_similarity(A[i], b, w) for i in range(17)]
        assert np.array_equal(batch, np.array(scalar))

    def test_weighted_cosine_many_unweighted_and_zero_rows(self):
        A = RNG.normal(size=(6, 9))
        A[2] = 0.0
        b = RNG.normal(size=9)
        batch = weighted_cosine_many(A, b)
        scalar = [weighted_cosine_similarity(A[i], b) for i in range(6)]
        assert np.array_equal(batch, np.array(scalar))
        assert batch[2] == 0.0

    def test_weighted_cosine_pairs_matches_scalar(self):
        A = RNG.normal(size=(11, 15))
        B = RNG.normal(size=(11, 15))
        w = np.abs(RNG.normal(size=15))
        batch = weighted_cosine_pairs(A, B, w)
        scalar = [weighted_cosine_similarity(A[i], B[i], w) for i in range(11)]
        assert np.array_equal(batch, np.array(scalar))

    def test_sim_many_univariate_dispatch(self):
        A = RNG.uniform(size=(9, 1))
        A[3, 0] = 0.4  # exact tie with b -> capped value
        b = np.array([0.4])
        batch = sim_many(A, b)
        scalar = [similarity(A[i], b) for i in range(9)]
        assert np.array_equal(batch, np.array(scalar))

    def test_inverse_difference_many_cap(self):
        a = np.array([0.5, 0.5 + 1e-9, 0.3])
        out = inverse_difference_many(a, 0.5)
        assert out[0] == out[1] == 1e3
        assert out[2] == inverse_difference_similarity(0.3, 0.5)

    def test_sim_pairs_many_matches_scalar(self):
        A = RNG.uniform(size=(8, 12))
        B = RNG.uniform(size=(8, 12))
        w = np.abs(RNG.normal(size=12))
        batch = sim_pairs_many(A, B, w)
        scalar = [similarity(A[i], B[i], w) for i in range(8)]
        assert np.array_equal(batch, np.array(scalar))


class TestScaleMany:
    def _normalizer(self, d=7):
        norm = OnlineMinMax(d)
        norm.update(RNG.normal(size=d))
        norm.update(RNG.normal(size=d))
        return norm

    def test_scale_many_matches_scale(self):
        norm = self._normalizer()
        V = RNG.normal(size=(13, 7)) * 3.0
        batch = norm.scale_many(V)
        rows = np.stack([norm.scale(V[i]) for i in range(13)])
        assert np.array_equal(batch, rows)

    def test_scale_many_constant_dim_midpoint(self):
        norm = OnlineMinMax(2)
        norm.update(np.array([0.0, 1.0]))
        norm.update(np.array([1.0, 1.0]))  # dim 1 has no spread
        out = norm.scale_many(np.array([[0.5, 9.0], [2.0, -3.0]]))
        assert np.array_equal(out[:, 1], [0.5, 0.5])
        assert np.array_equal(out[:, 0], [0.5, 1.0])  # clipped

    def test_scale_std_many_matches_scale_std(self):
        norm = self._normalizer()
        S = np.abs(RNG.normal(size=(5, 7)))
        batch = norm.scale_std_many(S)
        rows = np.stack([norm.scale_std(S[i]) for i in range(5)])
        assert np.array_equal(batch, rows)

    def test_update_many_equals_sequential(self):
        a, b = OnlineMinMax(4), OnlineMinMax(4)
        V = RNG.normal(size=(10, 4))
        for row in V:
            a.update(row)
        b.update_many(V)
        assert np.array_equal(a.mins, b.mins)
        assert np.array_equal(a.maxs, b.maxs)

    def test_contains_and_version(self):
        norm = OnlineMinMax(3)
        norm.update(np.zeros(3))
        norm.update(np.ones(3))
        v = norm.version
        inside = RNG.uniform(size=(4, 3))
        assert norm.contains(inside)
        norm.update_many(inside)
        assert norm.version == v  # no widening, no version bump
        outside = np.array([[0.5, 0.5, 2.0]])
        assert not norm.contains(outside)
        norm.update_many(outside)
        assert norm.version == v + 1


# ----------------------------------------------------------------------
# Array-backed similarity records vs the old deque behaviour
# ----------------------------------------------------------------------
def _deque_rescaled(state: ConceptState, pairs: deque, sim_fn):
    """The pre-PR deque-of-tuples implementation, as a reference."""
    mu, sigma = state.sim_stats.mean, state.sim_stats.std
    if not pairs:
        return mu, sigma
    univariate = len(pairs[0][0]) == 1
    if univariate:
        ratios = []
        for concept_means, window_fp, old_sim in pairs:
            if abs(old_sim) < 1e-12:
                continue
            ratios.append(sim_fn(concept_means, window_fp) / old_sim)
        if not ratios:
            return mu, sigma
        ratio = float(np.clip(np.mean(ratios), 0.2, 5.0))
        if not np.isfinite(ratio):
            return mu, sigma
        return mu * ratio, sigma * ratio
    deltas = [
        sim_fn(concept_means, window_fp) - old_sim
        for concept_means, window_fp, old_sim in pairs
    ]
    delta = float(np.clip(np.mean(deltas), -0.5, 0.5))
    if not np.isfinite(delta):
        return mu, sigma
    return mu + delta, sigma


class TestSimPairRecord:
    def test_ring_keeps_logical_order_after_wraparound(self):
        rec = SimPairRecord(3, 2)
        for k in range(5):
            rec.append(np.full(2, float(k)), np.full(2, 10.0 + k), float(k))
        A, B, sims = rec.views()
        assert len(rec) == 3
        assert np.array_equal(sims, [2.0, 3.0, 4.0])  # oldest first
        assert np.array_equal(A[:, 0], [2.0, 3.0, 4.0])
        assert np.array_equal(B[:, 0], [12.0, 13.0, 14.0])

    def test_zero_capacity(self):
        rec = SimPairRecord(0, 2)
        rec.append(np.zeros(2), np.zeros(2), 0.5)
        assert len(rec) == 0
        A, B, sims = rec.views()
        assert len(A) == len(B) == len(sims) == 0

    @pytest.mark.parametrize("n_dims", [1, 5])
    def test_rescaled_record_matches_deque_reference(self, n_dims):
        """Array-backed re-expression == the old deque loop, univariate
        (ER) and multivariate, including ring wraparound."""
        state = ConceptState(0, n_dims, MajorityClass(2), sim_record_samples=4)
        reference: deque = deque(maxlen=4)
        rng = np.random.default_rng(n_dims)
        for k in range(9):  # > capacity: exercises wraparound
            a = rng.uniform(size=n_dims)
            b = rng.uniform(size=n_dims)
            sim = float(rng.uniform(0.1, 0.9)) if n_dims > 1 else float(
                rng.uniform(1.0, 30.0)
            )
            state.record_similarity(a, b, sim)
            reference.append((a.copy(), b.copy(), sim))
        weights = np.abs(rng.normal(size=n_dims)) + 0.1
        sim_fn = lambda x, y: similarity(x, y, weights)  # noqa: E731
        assert state.rescaled_similarity_record(sim_fn) == _deque_rescaled(
            state, reference, sim_fn
        )

    def test_rescaled_univariate_skips_tiny_old_sims(self):
        state = ConceptState(0, 1, MajorityClass(2))
        state.record_similarity(np.array([0.5]), np.array([0.5]), 0.0)
        state.record_similarity(np.array([0.5]), np.array([0.5]), 10.0)
        mu, sigma = state.rescaled_similarity_record(lambda a, b: 20.0)
        assert mu == pytest.approx(state.sim_stats.mean * 2.0)


# ----------------------------------------------------------------------
# Eviction protection + matrix-row compaction
# ----------------------------------------------------------------------
class TestEvictionProtection:
    def test_active_state_protected_on_tie(self):
        repo = Repository(max_size=2)
        active = repo.new_state(2, MajorityClass(2), step=0)
        other = repo.new_state(2, MajorityClass(2), step=0)
        # Tie on last_active_step: without protection min() would pick
        # the first-inserted state — the one currently in use.
        repo.new_state(2, MajorityClass(2), step=0, protect=(active.state_id,))
        assert active.state_id in repo
        assert other.state_id not in repo

    def test_unevictable_raises_clear_error(self):
        repo = Repository(max_size=1)
        keep = repo.new_state(2, MajorityClass(2), step=0)
        with pytest.raises(RepositoryFullError):
            repo.new_state(2, MajorityClass(2), step=1, protect=(keep.state_id,))

    def test_unprotected_active_still_evictable_at_capacity_one(self):
        repo = Repository(max_size=1)
        old = repo.new_state(2, MajorityClass(2), step=0)
        new = repo.new_state(2, MajorityClass(2), step=1)
        assert old.state_id not in repo
        assert new.state_id in repo


class TestFingerprintMatrix:
    def _repo_with_states(self, n, n_dims=3):
        repo = Repository(max_size=64)
        states = [
            repo.new_state(n_dims, MajorityClass(2), step=i) for i in range(n)
        ]
        for i, s in enumerate(states):
            for k in range(3):
                s.fingerprint.incorporate(np.full(n_dims, float(i + k)))
            s.nonactive.incorporate(np.full(n_dims, 10.0 * i))
        return repo, states

    def _assert_aligned(self, repo):
        m = repo.matrix()
        states = repo.states()
        assert m.state_ids == [s.state_id for s in states]
        for r, s in enumerate(states):
            assert m.row_of(s.state_id) == r
            np.testing.assert_array_equal(m.fp_means_view[r], s.fingerprint.means)
            np.testing.assert_array_equal(m.fp_stds_view[r], s.fingerprint.stds)
            np.testing.assert_array_equal(
                m.fp_counts_view[r], s.fingerprint.counts
            )
            assert m.fp_n_view[r] == s.fingerprint.count
            np.testing.assert_array_equal(m.na_means_view[r], s.nonactive.means)
            assert m.na_n_view[r] == s.nonactive.count

    def test_rows_track_states(self):
        repo, _ = self._repo_with_states(5)
        self._assert_aligned(repo)

    def test_write_through_after_incorporate_and_reset(self):
        repo, states = self._repo_with_states(4)
        repo.matrix()  # initial sync
        states[1].fingerprint.incorporate(np.array([9.0, 9.0, 9.0]))
        states[2].fingerprint.reset_dims(np.array([True, False, True]))
        states[3].nonactive.incorporate(np.array([-1.0, -2.0, -3.0]))
        self._assert_aligned(repo)

    def test_evict_readd_compaction_alignment(self):
        """Evict a middle row, re-add states, verify row/state alignment
        and values survive the compaction."""
        repo, states = self._repo_with_states(6)
        repo.matrix()
        repo.remove(states[2].state_id)
        self._assert_aligned(repo)
        readded = repo.new_state(3, MajorityClass(2), step=99)
        readded.fingerprint.incorporate(np.array([7.0, 8.0, 9.0]))
        self._assert_aligned(repo)
        # LRU eviction through capacity pressure also compacts.
        repo.max_size = 4
        repo.new_state(3, MajorityClass(2), step=100)
        assert len(repo) == 4
        self._assert_aligned(repo)

    def test_matrix_grows_past_initial_capacity(self):
        repo, _ = self._repo_with_states(FingerprintMatrix._INITIAL_CAPACITY + 3)
        self._assert_aligned(repo)

    def test_mixed_dims_matrix_unavailable(self):
        repo = Repository(max_size=8)
        repo.new_state(2, MajorityClass(2), step=0)
        repo.matrix()
        repo.new_state(3, MajorityClass(2), step=1)
        with pytest.raises(ValueError):
            repo.matrix()

    def test_make_weights_matrix_path_identical(self):
        """Matrix-view weights equal the reference's per-state loop."""
        repo, states = self._repo_with_states(5)
        norm = OnlineMinMax(3)
        norm.update(np.zeros(3))
        norm.update(np.full(3, 8.0))
        for mode in ("full", "sigma", "fisher", "none"):
            loop = reference_weights(mode, states[0], repo.states(), norm)
            matrix = make_weights(
                mode, states[0], repo.states(), norm, repo.matrix()
            )
            assert np.array_equal(loop, matrix), mode


# ----------------------------------------------------------------------
# Whole runs: the matrix path scores, the trace is the reference's; the
# per-step gated-record memo returns what recomputation would
# ----------------------------------------------------------------------
def _assert_matrix_scored_run_matches_reference(scenario):
    """Run a scenario with batched scoring spied: the matrix path
    scored real selections, and the run is the reference's."""
    calls = {"n": 0}

    def spy_scoring(system):
        batched = system._score_candidates

        def score_candidates(states, fps):
            calls["n"] += 1
            return batched(states, fps)

        system._score_candidates = score_candidates

    engine = run_scenario(scenario, instrument=spy_scoring)
    assert calls["n"] > 0
    assert_identical_traces(engine, scenario_reference(scenario))
    return engine


class TestVectorizedEquivalence:
    def test_multi_concept_recurring_stream(self):
        """The acceptance pin: identical predictions, drift points and
        state-id traces (and even the float discrimination samples) on
        a multi-concept recurring stream."""
        _assert_matrix_scored_run_matches_reference("oracle-recurring")

    def test_adwin_detection_path(self):
        _assert_matrix_scored_run_matches_reference("adwin")

    def test_univariate_er_variant(self):
        _assert_matrix_scored_run_matches_reference("er-variant")

    def test_equivalence_under_eviction_pressure(self):
        system = _assert_matrix_scored_run_matches_reference("eviction").system
        assert len(system.repository) <= 3
        # Matrix rows stayed aligned through LRU eviction in a real run.
        m = system.repository.matrix()
        for r, s in enumerate(system.repository.states()):
            assert m.state_ids[r] == s.state_id
            np.testing.assert_array_equal(
                m.fp_means_view[r], s.fingerprint.means
            )

    def test_gated_record_memo_invalidates_on_record_update(self):
        system = run_config().system
        states = [
            s for s in system.repository.states() if s.sim_stats.count >= 2
        ]
        assert states
        state = states[0]
        mu_a, sigma_a = system._gated_record(state)
        mu_b, sigma_b = system._gated_record(state)  # memo hit
        assert (mu_a, sigma_a) == (mu_b, sigma_b)
        state.record_similarity(
            state.fingerprint.means, state.fingerprint.means, 0.123
        )
        mu_c, sigma_c = system._gated_record(state)
        fresh_mu, fresh_sigma = state.rescaled_similarity_record(system._sim)
        floor = system.config.min_similarity_std * max(1.0, abs(fresh_mu))
        assert (mu_c, sigma_c) == (fresh_mu, max(fresh_sigma, floor))
