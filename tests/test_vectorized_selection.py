"""Vectorized repository / selection engine: kernels, the normaliser's
prefix-range fold, matrix store, array-backed similarity records,
eviction protection, the gated walk against a plain selection loop,
the gated-record memo, and whole runs in which the stack scorer scores
and the trace is the plain Algorithm 1 of ``tests/reference.py``.
"""

from __future__ import annotations

import copy
from collections import deque

import numpy as np
import pytest
from equivalence import (
    assert_identical_traces,
    run_config,
    run_scenario,
    scenario_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_weights, rescaled_similarity_record

from repro.classifiers import MajorityClass
from repro.core import Ficsum, FicsumConfig
from repro.core.repository import (
    ConceptState,
    FingerprintMatrix,
    Repository,
    RepositoryFullError,
    SimPairRecord,
)
from repro.core.similarity import (
    cosine_kernel,
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
from repro.utils.stats import EwmaStats, OnlineMinMax, minmax_scale

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

    def test_non_finite_rows_match_scalar(self):
        """A NaN or infinite row scores what the scalar kernel gives it
        (NaN, not 0); a zero row still scores 0."""
        b = np.array([0.1, 0.3, 0.4])
        A = np.array(
            [
                [0.2, np.nan, 0.5],
                [np.inf, 0.3, 0.5],
                [-np.inf, np.inf, 0.0],
                [0.0, 0.0, 0.0],
                [0.2, 0.7, 0.5],
            ]
        )
        B = np.tile(b, (len(A), 1))
        B[4, 1] = np.nan
        for w in (None, np.ones(3), np.array([0.0, 1.0, 2.0])):
            with np.errstate(invalid="ignore"):
                many = weighted_cosine_many(A, b, w)
                pairs = weighted_cosine_pairs(A, B, w)
                expected_many = [cosine_kernel(a, b, w) for a in A]
                expected_pairs = [cosine_kernel(a, c, w) for a, c in zip(A, B)]
            # NaN-aware: NaNs must sit at the same rows.
            np.testing.assert_array_equal(many, expected_many)
            np.testing.assert_array_equal(pairs, expected_pairs)
            assert np.isnan(many[0]) and np.isnan(pairs[4])
            assert many[3] == pairs[3] == 0.0

    def test_sim_pairs_many_matches_scalar(self):
        A = RNG.uniform(size=(8, 12))
        B = RNG.uniform(size=(8, 12))
        w = np.abs(RNG.normal(size=12))
        batch = sim_pairs_many(A, B, w)
        scalar = [similarity(A[i], B[i], w) for i in range(8)]
        assert np.array_equal(batch, np.array(scalar))


def _bits(values: np.ndarray) -> bytes:
    """Exact bit pattern (signed zeros and NaN payloads included)."""
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


#: Finite values with exact repeats, signed zeros and wide magnitudes:
#: repeats make constant dimensions and non-widening rows likely.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def _stack_case(draw):
    """(warm-up rows, stack, probe rows) for one normaliser width."""
    d = draw(st.integers(1, 5))

    def rows(n: int) -> np.ndarray:
        row = st.lists(_VALUES, min_size=d, max_size=d)
        drawn = draw(st.lists(row, min_size=n, max_size=n))
        return np.array(drawn, dtype=np.float64).reshape(-1, d)

    warm = rows(draw(st.integers(0, 3)))
    r = draw(st.integers(0, 8))
    return warm, rows(r), rows(r)


def _assert_fold_matches_loop(warm, stack, probe):
    """Fold ``stack`` with :meth:`OnlineMinMax.update_rows` and with a
    row-by-row ``update`` + ``scale`` loop; assert bit-equality."""
    d = stack.shape[1]
    folded, looped = OnlineMinMax(d), OnlineMinMax(d)
    for row in warm:
        folded.update(row)
        looped.update(row)
    mins, maxs = folded.update_rows(stack)
    loop_mins, loop_maxs, loop_stack, loop_probe = [], [], [], []
    for row, extra in zip(stack, probe):
        looped.update(row)
        loop_mins.append(looped.mins.copy())
        loop_maxs.append(looped.maxs.copy())
        loop_stack.append(looped.scale(row))
        loop_probe.append(looped.scale(extra))
    assert _bits(mins) == _bits(loop_mins)
    assert _bits(maxs) == _bits(loop_maxs)
    if len(stack):
        assert _bits(minmax_scale(stack, mins, maxs)) == _bits(loop_stack)
        assert _bits(minmax_scale(probe, mins, maxs)) == _bits(loop_probe)
    assert _bits(folded.mins) == _bits(looped.mins)
    assert _bits(folded.maxs) == _bits(looped.maxs)
    return mins, maxs


def _minmax_scale_copy(values, mins, maxs):
    """``minmax_scale`` with its own range test."""
    span = maxs - mins
    ok = (span > 0) & np.isfinite(span)
    out = np.where(ok, (values - mins) / np.where(ok, span, 1.0), 0.5)
    return np.clip(out, 0.0, 1.0, out=out)


def _scale_std_copy(stds, mins, maxs):
    """``OnlineMinMax.scale_std`` with its own range test."""
    span = maxs - mins
    out = np.zeros(stds.shape)
    ok = (span > 0) & np.isfinite(span)
    out[..., ok] = stds[..., ok] / span[ok]
    return out


class TestScaleMany:
    def _normalizer(self, d=7):
        norm = OnlineMinMax(d)
        norm.update(RNG.normal(size=d))
        norm.update(RNG.normal(size=d))
        return norm

    def test_scale_many_matches_scale(self):
        norm = self._normalizer()
        V = RNG.normal(size=(13, 7)) * 3.0
        batch = norm.scale(V)
        rows = np.stack([norm.scale(V[i]) for i in range(13)])
        assert np.array_equal(batch, rows)

    def test_scale_many_constant_dim_midpoint(self):
        norm = OnlineMinMax(2)
        norm.update(np.array([0.0, 1.0]))
        norm.update(np.array([1.0, 1.0]))  # dim 1 has no spread
        out = norm.scale(np.array([[0.5, 9.0], [2.0, -3.0]]))
        assert np.array_equal(out[:, 1], [0.5, 0.5])
        assert np.array_equal(out[:, 0], [0.5, 1.0])  # clipped

    def test_scale_std_many_matches_scale_std(self):
        norm = self._normalizer()
        S = np.abs(RNG.normal(size=(5, 7)))
        batch = norm.scale_std(S)
        rows = np.stack([norm.scale_std(S[i]) for i in range(5)])
        assert np.array_equal(batch, rows)

    def test_scaling_pinned_on_unusable_spans(self):
        """``minmax_scale`` and ``scale_std`` share one range test; on
        zero, infinite, NaN and uninitialised spans both still give,
        bit for bit, the expressions that each tested its range on its
        own (copied below)."""
        rng = np.random.default_rng(7)
        specials = np.array(
            [0.0, -0.0, 0.3, 1.0, 1.0 + 2**-52, 4.0, -3.0, 1e308, -1e308,
             5e-324, np.inf, -np.inf, np.nan]
        )
        with np.errstate(all="ignore"):
            for _ in range(50):
                mins, maxs, values, stds = rng.choice(specials, size=(4, 3, 9))
                # Row 0 is uninitialised; row 1 has zero spans.
                mins[0], maxs[0] = np.inf, -np.inf
                maxs[1] = mins[1]
                norm = OnlineMinMax(9)
                for row in range(3):
                    norm.mins, norm.maxs = mins[row].copy(), maxs[row].copy()
                    for v in (values, values[row]):
                        expected = _minmax_scale_copy(v, mins[row], maxs[row])
                        assert _bits(norm.scale(v)) == _bits(expected)
                    for v in (stds, stds[row]):
                        expected = _scale_std_copy(v, mins[row], maxs[row])
                        assert _bits(norm.scale_std(v)) == _bits(expected)
                assert _bits(minmax_scale(values, mins, maxs)) == _bits(
                    _minmax_scale_copy(values, mins, maxs)
                )

    def test_contains_and_version(self):
        """``contains`` holds exactly when folding leaves the range as
        it is."""
        norm = OnlineMinMax(3)
        norm.update(np.zeros(3))
        norm.update(np.ones(3))
        inside = RNG.uniform(size=(4, 3))
        assert norm.contains(inside)
        norm.update_rows(inside)
        assert np.array_equal(norm.mins, np.zeros(3))
        assert np.array_equal(norm.maxs, np.ones(3))
        outside = np.array([[0.5, 0.5, 2.0]])
        assert not norm.contains(outside)
        norm.update_rows(outside)
        assert np.array_equal(norm.maxs, [1.0, 1.0, 2.0])

    @given(_stack_case())
    @settings(max_examples=150, deadline=None)
    def test_update_rows_matches_update_loop(self, case):
        """Prefix extrema, per-row scaling and the final
        normaliser are bit-for-bit the row-by-row update + scale loop."""
        warm, stack, probe = case
        # Spans down to 5e-324 overflow the division to inf, which both
        # sides clip to 1.0; the warning says nothing about equality.
        with np.errstate(over="ignore"):
            _assert_fold_matches_loop(warm, stack, probe)

    def test_update_rows_empty_stack_is_noop(self):
        norm = OnlineMinMax(3)
        norm.update(np.array([0.0, 1.0, 2.0]))
        before = norm.state_dict()
        mins, maxs = norm.update_rows(np.empty((0, 3)))
        assert mins.shape == maxs.shape == (0, 3)
        after = norm.state_dict()
        assert _bits(after["mins"]) == _bits(before["mins"])
        assert _bits(after["maxs"]) == _bits(before["maxs"])

    def test_update_rows_first_fold_into_uninitialised(self):
        stack = np.array([[1.0, 5.0], [2.0, 5.0], [0.0, 5.0]])
        mins, maxs = _assert_fold_matches_loop(np.empty((0, 2)), stack, stack)
        assert np.array_equal(mins[:, 0], [1.0, 1.0, 0.0])
        assert np.array_equal(maxs[:, 0], [1.0, 2.0, 2.0])
        # The first row's range is a point: every dimension is constant.
        assert np.array_equal(minmax_scale(stack[:1], mins[:1], maxs[:1]), [[0.5, 0.5]])

    def test_per_row_scale_constant_dims_and_clipping(self):
        mins = np.array([[0.0, 1.0], [0.0, 1.0], [-2.0, 1.0]])
        maxs = np.array([[2.0, 1.0], [4.0, 1.0], [4.0, 1.0]])
        values = np.array([[3.0, 7.0], [1.0, -7.0], [-5.0, 1.0]])
        out = minmax_scale(values, mins, maxs)
        assert np.array_equal(out[:, 1], [0.5, 0.5, 0.5])  # no spread
        assert np.array_equal(out[:, 0], [1.0, 0.25, 0.0])  # clipped
        _assert_fold_matches_loop(np.zeros((1, 2)), values, values * 3.0)

    def test_update_rows_widens_at_interior_rows(self):
        warm = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        stack = np.array(
            [
                [0.5, 0.5, 0.5],
                [2.0, 0.5, 0.5],  # widens dim 0 upwards
                [0.5, 0.5, 0.5],
                [0.5, -1.0, 3.0],  # widens dims 1 and 2
                [1.5, 0.0, 2.0],
            ]
        )
        mins, maxs = _assert_fold_matches_loop(warm, stack, stack)
        assert np.array_equal(maxs[:, 0], [1.0, 2.0, 2.0, 2.0, 2.0])
        assert np.array_equal(mins[:, 1], [0.0, 0.0, 0.0, -1.0, -1.0])


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

    @pytest.mark.parametrize("filled", [0, 2])
    def test_unwritten_rows_are_zero(self, filled):
        """Rows past ``count`` hold zeros, not leftover heap bytes:
        ``state_dict`` saves every row, so snapshots would carry them."""
        capacity, n_dims = 4, 7
        for _ in range(20):
            # Free same-size non-zero arrays first: an uninitialised
            # allocation tends to reuse their memory.
            junk = [np.full((capacity, n_dims), 7.5) for _ in range(2)]
            junk.append(np.full(capacity, 7.5))
            del junk
            rec = SimPairRecord(capacity, n_dims)
            for _ in range(filled):
                rec.append(np.ones(n_dims), np.ones(n_dims), 0.5)
            state = rec.state_dict()
            for key in ("a", "b", "sims"):
                assert not state[key][filled:].any(), key

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
        assert rescaled_similarity_record(state, sim_fn) == _deque_rescaled(
            state, reference, sim_fn
        )

    def test_rescaled_univariate_skips_tiny_old_sims(self):
        state = ConceptState(0, 1, MajorityClass(2))
        state.record_similarity(np.array([0.5]), np.array([0.5]), 0.0)
        state.record_similarity(np.array([0.5]), np.array([0.5]), 10.0)
        mu, sigma = rescaled_similarity_record(state, lambda a, b: 20.0)
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
        """Each stored state's statistics are views of its own row, and
        the repository-order rows are the states' rows in order."""
        m = repo.matrix()
        states = repo.states()
        assert m.state_ids == [s.state_id for s in states]
        assert m.rows.tolist() == m.rows_of(states)
        assert len(set(m.rows.tolist())) == len(states)
        for row, s in zip(m.rows, states):
            for fp, prefix in ((s.fingerprint, "fp_"), (s.nonactive, "na_")):
                for name in ("counts", "means", "m2"):
                    stored = getattr(m, prefix + name)
                    view = getattr(fp, name)
                    assert view.base is stored
                    assert np.shares_memory(view, stored[row])
        np.testing.assert_array_equal(
            m.fp_means[m.rows], np.stack([s.fingerprint.means for s in states])
        )

    def test_rows_track_states(self):
        repo, _ = self._repo_with_states(5)
        self._assert_aligned(repo)

    def test_write_through_after_incorporate_and_reset(self):
        repo, states = self._repo_with_states(4)
        m = repo.matrix()
        states[1].fingerprint.incorporate(np.array([9.0, 9.0, 9.0]))
        states[2].fingerprint.reset_dims(np.array([True, False, True]))
        states[3].nonactive.incorporate(np.array([-1.0, -2.0, -3.0]))
        self._assert_aligned(repo)
        assert m.fp_counts[m.row_of(states[1].state_id)].tolist() == [4, 4, 4]
        assert m.fp_counts[m.row_of(states[2].state_id)].tolist() == [0, 3, 0]
        assert m.na_counts[m.row_of(states[3].state_id)].tolist() == [2, 2, 2]

    def test_evict_readd_compaction_alignment(self):
        """Remove a middle state, re-add states, verify rows stay put,
        freed rows are reused, and a removed state keeps its values."""
        repo, states = self._repo_with_states(6)
        m = repo.matrix()
        before = {s.state_id: m.row_of(s.state_id) for s in states}
        removed = states[2]
        saved = removed.fingerprint.state_dict()
        repo.remove(removed.state_id)
        assert not np.shares_memory(removed.fingerprint.means, m.fp_means)
        for key, value in saved.items():
            np.testing.assert_array_equal(
                getattr(removed.fingerprint, key), value
            )
        self._assert_aligned(repo)
        for s in repo.states():
            assert m.row_of(s.state_id) == before[s.state_id]
        readded = repo.new_state(3, MajorityClass(2), step=99)
        assert m.row_of(readded.state_id) == before[removed.state_id]
        readded.fingerprint.incorporate(np.array([7.0, 8.0, 9.0]))
        self._assert_aligned(repo)
        # LRU eviction through capacity pressure frees rows too.
        repo.max_size = 4
        repo.new_state(3, MajorityClass(2), step=100)
        assert len(repo) == 4
        self._assert_aligned(repo)

    def test_matrix_grows_past_initial_capacity(self):
        repo, _ = self._repo_with_states(FingerprintMatrix._INITIAL_CAPACITY + 3)
        self._assert_aligned(repo)

    def test_mixed_dims_matrix_unavailable(self):
        """The storage holds one dimensionality: a state of another is
        refused before anything is stored."""
        repo = Repository(max_size=8)
        repo.new_state(2, MajorityClass(2), step=0)
        with pytest.raises(ValueError):
            repo.new_state(3, MajorityClass(2), step=1)
        assert len(repo) == 1 and len(repo.matrix()) == 1

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
# The lazily gated walk against a plain update-then-score loop
# ----------------------------------------------------------------------
WALK_FEATURES = 4


def _walk_population(R: int, **overrides):
    """A system holding R synthetic concepts and a candidate stack.

    Synthetic, with no stream run: clustered fingerprint histories,
    similarity and error records; the classifiers are majority-class
    ones, since the walk scores a given stack and never predicts.  In the stack, rows ``R // 3`` and
    ``R // 2`` widen the normaliser's range mid-stack, and state
    ``R // 2 + 1`` duplicates state ``R // 2`` (history and stack row),
    so the two tie exactly.
    """
    cfg = FicsumConfig(
        window_size=40,
        fingerprint_period=50,
        repository_period=10**6,
        oracle_drift=True,
        metafeatures=["mean", "std"],
        max_repository_size=R + 2,
        seed=1,
        **overrides,
    )
    system = Ficsum(WALK_FEATURES, 2, cfg)
    rng = np.random.default_rng(R)
    tie = R // 2
    centers = rng.normal(scale=2.0, size=(R, system.n_dims))
    centers[tie + 1] = centers[tie]
    states = [system._active]
    for r in range(1, R):
        clf = MajorityClass(2)
        clf.learn(np.zeros(WALK_FEATURES), r % 2)
        states.append(
            system.repository.new_state(
                system.n_dims,
                clf,
                step=r,
                sim_record_samples=cfg.sim_record_samples,
                sim_record_decay=cfg.sim_record_decay,
            )
        )
    noise = 0.05 * rng.normal(size=(R, 3, system.n_dims))
    noise[tie + 1] = noise[tie]
    for r, state in enumerate(states):
        for k in range(3):
            fp = centers[r] + noise[r, k]
            system.normalizer.update(fp)
            state.fingerprint.incorporate(fp)
            if k:
                sim = system._sim(state.fingerprint.means, fp)
                state.record_similarity(state.fingerprint.means, fp, sim)
            state.error_stats.update(float(fp[system._error_dim]))
    system._step = 10_000
    system._refresh_weights()
    fps = centers + 0.05 * rng.normal(size=centers.shape)
    for k, row in enumerate(sorted({R // 3, tie})):
        fps[row, ::2] = system.normalizer.maxs[::2] + 10.0 * (k + 1)
    fps[tie + 1] = fps[tie]
    return system, fps


def _loop_sims(system, fps) -> np.ndarray:
    """Each row's similarity as the sequential loop computes it."""
    probe = copy.deepcopy(system)
    sims = []
    for state, fp in zip(probe.repository.states(), fps):
        probe.normalizer.update(fp)
        sims.append(probe._sim(state.fingerprint.means, fp))
    return np.array(sims)


def _set_role(system, state, fp, role: str) -> None:
    """Force a candidate's gate outcome without touching similarities.

    ``accept``: a record so wide that any similarity passes, no error
    record.  ``reject``: a record centred far above any cosine.
    ``error``: the accepting record, but an error record the row's
    window error exceeds.  ``natural``: the population's own records.
    """
    if role == "natural":
        return
    state.reset_similarity_record()
    if role == "reject":
        for _ in range(4):
            state.record_similarity(state.fingerprint.means, fp, 100.0)
        return
    for k in range(60):
        state.record_similarity(state.fingerprint.means, fp, (-2.0, 3.0)[k % 2])
    state.error_stats = EwmaStats(state.sim_record_decay)
    if role == "error":
        for _ in range(5):
            state.error_stats.update(float(fp[system._error_dim]) - 1.0)


def _plain_select(system, states, fps):
    """Algorithm 1's selection loop: update, score, both gates, keep
    the strictly best accepted similarity."""
    cfg = system.config
    best = None
    for state, fp in zip(states, fps):
        system.normalizer.update(fp)
        sim = system._sim(state.fingerprint.means, fp)
        mu, sigma = rescaled_similarity_record(state, system._sim)
        sigma = max(sigma, cfg.min_similarity_std * max(1.0, abs(mu)))
        accepted = abs(sim - mu) <= cfg.similarity_gate * sigma
        if accepted and system._error_gate(state, fp):
            if best is None or sim > best[0]:
                best = (sim, state)
    return None if best is None else best[1]


def _assert_walk_matches_loop(system, fps):
    """The walk on one deep copy picks what the loop picks on another,
    and both leave the normaliser in the same state; returns the
    picked state id (``None`` when nothing is accepted)."""
    walk, loop = copy.deepcopy(system), copy.deepcopy(system)
    picked = walk._select_from_fingerprints(walk.repository.states(), fps)
    expected = _plain_select(loop, loop.repository.states(), fps)
    assert (picked is None) == (expected is None)
    assert _bits(walk.normalizer.mins) == _bits(loop.normalizer.mins)
    assert _bits(walk.normalizer.maxs) == _bits(loop.normalizer.maxs)
    if expected is None:
        return None
    assert picked.state_id == expected.state_id
    return picked.state_id


def _boundary_positions(R: int):
    """Ranks around every block boundary of the doubling walk."""
    positions = {0}
    k = 1
    while 2**k - 2 < R:
        positions.update(p for p in (2**k - 2, 2**k - 1, 2**k) if p < R)
        k += 1
    return sorted(positions)


class TestGatedWalk:
    """``_select_from_fingerprints`` against a plain eager loop."""

    @pytest.mark.parametrize("R", [3, 17, 200])
    def test_population_widens_mid_stack(self, R):
        system, fps = _walk_population(R)
        mins, maxs = copy.deepcopy(system.normalizer).update_rows(fps)
        # Some row before the last is scored in a narrower range than
        # the final one, and the widening happens at interior rows.
        assert np.any(mins[:-1] > mins[-1]) or np.any(maxs[:-1] < maxs[-1])
        c = R // 3
        assert np.any(mins[c] < mins[c - 1]) or np.any(maxs[c] > maxs[c - 1])
        sims = _loop_sims(system, fps)
        assert sims[R // 2] == sims[R // 2 + 1]

    @pytest.mark.parametrize("R", [3, 17, 200])
    def test_first_acceptor_past_each_doubling_boundary(self, R):
        system, fps = _walk_population(R)
        order = np.argsort(-_loop_sims(system, fps), kind="stable")
        fallback = ("accept", "reject", "natural", "error")
        for position in _boundary_positions(R):
            trial = copy.deepcopy(system)
            states = trial.repository.states()
            for rank, i in enumerate(order):
                if rank < position:
                    role = ("reject", "error")[rank % 2]
                elif rank == position:
                    role = "accept"
                else:
                    role = fallback[rank % 4]
                _set_role(trial, states[i], fps[i], role)
            picked = _assert_walk_matches_loop(trial, fps)
            assert picked == states[order[position]].state_id, position

    @pytest.mark.parametrize("R", [3, 17, 200])
    def test_gate_judged_in_row_range(self, R):
        """The last row before the first widening is accepted only if
        its record is re-expressed in that row's range, not the final
        one: its retained pairs are the row itself, so in the row's
        range the record centres on the row's similarity exactly, and
        the gate is ~1e-9 wide."""
        system, fps = _walk_population(R, min_similarity_std=1e-9)
        sims = _loop_sims(system, fps)
        c = R // 3 - 1
        final = copy.deepcopy(system)
        final.normalizer.update_rows(fps)
        means = final.repository.states()[c].fingerprint.means
        assert abs(final._sim(means, fps[c]) - sims[c]) > 1e-8
        states = system.repository.states()
        for i, state in enumerate(states):
            _set_role(system, state, fps[i], "reject")
        state = states[c]
        state.reset_similarity_record()
        for _ in range(4):
            state.record_similarity(state.fingerprint.means, fps[c], sims[c])
        assert _assert_walk_matches_loop(system, fps) == state.state_id

    @pytest.mark.parametrize("R", [3, 17, 200])
    def test_natural_records(self, R):
        system, fps = _walk_population(R)
        _assert_walk_matches_loop(system, fps)

    @pytest.mark.parametrize("R", [3, 17, 200])
    def test_stack_without_acceptor(self, R):
        system, fps = _walk_population(R)
        for i, state in enumerate(system.repository.states()):
            _set_role(system, state, fps[i], ("reject", "error")[i % 2])
        assert _assert_walk_matches_loop(system, fps) is None

    @pytest.mark.parametrize("R", [3, 17, 200])
    def test_tied_similarities_pick_lower_index(self, R):
        system, fps = _walk_population(R)
        sims = _loop_sims(system, fps)
        tie = R // 2
        states = system.repository.states()
        for i, state in enumerate(states):
            above = sims[i] > sims[tie]
            role = "accept" if i in (tie, tie + 1) else "reject"
            _set_role(system, state, fps[i], "reject" if above else role)
        assert _assert_walk_matches_loop(system, fps) == states[tie].state_id


# ----------------------------------------------------------------------
# Whole runs: the matrix path scores, the trace is the reference's; the
# per-step gated-record memo returns what recomputation would
# ----------------------------------------------------------------------
def _assert_matrix_scored_run_matches_reference(scenario):
    """Run a scenario with the stack scorer spied: the matrix path
    scored real stacks, and the run is the reference's.

    Returns the run and the number of stacks that scored a row in a
    range narrower than the normaliser's range after the stack's fold —
    the rows a final-range scorer would have got wrong.
    """
    calls = {"n": 0, "narrowed": 0}

    def spy_scoring(system):
        scorer = system._score_stack
        normalizer = system.normalizer

        def score_stack(states, fps, mins, maxs):
            calls["n"] += 1
            calls["narrowed"] += bool(
                np.any(mins > normalizer.mins) or np.any(maxs < normalizer.maxs)
            )
            return scorer(states, fps, mins, maxs)

        system._score_stack = score_stack

    engine = run_scenario(scenario, instrument=spy_scoring)
    assert calls["n"] > 0
    assert_identical_traces(engine, scenario_reference(scenario))
    return engine, calls["narrowed"]


class TestVectorizedEquivalence:
    def test_multi_concept_recurring_stream(self):
        """The acceptance pin: identical predictions, drift points and
        state-id traces (and even the float discrimination samples) on
        a multi-concept recurring stream."""
        _, narrowed = _assert_matrix_scored_run_matches_reference(
            "oracle-recurring"
        )
        assert narrowed > 0

    def test_adwin_detection_path(self):
        _, narrowed = _assert_matrix_scored_run_matches_reference("adwin")
        assert narrowed > 0

    def test_univariate_er_variant(self):
        _assert_matrix_scored_run_matches_reference("er-variant")

    def test_equivalence_under_eviction_pressure(self):
        engine, narrowed = _assert_matrix_scored_run_matches_reference(
            "eviction"
        )
        assert narrowed > 0
        system = engine.system
        assert len(system.repository) <= 3
        # Every stored state's fingerprint is still its matrix row
        # after LRU eviction in a real run.
        m = system.repository.matrix()
        for row, s in zip(m.rows, system.repository.states()):
            assert m.row_of(s.state_id) == row
            assert np.shares_memory(s.fingerprint.means, m.fp_means[row])

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
        fresh_mu, fresh_sigma = rescaled_similarity_record(state, system._sim)
        floor = system.config.min_similarity_std * max(1.0, abs(fresh_mu))
        assert (mu_c, sigma_c) == (fresh_mu, max(fresh_sigma, floor))
