"""Tests for similarity, concept fingerprints, weighting and repository."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    inter_concept_variation,
    intra_classifier_variation,
    rescaled_similarity_record,
)

from repro.classifiers import MajorityClass
from repro.core import fingerprint as fingerprint_module
from repro.core import weighting
from repro.core.fingerprint import ConceptFingerprint, welford_stds
from repro.core.repository import ConceptState, Repository
from repro.core.similarity import (
    UNIVARIATE_SIM_CAP,
    bounded,
    inverse_difference_similarity,
    similarity,
    weighted_cosine_similarity,
)
from repro.core.weighting import make_weights
from repro.utils.stats import OnlineMinMax

unit_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=2,
    max_size=30,
)


class TestSimilarity:
    def test_identical_vectors(self):
        v = np.array([0.2, 0.8, 0.5])
        assert weighted_cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert weighted_cosine_similarity(a, b) == pytest.approx(0.0)

    def test_weights_change_similarity(self):
        a = np.array([1.0, 0.0, 0.5])
        b = np.array([1.0, 1.0, 0.5])
        unweighted = weighted_cosine_similarity(a, b)
        downweight_diff = weighted_cosine_similarity(
            a, b, np.array([1.0, 0.01, 1.0])
        )
        assert downweight_diff > unweighted

    def test_weight_scale_invariance(self):
        a = np.array([0.3, 0.6, 0.1])
        b = np.array([0.5, 0.2, 0.9])
        w = np.array([1.0, 3.0, 0.5])
        assert weighted_cosine_similarity(a, b, w) == pytest.approx(
            weighted_cosine_similarity(a, b, 10.0 * w)
        )

    def test_zero_vector_returns_zero(self):
        assert weighted_cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_cosine_similarity(np.zeros(2), np.zeros(3))

    @given(unit_vectors)
    @settings(max_examples=50)
    def test_cosine_in_unit_interval_for_nonnegative(self, values):
        v = np.array(values)
        other = np.roll(v, 1)
        sim = weighted_cosine_similarity(v, other)
        assert -1e-9 <= sim <= 1.0 + 1e-9

    def test_inverse_difference(self):
        assert inverse_difference_similarity(0.5, 0.3) == pytest.approx(5.0)
        assert inverse_difference_similarity(0.5, 0.5) == UNIVARIATE_SIM_CAP

    def test_dispatch_univariate(self):
        assert similarity(np.array([0.2]), np.array([0.7])) == pytest.approx(2.0)

    def test_dispatch_vector(self):
        v = np.array([0.1, 0.9])
        assert similarity(v, v) == pytest.approx(1.0)

    def test_bounded(self):
        assert bounded(0.5) == 0.5
        assert bounded(999.0) == pytest.approx(0.999)
        assert 0.0 <= bounded(UNIVARIATE_SIM_CAP) <= 1.0


class TestConceptFingerprint:
    def test_incorporate_tracks_mean(self):
        fp = ConceptFingerprint(3)
        fp.incorporate(np.array([1.0, 2.0, 3.0]))
        fp.incorporate(np.array([3.0, 4.0, 5.0]))
        np.testing.assert_allclose(fp.means, [2.0, 3.0, 4.0])
        assert fp.count == 2

    def test_rejects_non_finite(self):
        fp = ConceptFingerprint(2)
        with pytest.raises(ValueError):
            fp.incorporate(np.array([1.0, np.nan]))

    def test_reset_dims(self):
        fp = ConceptFingerprint(2)
        fp.incorporate(np.array([1.0, 5.0]))
        fp.incorporate(np.array([3.0, 7.0]))
        fp.reset_dims(np.array([True, False]))
        assert fp.counts[0] == 0 and fp.counts[1] == 2
        assert fp.means[0] == 2.0  # retained as estimate

    def test_copy_is_independent(self):
        fp = ConceptFingerprint(1)
        fp.incorporate(np.array([1.0]))
        clone = fp.copy()
        clone.incorporate(np.array([9.0]))
        assert fp.count == 1 and clone.count == 2


def _repository(*fingerprints, n_dims=2):
    """A repository with one stored concept per fingerprint history."""
    repo = Repository(max_size=8)
    for step, vectors in enumerate(fingerprints):
        state = repo.new_state(n_dims, MajorityClass(2), step=step)
        for v in vectors:
            state.fingerprint.incorporate(np.asarray(v, dtype=float))
    return repo


def _unit_normalizer(n_dims=2):
    """A normaliser whose range is [0, 1] in every dimension."""
    norm = OnlineMinMax(n_dims)
    norm.update(np.zeros(n_dims))
    norm.update(np.ones(n_dims))
    return norm


def _fisher(repo, norm):
    states = repo.states()
    return make_weights("fisher", states[0], states, norm, repo.matrix())


class TestWeighting:
    """Each weight term through ``make_weights``' modes, and the
    Fisher terms also through the per-state loops of the reference."""

    def test_sigma_weights_inverse(self):
        # Scaled deviations 0.5, 0.1 and 0.05 (the sigma floor).
        repo = _repository([[0.0, 0.4, 0.45], [1.0, 0.6, 0.55]], n_dims=3)
        states = repo.states()
        w = make_weights(
            "sigma", states[0], states, _unit_normalizer(3), repo.matrix()
        )
        assert w[0] < w[1] <= w[2]
        assert w[0] == pytest.approx(2.0)

    def test_sigma_weights_neutral_for_untrained(self):
        norm = _unit_normalizer()
        repo = _repository([[0.0, 0.0], [1.0, 1.0]], [[0.3, 0.7]])
        trained, fresh = states = repo.states()
        args = (states, norm, repo.matrix())
        np.testing.assert_array_equal(make_weights("sigma", fresh, *args), 1.0)
        # Dimension 0 restarts its count; dimension 1 keeps two.
        trained.fingerprint.reset_dims(np.array([True, False]))
        w = make_weights("sigma", trained, *args)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(2.0)

    def test_inter_concept_boosts_separating_dim(self):
        norm = _unit_normalizer()
        # dim 0 separates the concepts; dim 1 identical
        repo = _repository([[0.1, 0.5], [0.12, 0.52]], [[0.9, 0.5], [0.88, 0.52]])
        v_s = inter_concept_variation(repo.states(), norm)
        assert v_s[0] > 3 * v_s[1]
        # No non-active fingerprint is trained, so v_sc is neutral.
        fisher = _fisher(repo, norm)
        np.testing.assert_array_equal(fisher, np.maximum(v_s, 1.0))
        assert fisher[0] > 3 * fisher[1]

    def test_inter_concept_neutral_with_one_state(self):
        norm = _unit_normalizer()
        # The second concept has one incorporation: it is not trained.
        repo = _repository([[0.1, 0.5], [0.2, 0.5]], [[0.9, 0.1]])
        np.testing.assert_array_equal(
            inter_concept_variation(repo.states(), norm), 1.0
        )
        np.testing.assert_array_equal(_fisher(repo, norm), 1.0)

    def test_intra_classifier_boosts_moving_dim(self):
        norm = _unit_normalizer()
        repo = _repository([[0.1, 0.5], [0.12, 0.5]])
        state = repo.states()[0]
        # non-active behaviour differs strongly on dim 0 only
        state.nonactive.incorporate(np.array([0.9, 0.5]))
        state.nonactive.incorporate(np.array([0.92, 0.52]))
        v_sc = intra_classifier_variation(repo.states(), norm)
        assert v_sc[0] > 3 * v_sc[1]
        # One trained concept, so v_s is neutral.
        fisher = _fisher(repo, norm)
        np.testing.assert_array_equal(fisher, np.maximum(v_sc, 1.0))
        assert fisher[0] > 3 * fisher[1]

    def test_intra_classifier_neutral_without_nonactive(self):
        norm = _unit_normalizer()
        repo = _repository([[0.1, 0.5], [0.12, 0.5]])
        repo.states()[0].nonactive.incorporate(np.array([0.9, 0.5]))
        np.testing.assert_array_equal(
            intra_classifier_variation(repo.states(), norm), 1.0
        )
        np.testing.assert_array_equal(_fisher(repo, norm), 1.0)

    @pytest.mark.parametrize(
        "mode, reads", [("full", 1), ("fisher", 1), ("sigma", 1), ("none", 0)]
    )
    def test_one_read_of_the_repository_per_refresh(self, mode, reads):
        """One standard-deviation pass, one ``scale_std`` and at most one
        ``scale`` per refresh, however many concepts are stored."""
        norm = _unit_normalizer()
        repo = _repository(
            *[[[0.2 * i, 0.5], [0.2 * i + 0.03, 0.52]] for i in range(4)]
        )
        for state in repo.states():
            state.nonactive.incorporate(np.array([0.9, 0.5]))
            state.nonactive.incorporate(np.array([0.92, 0.53]))
        states = repo.states()
        calls = {"welford_stds": 0, "scale_std": 0, "scale": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        stds = counted("welford_stds", welford_stds)
        with mock.patch.object(
            fingerprint_module, "welford_stds", stds
        ), mock.patch.object(weighting, "welford_stds", stds), mock.patch.object(
            OnlineMinMax, "scale_std", counted("scale_std", OnlineMinMax.scale_std)
        ), mock.patch.object(
            OnlineMinMax, "scale", counted("scale", OnlineMinMax.scale)
        ):
            make_weights(mode, states[1], states, norm, repo.matrix())
        scales = reads if mode in ("full", "fisher") else 0
        assert calls == {
            "welford_stds": reads, "scale_std": reads, "scale": scales,
        }

    def test_make_weights_modes(self):
        norm = OnlineMinMax(2)
        norm.update(np.zeros(2))
        norm.update(np.ones(2))
        repo = _repository([[0.1, 0.5], [0.2, 0.6]], [[0.9, 0.5], [0.8, 0.6]])
        states = repo.states()
        args = (states[0], states, norm, repo.matrix())
        none = make_weights("none", *args)
        np.testing.assert_allclose(none, 1.0)
        sigma = make_weights("sigma", *args)
        fisher = make_weights("fisher", *args)
        full = make_weights("full", *args)
        assert np.all(full <= sigma * fisher + 1e-9)
        assert np.all(full > 0)


class TestConceptStateRecords:
    def test_record_and_rescale_identity(self):
        state = ConceptState(0, 3, MajorityClass(2))
        sim_fn = lambda a, b: 0.9
        for _ in range(20):
            state.record_similarity(np.ones(3), np.ones(3), 0.9)
        mu, sigma = rescaled_similarity_record(state, sim_fn)
        assert mu == pytest.approx(0.9)
        assert sigma == pytest.approx(0.0, abs=1e-9)

    def test_additive_rescale_for_vectors(self):
        state = ConceptState(0, 3, MajorityClass(2))
        for _ in range(20):
            state.record_similarity(np.ones(3), np.ones(3), 0.8)
        # current scheme now yields 0.9 on the retained pairs: shift +0.1
        mu, sigma = rescaled_similarity_record(state, lambda a, b: 0.9)
        assert mu == pytest.approx(0.9)

    def test_multiplicative_rescale_for_univariate(self):
        state = ConceptState(0, 1, MajorityClass(2))
        for _ in range(20):
            state.record_similarity(np.array([0.5]), np.array([0.5]), 10.0)
        mu, sigma = rescaled_similarity_record(state, lambda a, b: 20.0)
        assert mu == pytest.approx(20.0)

    def test_rescale_clipped(self):
        state = ConceptState(0, 1, MajorityClass(2))
        for _ in range(5):
            state.record_similarity(np.array([0.5]), np.array([0.5]), 1.0)
        mu, _ = rescaled_similarity_record(state, lambda a, b: 1000.0)
        assert mu <= 5.0  # ratio clipped

    def test_no_pairs_falls_back(self):
        state = ConceptState(0, 2, MajorityClass(2))
        state.sim_stats.update(0.7)
        mu, sigma = rescaled_similarity_record(state, lambda a, b: 0.0)
        assert mu == pytest.approx(0.7)

    def test_reset_similarity_record(self):
        state = ConceptState(0, 2, MajorityClass(2))
        state.sim_stats.update(0.7)
        state.reset_similarity_record()
        assert state.sim_stats.count == 0


class TestRepository:
    def test_new_state_ids_increment(self):
        repo = Repository(max_size=5)
        a = repo.new_state(2, MajorityClass(2), step=0)
        b = repo.new_state(2, MajorityClass(2), step=1)
        assert b.state_id == a.state_id + 1
        assert len(repo) == 2

    def test_lru_eviction(self):
        repo = Repository(max_size=2)
        a = repo.new_state(2, MajorityClass(2), step=0)
        b = repo.new_state(2, MajorityClass(2), step=5)
        a.last_active_step = 10  # a was used more recently than b
        c = repo.new_state(2, MajorityClass(2), step=6)
        assert c.state_id in repo
        assert a.state_id in repo
        assert b.state_id not in repo  # least recently active evicted

    def test_remove_is_idempotent(self):
        repo = Repository()
        state = repo.new_state(2, MajorityClass(2), step=0)
        repo.remove(state.state_id)
        repo.remove(state.state_id)
        assert state.state_id not in repo

    def test_invalid_max_size(self):
        with pytest.raises(ValueError):
            Repository(max_size=0)
