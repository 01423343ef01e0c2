"""Big-R repository scaling: shortlist recall + provable exactness.

Two contracts pin the ANN prefilter (`FicsumConfig.ann_prefilter`):

* **Provable-exactness mode** (``ann_exact=True``, the default): the
  prefilter's staging leaves the candidate list to the same lazily
  gated walk the full scan runs, so selection is *bit-for-bit* the
  full scan's — pinned by the equivalence harness across oracle,
  ADWIN, ER and eviction-pressure scenarios (CI re-runs this module at
  three ``REPRO_SEED`` values).
* **Approximate mode** (``ann_exact=False``): shortlist recall on
  random clustered fingerprint populations must meet the bound the
  :class:`~repro.core.store.ProjectionPrefilter` declares (>= 0.9;
  hypothesis searches the population seed space adversarially).

Concept families (``family_radius``) are semantic — no bit-for-bit
claim — so they are tested directly: absorbed statistics equal the
pooled history, repertoire growth saturates, the active state
survives.
"""

from __future__ import annotations

import numpy as np
import pytest
from equivalence import (
    assert_equivalent_configs,
    run_config,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers import HoeffdingTree
from repro.core import FicsumConfig, Repository
from repro.core.similarity import weighted_cosine_many
from repro.core.store import ProjectionPrefilter
from repro.utils.stats import EwmaStats, OnlineVectorStats

N_DIMS = 24
SHORTLIST_K = 16


def _population(
    seed: int, n_centers: int = 8, per_center: int = 25, n_queries: int = 1
):
    """Clustered fingerprint vectors + noisy queries, seed-derived."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_centers, N_DIMS))
    members = np.repeat(centers, per_center, axis=0)
    members = members + 0.05 * rng.normal(size=members.shape)
    queries = np.repeat(centers, n_queries, axis=0)
    queries = queries + 0.05 * rng.normal(size=queries.shape)
    return members, queries


class _MeansState:
    """Minimal state-like carrier for prefilter population tests."""

    def __init__(self, state_id: int, means: np.ndarray) -> None:
        self.state_id = state_id
        self.fingerprint = _MeansFingerprint(means)


class _MeansFingerprint:
    def __init__(self, means: np.ndarray) -> None:
        self.means = np.asarray(means, dtype=np.float64)
        self.version = 0


class TestShortlistRecall:
    """The declared recall bound of the approximate prefilter."""

    @given(st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_recall_meets_declared_bound(self, seed):
        # 32 projections x 40 queries: measured min recall 0.925 over
        # 3000 population seeds, none below the 0.9 bound.
        members, queries = _population(seed, n_queries=5)
        states = [_MeansState(i, m) for i, m in enumerate(members)]
        prefilter = ProjectionPrefilter(N_DIMS, 32, seed=seed % 7)
        hits = 0
        for query in queries:
            exact = weighted_cosine_many(
                np.ascontiguousarray(members), query
            )
            winner = int(np.argmax(exact))
            shortlist = prefilter.shortlist(states, query, SHORTLIST_K)
            hits += winner in shortlist
        # The class declares >= 90% top-1 recall on clustered
        # populations; empirically this sits at ~1.0.
        assert hits / len(queries) >= 0.9

    def test_shortlist_covers_small_populations_exactly(self):
        members, queries = _population(3, n_centers=3, per_center=4)
        states = [_MeansState(i, m) for i, m in enumerate(members)]
        prefilter = ProjectionPrefilter(N_DIMS, 16, seed=0)
        assert prefilter.shortlist(states, queries[0], len(states)) == list(
            range(len(states))
        )
        assert prefilter.shortlist(states, queries[0], 10_000) == list(
            range(len(states))
        )

    def test_shortlist_returns_repository_order(self):
        members, queries = _population(11)
        states = [_MeansState(i, m) for i, m in enumerate(members)]
        prefilter = ProjectionPrefilter(N_DIMS, 16, seed=0)
        shortlist = prefilter.shortlist(states, queries[0], SHORTLIST_K)
        assert shortlist == sorted(shortlist)
        assert len(shortlist) == SHORTLIST_K

    def test_projections_are_seed_deterministic(self):
        a = ProjectionPrefilter(N_DIMS, 16, seed=4)
        b = ProjectionPrefilter(N_DIMS, 16, seed=4)
        c = ProjectionPrefilter(N_DIMS, 16, seed=5)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert not np.array_equal(a.vectors, c.vectors)

    def test_sketch_memo_tracks_fingerprint_version(self):
        members, _ = _population(2, n_centers=2, per_center=2)
        states = [_MeansState(i, m) for i, m in enumerate(members)]
        prefilter = ProjectionPrefilter(N_DIMS, 16, seed=0)
        first = prefilter.state_sketches(states).copy()
        states[0].fingerprint.means = states[0].fingerprint.means + 1.0
        stale = prefilter.state_sketches(states)
        np.testing.assert_array_equal(stale, first)  # version unchanged
        states[0].fingerprint.version += 1
        fresh = prefilter.state_sketches(states)
        assert not np.array_equal(fresh[0], first[0])
        np.testing.assert_array_equal(fresh[1:], first[1:])

    def test_declares_rpr008_contract(self):
        assert ProjectionPrefilter.approximate is True
        assert ProjectionPrefilter.recall_bound
        assert ProjectionPrefilter.exact_reference


class TestProvableExactness:
    """ann_prefilter with ann_exact=True is bit-for-bit the full scan."""

    def test_oracle_scenario(self):
        assert_equivalent_configs({}, {"ann_prefilter": True})

    def test_explicit_exact_toggle(self):
        # ann_exact=True is the provable mode's declared default; flip
        # it explicitly so the pinning names the toggle.
        assert_equivalent_configs(
            {}, {"ann_prefilter": True, "ann_exact": True}
        )

    def test_adwin_scenario(self):
        assert_equivalent_configs(
            {"oracle_drift": False},
            {"oracle_drift": False, "ann_prefilter": True},
        )

    def test_er_variant(self):
        assert_equivalent_configs(
            {}, {"ann_prefilter": True}, variant="er"
        )

    def test_eviction_pressure(self):
        assert_equivalent_configs(
            {"max_repository_size": 3},
            {"max_repository_size": 3, "ann_prefilter": True},
        )

    def test_chunked_engine(self):
        assert_equivalent_configs(
            {}, {"ann_prefilter": True}, chunk_size=64
        )


class TestConfigValidation:
    def test_ann_exact_false_requires_prefilter(self):
        with pytest.raises(ValueError, match="ann_prefilter"):
            FicsumConfig(ann_exact=False)

    def test_shortlist_k_positive(self):
        with pytest.raises(ValueError, match="ann_shortlist_k"):
            FicsumConfig(ann_shortlist_k=0)

    def test_projections_positive(self):
        with pytest.raises(ValueError, match="ann_projections"):
            FicsumConfig(ann_projections=0)

    def test_family_radius_bounded(self):
        with pytest.raises(ValueError, match="family_radius"):
            FicsumConfig(family_radius=1.5)


def _tree(seed: int, n_features: int = 4, n_train: int = 120):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_train, n_features))
    tree = HoeffdingTree(2, n_features, grace_period=20, seed=seed)
    for i in range(n_train):
        tree.learn(X[i], int(X[i, 0] > 0))
    return tree


def _stocked_repository(vectors, max_size: int = 40) -> Repository:
    repo = Repository(max_size)
    for i, vec in enumerate(vectors):
        state = repo.new_state(len(vec), _tree(i + 1), step=i)
        rng = np.random.default_rng(100 + i)
        for _ in range(4):
            state.fingerprint.incorporate(
                np.asarray(vec) + 0.01 * rng.normal(size=len(vec))
            )
    return repo


class TestFamilies:
    def test_vector_stats_merge_equals_pooled_history(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(9, 5))
        a = OnlineVectorStats(5)
        b = OnlineVectorStats(5)
        pooled = OnlineVectorStats(5)
        for i, x in enumerate(xs):
            (a if i < 4 else b).update(x)
            pooled.update(x)
        a.merge(b)
        np.testing.assert_array_equal(a.counts, pooled.counts)
        np.testing.assert_allclose(a.means, pooled.means, rtol=1e-12)
        np.testing.assert_allclose(a.variances, pooled.variances, atol=1e-12)

    def test_ewma_merge_is_count_weighted(self):
        a = EwmaStats()
        b = EwmaStats()
        for v in (0.8, 0.8):
            a.update(v)
        for v in (0.2, 0.2, 0.2, 0.2):
            b.update(v)
        a.merge(b)
        assert a.count == 6
        assert a.mean == pytest.approx((2 * 0.8 + 4 * 0.2) / 6)
        assert a.variance > 0  # spread between the two records survives

    def test_compact_families_merges_near_duplicates(self):
        base = np.full(6, 2.0)
        far = np.concatenate([[5.0], -np.ones(5)])
        repo = _stocked_repository([base, base * 1.0005, far])
        merged = repo.compact_families(0.999)
        assert merged == [(0, 1)]
        assert len(repo) == 2
        rep = repo.get(0)
        assert rep.family_size == 2
        assert rep.fingerprint.count == 8  # 4 + 4 incorporated pooled

    def test_compact_families_protects_states(self):
        base = np.full(6, 2.0)
        repo = _stocked_repository([base, base * 1.0005])
        assert repo.compact_families(0.999, protect=(1,)) == []
        assert len(repo) == 2
        # Unprotected, the same pair merges.
        assert repo.compact_families(0.999) == [(0, 1)]

    def test_compact_families_keeps_distinct_concepts(self):
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(5, 8)) * 3.0
        repo = _stocked_repository(list(vectors))
        assert repo.compact_families(0.9999) == []
        assert len(repo) == 5

    def test_family_size_survives_checkpoint(self):
        base = np.full(6, 2.0)
        repo = _stocked_repository([base, base * 1.0005])
        repo.compact_families(0.999)
        restored = Repository(40)
        restored.load_state_dict(repo.state_dict())
        assert restored.get(0).family_size == 2
        # Pre-family payloads (no key) default to standalone.
        legacy = repo.get(0).state_dict()
        del legacy["family_size"]
        from repro.core import ConceptState

        assert ConceptState.from_state_dict(legacy).family_size == 1

    def test_system_repertoire_saturates(self):
        base = run_config({})
        fam = run_config({"family_radius": 0.9})
        base_repo = base.system.repository
        fam_repo = fam.system.repository
        assert len(fam_repo) <= len(base_repo)
        sizes = [s.family_size for s in fam_repo.states()]
        assert sum(sizes) >= len(fam_repo)
        # The active concept is never absorbed.
        assert fam.system.active_state_id in fam_repo
