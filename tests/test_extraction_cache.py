"""Shared-window partial extraction: exactness, caching, FiCSUM wiring.

The model-selection hot path relies on three facts pinned here:

* ``extract_shared`` + ``extract_partial`` reproduce ``extract``
  bit-for-bit, for every source set;
* only the dimensions flagged ``classifier_dependent`` vary across
  candidate classifiers (the shared part really is shared);
* FiCSUM's model selection / re-check / repository step compute the
  classifier-independent dimensions exactly once per window (spy test)
  and behave identically with the cache's reuse defeated.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from equivalence import (
    assert_identical_traces,
    build_system,
    disable_extraction_cache,
    run_config,
)

from repro.classifiers import HoeffdingTree
from repro.evaluation.prequential import prequential_run
from repro.metafeatures import FingerprintPipeline, WindowExtractionCache
from repro.registry import METAFEATURES

W, D = 75, 6


@pytest.fixture(scope="module")
def window():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(W, D))
    ys = rng.integers(0, 2, size=W).astype(np.int64)
    tree = HoeffdingTree(2, D, grace_period=30, seed=1)
    for i in range(400):
        x = rng.normal(size=D)
        tree.learn(x, int(x[0] > 0))
    preds = tree.predict_batch(X)
    return X, ys, preds, tree


@pytest.mark.parametrize("source_set", ["all", "supervised", "unsupervised", "error_rate"])
def test_partial_extraction_equals_full(window, source_set):
    X, ys, preds, tree = window
    # Separate pipelines so both paths consume identical fresh rng
    # streams (the permutation importance draws from the pipeline rng).
    full = FingerprintPipeline(D, source_set=source_set).extract(X, ys, preds, tree)
    partial = FingerprintPipeline(D, source_set=source_set).extract_partial(
        X, ys, preds, tree
    )
    assert np.array_equal(full, partial)


def test_partial_with_shared_equals_full(window):
    X, ys, preds, tree = window
    full = FingerprintPipeline(D).extract(X, ys, preds, tree)
    pipe = FingerprintPipeline(D)
    shared = pipe.extract_shared(X, ys)
    assert np.array_equal(full, pipe.extract_partial(X, ys, preds, tree, shared=shared))


def test_shared_part_is_classifier_independent(window):
    """Dims outside the dependent mask agree across candidate classifiers."""
    X, ys, preds, tree = window
    rng = np.random.default_rng(9)
    other = HoeffdingTree(2, D, grace_period=30, seed=77)
    for i in range(400):
        x = rng.normal(size=D)
        other.learn(x, int(x[1] > 0))
    other_preds = other.predict_batch(X)
    assert not np.array_equal(preds, other_preds)

    fp_a = FingerprintPipeline(D).extract(X, ys, preds, tree)
    fp_b = FingerprintPipeline(D).extract(X, ys, other_preds, other)
    mask = FingerprintPipeline(D).schema.classifier_dependent
    assert np.array_equal(fp_a[~mask], fp_b[~mask])
    assert not np.array_equal(fp_a[mask], fp_b[mask])


def test_shared_fills_only_independent_dims(window):
    X, ys, _, _ = window
    pipe = FingerprintPipeline(D)
    shared = pipe.extract_shared(X, ys)
    mask = pipe.schema.classifier_dependent
    assert np.all(shared[mask] == 0.0)
    assert np.any(shared[~mask] != 0.0)


def test_batch_scalar_cached_matches_batch_scalar():
    """The memoised scalar path returns batch_scalar values exactly."""
    rng = np.random.default_rng(4)
    sequences = [
        rng.normal(size=60),
        rng.integers(1, 9, size=40).astype(np.float64),  # gap-like ties
        np.array([3.0]),
        np.array([2.0, 5.0]),
        np.array([1.0, 4.0, 2.0]),
        np.zeros(30),
    ]
    for seq in sequences:
        cache: dict = {}
        for component in METAFEATURES.values():
            assert component.batch_scalar_cached(seq, cache) == component.batch_scalar(seq)


def test_batch_scalar_rows_matches_batch_scalar():
    """The grouped error-distance path (forest routing) evaluates
    equal-length sequence stacks through ``batch_scalar_rows``; every
    row's value must equal ``batch_scalar`` on that row exactly — in
    particular at the tiny lengths where the scalar kernels early-out
    (skew < 3, kurtosis < 4, acf/pacf <= lag+1)."""
    from repro.metafeatures.components import WindowContext

    rng = np.random.default_rng(7)
    for length in (1, 2, 3, 4, 5, 9, 40):
        stacks = [
            rng.normal(size=(6, length)),
            rng.integers(1, 6, size=(6, length)).astype(np.float64),
            np.zeros((3, length)),  # constant rows
        ]
        for stack in stacks:
            ctx = WindowContext(stack)
            for component in METAFEATURES.values():
                rows = component.batch_scalar_rows(ctx)
                scalars = np.array(
                    [component.batch_scalar(row) for row in stack]
                )
                assert np.array_equal(rows, scalars), (
                    component.name,
                    length,
                )


def test_window_extraction_cache_counters(window):
    X, ys, preds, tree = window
    pipe = FingerprintPipeline(D)
    cache = WindowExtractionCache(pipe)
    reference = FingerprintPipeline(D)

    fp1 = cache.extract_many(10, X, ys, preds[None], [tree])
    fp2 = cache.extract_many(10, X, ys, np.stack([preds, preds]), [tree, tree])
    assert cache.n_shared_computes == 1
    assert cache.n_partial_extracts == 3
    # The cache replays the exact sequence three full extractions would
    # produce (the permutation-importance rng advances per candidate,
    # so the reference must advance in lockstep).
    assert np.array_equal(fp1[0], reference.extract(X, ys, preds, tree))
    for row in fp2:
        assert np.array_equal(row, reference.extract(X, ys, preds, tree))

    cache.extract_many(11, X, ys, preds[None], [tree])
    assert cache.n_shared_computes == 2
    cache.invalidate()
    cache.extract_many(11, X, ys, preds[None], [tree])
    assert cache.n_shared_computes == 3


def _spy_on_extraction(system):
    """Instrument a system's pipeline + cache; returns the call log."""
    pipe = system.pipeline
    cache = system._extract_cache
    calls = {"full": 0, "shared": 0, "keys": [], "block_rows": 0}

    original_extract = pipe.extract
    original_shared = pipe.extract_shared
    original_cache_many = cache.extract_many

    def spy_extract(*args, **kwargs):
        calls["full"] += 1
        return original_extract(*args, **kwargs)

    def spy_shared(*args, **kwargs):
        calls["shared"] += 1
        return original_shared(*args, **kwargs)

    def spy_cache_many(key, window_x, labels, preds_block, *args, **kwargs):
        calls["keys"].append(key)
        calls["block_rows"] += len(preds_block)
        return original_cache_many(
            key, window_x, labels, preds_block, *args, **kwargs
        )

    pipe.extract = spy_extract
    pipe.extract_shared = spy_shared
    cache.extract_many = spy_cache_many
    return calls


def test_ficsum_computes_shared_dims_once_per_window():
    """Spy test: model selection and the repository step never run
    full extraction, and the classifier-independent dimensions are
    computed exactly once per window even when one window is
    fingerprinted by several calls (the repository step's candidate
    block plus the discrimination sample's active state)."""
    system, stream = build_system()
    cache = system._extract_cache
    calls = _spy_on_extraction(system)

    prequential_run(system, stream, oracle_drift=True)

    assert len(system.repository) >= 2  # several candidate states existed
    assert calls["keys"], "model selection / repository step never ran"
    # Full extraction is gone from the hot path entirely.
    assert calls["full"] == 0
    # The shared (classifier-independent) part: exactly once per window.
    per_window = Counter(calls["keys"])
    assert calls["shared"] == len(per_window)
    assert cache.n_shared_computes == len(per_window)
    # At least one window was fingerprinted by several calls, which is
    # precisely the redundancy the cache removes.
    assert max(per_window.values()) >= 2


def test_ficsum_forest_routing_shares_the_same_cache():
    """The whole candidate block goes through one ``extract_many``
    per stack, the shared part is still computed exactly once per
    window, and the work counters account for every candidate in the
    block."""
    system, stream = build_system()
    cache = system._extract_cache
    calls = _spy_on_extraction(system)

    prequential_run(system, stream, oracle_drift=True)

    assert len(system.repository) >= 2
    assert calls["keys"], "model selection / repository step never ran"
    assert calls["full"] == 0
    per_window = Counter(calls["keys"])
    assert calls["shared"] == len(per_window)
    assert cache.n_shared_computes == len(per_window)
    # The candidate fan-out arrives as blocks: fewer cache calls than
    # fingerprinted candidates, but every candidate is accounted for.
    assert cache.n_partial_extracts == calls["block_rows"]
    assert cache.n_partial_extracts > len(calls["keys"])


def test_ficsum_cache_disabled_is_equivalent():
    """The cache is an execution detail: a run that recomputes the
    shared dimensions for every stack is the cached run."""
    cached = run_config()
    uncached = run_config(instrument=disable_extraction_cache)
    assert_identical_traces(cached, uncached)
    on, off = cached.system._extract_cache, uncached.system._extract_cache
    assert off.n_partial_extracts == on.n_partial_extracts
    assert off.n_shared_computes > on.n_shared_computes
