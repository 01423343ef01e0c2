"""Shared-window partial extraction: exactness and FiCSUM wiring.

The model-selection hot path relies on three facts pinned here:

* ``extract_shared`` + ``extract_partial`` reproduce ``extract``
  bit-for-bit, for every source set;
* only the dimensions flagged ``classifier_dependent`` vary across
  candidate classifiers (the shared part really is shared);
* FiCSUM's model selection / re-check / repository step never run a
  full extraction, compute the classifier-independent dimensions
  exactly once per candidate stack, and hand each stack's whole
  candidate block from the classifier bank to one block extraction
  (spy tests).
"""

from __future__ import annotations

import numpy as np
import pytest
from equivalence import build_system

from repro.classifiers import ClassifierBank, HoeffdingTree
from repro.evaluation.prequential import prequential_run
from repro.metafeatures import FingerprintPipeline
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


def _spy_on_extraction(system):
    """Instrument a system's pipeline; returns the call log.

    Every ``extract_partial_many`` call must complete its stack from
    the vector the ``extract_shared`` call just before it returned.
    """
    pipe = system.pipeline
    calls = {"full": 0, "shared": [], "blocks": [], "block_rows": 0}

    original_extract = pipe.extract
    original_shared = pipe.extract_shared
    original_many = pipe.extract_partial_many

    def spy_extract(*args, **kwargs):
        calls["full"] += 1
        return original_extract(*args, **kwargs)

    def spy_shared(*args, **kwargs):
        shared = original_shared(*args, **kwargs)
        calls["shared"].append(shared)
        return shared

    def spy_many(window_x, labels, preds_block, *args, shared=None, **kwargs):
        assert calls["shared"] and shared is calls["shared"][-1]
        calls["blocks"].append(preds_block)
        calls["block_rows"] += len(preds_block)
        return original_many(
            window_x, labels, preds_block, *args, shared=shared, **kwargs
        )

    pipe.extract = spy_extract
    pipe.extract_shared = spy_shared
    pipe.extract_partial_many = spy_many
    return calls


def test_ficsum_computes_shared_dims_once_per_stack():
    """Spy test: model selection, the re-check and the repository step
    never run full extraction, and each candidate stack pays exactly
    one shared pass, whose vector its block extraction completes."""
    system, stream = build_system()
    calls = _spy_on_extraction(system)

    prequential_run(system, stream, oracle_drift=True)

    assert len(system.repository) >= 2  # several candidate states existed
    assert calls["blocks"], "model selection / repository step never ran"
    # Full extraction is gone from the hot path entirely.
    assert calls["full"] == 0
    # The shared (classifier-independent) part: exactly once per stack.
    assert len(calls["shared"]) == len(calls["blocks"])


def test_ficsum_forest_routing_feeds_one_block_per_stack(monkeypatch):
    """Spy test: each candidate stack is routed through the classifier
    bank once, and the prediction block it returns reaches one block
    extraction whole, one row per candidate, so the candidate fan-out
    arrives as fewer extraction calls than fingerprinted candidates."""
    system, stream = build_system()
    calls = _spy_on_extraction(system)
    routed = []
    original_predict = ClassifierBank.predict_batch_many

    def spy_predict(self, keys, X):
        block = original_predict(self, keys, X)
        assert block.shape == (len(keys), len(X))
        routed.append(block)
        return block

    monkeypatch.setattr(ClassifierBank, "predict_batch_many", spy_predict)

    prequential_run(system, stream, oracle_drift=True)

    assert len(system.repository) >= 2
    assert calls["blocks"], "model selection / repository step never ran"
    assert calls["full"] == 0
    # One bank routing per stack, and the stack's extraction receives
    # exactly the block that routing returned.
    assert len(routed) == len(calls["blocks"])
    for block, received in zip(routed, calls["blocks"]):
        assert received is block
    # Every fingerprinted candidate is a row of some block, and blocks
    # carry several candidates.
    assert calls["block_rows"] == sum(len(block) for block in routed)
    assert calls["block_rows"] > len(calls["blocks"])
