"""Shared run-pinning equivalence utilities.

The engine has one production path, and every restructuring of it
(chunked engine, shared-window extraction, batched selection, forest
routing) carries the same hard constraint: the traces must stay
**bit-for-bit** those of the plain Algorithm 1 in
:mod:`reference` — same predictions, drift points, state-id traces,
discrimination samples and dynamic weights.  The test modules pinning
that all follow one pattern — *run the same seeded stream twice,
assert the traces are identical* — which lives here.

Usage::

    engine = run_config({"max_repository_size": 3}, chunk_size=16)
    reference = run_reference({"max_repository_size": 3})
    assert_identical_traces(engine, reference)

or, for two configurations that must behave identically, in one call::

    assert_equivalent_configs({}, {"sketch_profile": "exact"})

``run_config`` starts from :data:`BASE_CONFIG` (a small, fast, oracle-
drift recurring-concept setup that exercises model selection, the
re-check and the repository step) and applies the given overrides;
stream choice, seed and run options are keyword arguments.

Stream seeds honour the ``REPRO_SEED`` environment variable as an
additive offset, so CI's equivalence-matrix job re-runs every pinned
test under several distinct streams (``REPRO_SEED={0,1,2}``) without
any test changing.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np
from reference import ReferenceFicsum, reference_prequential_run

from repro.core import FicsumConfig
from repro.core.variants import make_error_rate_variant, make_ficsum
from repro.evaluation.prequential import RunResult, prequential_run
from repro.streams.datasets import make_dataset
from repro.system import AdaptiveSystem

#: Additive stream-seed offset (CI equivalence-matrix job).
SEED_OFFSET = int(os.environ.get("REPRO_SEED", "0"))

#: The rolling-capable meta-feature subset most equivalence runs use —
#: large enough to exercise every behaviour source, cheap enough that
#: whole-stream twin runs stay fast.
ROLLING = [
    "mean",
    "std",
    "skew",
    "kurtosis",
    "autocorrelation",
    "partial_autocorrelation",
    "turning_point_rate",
]

#: Default configuration of an equivalence run: small windows/periods
#: so events are frequent, oracle drift so selection happens at known
#: points, discrimination tracking so even those float samples pin.
BASE_CONFIG: Dict[str, object] = {
    "window_size": 40,
    "fingerprint_period": 4,
    "repository_period": 20,
    "grace_period": 30,
    "drift_warmup_windows": 1.0,
    "oracle_drift": True,
    "metafeatures": ROLLING,
    "track_discrimination": True,
}


#: Named whole-run scenarios the engine is pinned against the reference
#: on, as ``(config overrides, build_system keywords)``.  Together they
#: reach everything the engine's restructured machinery touches:
#: oracle-driven recurrence (selection, re-check, repository step),
#: ADWIN detection, the univariate ER variant, the full Table I set
#: (the classifier-backed permutation importance and its rng stream),
#: eviction pressure, and both benchmark operating points at a small
#: stream size.
SCENARIOS: Dict[str, tuple] = {
    "oracle-recurring": ({}, {}),
    "adwin": ({"oracle_drift": False}, {"dataset": "STAGGER", "seed": 1}),
    "er-variant": ({"metafeatures": None}, {"variant": "er"}),
    "table1-shapley": ({"metafeatures": None}, {"segment_length": 120}),
    "eviction": (
        {"max_repository_size": 3},
        {"seed": 7, "segment_length": 130},
    ),
    # The benchmark's two operating points: FicsumConfig() defaults
    # (ADWIN, exact Table I set) and the fast sketches.
    "paper-exact": ({}, {"base": {}, "segment_length": 150}),
    "serve-fast": (
        {"sketch_profile": "fast"},
        {"base": {}, "dataset": "HPLANE-U", "segment_length": 150},
    ),
}


@dataclass
class RunTrace:
    """One finished run plus the system that produced it."""

    result: RunResult
    system: AdaptiveSystem


def build_system(
    overrides: Optional[Dict[str, object]] = None,
    *,
    dataset: str = "RBF",
    seed: int = 5,
    segment_length: int = 150,
    n_repeats: int = 2,
    variant: str = "full",
    base: Optional[Dict[str, object]] = None,
):
    """Build an unrun (system, stream) pair for one configuration.

    ``overrides`` are :class:`FicsumConfig` fields applied on top of
    ``base`` (default :data:`BASE_CONFIG`; pass ``{}`` to start from
    the dataclass defaults).  ``variant="er"`` builds the univariate
    error-rate variant.  The stream seed is offset by ``REPRO_SEED``.
    Spy tests instrument the system here before driving it themselves.
    """
    cfg_kwargs = dict(BASE_CONFIG if base is None else base)
    cfg_kwargs.update(overrides or {})
    cfg = FicsumConfig(**cfg_kwargs)
    stream = make_dataset(
        dataset,
        seed=seed + SEED_OFFSET,
        segment_length=segment_length,
        n_repeats=n_repeats,
    )
    make = make_error_rate_variant if variant == "er" else make_ficsum
    system = make(stream.meta.n_features, stream.meta.n_classes, cfg)
    return system, stream


def run_config(
    overrides: Optional[Dict[str, object]] = None,
    *,
    chunk_size: Optional[int] = None,
    max_observations: Optional[int] = None,
    instrument: Optional[Callable[[AdaptiveSystem], None]] = None,
    **build_kwargs,
) -> RunTrace:
    """Run one FiCSUM configuration over a seeded recurring stream.

    Accepts every :func:`build_system` keyword plus the prequential
    run options.  ``instrument(system)`` runs between build and run,
    so spy tests can wrap the engine's methods.
    """
    system, stream = build_system(overrides, **build_kwargs)
    if instrument is not None:
        instrument(system)
    result = prequential_run(
        system,
        stream,
        oracle_drift=system.config.oracle_drift,
        chunk_size=chunk_size,
        max_observations=max_observations,
    )
    return RunTrace(result, system)


def run_reference(
    overrides: Optional[Dict[str, object]] = None, **build_kwargs
) -> RunTrace:
    """:func:`run_config`'s run, played through the test-only
    :class:`reference.ReferenceFicsum` instead of the engine.

    The reference is built from the configuration the engine would run
    under (variants included) and driven one observation at a time by
    :func:`reference.reference_prequential_run`, not by the engine's
    loop.
    """
    engine, stream = build_system(overrides, **build_kwargs)
    meta = stream.meta
    system = ReferenceFicsum(meta.n_features, meta.n_classes, engine.config)
    result = reference_prequential_run(
        system, stream, oracle_drift=system.config.oracle_drift
    )
    return RunTrace(result, system)


def run_scenario(
    name: str, *, instrument: Optional[Callable[[AdaptiveSystem], None]] = None
) -> RunTrace:
    """:func:`run_config` on one :data:`SCENARIOS` entry."""
    overrides, build_kwargs = SCENARIOS[name]
    return run_config(overrides, instrument=instrument, **build_kwargs)


@functools.lru_cache(maxsize=None)
def scenario_reference(name: str) -> RunTrace:
    """The reference run of one :data:`SCENARIOS` entry.

    Computed once per test session and shared by every module that
    pins a scenario; callers only read it.
    """
    overrides, build_kwargs = SCENARIOS[name]
    return run_reference(overrides, **build_kwargs)


def run_config_observed(
    overrides: Optional[Dict[str, object]] = None,
    *,
    chunk_size: Optional[int] = None,
    max_observations: Optional[int] = None,
    audit_path=None,
    **build_kwargs,
):
    """:func:`run_config` with a live stats collector (and optional
    audit log) attached; returns ``(RunTrace, StatsCollector)``.

    The counter-parity tests use this to assert that the chunked and
    per-observation engines emit identical event counts, the same way
    :func:`assert_equivalent_configs` pins their traces.
    """
    from repro.serving.audit import AuditLog
    from repro.serving.metrics import StatsCollector

    system, stream = build_system(overrides, **build_kwargs)
    collector = StatsCollector()
    audit = AuditLog(audit_path) if audit_path is not None else None
    system.attach_observability(metrics=collector, audit=audit)
    result = prequential_run(
        system,
        stream,
        oracle_drift=system.config.oracle_drift,
        chunk_size=chunk_size,
        max_observations=max_observations,
    )
    return RunTrace(result, system), collector


def assert_identical_traces(a: RunTrace, b: RunTrace) -> None:
    """Two runs were observation-for-observation the same run.

    Exact comparisons throughout — metrics, per-observation state-id
    traces, drift points, float discrimination samples, the dynamic
    weight vector and the selection-event count.  Any divergence in a
    restructured execution path shows up here.
    """
    ra, rb = a.result, b.result
    assert ra.n_observations == rb.n_observations
    assert ra.accuracy == rb.accuracy
    assert ra.kappa == rb.kappa
    assert ra.c_f1 == rb.c_f1
    assert ra.n_drifts == rb.n_drifts
    assert ra.n_states == rb.n_states
    assert ra.concept_ids == rb.concept_ids
    assert ra.state_ids == rb.state_ids
    assert ra.discrimination == rb.discrimination
    sa, sb = a.system, b.system
    assert sa.drift_points == sb.drift_points
    assert sa.discrimination_samples == sb.discrimination_samples
    assert sa.selection_events == sb.selection_events
    assert sa._step == sb._step
    np.testing.assert_array_equal(sa.weights, sb.weights)


def assert_equivalent_configs(
    overrides_a: Dict[str, object],
    overrides_b: Dict[str, object],
    **run_kwargs,
):
    """Run both configurations and assert identical traces.

    Returns ``(trace_a, trace_b)`` so callers can add toggle-specific
    assertions (cache counters, repository internals, ...).
    """
    a = run_config(overrides_a, **run_kwargs)
    b = run_config(overrides_b, **run_kwargs)
    assert_identical_traces(a, b)
    return a, b
