"""The engine against the plain Algorithm 1 of :mod:`reference`.

Every scenario runs the production engine twice — per observation and
chunked — and asserts both runs are observation-for-observation the
run of :class:`reference.ReferenceFicsum` driven by the reference's own
prequential loop: same predictions, drift points, state-id traces,
float discrimination samples, selection counts and final dynamic
weights.  The scenarios are
:data:`equivalence.SCENARIOS`; the layer modules
(``test_vectorized_selection``, ``test_forest_routing``,
``test_extraction_cache``) re-run some of them with their fast path
spied, to show each was taken on the way to the reference's trace.

The reference builds its own copy of the Hoeffding tree
(:class:`reference.ReferenceHoeffdingTree`) and keeps its concepts in
its own store of standalone states (:class:`reference.ReferenceStore`),
so a change to the engine's tree or to its concept storage shows here
too.

Stream seeds honour ``REPRO_SEED`` (see :mod:`equivalence`), so CI
runs the whole matrix on three distinct streams.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from equivalence import (
    SCENARIOS,
    assert_identical_traces,
    run_config,
    scenario_reference,
)


@pytest.mark.parametrize("chunk_size", [None, 16], ids=["per_obs", "chunked"])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_engine_matches_reference(scenario, chunk_size):
    overrides, build_kwargs = SCENARIOS[scenario]
    engine = run_config(overrides, chunk_size=chunk_size, **build_kwargs)
    assert_identical_traces(engine, scenario_reference(scenario))
    # A scenario that never selects pins nothing about selection.
    assert engine.system.selection_events > 0


#: Machinery the reference must not use: it exists to pin it.
FORBIDDEN = {
    "process_chunk",
    "matrix",
    "bank",
    "ClassifierBank",
    "extract_shared",
    "extract_partial",
    "extract_partial_many",
    "update_many",
    "scale_many",
    "contains",
    "sim_pairs_many",
    "make_weights",
    "_gated_record",
    "_fold_queue",
    "StreamRunner",
    "prequential_run",
    # The engine tree's leaf terms and one-pass split search: the
    # reference tree recomputes every term and walks every threshold.
    "nb_variances",
    "nb_log_variances",
    "nb_log_prior",
    "_refresh_nb_terms",
    "_LEAF_STATISTICS",
    "_entropies",
    "_test_then_train",
    "HoeffdingTree",
    # The engine's concept storage: the reference keeps standalone
    # states in its own dict (ReferenceStore).
    "Repository",
    "FingerprintMatrix",
    "new_state",
    "admit",
}


def test_reference_uses_no_engine_machinery():
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    assert not used & FORBIDDEN, sorted(used & FORBIDDEN)
