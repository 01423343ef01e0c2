"""The work a fingerprint step shares, pinned to computing it again.

A fingerprint step (every ``P_C`` observations, Algorithm 1) computes
some things once that it used to compute several times:

* the incorporation scores ``(F_c, F_B)`` and the active record's
  retained pairs with one scale and one paired kernel, and the drift
  gate re-expresses the record from those re-scores instead of scoring
  the pairs again;
* the normaliser holds its range terms (the usable mask and the safe
  span) between the writes that move its range;
* the active window matrix is copied from the rolling accumulators'
  ring instead of being laid out again from the window arrays;
* the permutation importance draws every feature's shuffle with one
  generator call.

Each is checked here against the computation it replaces, bit for bit:
the record against :meth:`Ficsum._gated_records_many` at the same step,
the held terms against :func:`_usable_span` of the bounds, the ring
matrix against the row layout of the batch path, and the importances
against the sequential-draw loop of
:func:`reference.reference_permutation_importance`.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from equivalence import SCENARIOS, run_config
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_permutation_importance

from repro.metafeatures.shapley import window_permutation_importance
from repro.utils.stats import OnlineMinMax, _usable_span, minmax_scale


def _bits(values) -> bytes:
    """Exact bit pattern (signed zeros and NaN payloads included)."""
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


# ----------------------------------------------------------------------
# The step's similarity record against the recomputed one
# ----------------------------------------------------------------------
#: The step methods whose ``_gated`` calls re-express the active record
#: from the incorporation's re-scores.
STEP_CALLERS = ("_fingerprint_step", "_incorporate_buffer")


@pytest.mark.parametrize("chunk_size", [None, 16], ids=["per_obs", "chunked"])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_step_record_equals_recomputed(scenario, chunk_size):
    """At every fingerprint step, the incorporation gate's and the drift
    gate's (mu, sigma) equal ``_gated_records_many`` recomputed from the
    record's stored pairs in the normaliser's current range."""
    checked = dict.fromkeys(STEP_CALLERS, 0)

    def instrument(system):
        gated = system._gated

        def spied(state, sims, old):
            record = gated(state, sims, old)
            caller = sys._getframe(1).f_code.co_name
            if caller in checked:
                norm = system.normalizer
                mus, sigmas = system._gated_records_many(
                    [state], norm.mins[None], norm.maxs[None]
                )
                assert _bits(record) == _bits((mus[0], sigmas[0])), caller
                checked[caller] += 1
            return record

        system._gated = spied

    overrides, build_kwargs = SCENARIOS[scenario]
    run_config(overrides, chunk_size=chunk_size, instrument=instrument, **build_kwargs)
    # The drift gate read the incorporation's re-scores.
    assert checked["_fingerprint_step"] > 0


# ----------------------------------------------------------------------
# The normaliser's held range terms
# ----------------------------------------------------------------------
_SPECIALS = st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, -3.0, 1e308, -1e308, 5e-324, np.inf, -np.inf, np.nan]
)
_VALUES = st.one_of(_SPECIALS, st.floats(-1e3, 1e3))


def _assert_terms_held(norm: OnlineMinMax) -> None:
    usable, safe_span = _usable_span(norm.mins, norm.maxs)
    assert _bits(norm.usable) == _bits(usable)
    assert _bits(norm.safe_span) == _bits(safe_span)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_held_terms_follow_every_range_write(data):
    """After ``update``, ``update_rows`` (an empty stack included) and
    ``load_state_dict`` the held terms are ``_usable_span`` of the new
    bounds, and the scalings equal ``minmax_scale`` on those bounds."""
    d = data.draw(st.integers(1, 5))
    row = st.lists(_VALUES, min_size=d, max_size=d).map(np.array)
    norm = OnlineMinMax(d)
    with np.errstate(all="ignore"):
        _assert_terms_held(norm)
        for op in data.draw(
            st.lists(st.sampled_from(["update", "rows", "load"]), max_size=6)
        ):
            if op == "update":
                norm.update(data.draw(row))
            elif op == "rows":
                stack = data.draw(st.lists(row, max_size=3))
                norm.update_rows(np.array(stack).reshape(len(stack), d))
            else:
                mins = data.draw(row)
                # Equal bounds on some dimensions: a zero span.
                maxs = np.where(data.draw(st.booleans()), mins, data.draw(row))
                norm.load_state_dict({"mins": mins, "maxs": maxs})
            _assert_terms_held(norm)
            values = data.draw(row)
            assert _bits(norm.scale(values)) == _bits(
                minmax_scale(values, norm.mins, norm.maxs)
            )


# ----------------------------------------------------------------------
# The active window matrix from the rolling ring
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_size", [None, 16], ids=["per_obs", "chunked"])
@pytest.mark.parametrize("scenario", ["table1-shapley", "serve-fast", "er-variant"])
def test_ring_matrix_equals_window_layout(scenario, chunk_size):
    """At every active-window extraction, the ring's matrix is the batch
    path's layout of the window arrays."""
    extractions = []

    def instrument(system):
        pipeline = system.pipeline
        extract = pipeline.extract_incremental

        def spied(window_x, labels, preds, classifier=None):
            pipeline._fold_queue()
            labels_f = np.asarray(labels, dtype=np.float64)
            preds_f = np.asarray(preds, dtype=np.float64)
            errors = (labels_f != preds_f).astype(np.float64)
            laid_out = pipeline._row_matrix(
                pipeline._all_rows, window_x, labels_f, preds_f, errors
            )
            ring = pipeline._rolling.window_matrix()
            assert ring.flags.c_contiguous
            assert ring.shape == laid_out.shape
            assert _bits(ring) == _bits(laid_out)
            extractions.append(1)
            return extract(window_x, labels, preds, classifier)

        pipeline.extract_incremental = spied

    overrides, build_kwargs = SCENARIOS[scenario]
    run_config(overrides, chunk_size=chunk_size, instrument=instrument, **build_kwargs)
    assert extractions


# ----------------------------------------------------------------------
# Permutation importance: one draw call, the sequential loop's draws
# ----------------------------------------------------------------------
class _Linear:
    """A deterministic classifier that takes non-finite inputs."""

    def __init__(self, d: int) -> None:
        self.coef = np.linspace(1.0, 2.0, d)

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        score = np.nan_to_num(x, posinf=1e6, neginf=-1e6) @ self.coef
        return (score > 0.5 * self.coef.sum()).astype(np.int64)


def _window(w: int, d: int, kind: str, seed: int) -> np.ndarray:
    window = np.random.default_rng(seed).random((w, d))
    if kind == "constant":
        window[:, 0] = 0.25
    elif kind == "non-finite":
        window[::3, 0] = np.nan
        window[1::4, -1] = np.inf
        window[2::5, -1] = -np.inf
    return window


@pytest.mark.parametrize("kind", ["plain", "constant", "non-finite"])
@pytest.mark.parametrize(
    "w, d, max_eval",
    [(8, 4, 12), (12, 3, 12), (75, 10, 12), (75, 1, 12), (5, 1, 12), (40, 6, 3)],
    ids=["w<max_eval", "w=max_eval", "w>max_eval", "d=1", "d=1,w<max_eval",
         "w>>max_eval"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permutation_importance_equals_sequential_draws(w, d, max_eval, kind, seed):
    window = _window(w, d, kind, seed)
    clf = _Linear(d)
    rng = np.random.default_rng(100 + seed)
    loop_rng = np.random.default_rng(100 + seed)
    got = window_permutation_importance(clf, window, max_eval=max_eval, rng=rng)
    want = reference_permutation_importance(
        clf, window, max_eval=max_eval, rng=loop_rng
    )
    assert _bits(got) == _bits(want)
    assert rng.bit_generator.state == loop_rng.bit_generator.state
    if kind == "constant":
        # A constant feature's every shuffle is close: importance 0.
        assert got[0] == 0.0
