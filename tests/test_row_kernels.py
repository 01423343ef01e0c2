"""The row kernels equal their per-sequence references bit for bit.

:func:`row_imf_entropies` and :func:`row_lagged_mutual_information`
evaluate a whole ``(R, n)`` window matrix at once; every row must equal
the per-sequence kernel on that row with ``==`` (no tolerance), because
fingerprints, and therefore every drift and selection decision, must
not move.  :func:`window_permutation_importance` must return the
importances of the per-feature loop in ``tests/reference.py`` and leave
the rng in the same state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_permutation_importance

from repro.classifiers import HoeffdingTree
from repro.metafeatures import emd
from repro.metafeatures.emd import (
    MIN_LOCKSTEP_ROWS,
    _lockstep_imf_entropies,
    imf_entropies,
    row_imf_entropies,
)
from repro.metafeatures.mutual_info import (
    lagged_mutual_information,
    row_lagged_mutual_information,
)
from repro.metafeatures.shapley import window_permutation_importance

ROW_KINDS = ("noise", "constant", "tied", "monotone", "oscillating")


def _row(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "noise":
        return rng.normal(size=n)
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "tied":
        return rng.integers(0, 3, size=n).astype(np.float64)
    if kind == "monotone":
        return np.sort(rng.normal(size=n))
    t = np.arange(n)
    return np.sin(t * rng.uniform(0.2, 2.5)) + 0.1 * rng.normal(size=n)


@st.composite
def window_matrices(draw, max_rows: int = 40, max_width: int = 160):
    """``(R, n)`` matrices mixing row kinds at per-row magnitudes."""
    n_rows = draw(st.integers(0, max_rows))
    width = draw(st.one_of(st.integers(0, 12), st.integers(0, max_width)))
    seed = draw(st.integers(0, 2**32 - 1))
    kinds = draw(
        st.lists(st.sampled_from(ROW_KINDS), min_size=n_rows, max_size=n_rows)
    )
    exponents = draw(
        st.lists(st.integers(-8, 8), min_size=n_rows, max_size=n_rows)
    )
    rng = np.random.default_rng(seed)
    matrix = np.empty((n_rows, width))
    for r in range(n_rows):
        matrix[r] = _row(kinds[r], width, rng) * 10.0 ** exponents[r]
    return matrix


def _assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestImfRowKernel:
    @given(window_matrices())
    @settings(max_examples=120, deadline=None)
    def test_equals_per_sequence(self, matrix):
        want = np.array([imf_entropies(row) for row in matrix]).reshape(-1, 2)
        _assert_bits_equal(row_imf_entropies(matrix), want)
        # The lockstep sift itself, also below the row count where
        # row_imf_entropies hands small stacks to the per-sequence loop.
        _assert_bits_equal(_lockstep_imf_entropies(matrix, 2), want)

    def test_small_stacks_use_per_sequence_loop(self, monkeypatch):
        def fail(*args):
            raise AssertionError("lockstep sift on a small stack")

        monkeypatch.setattr(emd, "_lockstep_imf_entropies", fail)
        rows = np.random.default_rng(0).normal(size=(MIN_LOCKSTEP_ROWS - 1, 75))
        _assert_bits_equal(
            row_imf_entropies(rows), np.array([imf_entropies(r) for r in rows])
        )

    def test_strided_rows(self):
        """The stride-2 sketch subsample reaches the kernel as a view."""
        matrix = np.random.default_rng(3).normal(size=(7, 75))
        want = np.array([imf_entropies(row[::2]) for row in matrix])
        _assert_bits_equal(row_imf_entropies(matrix[:, ::2]), want)


class TestMiRowKernel:
    @given(window_matrices(), st.sampled_from([0, 2, 4, 8]), st.sampled_from([1, 2]))
    @settings(max_examples=120, deadline=None)
    def test_equals_per_sequence(self, matrix, bins, lag):
        want = np.array(
            [lagged_mutual_information(row, lag=lag, bins=bins) for row in matrix]
        )
        got = row_lagged_mutual_information(matrix, lag=lag, bins=bins)
        _assert_bits_equal(got, want)
        assert (got >= 0.0).all()

    def test_nearly_independent_rows_clamp_at_zero(self):
        x = np.array([0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1.0])
        stack = np.stack([x, x, -x])
        _assert_bits_equal(row_lagged_mutual_information(stack), np.zeros(3))


@st.composite
def importance_windows(draw):
    """A trained tree plus a window with duplicated and constant columns."""
    seed = draw(st.integers(0, 2**32 - 1))
    w = draw(st.integers(0, 40))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(seed)
    tree = HoeffdingTree(n_classes=2, n_features=d, grace_period=20, seed=seed % 97)
    for _ in range(300):
        x = rng.random(d)
        tree.learn(x, int(x[0] + 0.3 * x[-1] > 0.6))
    window = rng.random((w, d))
    if d > 1 and draw(st.booleans()):
        window[:, 1] = 0.5  # a constant column: every shuffle is close
    if d > 2 and draw(st.booleans()):
        window[:, 2] = window[:, 0]
    return tree, window, draw(st.integers(1, 16)), seed


class TestPermutationImportance:
    @given(importance_windows())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_feature_reference(self, case):
        tree, window, max_eval, seed = case
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        calls = []

        class Counted:
            def predict_batch(self, x):
                calls.append(len(x))
                return tree.predict_batch(x)

        got = window_permutation_importance(
            Counted(), window, max_eval=max_eval, rng=rng
        )
        want = reference_permutation_importance(
            tree, window, max_eval=max_eval, rng=ref_rng
        )
        _assert_bits_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # The evaluated rows and every perturbed copy ride one call.
        assert len(calls) <= 1
        if calls:
            n_eval = min(len(window), max_eval)
            assert calls[0] % n_eval == 0 and calls[0] > n_eval

    @pytest.mark.parametrize("w", [1, 12, 75])
    def test_all_constant_window_skips_prediction(self, w):
        class NoPredict:
            calls = 0

            def predict_batch(self, x):
                self.calls += 1
                return np.zeros(len(x), dtype=np.int64)

        clf = NoPredict()
        window = np.ones((w, 3))
        imp = window_permutation_importance(clf, window, rng=np.random.default_rng(1))
        _assert_bits_equal(imp, np.zeros(3))
        assert clf.calls == 0  # nothing to perturb, nothing to predict
