"""Tests for the 13 meta-information functions and the fingerprint pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.classifiers import HoeffdingTree
from repro.metafeatures import (
    FUNCTION_GROUPS,
    FUNCTION_NAMES,
    FingerprintPipeline,
    compute_scalar_function,
    empirical_mode_decomposition,
    imf_energy_entropy,
    window_permutation_importance,
)
from repro.metafeatures.autocorr import row_acf, seq_acf, seq_pacf
from repro.metafeatures.base import expand_functions
from repro.metafeatures.emd import imf_entropies
from repro.metafeatures.moments import (
    row_kurtoses,
    row_means,
    row_skews,
    row_stds,
)
from repro.metafeatures.mutual_info import lagged_mutual_information
from repro.metafeatures.turning_points import row_turning_rates, seq_turning_rate

seq_strategy = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=8,
    max_size=100,
)


class TestMoments:
    def test_match_scipy(self, rng):
        data = rng.normal(2.0, 3.0, size=(5, 200))
        np.testing.assert_allclose(row_means(data), data.mean(axis=1))
        np.testing.assert_allclose(row_stds(data), data.std(axis=1))
        np.testing.assert_allclose(
            row_skews(data), scipy_stats.skew(data, axis=1), atol=1e-10
        )
        np.testing.assert_allclose(
            row_kurtoses(data), scipy_stats.kurtosis(data, axis=1), atol=1e-10
        )

    def test_constant_rows_are_zero(self):
        data = np.full((2, 50), 3.14)
        assert np.all(row_skews(data) == 0.0)
        assert np.all(row_kurtoses(data) == 0.0)

    def test_skew_sign(self, rng):
        right_skewed = rng.exponential(1.0, size=(1, 2000))
        assert row_skews(right_skewed)[0] > 0.5


class TestAutocorrelation:
    def test_ar1_acf_estimates_rho(self, rng):
        rho = 0.7
        n = 4000
        x = np.zeros(n)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + rng.normal()
        assert seq_acf(x, 1) == pytest.approx(rho, abs=0.06)
        assert seq_acf(x, 2) == pytest.approx(rho**2, abs=0.08)

    def test_ar1_pacf2_near_zero(self, rng):
        rho = 0.7
        n = 4000
        x = np.zeros(n)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + rng.normal()
        assert abs(seq_pacf(x, 2)) < 0.1  # AR(1) has zero pacf beyond lag 1

    def test_white_noise_acf_near_zero(self, rng):
        x = rng.normal(size=4000)
        assert abs(seq_acf(x, 1)) < 0.05

    def test_constant_sequence(self):
        assert seq_acf(np.ones(50), 1) == 0.0

    def test_short_sequence(self):
        assert seq_acf(np.array([1.0, 2.0]), 2) == 0.0

    def test_row_acf_shape(self, rng):
        out = row_acf(rng.normal(size=(7, 60)), 1)
        assert out.shape == (7,)

    def test_invalid_lag(self):
        with pytest.raises(ValueError):
            row_acf(np.zeros((1, 10)), 0)
        with pytest.raises(ValueError):
            seq_pacf(np.zeros(10), 3)


class TestMutualInformation:
    def test_dependent_sequence_positive(self):
        x = np.sin(np.linspace(0, 20 * np.pi, 300))
        assert lagged_mutual_information(x) > 0.3

    def test_independent_near_zero(self, rng):
        x = rng.normal(size=300)
        strong = lagged_mutual_information(np.sin(np.linspace(0, 60, 300)))
        assert lagged_mutual_information(x) < strong

    def test_constant_is_zero(self):
        assert lagged_mutual_information(np.ones(50)) == 0.0

    def test_too_short_is_zero(self):
        assert lagged_mutual_information(np.array([1.0, 2.0, 3.0])) == 0.0

    @given(seq_strategy)
    @example([0.0] * 7 + [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    @settings(max_examples=40)
    def test_non_negative(self, values):
        assert lagged_mutual_information(np.array(values)) >= 0.0


class TestTurningPoints:
    def test_alternating_is_one(self):
        x = np.array([0.0, 1.0] * 20)
        assert seq_turning_rate(x) == pytest.approx(1.0)

    def test_monotonic_is_zero(self):
        assert seq_turning_rate(np.arange(30.0)) == 0.0

    def test_white_noise_near_two_thirds(self, rng):
        x = rng.normal(size=5000)
        assert seq_turning_rate(x) == pytest.approx(2.0 / 3.0, abs=0.03)

    def test_rows(self, rng):
        out = row_turning_rates(rng.normal(size=(4, 100)))
        assert out.shape == (4,)
        assert np.all((out >= 0) & (out <= 1))


class TestEmd:
    def test_sine_yields_imfs(self):
        t = np.linspace(0, 6 * np.pi, 128)
        x = np.sin(5 * t) + 0.3 * np.sin(0.7 * t)
        imfs = empirical_mode_decomposition(x)
        assert len(imfs) >= 1
        # first IMF carries the fast oscillation
        fast = imfs[0]
        zero_crossings = np.sum(np.diff(np.sign(fast)) != 0)
        assert zero_crossings > 10

    def test_monotonic_has_no_imfs(self):
        assert empirical_mode_decomposition(np.arange(64.0)) == []

    def test_too_short_returns_empty(self):
        assert empirical_mode_decomposition(np.array([1.0, 2.0, 3.0])) == []

    def test_energy_entropy_bounds(self, rng):
        x = rng.normal(size=100)
        entropy = imf_energy_entropy(x)
        assert 0.0 <= entropy <= np.log(100) + 1e-9

    def test_zero_signal_entropy_zero(self):
        assert imf_energy_entropy(np.zeros(50)) == 0.0

    def test_concentrated_energy_low_entropy(self):
        spike = np.zeros(100)
        spike[50] = 10.0
        spread = np.ones(100)
        assert imf_energy_entropy(spike) < imf_energy_entropy(spread)

    def test_entropies_discriminate_frequency(self, rng):
        """The IMF feature must react to an injected oscillation."""
        t = np.arange(75)
        noisy = rng.normal(size=75) * 0.1
        with_wave = noisy + np.sin(2 * np.pi * 0.2 * t)
        assert not np.allclose(
            imf_entropies(noisy), imf_entropies(with_wave), atol=0.05
        )



class TestShapley:
    def test_informative_feature_ranks_highest(self, rng):
        tree = HoeffdingTree(n_classes=2, n_features=4, grace_period=25)
        for _ in range(1500):
            x = rng.random(4)
            tree.learn(x, int(x[1] > 0.5))
        window = rng.random((75, 4))
        imp = window_permutation_importance(tree, window, max_eval=30, rng=rng)
        assert np.argmax(imp) == 1
        assert imp[1] > 0.1

    def test_untrained_classifier_zero_importance(self, rng):
        tree = HoeffdingTree(n_classes=2, n_features=3)
        imp = window_permutation_importance(tree, rng.random((20, 3)), rng=rng)
        np.testing.assert_allclose(imp, 0.0)

    def test_deterministic_with_fixed_rng(self, trained_tree, rng):
        window = rng.random((40, 3)) * 2
        a = window_permutation_importance(
            trained_tree, window, rng=np.random.default_rng(0)
        )
        b = window_permutation_importance(
            trained_tree, window, rng=np.random.default_rng(0)
        )
        np.testing.assert_allclose(a, b)


class TestFunctionRegistry:
    def test_thirteen_functions(self):
        assert len(FUNCTION_NAMES) == 13

    def test_ten_groups(self):
        assert len(FUNCTION_GROUPS) == 10

    def test_groups_cover_all_functions(self):
        covered = {fn for group in FUNCTION_GROUPS.values() for fn in group}
        assert covered == set(FUNCTION_NAMES)

    def test_expand_groups(self):
        assert expand_functions(["autocorrelation"]) == ("acf1", "acf2")
        assert expand_functions(["mean", "mean"]) == ("mean",)

    def test_expand_unknown_raises(self):
        with pytest.raises(ValueError):
            expand_functions(["entropy_of_vibes"])

    @pytest.mark.parametrize("name", FUNCTION_NAMES)
    def test_scalar_dispatch_finite(self, name, rng):
        value = compute_scalar_function(name, rng.normal(size=60))
        assert np.isfinite(value)

    def test_scalar_dispatch_unknown(self):
        with pytest.raises(ValueError):
            compute_scalar_function("bogus", np.zeros(10))


class TestFingerprintExtractor:
    def _window(self, rng, tree, w=75, d=3):
        xs = rng.random((w, d)) * 2
        ys = rng.integers(0, 2, w)
        preds = tree.predict_batch(xs)
        return xs, ys, preds

    def test_dims_all_sources(self):
        ex = FingerprintPipeline(n_features=5)
        assert ex.n_dims == 13 * (5 + 4)

    def test_dims_supervised(self):
        ex = FingerprintPipeline(n_features=5, source_set="supervised")
        assert ex.n_dims == 13 * 4

    def test_dims_unsupervised(self):
        ex = FingerprintPipeline(n_features=5, source_set="unsupervised")
        assert ex.n_dims == 13 * 5

    def test_dims_error_rate(self):
        ex = FingerprintPipeline(n_features=5, source_set="error_rate")
        assert ex.n_dims == 1

    def test_single_group(self):
        ex = FingerprintPipeline(n_features=4, metafeatures=["autocorrelation"])
        assert ex.n_dims == 2 * (4 + 4)

    def test_fingerprint_finite(self, trained_tree, rng):
        ex = FingerprintPipeline(n_features=3)
        xs, ys, preds = self._window(rng, trained_tree)
        fp = ex.extract(xs, ys, preds, trained_tree)
        assert fp.shape == (ex.n_dims,)
        assert np.all(np.isfinite(fp))

    def test_error_rate_value(self, trained_tree, rng):
        ex = FingerprintPipeline(n_features=3, source_set="error_rate")
        xs, ys, preds = self._window(rng, trained_tree)
        fp = ex.extract(xs, ys, preds, trained_tree)
        assert fp[0] == pytest.approx(np.mean(ys != preds))

    def test_no_errors_fallback(self, trained_tree, rng):
        """A perfect window must still yield a finite fingerprint."""
        ex = FingerprintPipeline(n_features=3)
        xs = rng.random((75, 3))
        preds = trained_tree.predict_batch(xs)
        fp = ex.extract(xs, preds.copy(), preds, trained_tree)
        assert np.all(np.isfinite(fp))
        # error-distance mean encodes "gap = window length"
        idx = ex.schema.index_of("error_dists", "mean")
        assert fp[idx] == 75.0

    def test_mean_dimension_matches_numpy(self, trained_tree, rng):
        ex = FingerprintPipeline(n_features=3)
        xs, ys, preds = self._window(rng, trained_tree)
        fp = ex.extract(xs, ys, preds, trained_tree)
        idx = ex.schema.index_of("f1", "mean")
        assert fp[idx] == pytest.approx(xs[:, 1].mean())

    def test_classifier_dependent_mask(self):
        ex = FingerprintPipeline(n_features=2)
        mask = ex.schema.classifier_dependent
        # predicted labels, errors, error distances: all functions
        assert mask[ex.schema.index_of("preds", "mean")]
        assert mask[ex.schema.index_of("errors", "std")]
        assert mask[ex.schema.index_of("error_dists", "skew")]
        # Shapley is classifier-dependent even on feature sources
        assert mask[ex.schema.index_of("f0", "shapley")]
        # raw feature stats and ground-truth labels are not
        assert not mask[ex.schema.index_of("f0", "mean")]
        assert not mask[ex.schema.index_of("labels", "mean")]

    def test_supervised_mask(self):
        ex = FingerprintPipeline(n_features=2)
        mask = ex.schema.supervised_dims
        assert mask[ex.schema.index_of("labels", "mean")]
        assert not mask[ex.schema.index_of("f1", "mean")]

    def test_shapley_requires_classifier_gracefully(self, rng):
        ex = FingerprintPipeline(n_features=2)
        xs = rng.random((30, 2))
        ys = rng.integers(0, 2, 30)
        fp = ex.extract(xs, ys, ys, classifier=None)
        assert fp[ex.schema.index_of("f0", "shapley")] == 0.0

    def test_shape_validation(self, rng):
        ex = FingerprintPipeline(n_features=3)
        with pytest.raises(ValueError):
            ex.extract(rng.random((10, 2)), np.zeros(10), np.zeros(10))

    def test_invalid_source_set(self):
        with pytest.raises(ValueError):
            FingerprintPipeline(n_features=2, source_set="mystery")

    def test_fingerprint_sensitive_to_distribution_change(
        self, trained_tree, rng
    ):
        ex = FingerprintPipeline(n_features=3, source_set="unsupervised")
        xs_a = rng.random((75, 3))
        xs_b = rng.random((75, 3)) + 2.0
        ys = rng.integers(0, 2, 75)
        fp_a = ex.extract(xs_a, ys, ys, trained_tree)
        fp_b = ex.extract(xs_b, ys, ys, trained_tree)
        means = [ex.schema.index_of(f"f{j}", "mean") for j in range(3)]
        assert np.all(fp_b[means] - fp_a[means] > 1.0)
