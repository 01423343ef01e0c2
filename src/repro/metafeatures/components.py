"""Pluggable meta-information components (Table I as a plugin registry).

Every meta-information function is a :class:`MetaFeature` component
registered through :func:`repro.registry.register_metafeature`.  A
component declares its metadata — the Table V *group* it expands from,
whether its value depends on the classifier, whether it needs the
classifier object at extraction time, whether it only applies to
input-feature sources, and whether it supports O(1) rolling updates —
and provides up to three evaluation paths:

* ``batch_rows(ctx)`` — vectorised over the ``(n_sources, w)`` window
  matrix (the reference path, shared sub-computations memoised on the
  :class:`WindowContext`),
* ``batch_scalar(seq)`` — an arbitrary-length sequence (the
  variable-length distance-between-errors source),
* ``rolling_rows(stats)`` — read the value from a
  :class:`~repro.metafeatures.rolling.RollingWindowStats` accumulator
  (components with ``incremental = True`` only).

The :class:`~repro.metafeatures.pipeline.FingerprintPipeline` assembles
fingerprints from any subset of registered components, so adding a new
meta-information function is one class + one decorator — the schema,
the classifier-dependence masks, the Table V group expansion and the
CLI listing all derive from the registration.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.metafeatures import autocorr, moments, turning_points
from repro.metafeatures.emd import imf_entropies, row_imf_entropies
from repro.metafeatures.mutual_info import (
    lagged_mutual_information,
    row_lagged_mutual_information,
)
from repro.metafeatures.shapley import window_permutation_importance
from repro.registry import register_metafeature


# Not checkpoint state: a context lives for one extraction call only,
# so its memo caches never cross a snapshot boundary.
class WindowContext:  # repro-lint: disable=RPR002
    """One window's matrix plus memoised shared sub-computations.

    Several components share intermediate results (both ACF lags feed
    PACF(2); both IMF entropies come from one empirical mode
    decomposition).  The context memoises them so a fingerprint costs
    each sub-computation once regardless of which components run.
    """

    __slots__ = ("matrix", "_acf", "_imf")

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix
        self._acf: Dict[int, np.ndarray] = {}
        self._imf: Dict[Tuple[int, int], np.ndarray] = {}

    def acf(self, lag: int) -> np.ndarray:
        if lag not in self._acf:
            self._acf[lag] = autocorr.row_acf(self.matrix, lag)
        return self._acf[lag]

    def imf_table(self, n_imfs: int = 2, stride: int = 1) -> np.ndarray:
        """``(n_rows, n_imfs)`` IMF energy entropies from one row kernel.

        Memoised per ``(n_imfs, stride)`` key so exact and subsampled
        components sharing a decomposition (``stride > 1`` decimates
        each row before sifting — the sketch subsample) pay it once per
        extraction.
        """
        key = (n_imfs, stride)
        table = self._imf.get(key)
        if table is None:
            data = self.matrix[:, ::stride] if stride > 1 else self.matrix
            table = self._imf[key] = row_imf_entropies(data, n_imfs)
        return table


class MetaFeature:
    """Base class for meta-information components.

    Subclasses set the class attributes and implement ``batch_scalar``
    (the minimum viable component); ``batch_rows`` defaults to looping
    ``batch_scalar`` over the matrix rows, so vectorising is an
    optimisation, not a requirement.  Components that admit rolling
    algebra additionally set ``incremental = True`` and implement
    ``rolling_rows``.
    """

    #: Registry key; also the function name in fingerprint schemas.
    name: str = ""
    #: Table V group this component expands from (defaults to ``name``).
    group: str = ""
    #: Value changes when the classifier changes even on unsupervised
    #: sources (drives the plasticity reset mask of Section IV).
    classifier_dependent: bool = False
    #: Needs the classifier object at extraction time.
    needs_classifier: bool = False
    #: Only meaningful on input-feature sources (0 elsewhere).
    feature_sources_only: bool = False
    #: Supports O(1) rolling updates via ``rolling_rows``.
    incremental: bool = False
    #: Computes the exact Table I value.  Sketch-mode components set
    #: False and must then declare ``accuracy_knob`` and
    #: ``exact_reference`` (enforced by lint rule RPR007).
    exact: bool = True
    #: Human-readable accuracy-vs-speed trade declaration for sketch
    #: components (what is approximated, and by how much).
    accuracy_knob: str = ""
    #: Registry name of the exact component a sketch approximates.
    exact_reference: str = ""
    #: Per-extraction cost class shown by ``repro features``.
    cost: str = "O(w)"
    #: Reads the streaming joint-histogram accumulator on the rolling
    #: path (the pipeline enables it on the window stats when set).
    uses_histogram: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.group:
            cls.group = cls.name

    def batch_scalar(self, seq: np.ndarray) -> float:
        """Evaluate on one arbitrary-length sequence."""
        raise NotImplementedError

    def batch_scalar_cached(self, seq: np.ndarray, cache: Dict) -> float:
        """Like :meth:`batch_scalar`, memoising shared sub-computations.

        ``cache`` is a per-(sequence, extraction) dict: components whose
        scalar values share expensive intermediates (both IMF entropies
        come from one decomposition) stash them there so each is paid
        once per extraction.  Must return exactly the
        :meth:`batch_scalar` value.
        """
        return self.batch_scalar(seq)

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        """Row-wise evaluation over the window matrix."""
        return np.array(
            [self.batch_scalar(row) for row in ctx.matrix], dtype=np.float64
        )

    def batch_scalar_rows(self, ctx: WindowContext) -> np.ndarray:
        """:meth:`batch_scalar` over a stack of equal-length sequences.

        The forest-routing extraction groups the variable-length
        error-distance source by gap count, so candidates sharing a
        length evaluate through one row kernel (and one
        :class:`WindowContext`, whose ACF / IMF memos replace the
        per-candidate scalar caches).  The contract is the same as
        :meth:`batch_scalar_cached`: every row's value must equal
        :meth:`batch_scalar` on that row **exactly** — built-in
        overrides therefore replicate the scalar kernels' short-length
        early-outs before dispatching to the vectorised row kernels.
        The default loops, which is always exact.
        """
        return np.array(
            [self.batch_scalar(row) for row in ctx.matrix], dtype=np.float64
        )

    def rolling_rows(self, stats) -> np.ndarray:
        """Read the row values from a rolling accumulator."""
        raise NotImplementedError(
            f"meta-feature {self.name!r} does not support rolling updates"
        )

    def rolling_scalar(self, gap_stats) -> float:
        """Read the error-distance value from a
        :class:`~repro.metafeatures.rolling.GapStats` accumulator."""
        raise NotImplementedError(
            f"meta-feature {self.name!r} does not support rolling updates"
        )

    def classifier_values(
        self,
        window_x: np.ndarray,
        classifier,
        rng: np.random.Generator,
        max_eval: int,
    ) -> np.ndarray:
        """Per-feature-source values (``needs_classifier`` components)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, group={self.group!r})"


# ----------------------------------------------------------------------
# Distribution shape (incremental via shifted power sums)
# ----------------------------------------------------------------------
class Mean(MetaFeature):
    name = "mean"
    incremental = True
    cost = "O(1)"

    def batch_scalar(self, seq: np.ndarray) -> float:
        return moments.seq_mean(seq)

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        return moments.row_means(ctx.matrix)

    # seq_mean has no short-length early-out: rows are exact as-is.
    batch_scalar_rows = batch_rows

    def rolling_rows(self, stats) -> np.ndarray:
        return stats.means()

    def rolling_scalar(self, gap_stats) -> float:
        return gap_stats.mean()


class Std(MetaFeature):
    name = "std"
    incremental = True
    cost = "O(1)"

    def batch_scalar(self, seq: np.ndarray) -> float:
        return moments.seq_std(seq)

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        return moments.row_stds(ctx.matrix)

    batch_scalar_rows = batch_rows

    def rolling_rows(self, stats) -> np.ndarray:
        return stats.stds()

    def rolling_scalar(self, gap_stats) -> float:
        return gap_stats.std()


class Skew(MetaFeature):
    name = "skew"
    incremental = True
    cost = "O(1)"

    def batch_scalar(self, seq: np.ndarray) -> float:
        return moments.seq_skew(seq)

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        return moments.row_skews(ctx.matrix)

    def batch_scalar_rows(self, ctx: WindowContext) -> np.ndarray:
        # seq_skew returns 0 below 3 samples; the row kernel would not.
        if ctx.matrix.shape[1] < 3:
            return np.zeros(ctx.matrix.shape[0])
        return moments.row_skews(ctx.matrix)

    def rolling_rows(self, stats) -> np.ndarray:
        return stats.skews()

    def rolling_scalar(self, gap_stats) -> float:
        return gap_stats.skew()


class Kurtosis(MetaFeature):
    name = "kurtosis"
    incremental = True
    cost = "O(1)"

    def batch_scalar(self, seq: np.ndarray) -> float:
        return moments.seq_kurtosis(seq)

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        return moments.row_kurtoses(ctx.matrix)

    def batch_scalar_rows(self, ctx: WindowContext) -> np.ndarray:
        # seq_kurtosis returns 0 below 4 samples; the row kernel would not.
        if ctx.matrix.shape[1] < 4:
            return np.zeros(ctx.matrix.shape[0])
        return moments.row_kurtoses(ctx.matrix)

    def rolling_rows(self, stats) -> np.ndarray:
        return stats.kurtoses()

    def rolling_scalar(self, gap_stats) -> float:
        return gap_stats.kurtosis()


# ----------------------------------------------------------------------
# Temporal dependence (ACF/PACF incremental via rolling lag products)
# ----------------------------------------------------------------------
class Acf(MetaFeature):
    group = "autocorrelation"
    incremental = True
    cost = "O(1)"

    def __init__(self, lag: int) -> None:
        self.lag = lag
        self.name = f"acf{lag}"

    def batch_scalar(self, seq: np.ndarray) -> float:
        return autocorr.seq_acf(seq, self.lag)

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        return ctx.acf(self.lag)

    # row_acf zero-fills w <= lag+1 exactly like seq_acf's early-out.
    batch_scalar_rows = batch_rows

    def rolling_rows(self, stats) -> np.ndarray:
        return stats.acf(self.lag)

    def rolling_scalar(self, gap_stats) -> float:
        return gap_stats.acf(self.lag)


class Pacf(MetaFeature):
    group = "partial_autocorrelation"
    incremental = True
    cost = "O(1)"

    def __init__(self, lag: int) -> None:
        self.lag = lag
        self.name = f"pacf{lag}"

    def batch_scalar(self, seq: np.ndarray) -> float:
        return autocorr.seq_pacf(seq, self.lag)

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        if self.lag == 1:
            return ctx.acf(1)
        return autocorr.row_pacf2(ctx.acf(1), ctx.acf(2))

    # seq_pacf is the row recursion applied to one lane.
    batch_scalar_rows = batch_rows

    def rolling_rows(self, stats) -> np.ndarray:
        if self.lag == 1:
            return stats.acf(1)
        return stats.pacf2()

    def rolling_scalar(self, gap_stats) -> float:
        if self.lag == 1:
            return gap_stats.acf(1)
        return gap_stats.pacf2()


class MutualInformation(MetaFeature):
    name = "mi"
    group = "mutual_information"
    cost = "O(w log w)"

    def batch_scalar(self, seq: np.ndarray) -> float:
        return lagged_mutual_information(seq)

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        return row_lagged_mutual_information(ctx.matrix)

    # The row kernel replicates the short-length and constant early-outs.
    batch_scalar_rows = batch_rows


class TurningRate(MetaFeature):
    name = "turning_rate"
    group = "turning_point_rate"
    incremental = True
    cost = "O(1)"

    def batch_scalar(self, seq: np.ndarray) -> float:
        return turning_points.seq_turning_rate(seq)

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        return turning_points.row_turning_rates(ctx.matrix)

    # row_turning_rates zero-fills w < 3 exactly like the scalar.
    batch_scalar_rows = batch_rows

    def rolling_rows(self, stats) -> np.ndarray:
        return stats.turning_rates()

    def rolling_scalar(self, gap_stats) -> float:
        return gap_stats.turning_rate()


class ImfEntropy(MetaFeature):
    group = "imf_entropy"
    cost = "O(w·siftings)"

    def __init__(self, mode: int) -> None:
        self.mode = mode
        self.name = f"imf{mode}_entropy"

    def batch_scalar(self, seq: np.ndarray) -> float:
        return float(imf_entropies(seq, 2)[self.mode - 1])

    def batch_scalar_cached(self, seq: np.ndarray, cache: Dict) -> float:
        table = cache.get("imf")
        if table is None:
            table = cache["imf"] = imf_entropies(seq, 2)
        return float(table[self.mode - 1])

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        return ctx.imf_table(2)[:, self.mode - 1]

    # One decomposition per row, shared between both entropy modes
    # through the context memo (the row analogue of the scalar cache).
    batch_scalar_rows = batch_rows


class Shapley(MetaFeature):
    name = "shapley"
    classifier_dependent = True
    needs_classifier = True
    feature_sources_only = True
    cost = "O(k·d·w)"

    def batch_scalar(self, seq: np.ndarray) -> float:
        # Undefined for plain sequences (needs a classifier + features).
        return 0.0

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        return np.zeros(ctx.matrix.shape[0])

    def classifier_values(
        self,
        window_x: np.ndarray,
        classifier,
        rng: np.random.Generator,
        max_eval: int,
    ) -> np.ndarray:
        return window_permutation_importance(
            classifier, window_x, max_eval=max_eval, rng=rng
        )


#: The built-in Table I components, registered in canonical schema
#: order (the order fixes the default fingerprint layout).
_BUILTINS = (
    Mean(),
    Std(),
    Skew(),
    Kurtosis(),
    Acf(1),
    Acf(2),
    Pacf(1),
    Pacf(2),
    MutualInformation(),
    TurningRate(),
    ImfEntropy(1),
    ImfEntropy(2),
    Shapley(),
)
for _component in _BUILTINS:
    register_metafeature(_component)

#: The 13 built-in Table I function names, in canonical schema order.
BUILTIN_FUNCTIONS: Tuple[str, ...] = tuple(c.name for c in _BUILTINS)


__all__ = [
    "MetaFeature",
    "WindowContext",
    "BUILTIN_FUNCTIONS",
    "Mean",
    "Std",
    "Skew",
    "Kurtosis",
    "Acf",
    "Pacf",
    "MutualInformation",
    "TurningRate",
    "ImfEntropy",
    "Shapley",
]
