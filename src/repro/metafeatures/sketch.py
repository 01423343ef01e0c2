"""Sketch-mode meta-features: declared accuracy-vs-speed trades.

The expensive Table I components — lagged MI, the IMF entropies and the
permutation importance — dominate full-set extraction cost even with
their exact row kernels (~90% of the budget per
``BENCH_fingerprint_throughput``).  This module registers a
*sketch* counterpart beside each of them in the ``METAFEATURES``
registry:

* :class:`HistogramMi` — streaming-histogram MI: fixed-bin incremental
  2-D pair counts maintained by the rolling accumulator replace the
  per-window ``searchsorted``/``bincount`` rebuild of the exact
  estimator.
* :class:`SubsampledImfEntropy` — IMF energy entropy of the stride-2
  decimated window (half the sifting work, deterministic subsample).
* :class:`ProjectionEntropy` — energy entropy of a pseudo-random
  ``±1/sqrt(w)`` projection sketch of the window's detail signal
  (Bachrach & Porat-style fingerprint sketching: random projections
  preserve inner products, so sketch similarity tracks window
  similarity within a declared tolerance).
* :class:`SubsampledShapley` — permutation importance over a declared
  fraction of the ``shapley_max_eval`` window rows.

Every sketch component declares ``exact = False`` plus the
``accuracy_knob`` describing the trade and the ``exact_reference`` it
approximates (enforced by lint rule RPR007).  The
:data:`SKETCH_PROFILES` map wires them into
``FicsumConfig.sketch_profile``: ``"exact"`` substitutes nothing (the
selected set is provably unchanged), ``"balanced"`` swaps in the
close-approximation sketches, ``"fast"`` the cheapest ones.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.metafeatures.components import MetaFeature, WindowContext
from repro.metafeatures.emd import imf_energy_entropy, imf_entropies
from repro.metafeatures.mutual_info import (
    lagged_mutual_information,
    row_lagged_mutual_information,
)
from repro.metafeatures.shapley import window_permutation_importance
from repro.registry import register_metafeature

#: Fixed joint-histogram resolution.  Matches the exact estimator's
#: adaptive ``ceil(sqrt(n/5))`` choice at the paper's window size
#: (w=75 -> 4 bins), so the batch sketch path coincides with the exact
#: value whenever the bin edges do.
HISTOGRAM_BINS = 4


class HistogramMi(MetaFeature):
    """Lagged MI from streaming fixed-bin joint-histogram counts."""

    name = "mi_hist"
    incremental = True
    uses_histogram = True
    exact = False
    exact_reference = "mi"
    accuracy_knob = (
        "fixed 4-bin joint histogram; the rolling path freezes bin "
        "edges at the first full window instead of re-deriving them "
        "per window"
    )
    cost = "O(bins²)"
    bins = HISTOGRAM_BINS

    def batch_scalar(self, seq: np.ndarray) -> float:
        # Fixed bin count, per-window edges: equals the exact estimator
        # whenever its adaptive choice lands on the same count.
        return lagged_mutual_information(seq, bins=self.bins)

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        return row_lagged_mutual_information(ctx.matrix, bins=self.bins)

    batch_scalar_rows = batch_rows

    def rolling_rows(self, stats) -> np.ndarray:
        return stats.histogram_mi()

    def rolling_scalar(self, gap_stats) -> float:
        # Gap sequences are short and variable-length; the fixed-bin
        # batch estimator is already cheap there.
        return lagged_mutual_information(gap_stats.values(), bins=self.bins)


class SubsampledImfEntropy(MetaFeature):
    """IMF energy entropy of the stride-decimated window."""

    group = "imf_entropy_sub"
    exact = False
    accuracy_knob = (
        "stride-2 row decimation before sifting (sample fraction 0.5); "
        "entropy of the subsampled IMFs, deterministic for a given window"
    )
    cost = "O(w/2·siftings)"

    def __init__(self, mode: int, stride: int = 2) -> None:
        self.mode = mode
        self.stride = stride
        self.name = f"imf{mode}_entropy_sub"
        self.exact_reference = f"imf{mode}_entropy"

    @property
    def sample_fraction(self) -> float:
        return 1.0 / self.stride

    def batch_scalar(self, seq: np.ndarray) -> float:
        return float(imf_entropies(seq[:: self.stride], 2)[self.mode - 1])

    def batch_scalar_cached(self, seq: np.ndarray, cache: Dict) -> float:
        key = ("imf_sub", self.stride)
        table = cache.get(key)
        if table is None:
            table = cache[key] = imf_entropies(seq[:: self.stride], 2)
        return float(table[self.mode - 1])

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        # Memoised under the subsample key: both modes (and any other
        # component using the same stride) share one decomposition.
        return ctx.imf_table(2, stride=self.stride)[:, self.mode - 1]

    batch_scalar_rows = batch_rows


# Not checkpoint state: the sign patterns and projection matrices are
# seed-derived pure functions of (mode, length), memoised only to skip
# regeneration.
class ProjectionEntropy(MetaFeature):  # repro-lint: disable=RPR002
    """Energy entropy of a pseudo-random projection of the detail signal.

    The mode-1 detail is the first difference (the fastest oscillation,
    IMF1's territory); mode 2 differences the pairwise-smoothed signal
    (the next timescale).  The detail is sketched with ``k`` fixed
    pseudo-random ``±1/sqrt(n)`` vectors — seed-derived per (mode,
    length), so the sketch is deterministic — and the value is the
    energy entropy of the ``k`` coefficients.  Random-projection
    sketches preserve inner products, so cosine similarity between two
    windows' sketches stays within :attr:`cosine_tolerance` of the
    exact cosine (the property the tests pin).
    """

    group = "imf_entropy_proj"
    exact = False
    accuracy_knob = (
        "k=128 pseudo-random ±1 projections of the detail signal; "
        "sketch cosine similarity within ±0.45 of exact on random "
        "windows"
    )
    cost = "O(w·k)"
    n_projections = 128
    #: Declared bound on |cos(sketch a, sketch b) - cos(a, b)|
    #: (empirical max 0.34 over 20k random window pairs; pinned by the
    #: hypothesis property test).
    cosine_tolerance = 0.45

    def __init__(self, mode: int) -> None:
        self.mode = mode
        self.name = f"imf{mode}_entropy_proj"
        self.exact_reference = f"imf{mode}_entropy"
        self._signs: Dict[int, np.ndarray] = {}
        self._vectors: Dict[int, np.ndarray] = {}

    def detail(self, seq: np.ndarray) -> np.ndarray:
        """The mode's detail signal (difference at the mode's timescale)."""
        seq = np.asarray(seq, dtype=np.float64)
        if self.mode == 1:
            return np.diff(seq)
        smooth = 0.5 * (seq[:-1] + seq[1:])
        return np.diff(smooth)

    def signs(self, length: int) -> np.ndarray:
        """The ``(k, length)`` sign pattern for a length (True is +)."""
        signs = self._signs.get(length)
        if signs is None:
            rng = np.random.default_rng(7_654_321 + 1_000 * self.mode + length)
            signs = rng.integers(0, 2, size=(self.n_projections, length)) == 1
            self._signs[length] = signs
        return signs

    def matrix(self, length: int) -> np.ndarray:
        """The ``(k, length)`` projection matrix: ``±1/sqrt(length)``."""
        c = 1.0 / np.sqrt(length)
        return np.where(self.signs(length), c, -c)

    def vectors(self, length: int) -> np.ndarray:
        """:meth:`matrix`, memoised for :meth:`batch_rows`.

        Every row of a window has the window's detail length, so this
        memo holds one matrix per window size.
        """
        vecs = self._vectors.get(length)
        if vecs is None:
            vecs = self._vectors[length] = self.matrix(length)
        return vecs

    def project(self, seq: np.ndarray) -> np.ndarray:
        """The ``k`` sketch coefficients of one sequence's detail.

        Error-gap sequences come in nearly every length below the
        window's, so only their sign patterns are memoised (one byte an
        entry instead of eight) and the matrix is built per call.
        """
        detail = self.detail(seq)
        if detail.size < 2:
            return np.zeros(self.n_projections)
        return self.matrix(detail.size) @ detail

    def batch_scalar(self, seq: np.ndarray) -> float:
        return imf_energy_entropy(self.project(seq))

    def batch_rows(self, ctx: WindowContext) -> np.ndarray:
        matrix = ctx.matrix
        if matrix.shape[1] < 3:
            return np.zeros(matrix.shape[0])
        if self.mode == 1:
            details = np.diff(matrix, axis=1)
        else:
            details = np.diff(0.5 * (matrix[:, :-1] + matrix[:, 1:]), axis=1)
        coeffs = details @ self.vectors(details.shape[1]).T  # (n_rows, k)
        energy = coeffs * coeffs
        total = energy.sum(axis=1)
        out = np.zeros(matrix.shape[0])
        ok = total > 1e-12
        if ok.any():
            p = energy[ok] / total[ok, None]
            plogp = np.where(p > 1e-12, p * np.log(np.maximum(p, 1e-300)), 0.0)
            out[ok] = -plogp.sum(axis=1)
        return out


class SubsampledShapley(MetaFeature):
    """Permutation importance over a fraction of the evaluation rows."""

    name = "shapley_sub"
    classifier_dependent = True
    needs_classifier = True
    feature_sources_only = True
    exact = False
    exact_reference = "shapley"
    accuracy_knob = (
        "evaluates 50% of shapley_max_eval window rows per feature "
        "(deterministic given the pipeline rng state)"
    )
    cost = "O(k·d·w/2)"
    sample_fraction = 0.5

    def batch_scalar(self, seq: np.ndarray) -> float:
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
        effective = max(1, int(max_eval * self.sample_fraction))
        return window_permutation_importance(
            classifier, window_x, max_eval=effective, rng=rng
        )


#: The sketch components, registered beside the exact Table I set.
SKETCH_COMPONENTS = (
    HistogramMi(),
    SubsampledImfEntropy(1),
    SubsampledImfEntropy(2),
    ProjectionEntropy(1),
    ProjectionEntropy(2),
    SubsampledShapley(),
)
for _component in SKETCH_COMPONENTS:
    register_metafeature(_component)

#: ``sketch_profile`` -> exact-component -> sketch-component
#: substitution applied by the pipeline after function expansion.  The
#: ``"exact"`` profile substitutes nothing, so its component set — and
#: therefore every extracted fingerprint — is identical by construction.
SKETCH_PROFILES: Dict[str, Dict[str, str]] = {
    "exact": {},
    "balanced": {
        "mi": "mi_hist",
        "imf1_entropy": "imf1_entropy_sub",
        "imf2_entropy": "imf2_entropy_sub",
        "shapley": "shapley_sub",
    },
    "fast": {
        "mi": "mi_hist",
        "imf1_entropy": "imf1_entropy_proj",
        "imf2_entropy": "imf2_entropy_proj",
        "shapley": "shapley_sub",
    },
}

SKETCH_PROFILE_NAMES: Tuple[str, ...] = tuple(SKETCH_PROFILES)


def apply_sketch_profile(
    function_names: Tuple[str, ...], profile: str
) -> Tuple[str, ...]:
    """Substitute sketch components into a resolved function selection."""
    try:
        table = SKETCH_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"sketch_profile must be one of {SKETCH_PROFILE_NAMES}, "
            f"got {profile!r}"
        ) from None
    return tuple(table.get(name, name) for name in function_names)


__all__ = [
    "HISTOGRAM_BINS",
    "HistogramMi",
    "SubsampledImfEntropy",
    "ProjectionEntropy",
    "SubsampledShapley",
    "SKETCH_COMPONENTS",
    "SKETCH_PROFILES",
    "SKETCH_PROFILE_NAMES",
    "apply_sketch_profile",
]
