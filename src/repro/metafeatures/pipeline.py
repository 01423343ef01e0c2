"""Fingerprint pipeline: registered components over behaviour sources.

Implements Figure 2 of the paper as an *open* composition.  A window of
``w`` labelled observations decomposes into behaviour sources:

* the ``d`` input-feature sequences            (describe ``p(X)``),
* the ground-truth label sequence ``y``        (describes ``p(y|X)``),
* the predicted label sequence ``l``           (learned ``p(y|X)``),
* the 0/1 error sequence ``l_i != y_i``,
* the distances between consecutive errors     (temporal ``p(y|X)``),

and each source is distilled by ``K`` :class:`MetaFeature` components
(resolved from :data:`repro.registry.METAFEATURES`) into a
``K x n_sources`` fingerprint vector.  The :class:`FingerprintSchema`
records which (source, component) pair owns each vector index and
*derives* the masks the framework needs — classifier-dependent
dimensions (reset by the plasticity mechanism of Section IV) and
supervised sources (the S-MI / U-MI / ER restricted variants of
Section VI) — from the declared source and component metadata instead
of hard-coded name lists.

Three extraction paths share one schema:

* :meth:`FingerprintPipeline.extract` — the batch path: every
  component recomputed from the full window.
* :meth:`FingerprintPipeline.push` +
  :meth:`FingerprintPipeline.extract_incremental` — the active-window
  hot path: components that admit rolling algebra read their values
  from sliding-window accumulators; only the expensive components (IMF
  entropies, lagged MI, permutation importance) fall back to batch
  recomputation.  A push only copies its row into a ``(w, n_rows)``
  queue; the accumulators slide over the queued rows in one block when
  they are next read (an extraction, a snapshot, ``n_observed``, or a
  push into a full queue), so observations between fingerprints cost a
  row copy each.
* :meth:`FingerprintPipeline.extract_shared` +
  :meth:`FingerprintPipeline.extract_partial_many` — the candidate
  path: the classifier-independent dimensions (feature- and
  label-sourced) are identical for every candidate classifier
  re-labelling the same window, so they are computed once, and only
  the preds/errors/error-distance dimensions (plus classifier-backed
  components such as the permutation importance) are computed for the
  whole ``(R, w)`` prediction block at once.  A caller computes the
  shared part once per candidate stack and passes it in.  Both halves
  run the same row kernels over sub-matrices of the same row layout,
  so every candidate row is bit-for-bit equal to
  :meth:`~FingerprintPipeline.extract`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.classifiers.base import Classifier
from repro.metafeatures.base import expand_functions
from repro.metafeatures.components import MetaFeature, WindowContext
from repro.metafeatures.rolling import ErrorDistanceTracker, RollingWindowStats
from repro.metafeatures.sketch import HISTOGRAM_BINS, apply_sketch_profile
from repro.registry import METAFEATURES

SOURCE_SETS = ("all", "supervised", "unsupervised", "error_rate")


@dataclass(frozen=True)
class SourceInfo:
    """Declared metadata of one behaviour source."""

    name: str
    supervised: bool
    classifier_dependent: bool


#: The label-derived behaviour sources, in canonical schema order.
#: Everything the framework knows about them — which restricted
#: variants include them, which fingerprint dimensions the plasticity
#: mechanism resets — derives from these declarations.
BEHAVIOUR_SOURCES: Tuple[SourceInfo, ...] = (
    SourceInfo("labels", supervised=True, classifier_dependent=False),
    SourceInfo("preds", supervised=True, classifier_dependent=True),
    SourceInfo("errors", supervised=True, classifier_dependent=True),
    SourceInfo("error_dists", supervised=True, classifier_dependent=True),
)

_SOURCE_INFO: Dict[str, SourceInfo] = {s.name: s for s in BEHAVIOUR_SOURCES}


def source_info(name: str) -> SourceInfo:
    """Metadata for a source name (feature sources are ``f<j>``)."""
    info = _SOURCE_INFO.get(name)
    if info is not None:
        return info
    return SourceInfo(name, supervised=False, classifier_dependent=False)


def _component_flags(function: str) -> Tuple[bool, bool]:
    """(classifier_dependent, feature_sources_only) for a function name.

    Lenient on unknown names so schemas remain constructible in
    isolation (e.g. from persisted artifacts after a plugin was
    unregistered).
    """
    component = METAFEATURES.get(function, None)
    if component is None:
        return False, False
    return component.classifier_dependent, component.feature_sources_only


@dataclass(frozen=True)
class FingerprintSchema:
    """Index map of a fingerprint vector.

    ``dims[i] = (source_name, function_name)`` for vector position
    ``i``; dimensions are laid out source-major, matching Figure 2.
    """

    source_names: Tuple[str, ...]
    function_names: Tuple[str, ...]
    dims: Tuple[Tuple[str, str], ...] = field(init=False)

    def __post_init__(self) -> None:
        dims = tuple(
            (source, function)
            for source in self.source_names
            for function in self.function_names
        )
        object.__setattr__(self, "dims", dims)

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    @property
    def classifier_dependent(self) -> np.ndarray:
        """Mask of dimensions that change when the classifier changes.

        Derived from the declared metadata: all dimensions of
        classifier-derived sources, plus every dimension of components
        that declare ``classifier_dependent`` (e.g. Shapley — feature
        importance is a property of the classifier).
        """
        return np.array(
            [
                source_info(source).classifier_dependent
                or _component_flags(function)[0]
                for source, function in self.dims
            ]
        )

    @property
    def supervised_dims(self) -> np.ndarray:
        """Mask of dimensions computed from label-dependent sources."""
        return np.array(
            [source_info(source).supervised for source, _ in self.dims]
        )

    def index_of(self, source: str, function: str) -> int:
        """Vector position of a (source, function) pair."""
        return self.dims.index((source, function))


class _RowSet(NamedTuple):
    """Matrix-source rows one extraction path builds its matrix from."""

    index: np.ndarray
    #: Leading rows that are the window's feature columns (all or none).
    n_features: int
    #: Source names of the remaining, label-derived rows, in order.
    sequences: Tuple[str, ...]


class FingerprintPipeline:
    """Assembles fingerprint vectors from registered components.

    Parameters
    ----------
    n_features:
        Input dimensionality ``d`` of the stream.
    metafeatures:
        Component (or Table V group) names resolved against
        :data:`repro.registry.METAFEATURES`; defaults to the full
        13-function set of Table I.
    source_set:
        ``"all"`` (FiCSUM), ``"supervised"`` (S-MI: labels, predictions,
        errors, error distances), ``"unsupervised"`` (U-MI: features
        only) or ``"error_rate"`` (ER: the single error-rate value).
    shapley_max_eval:
        Window rows sampled by the permutation-importance estimator.
    window_size:
        Sliding-window length for the incremental path; ``None``
        disables the accumulators (batch extraction stays available).
    sketch_profile:
        ``"exact"`` keeps the resolved component set untouched;
        ``"balanced"`` / ``"fast"`` substitute registered sketch-mode
        components (declared ``exact = False`` trades) for their exact
        references after expansion — the schema records the substituted
        names, so fingerprints remain self-describing.
    """

    def __init__(
        self,
        n_features: int,
        metafeatures: Optional[Sequence[str]] = None,
        source_set: str = "all",
        shapley_max_eval: int = 12,
        window_size: Optional[int] = None,
        sketch_profile: str = "exact",
    ) -> None:
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        if source_set not in SOURCE_SETS:
            raise ValueError(
                f"source_set must be one of {SOURCE_SETS}, got {source_set!r}"
            )
        self.n_features = n_features
        self.source_set = source_set
        self.shapley_max_eval = shapley_max_eval
        if source_set == "error_rate":
            function_names: Tuple[str, ...] = ("mean",)
        elif metafeatures is None:
            function_names = expand_functions(None)
        else:
            function_names = expand_functions(metafeatures)
        # Sketch substitution happens after expansion (also validates
        # the profile name); "exact" maps every name to itself.
        function_names = apply_sketch_profile(function_names, sketch_profile)
        self.sketch_profile = sketch_profile
        self.components: Tuple[MetaFeature, ...] = tuple(
            METAFEATURES[name] for name in function_names
        )
        feature_sources = tuple(f"f{j}" for j in range(n_features))
        supervised_sources = tuple(s.name for s in BEHAVIOUR_SOURCES)
        if source_set == "all":
            sources = feature_sources + supervised_sources
        elif source_set == "supervised":
            sources = supervised_sources
        elif source_set == "unsupervised":
            sources = feature_sources
        else:  # error_rate
            sources = ("errors",)
        self.schema = FingerprintSchema(sources, function_names)
        self._wants_features = source_set in ("all", "unsupervised")
        self._wants_supervised = source_set in ("all", "supervised", "error_rate")
        self._rng = np.random.default_rng(1234)

        # Vector-assembly layout: matrix rows are the schema sources
        # minus the variable-length error-distance source, in order.
        self._matrix_sources = tuple(
            s for s in sources if s != "error_dists"
        )
        self._has_error_dists = "error_dists" in sources
        # The assembly relies on the error-distance source being the
        # final schema source (a contiguous matrix-source prefix).
        assert not self._has_error_dists or sources.index(
            "error_dists"
        ) == len(self._matrix_sources)
        # Per-path dispatch, precomputed once: which components read the
        # classifier, which are served by accumulators on the rolling
        # path, and whether the window matrix must be materialised.
        self._classifier_components = tuple(
            c.feature_sources_only and c.needs_classifier
            for c in self.components
        )
        self._needs_matrix_batch = not all(self._classifier_components)
        self._needs_matrix_rolling = any(
            not c.incremental and not skip
            for c, skip in zip(self.components, self._classifier_components)
        )
        # Shared/partial split: matrix-source rows whose values are the
        # same for every classifier (features, labels) vs the rows that
        # must be recomputed per candidate classifier (preds, errors).
        self._all_rows = self._row_set(lambda source: True)
        self._indep_rows = self._row_set(
            lambda source: not source_info(source).classifier_dependent
        )
        self._dep_rows = self._row_set(
            lambda source: source_info(source).classifier_dependent
        )
        # Label-derived columns closing each matrix row: labels, preds
        # and errors (all/supervised), errors alone (error_rate), none
        # (unsupervised).  The errors column, when present, is last.
        self._sequence_cols = len(self._matrix_sources) - (
            n_features if self._wants_features else 0
        )
        # Incremental machinery (created lazily by attach_window or
        # eagerly when window_size is given).
        self._rolling: Optional[RollingWindowStats] = None
        self._error_tracker: Optional[ErrorDistanceTracker] = None
        self._window_size: Optional[int] = None
        self._queue = np.empty((0, len(self._matrix_sources)))
        self._queued = 0
        if window_size is not None:
            self.attach_window(window_size)

    @property
    def n_dims(self) -> int:
        return self.schema.n_dims

    @property
    def function_names(self) -> Tuple[str, ...]:
        return self.schema.function_names

    # ------------------------------------------------------------------
    # Incremental path
    # ------------------------------------------------------------------
    def attach_window(self, window_size: int) -> None:
        """Size the rolling accumulators for a ``window_size`` stream."""
        self._window_size = window_size
        self._rolling = RollingWindowStats(
            len(self._matrix_sources), window_size
        )
        if any(c.uses_histogram for c in self.components):
            self._rolling.enable_histogram(HISTOGRAM_BINS)
        self._error_tracker = (
            ErrorDistanceTracker(window_size) if self._has_error_dists else None
        )
        self._queue = np.empty((window_size, len(self._matrix_sources)))
        self._queued = 0

    def reset_stream(self) -> None:
        """Forget accumulated observations (stream restart)."""
        self._queued = 0
        if self._rolling is not None:
            self._rolling.reset()
        if self._error_tracker is not None:
            self._error_tracker.reset()

    def _require_window(self) -> None:
        if self._rolling is None:
            raise RuntimeError(
                "incremental path not initialised; call attach_window() "
                "or construct the pipeline with window_size="
            )

    def _fold_queue(self) -> None:
        """Slide the accumulators over every queued row; runs before
        every read of the accumulators.

        The queue goes through the accumulators' block updates
        (:meth:`RollingWindowStats.push_many` /
        :meth:`ErrorDistanceTracker.push_many`), which are pinned bit
        for bit to their scalar loops for blocks of any size, so a read
        sees exactly the state an eager per-observation slide would
        have built.
        """
        q = self._queued
        if not q:
            return
        self._queued = 0
        block = self._queue[:q]
        self._rolling.push_many(block)
        if self._error_tracker is not None:
            self._error_tracker.push_many(block[:, -1] != 0.0)

    def push(self, x: np.ndarray, y: int, prediction: int) -> None:
        """Queue one labelled observation for the accumulators.

        Copies the observation's source row into the queue; the
        accumulators slide over it at the next read.
        """
        self._require_window()
        if self._queued == self._window_size:
            self._fold_queue()
        row = self._queue[self._queued]
        if self._wants_features:
            row[: self.n_features] = x
        if self._sequence_cols == 3:
            row[-3] = y
            row[-2] = prediction
        if self._sequence_cols:
            row[-1] = y != prediction
        self._queued += 1

    def push_many(
        self, xs: np.ndarray, ys: np.ndarray, predictions: np.ndarray
    ) -> None:
        """Queue a chunk of labelled observations for the accumulators.

        Equivalent to :meth:`push` per row: the rows are written into
        the queue in slices, folding it whenever it fills.
        """
        self._require_window()
        xs = np.asarray(xs, dtype=np.float64)
        # int() truncates toward zero, exactly like astype on the
        # integer side of the scalar path.
        ys_i = np.asarray(ys).astype(np.int64)
        preds_i = np.asarray(predictions).astype(np.int64)
        m = len(ys_i)
        i = 0
        while i < m:
            if self._queued == self._window_size:
                self._fold_queue()
            take = min(m - i, self._window_size - self._queued)
            block = self._queue[self._queued : self._queued + take]
            if self._wants_features:
                block[:, : self.n_features] = xs[i : i + take]
            if self._sequence_cols == 3:
                block[:, -3] = ys_i[i : i + take]
                block[:, -2] = preds_i[i : i + take]
            if self._sequence_cols:
                block[:, -1] = ys_i[i : i + take] != preds_i[i : i + take]
            self._queued += take
            i += take

    @property
    def n_observed(self) -> int:
        """Observations currently held by the rolling accumulators."""
        self._fold_queue()
        return 0 if self._rolling is None else self._rolling.count

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """All mutable pipeline state: accumulators and the rng.

        The rng advances with every permutation-importance draw, so
        restoring its bit-generator state is required for bit-for-bit
        resumed extraction.
        """
        state: Dict[str, Any] = {
            "rng": self._rng.bit_generator.state,
        }
        self._fold_queue()
        if self._rolling is not None:
            state["rolling"] = self._rolling.state_dict()
        if self._error_tracker is not None:
            state["error_tracker"] = self._error_tracker.state_dict()
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._rng.bit_generator.state = state["rng"]
        # Snapshots hold folded accumulators only: queued rows of the
        # replaced stream position are dropped.
        self._queued = 0
        if "rolling" in state:
            if self._rolling is None:
                raise ValueError(
                    "state holds rolling accumulators but the pipeline "
                    "has no attached window"
                )
            self._rolling.load_state_dict(state["rolling"])
        if "error_tracker" in state:
            if self._error_tracker is None:
                raise ValueError(
                    "state holds an error tracker but the pipeline "
                    "does not track error distances"
                )
            self._error_tracker.load_state_dict(state["error_tracker"])

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def extract(
        self,
        window_x: np.ndarray,
        labels: np.ndarray,
        preds: np.ndarray,
        classifier: Optional[Classifier] = None,
    ) -> np.ndarray:
        """Fingerprint one window (batch reference path).

        ``window_x`` is ``(w, d)``; ``labels`` and ``preds`` are length
        ``w``.  ``classifier`` is needed only by components that declare
        ``needs_classifier`` (it may be omitted otherwise).
        """
        return self._extract(window_x, labels, preds, classifier, rolling=False)

    def extract_incremental(
        self,
        window_x: np.ndarray,
        labels: np.ndarray,
        preds: np.ndarray,
        classifier: Optional[Classifier] = None,
    ) -> np.ndarray:
        """Fingerprint the window currently held by the accumulators.

        The window arrays must match the pushed observations — they are
        still needed by the non-incremental components (and by shape
        validation).  Requires a full window of pushes.
        """
        self._fold_queue()
        if self._rolling is None or not self._rolling.full:
            raise RuntimeError(
                "incremental extraction needs a full window of push() "
                f"calls (have {self.n_observed}, "
                f"need {self._window_size})"
            )
        if len(labels) != self._window_size:
            raise ValueError(
                f"window of {len(labels)} observations does not match the "
                f"attached accumulator window ({self._window_size})"
            )
        return self._extract(window_x, labels, preds, classifier, rolling=True)

    # ------------------------------------------------------------------
    # Shared/partial extraction (model-selection hot path)
    # ------------------------------------------------------------------
    def extract_shared(
        self, window_x: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Classifier-independent dimensions of a window's fingerprint.

        Returns a full-length fingerprint vector whose feature- and
        label-sourced dimensions hold their batch values and whose
        classifier-dependent dimensions are zero.  The result is valid
        for *every* classifier re-labelling the same window —
        :meth:`extract_partial_many` fills in the rest per candidate.
        """
        window_x = self._checked_window(window_x, len(labels))
        n_sources = len(self.schema.source_names)
        n_functions = len(self.components)
        fingerprint = np.zeros((n_sources, n_functions))
        rows = self._indep_rows.index
        if rows.size:
            labels = np.asarray(labels, dtype=np.float64)
            ctx = WindowContext(self._row_matrix(self._indep_rows, window_x, labels))
            for j, component in enumerate(self.components):
                if self._classifier_components[j]:
                    continue  # classifier-backed: recomputed per candidate
                fingerprint[rows, j] = component.batch_rows(ctx)
        return fingerprint.reshape(-1)

    def extract_partial(
        self,
        window_x: np.ndarray,
        labels: np.ndarray,
        preds: np.ndarray,
        classifier: Optional[Classifier] = None,
        shared: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Complete a :meth:`extract_shared` vector for one classifier.

        The single-candidate case of :meth:`extract_partial_many`
        (``shared`` is computed on demand when omitted); bit-for-bit
        equal to :meth:`extract` on the same inputs.
        """
        preds_block = np.asarray(preds, dtype=np.float64)[None, :]
        return self.extract_partial_many(
            window_x, labels, preds_block, [classifier], shared=shared
        )[0]

    def extract_partial_many(
        self,
        window_x: np.ndarray,
        labels: np.ndarray,
        preds_block: np.ndarray,
        classifiers: Optional[Sequence[Optional[Classifier]]] = None,
        shared: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Complete a shared vector for ``R`` candidates in one pass.

        ``preds_block`` is ``(R, w)`` — one prediction row per candidate
        classifier re-labelling the same window (the
        :class:`~repro.classifiers.bank.ClassifierBank`'s output block).
        Returns the ``(R, D)`` stack whose row ``r`` is **bit-for-bit**
        ``extract(window_x, labels, preds_block[r], classifiers[r])``
        with zero per-candidate Python round-trips on the matrix-source
        dimensions:

        * all candidates' dependent rows (preds / errors) stack into one
          ``(R * n_dep, w)`` C-contiguous matrix, so each component's
          row kernel runs **once** for the whole repository (per-row
          reductions are lane-independent, hence bit-identical to the
          per-candidate sub-matrices);
        * classifier-backed components (permutation importance) loop
          candidates in order so the pipeline rng advances exactly as
          sequential per-candidate extractions would;
        * the variable-length error-distance source groups candidates
          by gap count and evaluates each group's ``(G, L)`` stack with
          the components' :meth:`MetaFeature.batch_scalar_rows` kernels
          (row-exact counterparts of ``batch_scalar``, sharing ACF/IMF
          work through one :class:`WindowContext` per group).
        """
        if shared is None:
            shared = self.extract_shared(window_x, labels)
        w = len(labels)
        window_x = self._checked_window(window_x, w)
        preds_block = np.asarray(preds_block, dtype=np.float64)
        n = preds_block.shape[0]
        if preds_block.shape != (n, w):
            raise ValueError(
                f"preds_block shape {preds_block.shape} does not match "
                f"(R, {w})"
            )
        if classifiers is not None and len(classifiers) != n:
            raise ValueError(
                f"{len(classifiers)} classifiers for {n} prediction rows"
            )
        if n == 0:
            return np.empty((0, self.n_dims))
        n_sources = len(self.schema.source_names)
        n_functions = len(self.components)
        n_matrix = len(self._matrix_sources)
        out = np.empty((n, n_sources, n_functions))
        out[:] = np.asarray(shared, dtype=np.float64).reshape(
            n_sources, n_functions
        )
        labels = np.asarray(labels, dtype=np.float64)
        errors_block = (labels[None, :] != preds_block).astype(np.float64)

        # Permutation-importance rng draws must interleave exactly as
        # the sequential per-candidate extractions would: candidate
        # order outer, component order inner.
        clf_columns = [
            j
            for j in range(n_functions)
            if self._classifier_components[j]
        ]
        for r in range(n):
            for j in clf_columns:
                out[r, :n_matrix, j] = self._classifier_column(
                    self.components[j],
                    window_x,
                    None if classifiers is None else classifiers[r],
                )

        rows = self._dep_rows.index
        if rows.size:
            ctx = WindowContext(
                self._row_matrix(
                    self._dep_rows, window_x, labels, preds_block, errors_block
                )
            )
            for j, component in enumerate(self.components):
                if not self._classifier_components[j]:
                    out[:, rows, j] = component.batch_rows(ctx).reshape(
                        n, rows.size
                    )
        if self._has_error_dists:
            by_length: Dict[int, list] = {}
            dists = []
            for r in range(n):
                gaps = self._error_gaps(errors_block[r])
                dists.append(gaps)
                by_length.setdefault(len(gaps), []).append(r)
            for length, members in by_length.items():
                stack = np.empty((len(members), length))
                for i, r in enumerate(members):
                    stack[i] = dists[r]
                group_ctx = WindowContext(stack)
                for j, component in enumerate(self.components):
                    out[members, n_matrix, j] = component.batch_scalar_rows(
                        group_ctx
                    )
        return out.reshape(n, -1)

    def _checked_window(self, window_x: np.ndarray, w: int) -> np.ndarray:
        window_x = np.asarray(window_x, dtype=np.float64)
        if window_x.shape != (w, self.n_features):
            raise ValueError(
                f"window_x shape {window_x.shape} does not match "
                f"({w}, {self.n_features})"
            )
        return window_x

    @staticmethod
    def _error_gaps(errors: np.ndarray) -> np.ndarray:
        """Distances between consecutive errors of one window."""
        error_idx = np.flatnonzero(errors)
        if error_idx.size >= 2:
            return np.diff(error_idx).astype(np.float64)
        # No measurable gap: encode "errors rarer than the window" as a
        # single window-length gap.
        return np.array([float(len(errors))])

    def _row_set(self, keep: Callable[[str], bool]) -> "_RowSet":
        """The matrix-source rows whose source ``keep`` accepts."""
        index = [i for i, s in enumerate(self._matrix_sources) if keep(s)]
        names = [self._matrix_sources[i] for i in index]
        n_features = sum(1 for name in names if name not in _SOURCE_INFO)
        return _RowSet(
            np.array(index, dtype=np.intp), n_features, tuple(names[n_features:])
        )

    def _row_matrix(
        self,
        rows: "_RowSet",
        window_x: np.ndarray,
        labels: Optional[np.ndarray] = None,
        preds: Optional[np.ndarray] = None,
        errors: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """C-contiguous matrix of one row set's matrix-source rows.

        The one statement of the row layout: the window's feature
        columns lead (feature sources come first in every row set that
        has them), then each label-derived sequence its source names.
        ``preds`` / ``errors`` may be ``(R, w)`` blocks, one row per
        candidate classifier; the result is then candidate-major (row
        ``r * len(rows.index) + k`` is row ``k`` under candidate ``r``).
        C order matters beyond speed: numpy's axis-1 reductions sum
        F-ordered arrays in a different order, which would perturb
        fingerprints at the last ulp.
        """
        w = window_x.shape[0]
        n = 1 if preds is None or preds.ndim == 1 else preds.shape[0]
        out = np.empty((n, rows.index.size, w))
        d = rows.n_features
        if d:
            out[:, :d] = window_x.T
        sequences = {"labels": labels, "preds": preds, "errors": errors}
        for k, name in enumerate(rows.sequences, d):
            out[:, k] = sequences[name]
        return out.reshape(-1, w)

    def _extract(
        self,
        window_x: np.ndarray,
        labels: np.ndarray,
        preds: np.ndarray,
        classifier: Optional[Classifier],
        rolling: bool,
    ) -> np.ndarray:
        window_x = self._checked_window(window_x, len(labels))
        needs_matrix = (
            self._needs_matrix_rolling if rolling else self._needs_matrix_batch
        )
        # The window matrix (and the float casts feeding it) is only
        # materialised when some selected component recomputes from it.
        ctx: Optional[WindowContext] = None
        errors: Optional[np.ndarray] = None
        if needs_matrix or not (rolling and self._error_tracker is not None):
            labels = np.asarray(labels, dtype=np.float64)
            preds = np.asarray(preds, dtype=np.float64)
            errors = (labels != preds).astype(np.float64)
        if needs_matrix:
            ctx = WindowContext(
                self._row_matrix(self._all_rows, window_x, labels, preds, errors)
            )

        dists: Optional[np.ndarray] = None
        gap_stats = None
        if self._has_error_dists:
            if rolling and self._error_tracker is not None:
                if self._error_tracker.n_gaps >= 1:
                    gap_stats = self._error_tracker.stats
                else:
                    dists = self._error_tracker.gaps()
            else:
                dists = self._error_gaps(errors)

        # Assembly: the error-distance source is always the last schema
        # source, so the matrix-source block is a contiguous prefix and
        # the fingerprint builds from two slice assignments.
        n_sources = len(self.schema.source_names)
        n_functions = len(self.components)
        n_matrix = len(self._matrix_sources)
        columns = np.empty((n_functions, n_matrix))
        ed_values = np.empty(n_functions) if self._has_error_dists else None
        stats = self._rolling
        ed_cache: dict = {}
        for j, component in enumerate(self.components):
            if self._classifier_components[j]:
                columns[j] = self._classifier_column(
                    component, window_x, classifier
                )
            elif rolling and component.incremental:
                columns[j] = component.rolling_rows(stats)
            else:
                columns[j] = component.batch_rows(ctx)
            if ed_values is not None:
                if gap_stats is not None and component.incremental:
                    ed_values[j] = component.rolling_scalar(gap_stats)
                else:
                    if dists is None:
                        dists = gap_stats.values()
                    ed_values[j] = component.batch_scalar_cached(dists, ed_cache)
        fingerprint = np.empty((n_sources, n_functions))
        fingerprint[:n_matrix] = columns.T
        if ed_values is not None:
            fingerprint[n_matrix] = ed_values
        return fingerprint.reshape(-1)

    def _classifier_column(
        self,
        component: MetaFeature,
        window_x: np.ndarray,
        classifier: Optional[Classifier],
    ) -> np.ndarray:
        """Feature-source values of a classifier-backed component."""
        values = np.zeros(len(self._matrix_sources))
        if classifier is None or not self._wants_features:
            return values
        importances = component.classifier_values(
            window_x, classifier, self._rng, self.shapley_max_eval
        )
        values[: self.n_features] = np.asarray(importances)[: self.n_features]
        return values


__all__ = [
    "SOURCE_SETS",
    "SourceInfo",
    "BEHAVIOUR_SOURCES",
    "source_info",
    "FingerprintSchema",
    "FingerprintPipeline",
]
