"""The FiCSUM framework (Algorithm 1 of the paper).

Per observation the framework

1. predicts and trains the active concept's classifier (prequential),
2. maintains the active window ``A`` and delayed buffer window ``B``,
3. every ``P_C`` observations builds fingerprints ``F_A``/``F_B``,
   refreshes the dynamic weights, incorporates ``F_B`` into the active
   concept fingerprint ``F_c``, records the stationary similarity
   ``Sim(F_c, F_B)`` and feeds ``Sim(F_c, F_A)`` to an ADWIN detector,
4. on an ADWIN alert runs model selection: every stored concept's
   classifier re-labels ``A``, and a stored concept is accepted as a
   recurrence when the resulting similarity lies within the gate
   ``mu_s ± 2 sigma_s`` of its recorded stationary similarity —
   otherwise a brand-new concept state starts,
5. re-runs selection ``w`` observations after each drift (by then ``A``
   is fully drawn from the emerging concept), replacing a spuriously
   created state when a recurrence is found,
6. every ``P_S`` observations updates each stored concept's
   *non-active* fingerprint (its classifier's behaviour on current
   observations), which feeds the intra-classifier Fisher weight and —
   when enabled — the discrimination-ability measurements of
   Tables III and V.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.classifiers import HoeffdingTree
from repro.classifiers.base import Classifier
from repro.core.config import FicsumConfig
from repro.core.repository import ConceptState, Repository, rescale_record
from repro.core.similarity import sim_fast, sim_pairs_many
from repro.core.store import ProjectionPrefilter, TieredConceptStore
from repro.core.weighting import make_weights
from repro.detectors import Adwin
from repro.metafeatures import FingerprintPipeline, WindowExtractionCache
from repro.serving.audit import NULL_AUDIT, AuditLog
from repro.serving.metrics import NULL_COLLECTOR, StatsCollector
from repro.system import AdaptiveSystem
from repro.utils.stats import OnlineMinMax, minmax_scale
from repro.utils.windows import ObservationWindow


class Ficsum(AdaptiveSystem):
    """Fingerprinting with Combined Supervised and Unsupervised
    Meta-Information.

    Parameters
    ----------
    n_features, n_classes:
        Stream metadata.
    config:
        A :class:`FicsumConfig`; defaults to the paper's tuned values.

    Attributes
    ----------
    drift_points:
        Timesteps at which drift was signalled.
    discrimination_samples:
        Z-score discrimination measurements (when
        ``config.track_discrimination``): at each repository update the
        similarity of the current window to every stored concept is
        re-expressed as a z-score against that concept's recorded
        stationary similarity, and the sample is
        ``z_active - mean(z_others)`` — how much better the true
        concept explains the window than the alternatives do, in units
        of normal similarity deviation.
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        config: Optional[FicsumConfig] = None,
    ) -> None:
        self.config = config or FicsumConfig()
        self.n_features = n_features
        self.n_classes = n_classes
        cfg = self.config
        self.pipeline = FingerprintPipeline(
            n_features,
            metafeatures=cfg.metafeatures,
            source_set=cfg.source_set,
            shapley_max_eval=cfg.shapley_max_eval,
            window_size=cfg.window_size,
            sketch_profile=cfg.sketch_profile,
        )
        self.n_dims = self.pipeline.n_dims
        try:
            self._error_dim = self.pipeline.schema.index_of("errors", "mean")
        except ValueError:
            self._error_dim = -1
        self.normalizer = OnlineMinMax(self.n_dims)
        self.repository = Repository(cfg.max_repository_size)
        self.window = ObservationWindow(cfg.window_size, n_features)
        self.detector = self._new_detector()
        self._classifier_seed = cfg.seed
        self._step = 0
        self._weights = np.ones(self.n_dims)
        self._weights_version = 0
        # Big-R selection layer: cold-tier rehydration staging and,
        # with ann_exact=False, the random-projection shortlist.
        self._prefilter: Optional[ProjectionPrefilter] = (
            ProjectionPrefilter(
                self.n_dims, cfg.ann_projections, seed=cfg.seed
            )
            if cfg.ann_prefilter
            else None
        )
        self._tier_store: Optional[TieredConceptStore] = None
        # Per-step memo of gated similarity records, keyed by everything
        # a re-expression reads: the state's record version, the
        # normaliser's range version and the weights version.
        self._gated_cache: dict = {}
        self._gated_cache_step = -1
        #: Model-selection events run so far (bench/regression metadata).
        self.selection_events = 0
        self._active = self.repository.new_state(
            self.n_dims, self._new_classifier(), step=0,
            sim_record_samples=cfg.sim_record_samples,
            sim_record_decay=cfg.sim_record_decay,
        )
        self._change_marker = self._active.classifier.change_marker()
        self._pending_recheck: Optional[int] = None
        self._created_at_drift: Optional[int] = None
        self.drift_points: List[int] = []
        self.discrimination_samples: List[float] = []
        # F_B(t) covers observations [t-b-w+1, t-b] — exactly F_A(t-b).
        # Aligning the buffer delay to a multiple of P_C lets the buffer
        # fingerprint be served from a small cache of recent active
        # fingerprints instead of a second extraction per step.
        period = cfg.fingerprint_period
        self._aligned_delay = max(
            period, int(np.ceil(cfg.buffer_delay / period)) * period
        )
        # Bounded FIFO of recent active fingerprints keyed by step:
        # insertions arrive in step order, stale entries are popped from
        # the front, so the structure is a deque with O(1) key lookup
        # (never rebuilt, unlike a per-step dict comprehension).
        self._fa_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        # Shared-window extraction: classifier-independent dimensions
        # computed once per window identity and reused across every
        # candidate state (model selection, re-check, repository step).
        self._extract_cache = WindowExtractionCache(self.pipeline)
        self._switch_step = 0
        self._warmup_obs = int(cfg.drift_warmup_windows * cfg.window_size)
        self._freeze_streak = 0
        self._abnormal_streak = 0
        # A window's worth of consecutive abnormal similarities is a
        # drift signal of its own: ADWIN only cuts on a *transition*,
        # which never appears when a mismatch exists from the moment the
        # detector was created (e.g. a drift arriving right after a
        # concept switch).
        self._streak_trigger = max(4, cfg.window_size // period)
        # After this many consecutive abnormal buffer fingerprints the
        # record resumes learning anyway (the concept has genuinely
        # moved and no drift was ever confirmed).
        self._freeze_limit = 2 * self._streak_trigger
        # Label-outage degraded mode: while labels are missing the
        # supervised accumulators freeze and matching falls back to the
        # unsupervised fingerprint dimensions over a dedicated window
        # (the main window/pipeline stay untouched, so recovery is
        # contamination-free).
        self._label_outage = False
        self._outage_window = ObservationWindow(cfg.window_size, n_features)
        self._outage_mask: Optional[np.ndarray] = None  # lazy, derived
        #: Degraded (unsupervised-only) concept switches performed.
        self.outage_selections = 0
        # Observability sinks (no-op by default; attach_observability
        # swaps in real collectors).  Telemetry only — not checkpointed.
        self.metrics: StatsCollector = NULL_COLLECTOR
        self.audit: AuditLog = NULL_AUDIT

    # ------------------------------------------------------------------
    def attach_observability(
        self,
        metrics: Optional[StatsCollector] = None,
        audit: Optional[AuditLog] = None,
    ) -> None:
        """Wire a metrics collector and/or audit log into the framework.

        Also hooks :attr:`Repository.on_evict` so evictions are counted
        and logged with the victim's id, chaining (not replacing) any
        consumer already on the hook.  Without a tiered store the
        eviction destroys the payload, so the drop itself is counted
        (``repository.evicted_dropped``) and audited — silent concept
        loss must be observable.
        """
        if metrics is not None:
            self.metrics = metrics
        if audit is not None:
            self.audit = audit
        previous = self.repository.on_evict

        def _on_evict(state_id: int, payload: Dict[str, Any]) -> None:
            self.metrics.inc("repository.evictions")
            dropped = self._tier_store is None
            if dropped:
                # The hook consumed the payload only to log it; the
                # state itself is still destroyed.
                self.repository.evicted_dropped += 1
                self.metrics.inc("repository.evicted_dropped")
            self.audit.log(
                "eviction",
                self._step,
                state_id=state_id,
                last_active_step=int(payload["last_active_step"]),
                dropped=dropped,
            )
            if previous is not None:
                previous(state_id, payload)

        self.repository.on_evict = _on_evict

    def attach_tier_store(self, store: TieredConceptStore) -> None:
        """Chain a warm/cold tier onto the repository's eviction hook.

        Evicted states are serialized into the store's cold artifacts
        instead of being destroyed; when the ANN prefilter is enabled,
        cold concepts whose warm sketch makes a selection shortlist are
        transparently rehydrated back into the repository.  Chains any
        hook already attached (observability logging keeps running).
        """
        self._tier_store = store
        previous = self.repository.on_evict

        def _tier_evict(state_id: int, payload: Dict[str, Any]) -> None:
            store.store(state_id, payload, step=self._step)
            self.metrics.inc("repository.tiered")
            if previous is not None:
                previous(state_id, payload)

        self.repository.on_evict = _tier_evict

    # ------------------------------------------------------------------
    def _new_detector(self) -> Adwin:
        # Cut checks on every similarity value: the similarity stream is
        # short (one value per P_C observations), so responsiveness
        # matters more than the per-update cost ADWIN's clock saves.
        return Adwin(self.config.adwin_delta, min_clock=1)

    def _new_classifier(self) -> Classifier:
        cfg = self.config
        self._classifier_seed += 1
        return HoeffdingTree(
            self.n_classes,
            self.n_features,
            grace_period=cfg.grace_period,
            split_confidence=cfg.split_confidence,
            tie_threshold=cfg.tie_threshold,
            seed=self._classifier_seed,
        )

    @property
    def active_state_id(self) -> int:
        return self._active.state_id

    @property
    def n_drifts_detected(self) -> int:
        return len(self.drift_points)

    @property
    def weights(self) -> np.ndarray:
        """Current dynamic weight vector (schema order)."""
        return self._weights.copy()

    # ------------------------------------------------------------------
    def process(self, x: np.ndarray, y: int) -> int:
        x = np.asarray(x, dtype=np.float64)
        prediction = self._active.classifier.predict(x)
        self._active.classifier.learn(x, y)
        self.window.append(x, int(y), int(prediction))
        self.pipeline.push(x, int(y), int(prediction))
        self._step += 1
        self._active.last_active_step = self._step
        self.metrics.inc("observations")
        self._maintenance()
        return prediction

    def process_chunk(
        self,
        X: np.ndarray,
        y: np.ndarray,
        state_ids_out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Chunked prequential processing, exactly equivalent to
        :meth:`process` row by row.

        The chunk is cut into sub-chunks aligned to the next scheduled
        event (fingerprint period, repository period, pending re-check).
        Between events the framework state is only *written* — window,
        accumulators, classifier — never read, so within a sub-chunk
        the active classifier handles prediction and learning with one
        vectorised tree routing (:meth:`Classifier.predict_learn_batch`),
        the window ring buffers take block writes, and the per-
        observation maintenance (plasticity marker, event dispatch)
        collapses to one check at the boundary.  Predictions, drift
        points, state-id traces and all fingerprint state are identical
        to the per-observation path.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n = len(y)
        if X.shape != (n, self.n_features):
            raise ValueError(
                f"X shape {X.shape} does not match ({n}, {self.n_features})"
            )
        predictions = np.empty(n, dtype=np.int64)
        i = 0
        while i < n:
            m = min(n - i, self._obs_until_next_event())
            xs = X[i : i + m]
            ys = y[i : i + m]
            preds = self._active.classifier.predict_learn_batch(xs, ys)
            predictions[i : i + m] = preds
            self.window.extend(xs, ys, preds)
            self.pipeline.push_many(xs, ys, preds)
            self._step += m
            self._active.last_active_step = self._step
            self.metrics.inc("observations", m)
            if state_ids_out is not None:
                state_ids_out[i : i + m] = self._active.state_id
            self._maintenance()
            if state_ids_out is not None:
                # The boundary observation sees the post-event state,
                # exactly as a per-observation harness would log it.
                state_ids_out[i + m - 1] = self._active.state_id
            i += m
        return predictions

    def _obs_until_next_event(self) -> int:
        """Observations until the next step with scheduled work (>= 1)."""
        cfg = self.config
        step = self._step
        nxt = min(
            cfg.fingerprint_period - step % cfg.fingerprint_period,
            cfg.repository_period - step % cfg.repository_period,
        )
        if self._pending_recheck is not None:
            nxt = min(nxt, max(1, self._pending_recheck - step))
        return nxt

    def _maintenance(self) -> None:
        """Post-observation work: plasticity marker and periodic events.

        Runs after every observation on the per-observation path and
        once per event-aligned sub-chunk on the chunked path — the two
        are equivalent because between events nothing reads the
        fingerprint state the plasticity reset touches (consecutive
        resets with no incorporation between them collapse to one).
        """
        cfg = self.config
        # Plasticity is meaningless for a univariate fingerprint: it
        # would erase the entire representation on every tree split.
        if cfg.plasticity and self.n_dims > 1:
            marker = self._active.classifier.change_marker()
            if marker != self._change_marker:
                self._change_marker = marker
                self._active.fingerprint.reset_dims(
                    self.pipeline.schema.classifier_dependent
                )

        if self._step % cfg.fingerprint_period == 0 and self.window.full:
            with self.metrics.timer("phase.fingerprint_step"):
                self._fingerprint_step()
        if self._step % cfg.repository_period == 0 and self.window.full:
            with self.metrics.timer("phase.repository_step"):
                self._repository_step()
            if cfg.family_radius > 0.0:
                self._compact_families()
        if self._pending_recheck is not None and self._step >= self._pending_recheck:
            self._pending_recheck = None
            if cfg.second_selection:
                with self.metrics.timer("phase.second_selection"):
                    self._second_selection()

    def _compact_families(self) -> None:
        """Periodic family merging (``family_radius`` > 0).

        Runs at repository-maintenance checkpoints; the active concept
        is never absorbed (it may absorb others).  Merges are audited —
        the absorbed repertoire is observable, not silently gone.
        """
        merged = self.repository.compact_families(
            self.config.family_radius, protect=(self._active.state_id,)
        )
        for kept, absorbed in merged:
            self.metrics.inc("repository.family_merges")
            self.audit.log(
                "family_merge", self._step, kept=kept, absorbed=absorbed
            )
            if self._prefilter is not None:
                self._prefilter.forget(absorbed)

    def signal_drift(self) -> None:
        """Oracle drift notification (perfect-detection experiment)."""
        if self.config.oracle_drift:
            self._on_drift()

    # ------------------------------------------------------------------
    # Label-outage degraded mode (unsupervised-only operation)
    # ------------------------------------------------------------------
    @property
    def in_label_outage(self) -> bool:
        return self._label_outage

    @property
    def _outage_dims(self) -> np.ndarray:
        """Mask of label- and classifier-independent fingerprint dims.

        These are the dimensions the paper's headline claim rests on —
        unsupervised meta-information carries concept identity — and
        the only ones degraded matching may trust: everything else is
        garbage under pseudo-labels.
        """
        if self._outage_mask is None:
            schema = self.pipeline.schema
            self._outage_mask = ~(
                schema.supervised_dims | schema.classifier_dependent
            )
        return self._outage_mask

    def begin_label_outage(self) -> None:
        """Enter degraded mode: freeze every supervised accumulator.

        The classifier stops learning, the fingerprint pipeline, the
        normaliser, the concept records and the drift detector all stop
        updating; only prediction serving and unsupervised matching
        over a dedicated outage window continue.  Idempotent.
        """
        if self._label_outage:
            return
        self._label_outage = True
        self._outage_window = ObservationWindow(
            self.config.window_size, self.n_features
        )
        self.metrics.inc("outage.begun")
        self.audit.log("label_outage_begin", self._step)

    def end_label_outage(self) -> None:
        """Leave degraded mode and re-anchor for labeled operation.

        Recovery is treated like a concept switch: the drift detector
        restarts, the warmup anchor moves to now (the labeled window
        still spans pre-outage data) and the per-step fingerprint cache
        clears.  No accumulator was touched during the outage, so the
        supervised state simply resumes from its pre-outage values.
        Idempotent.
        """
        if not self._label_outage:
            return
        self._label_outage = False
        self._outage_window = ObservationWindow(
            self.config.window_size, self.n_features
        )
        self._switch_step = self._step
        self._abnormal_streak = 0
        self._freeze_streak = 0
        self.detector = self._new_detector()
        self._fa_cache.clear()
        self.metrics.inc("outage.ended")
        self.audit.log("label_outage_end", self._step)

    def process_unlabeled(self, x: np.ndarray) -> int:
        """One observation whose label never arrived.

        Serves a prediction from the active classifier without
        training, then — every fingerprint period, once the outage
        window is full — re-checks which stored concept best explains
        the window on the unsupervised dimensions alone
        (:meth:`_outage_selection`).
        """
        if not self._label_outage:
            self.begin_label_outage()
        x = np.asarray(x, dtype=np.float64)
        prediction = int(self._active.classifier.predict(x))
        # Pseudo-labels keep the window arrays well-formed for batch
        # extraction; every label-derived dimension is masked out of
        # the degraded match anyway.
        self._outage_window.append(x, prediction, prediction)
        self._step += 1
        self._active.last_active_step = self._step
        self.metrics.inc("observations.unlabeled")
        if (
            self._step % self.config.fingerprint_period == 0
            and self._outage_window.full
        ):
            with self.metrics.timer("phase.outage_selection"):
                self._outage_selection()
        return prediction

    def _outage_selection(self) -> None:
        """Degraded model selection on unsupervised dimensions only.

        A plain masked-similarity argmax over the stored concepts —
        the gated accept/reject machinery needs the stationary
        similarity records, whose re-expression under current weights
        reads supervised statistics that are frozen (and would be
        stale) during an outage.  Switching only happens when another
        concept scores strictly above the active one, and is counted
        separately (``outage_selections``) from gated selection.
        """
        mask = self._outage_dims
        if not mask.any():
            # ER-style variants carry no unsupervised dimensions;
            # degraded matching has nothing to go on.
            return
        candidates = [
            state
            for state in self.repository.states()
            if state.fingerprint.count >= 2
        ]
        if len(candidates) < 2:
            return
        xa, ya, la = self._outage_window.arrays()
        fp = self.pipeline.extract(xa, ya, la, self._active.classifier)
        # Zero the label-derived dimensions outright: their weight is
        # masked to zero below, but a NaN there (degenerate pseudo-label
        # statistics) would still poison the similarity kernel.
        fp = np.where(mask, fp, 0.0)
        weights = self._weights * mask
        scaled_fp = self.normalizer.scale(fp)
        best: Optional[ConceptState] = None
        best_sim = -np.inf
        active_sim: Optional[float] = None
        for state in candidates:
            sim = sim_fast(
                self.normalizer.scale(state.fingerprint.means),
                scaled_fp,
                weights,
            )
            if state.state_id == self._active.state_id:
                active_sim = sim
            if sim > best_sim:
                best, best_sim = state, sim
        self.metrics.inc("outage.checks")
        if (
            best is None
            or best.state_id == self._active.state_id
            or (active_sim is not None and best_sim <= active_sim)
        ):
            return
        self.outage_selections += 1
        self.metrics.inc("outage.selections")
        self.audit.log(
            "outage_selection",
            self._step,
            from_state=self._active.state_id,
            to_state=best.state_id,
            similarity=float(best_sim),
        )
        self._set_active(best)

    @property
    def _in_warmup(self) -> bool:
        """True while the active classifier is too young to judge drift."""
        return self._step - self._switch_step < self._warmup_obs

    # ------------------------------------------------------------------
    # Step III-A: fingerprints, incorporation, drift detection
    # ------------------------------------------------------------------
    def _sim(self, raw_a: np.ndarray, raw_b: np.ndarray) -> float:
        # Trusted kernel: both inputs are fingerprint vectors freshly
        # scaled into [0, 1], so the validating wrapper is skipped.
        scaled_a = self.normalizer.scale(raw_a)
        scaled_b = self.normalizer.scale(raw_b)
        return sim_fast(scaled_a, scaled_b, self._weights)

    def _refresh_weights(self) -> None:
        """Recompute the dynamic weights (Step III-B).

        All per-state statistics are read from the repository's
        contiguous fingerprint matrix (one batched scale per term).
        """
        matrix = self.repository.matrix()
        self._weights = make_weights(
            self.config.weighting, self._active, self.repository.states(),
            self.normalizer, matrix,
        )
        self._weights_version += 1

    def _fingerprint_step(self) -> None:
        cfg = self.config
        xa, ya, la = self.window.arrays()
        fp_active = self.pipeline.extract_incremental(
            xa, ya, la, self._active.classifier
        )
        self.normalizer.update(fp_active)
        # Only windows drawn entirely after the last concept switch may
        # be incorporated into the concept fingerprint (the buffer's
        # purpose in Algorithm 1): the window [t-w+1, t] qualifies when
        # t - w >= switch time.
        if self._step - cfg.window_size >= self._switch_step:
            self._fa_cache[self._step] = fp_active
        stale = self._step - 2 * self._aligned_delay
        while self._fa_cache and next(iter(self._fa_cache)) <= stale:
            self._fa_cache.popitem(last=False)

        # The buffer window's fingerprint is the active fingerprint from
        # `aligned_delay` steps ago (same observations, same stored
        # predictions); only available while the segment is contiguous
        # (the cache is cleared on concept switches).
        fp_buffer = self._fa_cache.get(self._step - self._aligned_delay)

        self._refresh_weights()

        if fp_buffer is not None:
            self._incorporate_buffer(fp_buffer)

        if (
            self._active.fingerprint.count >= 2
            and self._active.sim_stats.count >= 3
            and not self._in_warmup
        ):
            drift_sim = self._sim(self._active.fingerprint.means, fp_active)
            # The detector monitors how *abnormal* the similarity is
            # relative to the concept's recorded stationary distribution
            # (mu_c, sigma_c): under stationarity the z-deviation stays
            # small; after a drift it jumps and stays high until the
            # concept representation changes.  Squashing z/(1+z) keeps
            # the ADWIN input in [0, 1].
            mu, sigma = self._gated_record(self._active)
            z = abs(drift_sim - mu) / (self.config.similarity_gate * sigma)
            if self.n_dims == 1:
                # The univariate (ER) similarity 1/|M-P| is heavy-tailed
                # and unusable as a z-score; its underlying |M-P| is the
                # natural bounded detector input (stationary: ~0).
                scaled = self.normalizer.scale(
                    self._active.fingerprint.means
                ) - self.normalizer.scale(fp_active)
                alert = self.detector.update(min(1.0, float(abs(scaled[0]))))
            else:
                alert = self.detector.update(z / (1.0 + z))
            if z > 1.0 and self._active.sim_stats.count >= 10:
                self._abnormal_streak += 1
            else:
                self._abnormal_streak = 0
            if self._abnormal_streak >= self._streak_trigger:
                alert = True
            if alert and not cfg.oracle_drift:
                self._on_drift()

    def _incorporate_buffer(self, fp_buffer: np.ndarray) -> None:
        """Fold a buffer fingerprint into ``F_c`` — if it looks stationary.

        Algorithm 1 protects the concept fingerprint from post-drift
        contamination with the delay buffer, under the assumption that
        detection lags by less than ``b`` observations.  When detection
        takes longer, an unprotected record would absorb the new
        concept before ADWIN accumulates evidence, so windows whose
        similarity is abnormal (outside the model-selection gate) are
        additionally excluded — unless the abnormality persists past
        ``_freeze_limit`` consecutive windows, in which case the
        concept is accepted as having genuinely evolved.
        """
        active = self._active
        if active.fingerprint.count >= 1:
            norm_sim = self._sim(active.fingerprint.means, fp_buffer)
            if active.sim_stats.count >= 10 and not self._in_warmup:
                mu, sigma = self._gated_record(active)
                z = abs(norm_sim - mu) / (self.config.similarity_gate * sigma)
                if z > 1.0:
                    if self._freeze_streak < self._freeze_limit:
                        self._freeze_streak += 1
                        return
                    # The concept has genuinely moved without a drift
                    # ever being confirmed: restart the record around
                    # the new normal instead of dragging the old one.
                    active.reset_similarity_record()
            self._freeze_streak = 0
            active.record_similarity(
                active.fingerprint.means, fp_buffer, norm_sim
            )
        if self._error_dim >= 0:
            active.error_stats.update(float(fp_buffer[self._error_dim]))
        active.fingerprint.incorporate(fp_buffer)

    # ------------------------------------------------------------------
    # Step III-A (model selection) and Section IV mechanisms
    # ------------------------------------------------------------------
    def _gated_record(self, state: ConceptState) -> Tuple[float, float]:
        """Re-scaled (mu, sigma) with the numerical floor applied, in the
        normaliser's current range: the one-row
        :meth:`_gated_records_many`."""
        norm = self.normalizer
        mus, sigmas = self._gated_records_many(
            [state], norm.mins[None], norm.maxs[None], [norm.version]
        )
        return float(mus[0]), float(sigmas[0])

    def _gated_cache_for_step(self) -> dict:
        """The gated-record memo, cleared at step boundaries."""
        if self._gated_cache_step != self._step:
            self._gated_cache.clear()
            self._gated_cache_step = self._step
        return self._gated_cache

    def _gated_records_many(
        self,
        states: List[ConceptState],
        mins: np.ndarray,
        maxs: np.ndarray,
        versions: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gated (mu, sigma) of each state, state ``i`` in range ``i``.

        Row ``i`` of ``mins``/``maxs`` is the normaliser range state
        ``i`` is judged in and ``versions[i]`` its range version.  All
        retained sim-pairs of all memo-miss states are re-expressed
        under the current weighting with one scale + similarity kernel,
        each pair in its state's range; the per-state reductions then
        replay :meth:`ConceptState.rescaled_similarity_record` exactly.
        Memoised per (state, step) on the record, range and weights
        versions, so a hit returns exactly what recomputation would.
        """
        n = len(states)
        mus = np.empty(n)
        sigmas = np.empty(n)
        cache = self._gated_cache_for_step()
        misses = []
        for i, state in enumerate(states):
            key = (state.record_version, int(versions[i]), self._weights_version)
            hit = cache.get(state.state_id)
            if hit is not None and hit[0] == key:
                mus[i], sigmas[i] = hit[1], hit[2]
            else:
                misses.append((i, state, key, state.sim_pairs.views()))
        if not misses:
            return mus, sigmas
        pairs = [p for *_, p in misses]
        rows = np.repeat([i for i, *_ in misses], [len(p[2]) for p in pairs])
        sims_all = np.empty(0)
        if len(rows):
            sims_all = self._pair_similarities(
                np.concatenate([p[0] for p in pairs]),
                np.concatenate([p[1] for p in pairs]),
                mins[rows],
                maxs[rows],
            )
        univariate = self.n_dims == 1
        min_std = self.config.min_similarity_std
        offset = 0
        for i, state, key, (_, _, old) in misses:
            mu, sigma = state.sim_stats.mean, state.sim_stats.std
            span = len(old)
            if span:
                sims = sims_all[offset : offset + span]
                offset += span
                mu, sigma = rescale_record(mu, sigma, sims, old, univariate)
            floor = min_std * max(1.0, abs(mu))
            sigma = max(sigma, floor)
            mus[i], sigmas[i] = mu, sigma
            cache[state.state_id] = (key, mu, sigma)
        return mus, sigmas

    def _candidate_states(self) -> List[ConceptState]:
        return [
            state
            for state in self.repository.states()
            if state.fingerprint.count >= 2 and state.sim_stats.count >= 2
        ]

    def _window_fingerprint(
        self, xa: np.ndarray, ya: np.ndarray, state: ConceptState
    ) -> np.ndarray:
        """The active window's fingerprint under ``state``'s classifier.

        The single-candidate case of :meth:`_stack_window_fingerprints`;
        callers run at most once per event (re-check, prefilter query,
        discrimination sample).
        """
        return self._stack_window_fingerprints(xa, ya, [state])[0]

    def _error_gate(self, state: ConceptState, fp: np.ndarray) -> bool:
        """Is the window error rate of ``state``'s classifier normal?

        The error rate is one of the supervised meta-information
        features; gating on it directly prevents a candidate whose
        classifier clearly cannot predict the window from being accepted
        on the strength of (unchanged) unsupervised dimensions.  Skipped
        for schemas without an error source (U-MI) and for young records.
        """
        if self._error_dim < 0 or state.error_stats.count < 5:
            return True
        window_error = float(fp[self._error_dim])
        mu = state.error_stats.mean
        sigma = max(state.error_stats.std, 0.03)
        return window_error <= mu + self.config.similarity_gate * sigma

    def _model_select(self) -> Optional[ConceptState]:
        """Pick the stored concept that explains the active window, if any."""
        if not self.window.full:
            return None
        self.selection_events += 1
        self.metrics.inc("selection.events")
        with self.metrics.timer("selection.latency"):
            xa, ya, _ = self.window.arrays()
            candidates = self._candidate_states()
            if self._prefilter is not None:
                candidates = self._prefilter_candidates(xa, ya, candidates)
            if not candidates:
                return None
            fps = self._stack_window_fingerprints(xa, ya, candidates)
            return self._select_from_fingerprints(candidates, fps)

    def _prefilter_candidates(
        self, xa: np.ndarray, ya: np.ndarray, candidates: List[ConceptState]
    ) -> List[ConceptState]:
        """Big-R candidate staging: rehydration plus optional shortlist.

        With a tiered store attached, cold concepts whose warm sketch
        would make the shortlist are first rehydrated into the
        repository (so they compete in this very selection).  With
        ``ann_exact`` (the default) the candidate list then passes
        through unchanged to the exact gated walk every selection runs
        (:meth:`_select_from_fingerprints`).  In approximate mode the
        list is cut to the ``ann_shortlist_k`` sketch-nearest
        candidates *before* any per-candidate window fingerprinting —
        skipping that extraction is where the large-R speedup comes
        from — returned in repository order so downstream tie-breaking
        matches the full scan's.
        """
        cfg = self.config
        query: Optional[np.ndarray] = None
        if self._tier_store is not None and len(self._tier_store):
            query = self._window_fingerprint(xa, ya, self._active)
            if self._rehydrate_from_tier(candidates, query):
                candidates = self._candidate_states()
        if cfg.ann_exact or len(candidates) <= cfg.ann_shortlist_k:
            return candidates
        if query is None:
            query = self._window_fingerprint(xa, ya, self._active)
        keep = self._prefilter.shortlist(candidates, query, cfg.ann_shortlist_k)
        self.metrics.inc(
            "selection.prefiltered", len(candidates) - len(keep)
        )
        return [candidates[i] for i in keep]

    def _rehydrate_from_tier(
        self, candidates: List[ConceptState], query: np.ndarray
    ) -> int:
        """Admit cold concepts whose sketch makes the combined shortlist.

        Hot candidates and warm (cold-tier) entries are sketch-scored
        together; warm entries landing in the top ``ann_shortlist_k``
        are loaded from their manifest-verified artifacts (corruption
        raises :class:`~repro.serving.manifest.SnapshotError` — never a
        silently missing concept) and re-admitted under eviction
        protection for this selection.  Returns the number admitted.
        """
        store, prefilter = self._tier_store, self._prefilter
        ids, means = store.warm_entries()
        if not ids:
            return 0
        query_sketch = prefilter.sketch(query)
        hot = (
            prefilter.scores(prefilter.state_sketches(candidates), query_sketch)
            if candidates
            else np.empty(0)
        )
        warm = prefilter.scores(prefilter.sketch_rows(means), query_sketch)
        combined = np.concatenate([hot, warm])
        k = min(self.config.ann_shortlist_k, len(combined))
        if k < len(combined):
            top = np.argpartition(-combined, k - 1)[:k]
        else:
            top = np.arange(len(combined))
        admitted = 0
        protect = {self._active.state_id}
        for j in sorted(int(t) for t in top):
            if j < len(hot):
                continue
            if len(protect) >= self.repository.max_size:
                # Every admission this selection stays protected, and
                # the repository cannot hold more protected concepts
                # than its capacity — admitting further shortlisted
                # cold states would leave nothing evictable.  They
                # stay warm and compete again next selection.
                break
            sid = int(ids[j - len(hot)])
            state = store.load(sid)
            store.forget(sid)
            self.repository.admit(state, protect=protect)
            protect.add(sid)
            store.rehydrated += 1
            admitted += 1
            self.metrics.inc("tier.rehydrated")
            self.audit.log("rehydration", self._step, state_id=sid)
        return admitted

    def _stack_window_fingerprints(
        self, xa: np.ndarray, ya: np.ndarray, states: List[ConceptState]
    ) -> np.ndarray:
        """(R, D) stack of the window's fingerprint under each candidate.

        One ``(R, W)`` prediction block, then one shared-window
        extraction call: the repository's
        :class:`~repro.classifiers.bank.ClassifierBank` routes the
        window through every stored tree in one mask descent + one NB
        kernel; a repository holding non-tree classifiers has no bank,
        so the block stacks each state's ``predict_batch`` instead.
        The classifier-independent dimensions come from the extraction
        cache (once per window identity, ``self._step``) and
        ``extract_partial_many`` computes every candidate's dependent
        dimensions over the block.
        """
        bank = self.repository.bank()
        if bank is not None:
            preds_block = bank.predict_batch_many(
                [s.state_id for s in states], xa
            )
        else:
            preds_block = np.stack([s.classifier.predict_batch(xa) for s in states])
        return self._extract_cache.extract_many(
            self._step, xa, ya, preds_block, [s.classifier for s in states]
        )

    def _pair_similarities(
        self, a: np.ndarray, b: np.ndarray, mins: np.ndarray, maxs: np.ndarray
    ) -> np.ndarray:
        """``Sim(a[i], b[i])``, both rows scaled in ``(mins[i], maxs[i])``.

        One scale over both sides as a ``(2, n, D)`` block and one
        paired similarity kernel; each value is bit-for-bit :meth:`_sim`
        with the normaliser holding that row's range.
        """
        both = minmax_scale(np.stack([a, b]), mins, maxs)
        return sim_pairs_many(both[0], both[1], self._weights)

    def _score_stack(
        self,
        states: List[ConceptState],
        fps: np.ndarray,
        mins: np.ndarray,
        maxs: np.ndarray,
    ) -> np.ndarray:
        """``Sim(F_c, fps[i])`` of every stacked candidate, row ``i``
        scaled in the range ``(mins[i], maxs[i])``: the repository
        matrix's fingerprint-mean rows against the stack."""
        matrix = self.repository.matrix()
        rows = [matrix.row_of(s.state_id) for s in states]
        return self._pair_similarities(matrix.fp_means_view[rows], fps, mins, maxs)

    def _select_from_fingerprints(
        self, states: List[ConceptState], fps: np.ndarray
    ) -> Optional[ConceptState]:
        """Gates + argmax over stacked candidate fingerprints, exactly.

        Algorithm 1 folds each candidate's fingerprint into the
        normaliser and then scores it; the stack is folded the same way
        (:meth:`OnlineMinMax.update_rows`), so row ``i`` is scored and
        gated in the range the sequential loop holds at row ``i``.  The
        loop keeps the accepted candidate with the strictly greatest
        similarity, the lowest index on ties — the first acceptor in a
        stable descending-similarity order, since no candidate later in
        that order can beat it.  Gates (record re-expression, then the
        error gate) are walked down the order in blocks doubling from
        one row, one batched record call per block: the top of the
        ranking usually decides, and a stack without an acceptor pays
        O(log R) batched calls rather than R single ones.
        """
        gate = self.config.similarity_gate
        mins, maxs, versions = self.normalizer.update_rows(fps)
        sims = self._score_stack(states, fps, mins, maxs)
        order = np.argsort(-sims, kind="stable")
        start = 0
        while start < len(order):
            block = order[start : 2 * start + 1]
            mus, sigmas = self._gated_records_many(
                [states[i] for i in block], mins[block], maxs[block], versions[block]
            )
            for i in block[np.abs(sims[block] - mus) <= gate * sigmas]:
                if self._error_gate(states[i], fps[i]):
                    return states[i]
            start = 2 * start + 1
        return None

    def _set_active(self, state: ConceptState) -> None:
        previous_id = self._active.state_id
        self._active = state
        state.last_active_step = self._step
        self._change_marker = state.classifier.change_marker()
        self._switch_step = self._step
        self._fa_cache.clear()
        self._abnormal_streak = 0
        self._freeze_streak = 0
        self.detector = self._new_detector()
        if previous_id != state.state_id:
            self.metrics.inc("concept.transitions")
            self.metrics.gauge("repository.size", len(self.repository))
            self.audit.log(
                "concept_transition",
                self._step,
                from_state=previous_id,
                to_state=state.state_id,
            )

    def _new_concept_state(self) -> ConceptState:
        """A fresh stored concept; eviction protects the active state.

        With a capacity-one repository the old active *must* be the
        eviction victim (the switch retires it anyway), so protection
        only applies when another state can take the hit.
        """
        cfg = self.config
        protect = (
            (self._active.state_id,) if cfg.max_repository_size > 1 else ()
        )
        state = self.repository.new_state(
            self.n_dims,
            self._new_classifier(),
            step=self._step,
            sim_record_samples=cfg.sim_record_samples,
            sim_record_decay=cfg.sim_record_decay,
            protect=protect,
        )
        self.metrics.inc("concept.created")
        return state

    def _on_drift(self) -> None:
        self.drift_points.append(self._step)
        self.metrics.inc("drift.events")
        self.audit.log("drift", self._step, n_drifts=len(self.drift_points))
        selected = self._model_select()
        if selected is None:
            new_state = self._new_concept_state()
            self._created_at_drift = new_state.state_id
            self._set_active(new_state)
        else:
            self._created_at_drift = None
            self._set_active(selected)
        self._pending_recheck = self._step + self.config.window_size

    def _active_matches_window(self) -> bool:
        """Does the active state's record still explain the window?

        Benefit of the doubt while the record is too young to judge.
        """
        active = self._active
        if active.fingerprint.count < 2 or active.sim_stats.count < 2:
            return True
        xa, ya, _ = self.window.arrays()
        fp = self._window_fingerprint(xa, ya, active)
        sim = self._sim(active.fingerprint.means, fp)
        mu, sigma = self._gated_record(active)
        if abs(sim - mu) > self.config.similarity_gate * sigma:
            return False
        return self._error_gate(active, fp)

    def _second_selection(self) -> None:
        """Re-check for a recurrence once ``A`` is fully post-drift.

        Three outcomes: switch to an accepted stored concept (deleting a
        state spuriously created at drift time), keep the current state,
        or — when nothing in the repository explains the now fully
        post-drift window, *including* the active state (this happens
        whenever drift was signalled before any post-drift data existed,
        e.g. with oracle signals) — start a brand-new concept.
        """
        selected = self._model_select()
        created = self._created_at_drift
        self._created_at_drift = None
        if selected is None:
            if not self._active_matches_window():
                self._set_active(self._new_concept_state())
            return
        if selected.state_id == self._active.state_id:
            return
        switching_from_created = (
            created is not None and self._active.state_id == created
        )
        self._set_active(selected)
        if switching_from_created and created in self.repository:
            # The state created at drift time was a transition artifact.
            self.repository.remove(created)

    # ------------------------------------------------------------------
    # Step III-B support: non-active fingerprints + discrimination
    # ------------------------------------------------------------------
    def _repository_step(self) -> None:
        """Non-active fingerprints and, when tracked, a discrimination
        sample (z-scores of the window under every stored concept).

        The stack folds into the normaliser row by row
        (:meth:`OnlineMinMax.update_rows`), and each tracked row is
        scored in its own prefix range, as the per-state loop of
        Algorithm 1 would.
        """
        active = self._active
        others = [
            s
            for s in self.repository.states()
            if s.state_id != active.state_id and s.fingerprint.count >= 1
        ]
        if not others:
            return
        xa, ya, _ = self.window.arrays()
        fps = self._stack_window_fingerprints(xa, ya, others)
        mins, maxs, versions = self.normalizer.update_rows(fps)
        for state, fp in zip(others, fps):
            state.nonactive.incorporate(fp)
        if not self.config.track_discrimination:
            return
        tracked = [i for i, s in enumerate(others) if s.sim_stats.count >= 2]
        if not tracked or active.fingerprint.count < 2 or active.sim_stats.count < 2:
            return
        states = [others[i] for i in tracked]
        sims = self._score_stack(states, fps[tracked], mins[tracked], maxs[tracked])
        mus, sigmas = self._gated_records_many(
            states, mins[tracked], maxs[tracked], versions[tracked]
        )
        fp = self._window_fingerprint(xa, ya, active)
        sim = self._sim(active.fingerprint.means, fp)
        mu, sigma = self._gated_record(active)
        z_active = (sim - mu) / sigma
        self.discrimination_samples.append(
            float(z_active - np.mean((sims - mus) / sigmas))
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Every mutable value a resumed run reads, captured verbatim.

        Pure caches are deliberately absent: the per-step gated-record
        memo and shared-window extraction cache are keyed on the step
        counter (snapshots are taken between observations, so future
        events use later keys), and the repository's fingerprint matrix
        / classifier bank mirrors rebuild lazily and bit-identically
        from the restored states.
        """
        fa_keys = np.fromiter(self._fa_cache.keys(), dtype=np.int64)
        if len(self._fa_cache):
            fa_values = np.stack(list(self._fa_cache.values()))
        else:
            fa_values = np.empty((0, self.n_dims))
        return {
            "step": self._step,
            "classifier_seed": self._classifier_seed,
            "weights": self._weights.copy(),
            "weights_version": self._weights_version,
            "selection_events": self.selection_events,
            "active_state_id": self._active.state_id,
            "change_marker": self._change_marker,
            "pending_recheck": self._pending_recheck,
            "created_at_drift": self._created_at_drift,
            "drift_points": np.asarray(self.drift_points, dtype=np.int64),
            "discrimination_samples": np.asarray(
                self.discrimination_samples, dtype=np.float64
            ),
            "switch_step": self._switch_step,
            "freeze_streak": self._freeze_streak,
            "abnormal_streak": self._abnormal_streak,
            "fa_cache_keys": fa_keys,
            "fa_cache_values": fa_values,
            "label_outage": self._label_outage,
            "outage_selections": self.outage_selections,
            "outage_window": self._outage_window.state_dict(),
            "pipeline": self.pipeline.state_dict(),
            "normalizer": self.normalizer.state_dict(),
            "window": self.window.state_dict(),
            "repository": self.repository.state_dict(),
            # ADWIN's bucket compression is opaque internal structure;
            # the whole detector travels as a pickle blob.
            "detector": pickle.dumps(self.detector),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._step = int(state["step"])
        self._classifier_seed = int(state["classifier_seed"])
        self._weights = np.asarray(state["weights"], dtype=np.float64).copy()
        self._weights_version = int(state["weights_version"])
        self.selection_events = int(state["selection_events"])
        self._change_marker = int(state["change_marker"])
        pending = state["pending_recheck"]
        self._pending_recheck = None if pending is None else int(pending)
        created = state["created_at_drift"]
        self._created_at_drift = None if created is None else int(created)
        self.drift_points = [int(p) for p in np.asarray(state["drift_points"])]
        self.discrimination_samples = [
            float(s) for s in np.asarray(state["discrimination_samples"])
        ]
        self._switch_step = int(state["switch_step"])
        self._freeze_streak = int(state["freeze_streak"])
        self._abnormal_streak = int(state["abnormal_streak"])
        fa_keys = np.asarray(state["fa_cache_keys"], dtype=np.int64)
        fa_values = np.asarray(state["fa_cache_values"], dtype=np.float64)
        self._fa_cache = OrderedDict(
            (int(k), fa_values[i].copy()) for i, k in enumerate(fa_keys)
        )
        # Outage keys default to the pre-outage-era values so snapshots
        # written before this mode existed keep loading (no layout
        # change for them — the schema version stays put).
        self._label_outage = bool(state.get("label_outage", False))
        self.outage_selections = int(state.get("outage_selections", 0))
        self._outage_window = ObservationWindow(
            self.config.window_size, self.n_features
        )
        if "outage_window" in state:
            self._outage_window.load_state_dict(state["outage_window"])
        self.pipeline.load_state_dict(state["pipeline"])
        self.normalizer.load_state_dict(state["normalizer"])
        self.window.load_state_dict(state["window"])
        self.repository.load_state_dict(state["repository"])
        self._active = self.repository.get(int(state["active_state_id"]))
        self.detector = pickle.loads(state["detector"])
        # Per-step memos restart empty; they are keyed on the (restored)
        # step counter, so every future lookup misses exactly as the
        # uninterrupted run's would at a new step.
        self._gated_cache = {}
        self._gated_cache_step = -1
        self._extract_cache.invalidate()
        if self._prefilter is not None:
            # Sketches rebuild on demand from the restored fingerprint
            # versions; stale cross-object entries must not survive.
            self._prefilter.clear()

    def __repr__(self) -> str:
        return (
            f"Ficsum(states={len(self.repository)}, "
            f"active={self._active.state_id}, drifts={len(self.drift_points)})"
        )
