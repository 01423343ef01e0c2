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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.classifiers import HoeffdingTree
from repro.classifiers.base import Classifier
from repro.core.config import FicsumConfig
from repro.core.repository import ConceptState, Repository, rescale_record
from repro.core.similarity import sim_fast, sim_many, sim_pairs_many
from repro.core.weighting import make_weights
from repro.detectors import Adwin
from repro.metafeatures import FingerprintPipeline
from repro.serving.audit import NULL_AUDIT, AuditLog
from repro.serving.metrics import NULL_COLLECTOR, StatsCollector
from repro.serving.snapshot import system_from_payload, system_payload
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

        Also sets :attr:`Repository.on_evict`, so every eviction is
        counted (``repository.evictions``) and audited with the victim's
        id and last active step — silent concept loss must be
        observable.
        """
        if metrics is not None:
            self.metrics = metrics
        if audit is not None:
            self.audit = audit

        def _on_evict(victim: ConceptState) -> None:
            self.metrics.inc("repository.evictions")
            self.audit.log(
                "eviction",
                self._step,
                state_id=victim.state_id,
                last_active_step=victim.last_active_step,
            )

        self.repository.on_evict = _on_evict

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
        # Test-then-train through the chunked loop's entry point, on a
        # one-row view.
        prediction = int(
            self._active.classifier.predict_learn_batch(x[None], (y,))[0]
        )
        self.window.append(x, int(y), prediction)
        self.pipeline.push(x, int(y), prediction)
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
        if self._pending_recheck is not None and self._step >= self._pending_recheck:
            self._pending_recheck = None
            if cfg.second_selection:
                with self.metrics.timer("phase.second_selection"):
                    self._second_selection()

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
        stale) during an outage.  Every candidate is scored with one
        batched scale and one similarity kernel; the first strictly
        greatest similarity wins.  Switching only happens when it
        scores strictly above the active concept, and is counted
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
        sims = sim_many(
            self.normalizer.scale(self._stored_means(candidates)), scaled_fp, weights
        )
        self.metrics.inc("outage.checks")
        if np.isnan(scaled_fp * weights).any():
            # Every similarity to this window is NaN, which beats
            # nothing (``np.argmax`` would take the first NaN as best).
            return
        ids = [state.state_id for state in candidates]
        row = int(np.argmax(sims))  # the first of equal maxima
        active_id = self._active.state_id
        if ids[row] == active_id or (
            active_id in ids and sims[row] <= sims[ids.index(active_id)]
        ):
            return
        self.outage_selections += 1
        self.metrics.inc("outage.selections")
        self.audit.log(
            "outage_selection",
            self._step,
            from_state=active_id,
            to_state=ids[row],
            similarity=float(sims[row]),
        )
        self._set_active(candidates[row])

    @property
    def _in_warmup(self) -> bool:
        """True while the active classifier is too young to judge drift."""
        return self._step - self._switch_step < self._warmup_obs

    # ------------------------------------------------------------------
    # Step III-A: fingerprints, incorporation, drift detection
    # ------------------------------------------------------------------
    def _sim(self, raw_a: np.ndarray, raw_b: np.ndarray) -> float:
        # One scale call for both rows (each row is bit-for-bit that
        # vector scaled alone).  Trusted kernel: both rows are freshly
        # scaled into [0, 1], so the validating wrapper is skipped.
        scaled = self.normalizer.scale(np.stack((raw_a, raw_b)))
        return sim_fast(scaled[0], scaled[1], self._weights)

    def _refresh_weights(self) -> None:
        """Recompute the dynamic weights (Step III-B).

        Every stored concept's statistics are read from the
        repository's fingerprint matrix, in one gathered block.
        """
        self._weights = make_weights(
            self.config.weighting, self._active, self.repository.states(),
            self.normalizer, self.repository.matrix(),
        )

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
            # What _sim computes, keeping the scaled pair for the
            # univariate detector input below.
            scaled = self.normalizer.scale(
                np.stack((self._active.fingerprint.means, fp_active))
            )
            drift_sim = sim_fast(scaled[0], scaled[1], self._weights)
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
                gap = abs(scaled[0, 0] - scaled[1, 0])
                alert = self.detector.update(min(1.0, float(gap)))
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
            [state], norm.mins[None], norm.maxs[None]
        )
        return float(mus[0]), float(sigmas[0])

    def _gated_records_many(
        self, states: List[ConceptState], mins: np.ndarray, maxs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gated (mu, sigma) of each state, state ``i`` in range ``i``.

        Row ``i`` of ``mins``/``maxs`` is the normaliser range state
        ``i`` is judged in.  All retained sim-pairs of all states are
        re-expressed under the current weighting with one scale +
        similarity kernel, each pair in its state's range; the
        per-state reductions then run :func:`rescale_record`, as a
        per-pair loop would.  Nothing is memoised: the weights change
        at every fingerprint step and the range widens on most of them.
        """
        pairs = [state.sim_pairs.views() for state in states]
        rows = np.repeat(np.arange(len(states)), [len(p[2]) for p in pairs])
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
        mus = np.empty(len(states))
        sigmas = np.empty(len(states))
        offset = 0
        for i, (state, (_, _, old)) in enumerate(zip(states, pairs)):
            mu, sigma = state.sim_stats.mean, state.sim_stats.std
            span = len(old)
            if span:
                sims = sims_all[offset : offset + span]
                offset += span
                mu, sigma = rescale_record(mu, sigma, sims, old, univariate)
            mus[i] = mu
            sigmas[i] = max(sigma, min_std * max(1.0, abs(mu)))
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
        callers run at most once per event (re-check, discrimination
        sample).
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
            if not candidates:
                return None
            fps = self._stack_window_fingerprints(xa, ya, candidates)
            return self._select_from_fingerprints(candidates, fps)

    def _stack_window_fingerprints(
        self, xa: np.ndarray, ya: np.ndarray, states: List[ConceptState]
    ) -> np.ndarray:
        """(R, D) stack of the window's fingerprint under each candidate.

        One ``(R, W)`` prediction block: the repository's
        :class:`~repro.classifiers.bank.ClassifierBank` routes the
        window through every stored tree in one mask descent + one NB
        kernel.  Then one ``extract_shared`` pass computes the
        classifier-independent dimensions, and ``extract_partial_many``
        computes every candidate's dependent dimensions over the block.
        """
        preds_block = self.repository.bank().predict_batch_many(
            [s.state_id for s in states], xa
        )
        shared = self.pipeline.extract_shared(xa, ya)
        return self.pipeline.extract_partial_many(
            xa, ya, preds_block, [s.classifier for s in states], shared=shared
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

    def _stored_means(self, states: List[ConceptState]) -> np.ndarray:
        """``(len(states), D)`` gather of the states' fingerprint-mean
        rows from the repository's matrix."""
        matrix = self.repository.matrix()
        return matrix.fp_means[matrix.rows_of(states)]

    def _score_stack(
        self,
        states: List[ConceptState],
        fps: np.ndarray,
        mins: np.ndarray,
        maxs: np.ndarray,
    ) -> np.ndarray:
        """``Sim(F_c, fps[i])`` of every stacked candidate, row ``i``
        scaled in the range ``(mins[i], maxs[i])``: the states' stored
        fingerprint-mean rows against the stack."""
        return self._pair_similarities(self._stored_means(states), fps, mins, maxs)

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
        mins, maxs = self.normalizer.update_rows(fps)
        sims = self._score_stack(states, fps, mins, maxs)
        order = np.argsort(-sims, kind="stable")
        start = 0
        while start < len(order):
            block = order[start : 2 * start + 1]
            mus, sigmas = self._gated_records_many(
                [states[i] for i in block], mins[block], maxs[block]
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
        mins, maxs = self.normalizer.update_rows(fps)
        for state, fp in zip(others, fps):
            state.nonactive.incorporate(fp)
        if not self.config.track_discrimination:
            return
        tracked = [i for i, s in enumerate(others) if s.sim_stats.count >= 2]
        if not tracked or active.fingerprint.count < 2 or active.sim_stats.count < 2:
            return
        states = [others[i] for i in tracked]
        sims = self._score_stack(states, fps[tracked], mins[tracked], maxs[tracked])
        mus, sigmas = self._gated_records_many(states, mins[tracked], maxs[tracked])
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

        The repository rebuilds its fingerprint matrix from the
        restored states; pickling a ``Ficsum`` goes through this pair
        (see :meth:`__reduce__`).
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
        self._label_outage = bool(state["label_outage"])
        self.outage_selections = int(state["outage_selections"])
        self._outage_window = ObservationWindow(
            self.config.window_size, self.n_features
        )
        self._outage_window.load_state_dict(state["outage_window"])
        self.pipeline.load_state_dict(state["pipeline"])
        self.normalizer.load_state_dict(state["normalizer"])
        self.window.load_state_dict(state["window"])
        self.repository.load_state_dict(state["repository"])
        self._active = self.repository.get(int(state["active_state_id"]))
        self.detector = pickle.loads(state["detector"])

    def __reduce__(self) -> Tuple[Any, Tuple[Dict[str, Any]]]:
        """Pickle (and deep-copy) as the snapshot payload.

        The live object holds views into shared storage: the rolling
        accumulators' sums are rows of one array, and every stored
        fingerprint is a view of its repository matrix row.  Pickling
        the object graph would copy each view on its own and sever it
        from its storage.  The payload of
        :func:`~repro.serving.snapshot.system_payload` (constructor
        context + :meth:`state_dict`) rebuilds the system through the
        constructor and :meth:`load_state_dict`, which re-creates those
        views.  Observability sinks are not carried.
        """
        return system_from_payload, (system_payload(self),)

    def __repr__(self) -> str:
        return (
            f"Ficsum(states={len(self.repository)}, "
            f"active={self._active.state_id}, drifts={len(self.drift_points)})"
        )
