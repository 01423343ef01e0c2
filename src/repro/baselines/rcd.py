"""RCD: Recurring Concept Drifts framework.

Re-implementation of Gonçalves Jr & De Barros, "RCD: A recurring
concept drift framework" (Pattern Recognition Letters 2013), as used in
Table VI (the paper runs the MOA version with a Hoeffding tree and the
EDDM detector).

Mechanics: a single active classifier is monitored by EDDM.  During a
*warning* phase, incoming observations are buffered.  On *drift*, the
buffered sample is compared against the stored sample of every pooled
concept with a per-feature two-sample Kolmogorov-Smirnov test
(Bonferroni-corrected); if some stored concept's sample is statistically
indistinguishable, its classifier is reactivated (a recurrence),
otherwise a new classifier is created.  Either way the active concept
stores the buffer as its reference sample.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.classifiers import HoeffdingTree
from repro.detectors import Eddm
from repro.system import AdaptiveSystem


class _PooledConcept:
    __slots__ = ("state_id", "classifier", "sample")

    def __init__(self, state_id: int, classifier: HoeffdingTree) -> None:
        self.state_id = state_id
        self.classifier = classifier
        self.sample: Optional[np.ndarray] = None


class Rcd(AdaptiveSystem):
    """Classifier pool with KS-test model selection and EDDM detection.

    Parameters
    ----------
    buffer_size:
        Observations collected from warning to drift for the statistical
        comparison (and stored as the concept's reference sample).
    significance:
        KS-test significance per feature, Bonferroni-corrected across
        features.
    max_pool_size:
        Stored concepts beyond this evict the oldest.
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        buffer_size: int = 100,
        significance: float = 0.01,
        max_pool_size: int = 30,
        grace_period: int = 50,
        seed: int = 0,
    ) -> None:
        if buffer_size < 10:
            raise ValueError(f"buffer_size must be >= 10, got {buffer_size}")
        self.n_features = n_features
        self.n_classes = n_classes
        self.buffer_size = buffer_size
        self.significance = significance
        self.max_pool_size = max_pool_size
        self.grace_period = grace_period
        self.seed = seed
        self._next_id = 0
        self._pool: Dict[int, _PooledConcept] = {}
        self._active = self._new_concept()
        self._detector = Eddm()
        self._buffer: List[np.ndarray] = []
        self._recent: List[np.ndarray] = []
        self._drifts = 0
        self._oracle_countdown: Optional[int] = None

    def _new_concept(self) -> _PooledConcept:
        concept = _PooledConcept(
            self._next_id,
            HoeffdingTree(
                self.n_classes,
                self.n_features,
                grace_period=self.grace_period,
                seed=self.seed + self._next_id,
            ),
        )
        self._pool[concept.state_id] = concept
        self._next_id += 1
        if len(self._pool) > self.max_pool_size:
            oldest = min(self._pool)
            if oldest != concept.state_id:
                del self._pool[oldest]
        return concept

    @property
    def active_state_id(self) -> int:
        return self._active.state_id

    @property
    def n_drifts_detected(self) -> int:
        return self._drifts

    # ------------------------------------------------------------------
    def _samples_match(self, a: np.ndarray, b: np.ndarray) -> Tuple[bool, float]:
        """Per-feature KS test with Bonferroni correction.

        Returns (indistinguishable?, min corrected p-value).
        """
        # Imported here: loading scipy.stats would cost every process
        # that imports the evaluation runner, which builds RCD.
        from scipy import stats as scipy_stats

        threshold = self.significance / self.n_features
        min_p = 1.0
        for j in range(self.n_features):
            _, p = scipy_stats.ks_2samp(a[:, j], b[:, j])
            min_p = min(min_p, p)
            if p < threshold:
                return False, min_p
        return True, min_p

    def _on_drift(self) -> None:
        self._drifts += 1
        # A short warning phase yields too few observations for a stable
        # KS comparison; fall back to the recent window.
        if len(self._buffer) >= 30:
            window = np.stack(self._buffer)
        elif self._recent:
            window = np.stack(self._recent)
        else:
            window = None
        selected: Optional[_PooledConcept] = None
        best_p = -1.0
        if window is not None and len(window) >= 10:
            for concept in self._pool.values():
                # The active concept competes too: on a false alarm the
                # new window still matches it and no switch happens.
                if concept.sample is None:
                    continue
                match, min_p = self._samples_match(window, concept.sample)
                if match and min_p > best_p:
                    selected, best_p = concept, min_p
        self._active = selected if selected is not None else self._new_concept()
        if window is not None:
            self._active.sample = window
        self._buffer = []
        self._detector = Eddm()

    def process(self, x: np.ndarray, y: int) -> int:
        x = np.asarray(x, dtype=np.float64)
        if self._oracle_countdown is not None:
            self._oracle_countdown -= 1
            if self._oracle_countdown <= 0:
                self._oracle_countdown = None
                self._buffer = list(self._recent[-self.buffer_size // 2 :])
                self._on_drift()
        prediction = self._active.classifier.predict(x)
        self._active.classifier.learn(x, y)
        self._recent.append(x)
        if len(self._recent) > self.buffer_size:
            self._recent.pop(0)
        drift = self._detector.update(float(prediction != y))
        if self._detector.in_warning or drift:
            self._buffer.append(x)
            if len(self._buffer) > self.buffer_size:
                self._buffer.pop(0)
        elif self._buffer:
            self._buffer = []
        if drift:
            self._on_drift()
        elif self._active.sample is None and len(self._recent) >= self.buffer_size:
            # First stable window becomes the concept's reference sample.
            self._active.sample = np.stack(self._recent)
        return prediction

    def signal_drift(self) -> None:
        """Oracle notification: wait for post-drift data, then select.

        At the exact boundary the recent window still holds the old
        concept, so the statistical comparison is deferred until half a
        buffer of new-segment observations has arrived.
        """
        self._oracle_countdown = self.buffer_size // 2
