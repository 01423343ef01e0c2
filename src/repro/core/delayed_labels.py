"""Delayed-label adaptation (the paper's stated future-work setting).

The paper assumes "class labels are available with no delay, a common
assumption" and closes with: "Future work ... could ... allow FiCSUM to
adapt to periods of missing or delayed labels."  This module implements
that extension as a wrapper usable around *any* adaptive system:

* predictions are served immediately from the wrapped system,
* the ``(x, y)`` pair is queued and only delivered to the wrapped
  system's ``process`` after ``delay`` further observations arrive
  (verification latency), and
* with ``missing_rate`` > 0 a fraction of labels never arrives at all —
  those observations are dropped from training entirely.

Because the wrapped system still performs its own test-then-train on
the delayed pair, its internal error statistics (and therefore FiCSUM's
supervised meta-information) describe the stream ``delay`` steps late —
exactly the degradation the future-work remark anticipates.
``tests/test_extensions.py::TestDelayedLabels`` checks it: a 300-step
delay costs HTCD accuracy on STAGGER.
"""

from __future__ import annotations

import pickle
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

import numpy as np

from repro.system import AdaptiveSystem


class DelayedLabelAdapter(AdaptiveSystem):
    """Feeds a wrapped system labels ``delay`` observations late.

    Parameters
    ----------
    system:
        Any :class:`~repro.system.AdaptiveSystem`.
    delay:
        Observations between seeing ``x`` and learning ``(x, y)``.
    missing_rate:
        Fraction of labels that never arrive (dropped uniformly).
    seed:
        Randomness for the missing-label mask.
    """

    def __init__(
        self,
        system: AdaptiveSystem,
        delay: int = 100,
        missing_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        if not 0.0 <= missing_rate < 1.0:
            raise ValueError(
                f"missing_rate must be in [0, 1), got {missing_rate}"
            )
        self.system = system
        self.delay = delay
        self.missing_rate = missing_rate
        self._rng = np.random.default_rng(seed)
        self._queue: Deque[Tuple[np.ndarray, int]] = deque()
        self.n_labels_dropped = 0
        self.n_labels_delivered = 0
        self._last_prediction: Optional[int] = None

    @property
    def active_state_id(self) -> int:
        return self.system.active_state_id

    @property
    def n_drifts_detected(self) -> int:
        return self.system.n_drifts_detected

    def signal_drift(self) -> None:
        self.system.signal_drift()

    def process(self, x: np.ndarray, y: int) -> int:
        x = np.asarray(x, dtype=np.float64)
        # Serve the prediction now, without revealing the label.
        prediction = self._predict_only(x)
        if self.missing_rate and self._rng.random() < self.missing_rate:
            self.n_labels_dropped += 1
        else:
            self._queue.append((x, int(y)))
        while len(self._queue) > self.delay:
            old_x, old_y = self._queue.popleft()
            self.system.process(old_x, old_y)
            self.n_labels_delivered += 1
        return prediction

    def _predict_only(self, x: np.ndarray) -> int:
        """Best-effort label for ``x`` without training on it."""
        # Repository systems expose their active classifier; generic
        # systems fall back to a throwaway call pattern.
        active = getattr(self.system, "_active", None)
        classifier = getattr(active, "classifier", None)
        if classifier is not None:
            return int(classifier.predict(x))
        tree = getattr(self.system, "_tree", None)
        if tree is not None:
            return int(tree.predict(x))
        # Ensemble systems: peek via a vote if available.
        vote = getattr(self.system, "_weighted_vote", None)
        if vote is not None:
            return int(np.argmax(vote(x)))
        raise TypeError(
            f"{type(self.system).__name__} exposes no prediction-only path"
        )

    def flush(self) -> None:
        """Deliver every queued label (end-of-stream bookkeeping)."""
        while self._queue:
            old_x, old_y = self._queue.popleft()
            self.system.process(old_x, old_y)
            self.n_labels_delivered += 1

    # ------------------------------------------------------------------
    # Checkpointing (state_dict convention of repro.serving)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """All adapter state: the label queue, rng and counters.

        The wrapped system serializes through its own ``state_dict``
        when it has one (the FiCSUM family), otherwise as one pickle
        blob — the same fallback :mod:`repro.serving.snapshot` applies
        to whole systems.
        """
        if self._queue:
            queue_x = np.stack([x for x, _ in self._queue])
            queue_y = np.asarray([y for _, y in self._queue], dtype=np.int64)
        else:
            queue_x = np.empty((0, 0), dtype=np.float64)
            queue_y = np.empty(0, dtype=np.int64)
        state: Dict[str, Any] = {
            "queue_x": queue_x,
            "queue_y": queue_y,
            "rng": self._rng.bit_generator.state,
            "n_labels_dropped": self.n_labels_dropped,
            "n_labels_delivered": self.n_labels_delivered,
        }
        if hasattr(self.system, "state_dict"):
            state["system"] = self.system.state_dict()
        else:
            state["system_pickle"] = pickle.dumps(self.system)
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        queue_x = np.asarray(state["queue_x"], dtype=np.float64)
        queue_y = np.asarray(state["queue_y"], dtype=np.int64)
        self._queue = deque(
            (queue_x[i].copy(), int(queue_y[i])) for i in range(len(queue_y))
        )
        self._rng.bit_generator.state = state["rng"]
        self.n_labels_dropped = int(state["n_labels_dropped"])
        self.n_labels_delivered = int(state["n_labels_delivered"])
        if "system" in state:
            self.system.load_state_dict(state["system"])
        else:
            self.system = pickle.loads(state["system_pickle"])
