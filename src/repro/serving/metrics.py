"""Metrics collection for long-running adaptive-system deployments.

A :class:`StatsCollector` aggregates three primitive kinds in memory:

* **counters** — monotone event counts (drift events, selections,
  evictions, observations processed),
* **gauges** — last-written values (repository occupancy, cache sizes),
* **histograms** — streaming distributions of timings or sizes, kept as
  running aggregates plus a bounded reservoir of recent samples so
  percentiles stay available without unbounded memory.

The default wiring everywhere is :data:`NULL_COLLECTOR`, a
:class:`NullStatsCollector` whose operations are all no-ops and whose
``enabled`` flag is ``False`` — hot paths guard the *extra work of
producing a value* (e.g. ``time.perf_counter`` calls) behind
``collector.enabled``, so the disabled path costs one attribute read
per event site.  Metric state is process-scoped run telemetry and is
deliberately **not** part of checkpoints: a restored run starts fresh
counters, while the stream-position state it measures is restored
bit-for-bit by :mod:`repro.serving.snapshot`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

#: Bounded per-histogram reservoir of the most recent samples, from
#: which the percentile summaries are computed.
HISTOGRAM_WINDOW = 512


class Histogram:
    """Running aggregate + bounded recent-sample ring for one series."""

    __slots__ = ("count", "total", "min", "max", "_recent", "_next")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._recent: List[float] = []
        self._next = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._recent) < HISTOGRAM_WINDOW:
            self._recent.append(value)
        else:
            self._recent[self._next] = value
            self._next = (self._next + 1) % HISTOGRAM_WINDOW

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the recent-sample window."""
        if not self._recent:
            return 0.0
        ordered = sorted(self._recent)
        idx = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[idx]

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class _NullTimer:
    """Reusable no-op context manager for the disabled collector."""

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_TIMER = _NullTimer()


class StatsCollector:
    """In-memory counters / gauges / histograms for one run."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- primitives ----------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Record the wall-time of a block into histogram ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- reporting -----------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Plain-dict snapshot of everything collected (JSON-safe)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.summary()
                for name, hist in sorted(self.histograms.items())
            },
        }


class NullStatsCollector(StatsCollector):
    """The default no-op collector: every operation returns immediately.

    ``enabled`` is ``False`` so event sites can skip producing values
    (timing calls, size computations) entirely.
    """

    enabled = False

    def inc(self, name: str, amount: int = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def timer(self, name: str) -> _NullTimer:  # type: ignore[override]
        return _NULL_TIMER


#: Process-wide disabled collector — the default wiring everywhere.
NULL_COLLECTOR = NullStatsCollector()


__all__ = [
    "HISTOGRAM_WINDOW",
    "Histogram",
    "StatsCollector",
    "NullStatsCollector",
    "NULL_COLLECTOR",
]
