"""Prequential (test-then-train) evaluation of adaptive systems."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.streams.base import Stream
from repro.system import AdaptiveSystem


@dataclass
class RunResult:
    """Everything measured during one prequential run."""

    accuracy: float
    kappa: float
    c_f1: float
    runtime_s: float
    n_observations: int
    n_drifts: int
    n_states: int
    discrimination: List[float] = field(default_factory=list)
    concept_ids: List[int] = field(default_factory=list)
    state_ids: List[int] = field(default_factory=list)

    def __repr__(self) -> str:
        return (
            f"RunResult(kappa={self.kappa:.3f}, c_f1={self.c_f1:.3f}, "
            f"acc={self.accuracy:.3f}, drifts={self.n_drifts}, "
            f"states={self.n_states}, runtime={self.runtime_s:.2f}s)"
        )


def prequential_run(
    system: AdaptiveSystem,
    stream: Stream,
    oracle_drift: bool = False,
    max_observations: Optional[int] = None,
    keep_history: bool = True,
    chunk_size: Optional[int] = None,
) -> RunResult:
    """Drive a system over a stream, test-then-train.

    A :class:`~repro.serving.runner.StreamRunner` without checkpoints,
    faults or guard: the one prequential loop.

    ``oracle_drift=True`` implements the paper's supplementary
    perfect-drift-detection protocol: :meth:`signal_drift` is called at
    every ground-truth segment boundary.

    ``chunk_size`` switches to the chunked fast path: observations are
    buffered (never across a ground-truth concept boundary, so oracle
    signals fire at exactly the per-observation timesteps) and handed
    to :meth:`AdaptiveSystem.process_chunk`, which systems like FiCSUM
    implement with vectorised routing.  Predictions, drift points,
    state-id traces and every reported metric are identical to the
    per-observation path.
    """
    # The runner module imports RunResult from here.
    from repro.serving.runner import StreamRunner

    runner = StreamRunner(
        system,
        stream,
        oracle_drift=oracle_drift,
        chunk_size=chunk_size,
        keep_history=keep_history,
    )
    return runner.run(max_observations)
