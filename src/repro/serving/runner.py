"""Checkpointed prequential runs with bit-for-bit resume.

:class:`StreamRunner` is the one prequential (test-then-train) loop;
:func:`repro.evaluation.prequential.prequential_run` is a runner
without checkpoints, faults or guard.  It signals oracle drift at
ground-truth boundaries and keeps every piece of harness state —
confusion matrix, trace lists, stream position, accumulated runtime —
as restorable state, so a run interrupted at observation T and
restored from its checkpoint finishes with traces **identical** to the
uninterrupted run.

The loop buffers each labeled observation and flushes the buffer to
the system once it holds ``chunk_size or 1`` rows: through ``process``
when ``chunk_size`` is ``None``, through ``process_chunk`` otherwise.
That flush is the only place the two modes differ.  The buffer is also
flushed at every ground-truth concept boundary (before the oracle
drift signal), before an unlabeled observation, at the end of a run
and before every checkpoint.  Two details make resume exact:

* The limit check happens *before* the next observation is pulled, so
  a paused resumable iterator never loses an observation.
* A snapshot never holds buffered observations.  In chunked mode the
  flush before a checkpoint can shift sub-chunk boundaries, which is
  exactly the boundary-invariance the chunked engine is pinned to.

Every stream fault site (``stream.observation``, ``stream.labels``,
``stream.stall``) and the observation guard receive one step: the
pulled observation's stream index, ``n_seen + n_dropped + buffered``.
Dropped observations count, so a fault window names the same stream
positions whatever the chunk size.

Checkpoints are snapshot directories (:mod:`repro.serving.snapshot`)
holding the system payload plus the harness state.  With
``keep_checkpoints=1`` (the default) one snapshot is overwritten in
place; with N > 1 the runner retains a *chain* of the last N under
``<checkpoint_path>/ckpt-<n_seen>``, and
:meth:`StreamRunner.restore_latest` walks the chain newest-first past
any corrupt entry to the newest verifiable snapshot — resume from an
older chain entry is just resume from an earlier T, so it stays
bit-for-bit.

Fault tolerance hooks (all no-ops unless configured):

* ``faults`` — a :class:`~repro.faults.FaultInjector` arming the
  ``stream.*`` and ``snapshot.*`` injection sites (chaos testing),
* ``guard`` — an :class:`~repro.faults.ObservationGuard` validating
  every observation before the system sees it,
* label outages (the ``stream.labels`` site) switch a degraded-mode
  capable system (``process_unlabeled`` + ``begin/end_label_outage``)
  onto unsupervised-only operation; systems without that surface have
  the affected observations dropped and counted.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.evaluation.metrics import ConfusionMatrix, co_occurrence_f1
from repro.evaluation.prequential import RunResult
from repro.faults.guards import ObservationGuard
from repro.faults.plan import FaultInjector, corrupt_snapshot
from repro.serving.audit import AuditLog, NULL_AUDIT
from repro.serving.manifest import MANIFEST_NAME, SnapshotError
from repro.serving.metrics import NULL_COLLECTOR
from repro.serving.snapshot import DECODE_ERRORS, load_system, save_system
from repro.streams.base import Stream
from repro.system import AdaptiveSystem

#: Prefix of chained checkpoint directories under the checkpoint root.
CHAIN_PREFIX = "ckpt-"


def checkpoint_chain(root: Union[str, Path]) -> List[Path]:
    """Snapshot candidates under ``root``, newest first.

    A chained layout (``<root>/ckpt-<n_seen>`` directories) sorts by
    descending position; the legacy single-snapshot layout (``root``
    itself is the snapshot directory) yields ``[root]``.  Directories
    without a manifest are still listed — the restore walk rejects
    them with :class:`SnapshotError` and moves on.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    chained = sorted(
        (
            entry
            for entry in root.iterdir()
            if entry.is_dir() and entry.name.startswith(CHAIN_PREFIX)
        ),
        key=lambda entry: entry.name,
        reverse=True,
    )
    if chained:
        return chained
    if (root / MANIFEST_NAME).exists():
        return [root]
    return []


class StreamRunner:
    """A pausable, checkpointable, fault-tolerant prequential run."""

    def __init__(
        self,
        system: AdaptiveSystem,
        stream: Stream,
        *,
        oracle_drift: bool = False,
        chunk_size: Optional[int] = None,
        keep_history: bool = True,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        keep_checkpoints: int = 1,
        clock: Optional[Callable[[], float]] = None,
        faults: Optional[FaultInjector] = None,
        guard: Optional[ObservationGuard] = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if keep_checkpoints < 1:
            raise ValueError(
                f"keep_checkpoints must be >= 1, got {keep_checkpoints}"
            )
        self.system = system
        self.stream = stream
        self.oracle_drift = oracle_drift
        self.chunk_size = chunk_size
        self.keep_history = keep_history
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self.keep_checkpoints = keep_checkpoints
        #: Stamps checkpoint manifests (default wall time); inject a
        #: fixed clock for byte-identical snapshot directories.
        self.clock = clock
        self.faults = faults
        self.guard = guard
        # Route fault/guard telemetry through the system's sinks unless
        # the caller wired dedicated ones.
        system_metrics = getattr(system, "metrics", NULL_COLLECTOR)
        system_audit = getattr(system, "audit", NULL_AUDIT)
        if faults is not None and faults.metrics is NULL_COLLECTOR:
            faults.attach_observability(system_metrics, system_audit)
        if guard is not None and guard.metrics is NULL_COLLECTOR:
            guard.attach_observability(system_metrics, system_audit)
        resumable = stream.iter_resumable()
        self._iter = resumable if resumable is not None else iter(stream)
        self._resumable = resumable is not None
        self._confusion = ConfusionMatrix(stream.meta.n_classes)
        # History always accumulates (C-F1 and n_states need the full
        # traces); keep_history only controls the returned result.
        self._concept_ids: List[int] = []
        self._state_ids: List[int] = []
        # Ground-truth concept of the last labeled observation: every
        # buffered row belongs to it, and a change is a concept boundary.
        self._concept: Optional[int] = None
        self._buf_x: List[np.ndarray] = []
        self._buf_y: List[int] = []
        self._n_seen = 0
        self._runtime = 0.0
        self._exhausted = False
        self._last_checkpoint = 0
        #: True when the last ``run`` returned early on an injected
        #: stream stall; calling ``run`` again continues the stream.
        self.stalled = False
        #: Observations withheld from the system entirely (guard
        #: quarantine + label outages on degradation-incapable systems).
        self.n_dropped = 0
        self._in_outage = False
        self._outage_capable = hasattr(system, "process_unlabeled") and hasattr(
            system, "begin_label_outage"
        )

    # ------------------------------------------------------------------
    @property
    def n_seen(self) -> int:
        return self._n_seen

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def run(self, max_observations: Optional[int] = None) -> RunResult:
        """Drive until the stream ends or ``max_observations`` in total.

        The limit counts *all* observations this runner has processed
        (across every ``run`` call), so ``run(T)`` then ``run()`` is the
        interrupted-then-resumed version of one full run.  An injected
        stream stall also returns early (``self.stalled``); the next
        ``run()`` call continues past it.
        """
        self.stalled = False
        start = time.perf_counter()
        try:
            self._loop(max_observations)
        finally:
            self._runtime += time.perf_counter() - start
        return self.result()

    def _loop(self, limit: Optional[int]) -> None:
        """Per observation: checkpoint, stall, pull, outage, boundary,
        buffer — in that order (see the module docstring)."""
        faults, guard = self.faults, self.guard
        n_features = self.stream.meta.n_features
        rows = self.chunk_size or 1
        buf_x, buf_y = self._buf_x, self._buf_y
        while limit is None or self._n_seen + len(buf_x) < limit:
            if self._checkpoint_due(len(buf_x)):
                self._flush()
                self.save_checkpoint()
            step = self._n_seen + self.n_dropped + len(buf_x)
            if faults is not None and faults.fire("stream.stall", step=step):
                self.stalled = True
                break
            try:
                x, y, concept_id = next(self._iter)
            except StopIteration:
                self._exhausted = True
                break
            if faults is not None:
                x = faults.mutate_observation(x, step)
            if guard is not None:
                verdict, x = guard.inspect(x, n_features, step)
                if verdict == "skip":
                    self.n_dropped += 1
                    continue
            if faults is not None and faults.label_missing(step):
                self._flush()
                self._process_unlabeled(x, y, concept_id)
                continue
            self._exit_outage()
            if self._concept is not None and concept_id != self._concept:
                self._flush()
                if self.oracle_drift:
                    self.system.signal_drift()
            self._concept = concept_id
            buf_x.append(x)
            buf_y.append(y)
            if len(buf_x) >= rows:
                self._flush()
        self._flush()
        if not self.stalled and self._checkpoint_due():
            self.save_checkpoint()

    def _flush(self) -> None:
        """Test-then-train the buffered rows and record their traces.

        ``process`` and ``process_chunk`` are looked up on the system at
        call time, so wrappers installed after the runner is built see
        every call.
        """
        buf_x, buf_y = self._buf_x, self._buf_y
        if not buf_x:
            return
        system = self.system
        if self.chunk_size is None:
            prediction = system.process(buf_x[0], buf_y[0])
            self._confusion.update(buf_y[0], prediction)
            self._state_ids.append(system.active_state_id)
        else:
            Y = np.asarray(buf_y, dtype=np.int64)
            sids = np.empty(len(Y), dtype=np.int64)
            predictions = system.process_chunk(
                np.stack(buf_x), Y, state_ids_out=sids
            )
            self._confusion.update_many(Y, predictions)
            self._state_ids.extend(int(s) for s in sids)
        self._concept_ids.extend([self._concept] * len(buf_y))
        self._n_seen += len(buf_y)
        buf_x.clear()
        buf_y.clear()

    # ------------------------------------------------------------------
    # Label outages
    # ------------------------------------------------------------------
    def _enter_outage(self) -> None:
        if self._in_outage:
            return
        self._in_outage = True
        if self._outage_capable:
            self.system.begin_label_outage()

    def _exit_outage(self) -> None:
        if not self._in_outage:
            return
        self._in_outage = False
        if self._outage_capable:
            self.system.end_label_outage()

    def _process_unlabeled(self, x: np.ndarray, y: int, concept_id: int) -> None:
        """One observation inside a label-outage window.

        Degradation-capable systems keep predicting and matching on
        unsupervised meta-information (``process_unlabeled``); the
        harness still scores the prediction against the withheld label
        — the outage models label *delivery* failing, not ground truth
        ceasing to exist.  Other systems drop the observation.  Oracle
        drift signals are suppressed during the outage (the system's
        supervised selection machinery is frozen); a concept change is
        signalled on the first labeled observation after recovery.
        """
        self._enter_outage()
        if not self._outage_capable:
            self.n_dropped += 1
            return
        prediction = self.system.process_unlabeled(x)
        self._confusion.update(y, prediction)
        self._concept_ids.append(concept_id)
        self._state_ids.append(self.system.active_state_id)
        self._n_seen += 1

    def result(self) -> RunResult:
        system, history = self.system, self.keep_history
        return RunResult(
            accuracy=self._confusion.accuracy,
            kappa=self._confusion.kappa,
            c_f1=co_occurrence_f1(self._concept_ids, self._state_ids),
            runtime_s=self._runtime,
            n_observations=self._n_seen,
            n_drifts=system.n_drifts_detected,
            n_states=len(set(self._state_ids)),
            discrimination=list(getattr(system, "discrimination_samples", [])),
            concept_ids=self._concept_ids if history else [],
            state_ids=self._state_ids if history else [],
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_due(self, buffered: int = 0) -> bool:
        return (
            self.checkpoint_path is not None
            and self.checkpoint_every is not None
            and self._n_seen + buffered - self._last_checkpoint
            >= self.checkpoint_every
        )

    def _harness_state(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {
            "n_seen": self._n_seen,
            "runtime": self._runtime,
            "confusion": self._confusion.matrix.copy(),
            "concept_ids": np.asarray(self._concept_ids, dtype=np.int64),
            "state_ids": np.asarray(self._state_ids, dtype=np.int64),
            "concept": self._concept,
            "exhausted": self._exhausted,
            "oracle_drift": self.oracle_drift,
            "chunk_size": self.chunk_size,
            "n_dropped": self.n_dropped,
            "in_outage": self._in_outage,
        }
        if self._resumable:
            state["stream_iter"] = self._iter.state_dict()
        if self.guard is not None:
            state["guard"] = self.guard.state_dict()
        return state

    def _chain_target(self) -> Path:
        assert self.checkpoint_path is not None
        if self.keep_checkpoints == 1:
            return self.checkpoint_path
        return self.checkpoint_path / f"{CHAIN_PREFIX}{self._n_seen:012d}"

    def _prune_chain(self) -> None:
        if self.keep_checkpoints == 1 or self.checkpoint_path is None:
            return
        for stale in checkpoint_chain(self.checkpoint_path)[
            self.keep_checkpoints :
        ]:
            shutil.rmtree(stale, ignore_errors=True)

    def save_checkpoint(
        self, path: Optional[Union[str, Path]] = None
    ) -> Path:
        """Snapshot the system plus all harness state.

        With no explicit ``path``: ``keep_checkpoints=1`` overwrites
        the single snapshot at ``checkpoint_path``; larger values
        append to the retained chain under it and prune the oldest
        entries.  Chunked runners must only save at sub-chunk
        boundaries (the internal loop guarantees this); a snapshot
        never holds buffered observations.
        """
        if path is not None:
            target = Path(path)
        elif self.checkpoint_path is not None:
            target = self._chain_target()
        else:
            raise ValueError("no checkpoint path configured")
        metrics = getattr(self.system, "metrics", NULL_COLLECTOR)
        audit = getattr(self.system, "audit", NULL_AUDIT)
        start = time.perf_counter()
        result = save_system(
            self.system,
            target,
            extra_state=self._harness_state(),
            meta={"artifact": "checkpoint", "n_seen": self._n_seen},
            clock=self.clock,
        )
        self._last_checkpoint = self._n_seen
        metrics.inc("checkpoints")
        if metrics.enabled:
            metrics.observe(
                "checkpoint.save_seconds", time.perf_counter() - start
            )
        audit.log("checkpoint", self._n_seen, path=str(target))
        if self.faults is not None:
            for spec in self.faults.fire(
                "snapshot.save", step=self._n_seen, label=str(target)
            ):
                corrupt_snapshot(target, spec.mode or "truncate")
        if path is None:
            self._prune_chain()
        return result

    @classmethod
    def restore(
        cls,
        path: Union[str, Path],
        stream: Stream,
        *,
        keep_history: bool = True,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        keep_checkpoints: int = 1,
        verify: bool = True,
        clock: Optional[Callable[[], float]] = None,
        faults: Optional[FaultInjector] = None,
        guard: Optional[ObservationGuard] = None,
    ) -> "StreamRunner":
        """Rebuild a runner from one checkpoint, positioned to continue.

        ``stream`` must be constructed with the same parameters as the
        checkpointed run's (schedule and concepts are deterministic
        given those); its iterator is then seeked to the captured
        position.  Run options (oracle drift, chunking) come from the
        checkpoint itself.  Every failure mode — unreadable artifact,
        missing or incompatible harness state — raises
        :class:`SnapshotError`, so recovery code catches exactly one
        type.
        """
        system, extra, _meta = load_system(path, verify=verify)
        if extra is None:
            raise SnapshotError(f"snapshot at {path} holds no harness state")
        try:
            chunk_size = extra["chunk_size"]
            runner = cls(
                system,
                stream,
                oracle_drift=bool(extra["oracle_drift"]),
                chunk_size=None if chunk_size is None else int(chunk_size),
                keep_history=keep_history,
                checkpoint_path=checkpoint_path if checkpoint_path is not None else path,
                checkpoint_every=checkpoint_every,
                keep_checkpoints=keep_checkpoints,
                clock=clock,
                faults=faults,
                guard=guard,
            )
            runner._n_seen = int(extra["n_seen"])
            runner._runtime = float(extra["runtime"])
            runner._confusion.matrix[:] = np.asarray(
                extra["confusion"], dtype=np.int64
            )
            runner._concept_ids = np.asarray(
                extra["concept_ids"], dtype=np.int64
            ).tolist()
            runner._state_ids = np.asarray(
                extra["state_ids"], dtype=np.int64
            ).tolist()
            concept = extra["concept"]
            runner._concept = None if concept is None else int(concept)
            runner._exhausted = bool(extra["exhausted"])
            runner.n_dropped = int(extra.get("n_dropped", 0))
            runner._in_outage = bool(extra.get("in_outage", False))
            runner._last_checkpoint = runner._n_seen
            if "stream_iter" in extra:
                if not runner._resumable:
                    raise ValueError(
                        "checkpoint captured a stream position but this "
                        "stream is not resumable"
                    )
                runner._iter.load_state_dict(extra["stream_iter"])
            if guard is not None and "guard" in extra:
                guard.load_state_dict(extra["guard"])
        except DECODE_ERRORS as exc:
            raise SnapshotError(
                f"snapshot at {path} holds an incompatible harness "
                f"state: {exc}"
            ) from exc
        return runner

    @classmethod
    def restore_latest(
        cls,
        root: Union[str, Path],
        stream: Stream,
        *,
        keep_history: bool = True,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        keep_checkpoints: int = 1,
        verify: bool = True,
        clock: Optional[Callable[[], float]] = None,
        faults: Optional[FaultInjector] = None,
        guard: Optional[ObservationGuard] = None,
        audit: AuditLog = NULL_AUDIT,
    ) -> "StreamRunner":
        """Restore from the newest *verifiable* checkpoint under ``root``.

        Walks the retained chain newest-first; every candidate that
        fails (:class:`SnapshotError` — truncated payload, digest
        mismatch, wrong schema version, undecodable state) is audited
        as a ``snapshot_fallback`` and skipped.  Resuming from an
        older chain entry replays the stream from an earlier position,
        so the finished traces stay bit-for-bit identical to an
        uninterrupted run.  Raises :class:`SnapshotError` when no
        candidate verifies.
        """
        root = Path(root)
        candidates = checkpoint_chain(root)
        if not candidates:
            raise SnapshotError(f"no checkpoint candidates under {root}")
        errors: List[str] = []
        for candidate in candidates:
            if faults is not None and faults.fire(
                "snapshot.load", label=str(candidate)
            ):
                errors.append(f"{candidate.name}: injected load rejection")
                audit.log(
                    "snapshot_fallback",
                    -1,
                    path=str(candidate),
                    error="injected load rejection",
                )
                continue
            try:
                runner = cls.restore(
                    candidate,
                    stream,
                    keep_history=keep_history,
                    checkpoint_path=(
                        checkpoint_path if checkpoint_path is not None else root
                    ),
                    checkpoint_every=checkpoint_every,
                    keep_checkpoints=keep_checkpoints,
                    verify=verify,
                    clock=clock,
                    faults=faults,
                    guard=guard,
                )
            except SnapshotError as exc:
                errors.append(f"{candidate.name}: {exc}")
                audit.log(
                    "snapshot_fallback",
                    -1,
                    path=str(candidate),
                    error=str(exc),
                )
                continue
            if errors:
                metrics = getattr(runner.system, "metrics", NULL_COLLECTOR)
                metrics.inc("snapshot.fallbacks", len(errors))
            return runner
        raise SnapshotError(
            f"no verifiable checkpoint under {root}: " + "; ".join(errors)
        )


__all__ = ["StreamRunner", "checkpoint_chain", "CHAIN_PREFIX"]
