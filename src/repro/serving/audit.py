"""Append-only JSONL audit log of adaptive-system lifecycle events.

Every consequential state transition — drift detections, concept
transitions, repository evictions, checkpoints — appends one JSON
object per line to a plain-text file, giving a durable, replayable
record of *why* the system is in the state a snapshot captures.  Lines
carry a monotone ``seq`` so gaps from a crash are detectable, plus the
framework step at which the event fired.

Like metrics, the default wiring is :data:`NULL_AUDIT`, whose
:meth:`AuditLog.log` is a no-op, so un-instrumented runs pay one
attribute read per event site.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union


class AuditLog:
    """Append-only JSONL event log."""

    enabled = True

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._seq = 0
        # Continue the sequence when appending to an existing log.
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        self._seq += 1

    @property
    def seq(self) -> int:
        """Number of events written so far (the next line's ``seq``)."""
        return self._seq

    def log(self, event: str, step: int, **fields: Any) -> None:
        """Append one event line (flushed immediately for durability)."""
        record: Dict[str, Any] = {"seq": self._seq, "event": event, "step": step}
        record.update(fields)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._seq += 1

    def __repr__(self) -> str:
        return f"AuditLog(path={str(self.path)!r}, seq={self._seq})"


class NullAuditLog(AuditLog):
    """The default no-op audit log."""

    enabled = False

    def __init__(self) -> None:
        self.path = None  # type: ignore[assignment]
        self._seq = 0

    def log(self, event: str, step: int, **fields: Any) -> None:
        return None


#: Process-wide disabled audit log — the default wiring everywhere.
NULL_AUDIT = NullAuditLog()


def read_audit_log(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL audit log into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


__all__ = ["AuditLog", "NullAuditLog", "NULL_AUDIT", "read_audit_log"]
