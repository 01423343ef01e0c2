"""Declarative fault plans and the seeded injector that fires them.

A :class:`FaultPlan` is data — a seed plus a tuple of
:class:`FaultSpec` — and round-trips through plain dicts so the engine
can ship it to pool workers.  A :class:`FaultInjector` is the runtime
object: it owns a seeded ``np.random.Generator`` (probabilistic specs),
per-spec fire counters and the chronological record of every fault it
fired, so two runs armed with the same plan inject identically.

Every fired fault is counted in the injector's
:class:`~repro.serving.metrics.StatsCollector` and logged to its
:class:`~repro.serving.audit.AuditLog`; both default to the no-op
sinks.

Determinism contract: firing decisions depend only on the plan
(seed + specs) and the deterministic call context (site, step, label,
attempt) — never on wall time, process ids or worker scheduling.
Engine-site specs therefore match on the cell's *context* (label
substring, attempt ordinal) rather than on RNG draws, so a retried
cell sees the same verdicts regardless of which worker re-runs it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.serving.audit import AuditLog, NULL_AUDIT
from repro.serving.metrics import NULL_COLLECTOR, StatsCollector

#: Every named injection point in the runtime.  Call sites pass one of
#: these literals to :meth:`FaultInjector.fire`; the RPR006 lint rule
#: rejects ad-hoc site strings.
INJECTION_SITES = (
    "engine.cell",  # worker entry: crash or hang before the cell runs
    "snapshot.save",  # after a checkpoint lands: corrupt it on disk
    "snapshot.load",  # before a restore: reject the candidate snapshot
    "stream.observation",  # mutate x before the system sees it
    "stream.stall",  # pause the harness loop at an observation index
    "stream.labels",  # label outage window (labels stop arriving)
)

#: Fault kind -> the site it fires at.
FAULT_KINDS: Dict[str, str] = {
    "worker_crash": "engine.cell",
    "hung_cell": "engine.cell",
    "snapshot_corrupt": "snapshot.save",
    "snapshot_reject": "snapshot.load",
    "bad_observation": "stream.observation",
    "stream_stall": "stream.stall",
    "label_outage": "stream.labels",
}

#: Corruption modes for ``snapshot_corrupt`` / :func:`corrupt_snapshot`.
CORRUPTION_MODES = ("truncate", "tamper", "version", "unmanifest")

#: Observation mutation modes for ``bad_observation``.
OBSERVATION_MODES = ("nan", "inf", "wrong_dim")


class InjectedFault(RuntimeError):
    """Raised by injected worker crashes (never by real code paths)."""


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Per-opportunity firing probability (rolled on the injector's
        seeded RNG); ``1.0`` fires deterministically.
    max_fires:
        Stop firing after this many fires (``None`` = unbounded,
        except ``stream_stall`` which defaults to one fire so a
        resumed run passes the stall point).
    match:
        Substring the call context's ``label`` must contain (cell
        labels at ``engine.cell``, snapshot paths at snapshot sites).
    window:
        ``(start, stop)`` half-open step range the fault is confined
        to; required for ``label_outage``.  At the ``stream.*`` sites
        the step is the observation's stream index, which counts
        dropped observations, so a window drops at most
        ``stop - start`` of them.
    at_step:
        Exact step to fire at; required for ``stream_stall``, which
        pauses the run before the observation at that stream index is
        pulled.
    attempts:
        ``engine.cell`` kinds only: fire while the cell's attempt
        ordinal is below this (``None`` = every attempt, i.e. a
        permanent fault).
    mode:
        ``bad_observation``: one of :data:`OBSERVATION_MODES`
        (default ``nan``); ``snapshot_corrupt``: one of
        :data:`CORRUPTION_MODES` (default ``truncate``).
    duration:
        ``hung_cell`` only: seconds the worker sleeps.
    """

    kind: str
    probability: float = 1.0
    max_fires: Optional[int] = None
    match: Optional[str] = None
    window: Optional[Tuple[int, int]] = None
    at_step: Optional[int] = None
    attempts: Optional[int] = None
    mode: Optional[str] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.kind == "stream_stall":
            if self.at_step is None:
                raise ValueError("stream_stall requires at_step")
            if self.max_fires is None:
                object.__setattr__(self, "max_fires", 1)
        if self.kind == "label_outage" and self.window is None:
            raise ValueError("label_outage requires a (start, stop) window")
        if self.window is not None:
            start, stop = self.window
            object.__setattr__(self, "window", (int(start), int(stop)))
            if int(stop) <= int(start):
                raise ValueError(f"empty fault window {self.window}")
        if self.kind == "bad_observation":
            mode = self.mode or "nan"
            if mode not in OBSERVATION_MODES:
                raise ValueError(
                    f"bad_observation mode {mode!r} not in {OBSERVATION_MODES}"
                )
            object.__setattr__(self, "mode", mode)
        if self.kind == "snapshot_corrupt":
            mode = self.mode or "truncate"
            if mode not in CORRUPTION_MODES:
                raise ValueError(
                    f"snapshot_corrupt mode {mode!r} not in {CORRUPTION_MODES}"
                )
            object.__setattr__(self, "mode", mode)

    @property
    def site(self) -> str:
        return FAULT_KINDS[self.kind]

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        if payload["window"] is not None:
            payload["window"] = list(payload["window"])
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec fields {sorted(unknown)}")
        kwargs = dict(payload)
        if kwargs.get("window") is not None:
            kwargs["window"] = tuple(kwargs["window"])
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the declarative fault specs it drives."""

    seed: int
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": int(self.seed),
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(payload["seed"]),
            specs=tuple(
                FaultSpec.from_dict(s) for s in payload.get("specs", ())
            ),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "FaultPlan":
        with Path(path).open("r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _scoped_seed(seed: int, scope: str) -> int:
    """A stable per-scope seed (cell key, runner id) from the plan seed."""
    if not scope:
        return int(seed)
    digest = hashlib.sha256(f"{seed}:{scope}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class FaultInjector:
    """Fires a :class:`FaultPlan`'s specs deterministically.

    One injector per execution scope: the engine builds one per cell
    (``scope=cell.key()``) inside the worker, a standalone
    :class:`~repro.serving.runner.StreamRunner` uses one for the whole
    run.  ``fired`` is the chronological record of every fired fault —
    the object chaos tests compare across runs.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        scope: str = "",
        metrics: StatsCollector = NULL_COLLECTOR,
        audit: AuditLog = NULL_AUDIT,
    ) -> None:
        self.plan = plan
        self.scope = scope
        self.metrics = metrics
        self.audit = audit
        self._rng = np.random.default_rng(_scoped_seed(plan.seed, scope))
        self._fire_counts = [0] * len(plan.specs)
        #: Chronological record of fired faults (plain dicts).
        self.fired: List[Dict[str, Any]] = []

    def attach_observability(
        self,
        metrics: Optional[StatsCollector] = None,
        audit: Optional[AuditLog] = None,
    ) -> None:
        if metrics is not None:
            self.metrics = metrics
        if audit is not None:
            self.audit = audit

    @property
    def n_fired(self) -> int:
        return len(self.fired)

    # ------------------------------------------------------------------
    def fire(
        self,
        site: str,
        *,
        step: int = -1,
        label: str = "",
        attempt: Optional[int] = None,
    ) -> List[FaultSpec]:
        """All specs that fire at ``site`` under this call context.

        Each returned spec has been counted, recorded and logged; the
        caller is responsible for *acting* on it (raising, sleeping,
        corrupting).  Sites the plan never targets return ``[]``.
        """
        if site not in INJECTION_SITES:
            raise ValueError(
                f"unknown injection site {site!r}; "
                f"expected one of {INJECTION_SITES}"
            )
        matched: List[FaultSpec] = []
        for i, spec in enumerate(self.plan.specs):
            if spec.site != site:
                continue
            if not self._eligible(spec, i, step, label, attempt):
                continue
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                continue
            self._record(spec, i, site, step, label, attempt)
            matched.append(spec)
        return matched

    def _eligible(
        self,
        spec: FaultSpec,
        index: int,
        step: int,
        label: str,
        attempt: Optional[int],
    ) -> bool:
        if spec.max_fires is not None and self._fire_counts[index] >= spec.max_fires:
            return False
        if spec.match is not None and spec.match not in label:
            return False
        if spec.at_step is not None and step != spec.at_step:
            return False
        if spec.window is not None and not (
            spec.window[0] <= step < spec.window[1]
        ):
            return False
        if spec.attempts is not None:
            if attempt is None or attempt >= spec.attempts:
                return False
        return True

    def _record(
        self,
        spec: FaultSpec,
        index: int,
        site: str,
        step: int,
        label: str,
        attempt: Optional[int],
    ) -> None:
        self._fire_counts[index] += 1
        record: Dict[str, Any] = {
            "kind": spec.kind,
            "site": site,
            "step": int(step),
            "label": label,
        }
        if attempt is not None:
            record["attempt"] = int(attempt)
        if spec.mode is not None:
            record["mode"] = spec.mode
        self.fired.append(record)
        self.metrics.inc("faults.fired")
        self.metrics.inc(f"faults.{spec.kind}")
        self.audit.log("fault_injected", int(step), **{
            k: v for k, v in record.items() if k != "step"
        })

    # ------------------------------------------------------------------
    # Site-specific conveniences
    # ------------------------------------------------------------------
    def label_missing(self, step: int) -> bool:
        """Is ``step`` inside a label-outage window?

        Pure window lookup — per-observation outage membership is not
        recorded as an individual fired fault (the enclosing runner
        audits the outage transitions instead).
        """
        for spec in self.plan.specs:
            if spec.kind != "label_outage":
                continue
            assert spec.window is not None  # enforced at spec build
            if spec.window[0] <= step < spec.window[1]:
                return True
        return False

    def mutate_observation(self, x: np.ndarray, step: int) -> np.ndarray:
        """Apply any firing ``bad_observation`` spec to ``x``."""
        specs = self.fire("stream.observation", step=step)
        for spec in specs:
            if spec.mode == "nan":
                x = x.copy()
                x[0] = np.nan
            elif spec.mode == "inf":
                x = x.copy()
                x[0] = np.inf
            else:  # wrong_dim
                x = np.append(x, 0.0)
        return x


def corrupt_snapshot(path: Union[str, Path], mode: str = "truncate") -> None:
    """Deterministically damage a snapshot directory.

    Shared by the ``snapshot_corrupt`` fault and the recovery tests:

    * ``truncate`` — cut ``arrays.npz`` to half its size (manifest
      digest mismatch + undecodable payload),
    * ``tamper`` — flip one payload byte (digest mismatch only),
    * ``version`` — rewrite the manifest with an unsupported
      ``schema_version``,
    * ``unmanifest`` — delete the manifest (snapshot looks
      incompletely written).
    """
    if mode not in CORRUPTION_MODES:
        raise ValueError(f"unknown corruption mode {mode!r}")
    path = Path(path)
    from repro.serving.manifest import MANIFEST_NAME

    if mode == "unmanifest":
        (path / MANIFEST_NAME).unlink()
        return
    if mode == "version":
        manifest_path = path / MANIFEST_NAME
        with manifest_path.open("r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["schema_version"] = -1
        with manifest_path.open("w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        return
    target = path / "arrays.npz"
    blob = target.read_bytes()
    if mode == "truncate":
        target.write_bytes(blob[: max(1, len(blob) // 2)])
    else:  # tamper
        flipped = bytearray(blob)
        flipped[len(flipped) // 2] ^= 0xFF
        target.write_bytes(bytes(flipped))


__all__ = [
    "INJECTION_SITES",
    "FAULT_KINDS",
    "CORRUPTION_MODES",
    "OBSERVATION_MODES",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "corrupt_snapshot",
]
