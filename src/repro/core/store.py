"""Big-R repository scaling: ANN prefilter and warm/cold concept tiering.

Exact selection stacks the window's fingerprint under every stored
concept and walks the acceptance gates lazily down the descending-
similarity order (:meth:`repro.core.ficsum.Ficsum._select_from_fingerprints`)
— fine at the paper's R≈40, hopeless at a million stored concepts,
because the per-candidate stacking grows with R.  This module provides
the two scaling layers that sit around that exact machinery without
ever replacing it:

* :class:`ProjectionPrefilter` — a seed-deterministic random-projection
  sketch over raw fingerprint means (the candidates' rows of the
  repository's fingerprint matrix, one product) that shortlists top-k
  candidates for the exact rerank.  Approximate by construction, so it
  declares its measured recall bound and the exact path it stands in
  for (lint rule RPR008).  It cuts the candidate list only when
  ``FicsumConfig.ann_prefilter`` is on with ``ann_exact=False``; with
  the default ``ann_exact=True`` every candidate reaches the same walk
  as without the prefilter, so selection stays bit-for-bit exact and
  the sketches serve only to pick cold concepts to rehydrate.
* :class:`TieredConceptStore` — hot/warm/cold tiering for evicted
  concepts: the repository's ``on_evict`` payload hook serializes each
  victim into an on-disk, sha256-manifest-verified artifact directory
  (the ``repro.serving`` snapshot codec), a warm in-memory index keeps
  each cold concept's fingerprint means addressable for sketch scoring,
  and cold states are transparently rehydrated back into the repository
  when they make a selection shortlist.

Both layers are deterministic: projections derive from the run seed,
and the store's warm index checkpoints via the usual
``state_dict``/``load_state_dict`` contract so resumed runs keep
scoring the same cold candidates.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.repository import ConceptState
from repro.core.similarity import weighted_cosine_many
from repro.serving.snapshot import DECODE_ERRORS, SnapshotError, read_state, write_state

#: Fixed offset folded into the run seed so prefilter projections are
#: decorrelated from every other seeded component of the system.
_PROJECTION_SEED = 9_182_736


class ProjectionPrefilter:
    """Random-projection shortlist over raw concept-fingerprint means.

    Candidates' mean rows are sketched by ``k`` fixed ±1/√D projection
    vectors (seed-deterministic, the same family the sketch-mode
    meta-features use) in one product; a selection query is sketched
    once and candidates are ranked by cosine similarity *in sketch
    space*, which preserves the relative ordering of the exact
    weighted-cosine rerank well enough that the true argmax lands in a
    small shortlist with high probability.  A shortlist costs one
    O(R·D·k) product and one O(R·k) scoring pass — no per-candidate
    extraction.
    """

    #: This is a shortlist path: results are approximate unless the
    #: framework runs it in provable-exactness mode (RPR008 contract).
    approximate = True
    recall_bound = (
        "top-1-by-exact-similarity candidate appears in a k=16 shortlist "
        "on >= 90% of clustered populations (measured ~1.0; pinned by "
        "tests/test_repository_scale.py and bench_repository_scale)"
    )
    exact_reference = (
        "ann_prefilter=False full scan (every candidate stacked, gates "
        "walked in descending-similarity order); ann_exact=True runs "
        "that same walk with this shortlist bypassed"
    )

    def __init__(
        self, n_dims: int, n_projections: int = 16, seed: int = 0
    ) -> None:
        if n_dims <= 0:
            raise ValueError(f"n_dims must be positive, got {n_dims}")
        if n_projections <= 0:
            raise ValueError(
                f"n_projections must be positive, got {n_projections}"
            )
        self.n_dims = n_dims
        self.n_projections = n_projections
        self.seed = seed
        rng = np.random.default_rng(_PROJECTION_SEED + seed)
        signs = rng.integers(0, 2, size=(n_projections, n_dims))
        #: ``(k, D)`` ±1/√D projection matrix, fixed for the run.
        self.vectors = (2.0 * signs - 1.0) / np.sqrt(n_dims)

    # -- sketching -----------------------------------------------------
    def sketch(self, vector: np.ndarray) -> np.ndarray:
        """Project one raw ``(D,)`` vector into ``(k,)`` sketch space."""
        return self.vectors @ vector

    def sketch_rows(self, matrix: np.ndarray) -> np.ndarray:
        """Project ``(n, D)`` rows into ``(n, k)`` sketch space.

        A contraction in numpy's own loop, not a BLAS product: at 10k
        rows a BLAS product wakes the library's worker threads, whose
        busy-waiting slowed the rest of each selection event 1.5-2x on
        a 2-vCPU machine.
        """
        return np.einsum("nd,kd->nk", matrix, self.vectors)

    def scores(self, sketches: np.ndarray, query_sketch: np.ndarray) -> np.ndarray:
        """Cosine of every sketch row against the query sketch."""
        return weighted_cosine_many(sketches, query_sketch)

    # -- the shortlist -------------------------------------------------
    def shortlist(
        self, means: np.ndarray, query: np.ndarray, k: int
    ) -> List[int]:
        """Indices of the top-``k`` sketch-similar rows of ``means``.

        ``means`` holds the candidates' ``(n, D)`` fingerprint means in
        repository order; the indices come back ascending so the
        downstream exact rerank sees candidates in repository insertion
        order — the same tie-breaking order the full scan uses.
        """
        if k >= len(means):
            return list(range(len(means)))
        scored = self.scores(self.sketch_rows(means), self.sketch(query))
        top = np.argpartition(-scored, k - 1)[:k]
        return sorted(int(i) for i in top)


class TieredConceptStore:
    """Warm/cold tier for evicted concept states.

    Cold tier: every evicted state's full serialized payload written as
    a manifest-verified snapshot directory under ``root`` (atomic
    write, sha256 per file), so eviction archives concepts instead of
    destroying them.  Warm tier: an in-memory index of each cold
    concept's fingerprint means, cheap enough to sketch-score alongside
    the hot repository on every selection; a cold concept whose sketch
    makes the shortlist is rehydrated through
    :meth:`ConceptState.from_state_dict` and re-admitted.

    Corruption is loud by design: a missing or tampered artifact
    surfaces as :class:`~repro.serving.manifest.SnapshotError` at
    rehydration time, never as a silently absent concept.
    """

    def __init__(
        self,
        root: Path,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        # state_id -> fingerprint means of the archived payload.
        self._warm: Dict[int, np.ndarray] = {}
        self.writes = 0
        self.rehydrated = 0

    def path_of(self, state_id: int) -> Path:
        """Cold-artifact directory for one state id."""
        return self.root / f"state-{int(state_id):08d}"

    # -- cold writes ---------------------------------------------------
    def store(
        self, state_id: int, payload: Dict[str, Any], *, step: int = 0
    ) -> Path:
        """Archive one evicted state's serialized payload."""
        means = np.asarray(
            payload["fingerprint"]["means"], dtype=np.float64
        ).copy()
        path = write_state(
            self.path_of(state_id),
            payload,
            meta={
                "artifact": "concept_state",
                "state_id": int(state_id),
                "evicted_at_step": int(step),
            },
            clock=self._clock,
        )
        self._warm[int(state_id)] = means
        self.writes += 1
        return path

    # -- warm index ----------------------------------------------------
    def warm_entries(self) -> Tuple[List[int], np.ndarray]:
        """``(ids, means)`` of every archived concept, id order."""
        ids = sorted(self._warm)
        if not ids:
            return ids, np.empty((0, 0))
        return ids, np.array([self._warm[sid] for sid in ids])

    def forget(self, state_id: int) -> None:
        """Remove a state from the warm index (after rehydration).

        The cold artifact stays on disk — it is simply stale, and the
        next eviction of the same state overwrites it atomically.
        """
        self._warm.pop(int(state_id), None)

    # -- rehydration ---------------------------------------------------
    def load(self, state_id: int) -> ConceptState:
        """Rebuild one archived concept from its cold artifact.

        Raises :class:`~repro.serving.manifest.SnapshotError` when the
        artifact is missing, fails manifest verification or does not
        decode: tier corruption must surface, not silently shrink the
        repertoire.
        """
        state, _meta = read_state(self.path_of(state_id))
        try:
            return ConceptState.from_state_dict(state)
        except DECODE_ERRORS as exc:
            raise SnapshotError(
                f"undecodable cold artifact of state {state_id}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def __len__(self) -> int:
        return len(self._warm)

    def __contains__(self, state_id: int) -> bool:
        return int(state_id) in self._warm

    # -- checkpointing --------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Warm index + counters (cold artifacts live on disk)."""
        ids, means = self.warm_entries()
        return {
            "ids": np.asarray(ids, dtype=np.int64),
            "means": means,
            "writes": self.writes,
            "rehydrated": self.rehydrated,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        ids = np.asarray(state["ids"], dtype=np.int64)
        means = np.asarray(state["means"], dtype=np.float64)
        self._warm = {int(sid): means[i].copy() for i, sid in enumerate(ids)}
        self.writes = int(state["writes"])
        self.rehydrated = int(state["rehydrated"])

    def __repr__(self) -> str:
        return (
            f"TieredConceptStore(root={str(self.root)!r}, "
            f"cold={len(self._warm)}, writes={self.writes}, "
            f"rehydrated={self.rehydrated})"
        )
