"""The concept repository: stored concept states and similarity records.

Each stored concept keeps

* its **concept fingerprint** (self-behaviour while active),
* its **non-active fingerprint** — the behaviour of its classifier on
  windows of *other* concepts, which feeds the intra-classifier Fisher
  weight,
* its **classifier**,
* its **similarity record**: the running mean/std of
  ``Sim(F_c, F_B)`` seen under stationary conditions, which is the
  acceptance gate for model selection, and
* a small retained sample of fingerprint pairs with their recorded
  similarity so that — as the normalisation and dynamic weights evolve
  — stale records can be re-expressed in the current scheme
  (Section IV of the paper).

The repository owns the statistics of every stored concept: its
:class:`FingerprintMatrix` holds both fingerprints of every stored
state as ``(R, D)`` arrays, and each state's fingerprints are views of
its row, so model selection and the dynamic weights score all stored
concepts with batched kernels over the one copy.  :meth:`Repository.bank`
builds a :class:`~repro.classifiers.bank.ClassifierBank` of the stored
Hoeffding trees on every call, which routes the active window through
every tree's own node tables and leaf blocks in one pass.

The repository is bounded: inserting a state past ``max_size`` evicts
the least recently active state that is not protected.  An evicted
state is destroyed; :attr:`Repository.evicted_dropped` counts it, and
the :attr:`Repository.on_evict` hook sees it first, which is where the
framework's observability counts and audits it.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.classifiers.bank import ClassifierBank
from repro.classifiers.base import Classifier
from repro.core.fingerprint import ConceptFingerprint
from repro.utils.stats import EwmaStats

class RepositoryFullError(RuntimeError):
    """Raised when eviction is required but every state is protected."""


def rescale_record(
    mu: float,
    sigma: float,
    sims: np.ndarray,
    old_sims: np.ndarray,
    univariate: bool,
) -> Tuple[float, float]:
    """Move a recorded (mu, sigma) by re-scored retained pairs.

    The one reduction behind every record re-expression (Section IV) —
    the framework's batched path and the plain per-pair loop of the
    test reference both call it, so the clip bounds and fallbacks
    cannot drift apart.  ``sims`` are the retained pairs'
    similarities under the *current* scheme, ``old_sims`` the values
    recorded when the pairs were written (aligned, logical order).
    Bounded (cosine) similarities shift additively under a weighting
    change, so the record moves by the mean difference; the unbounded
    univariate (ER) similarity scales multiplicatively, so it moves by
    the mean ratio (clipped for safety).
    """
    if univariate:
        keep = np.abs(old_sims) >= 1e-12
        if not keep.any():
            return mu, sigma
        ratio = float(np.clip(np.mean(sims[keep] / old_sims[keep]), 0.2, 5.0))
        if not np.isfinite(ratio):
            return mu, sigma
        return mu * ratio, sigma * ratio
    delta = float(np.clip(np.mean(sims - old_sims), -0.5, 0.5))
    if not np.isfinite(delta):
        return mu, sigma
    return mu + delta, sigma


class SimPairRecord:
    """Fixed-capacity ring of retained ``(F_c, F_B, sim)`` observations.

    Replaces the per-state ``deque`` of tuples with three preallocated
    arrays so that re-expressing stale similarity records under the
    current weighting (Section IV) can batch over all retained pairs of
    all candidates in one kernel call.  :meth:`views` returns the pairs
    in logical (oldest-first) order — exactly the iteration order the
    deque exposed — so order-sensitive reductions stay bit-identical.
    """

    __slots__ = ("capacity", "n_dims", "a", "b", "sims", "count", "_next")

    def __init__(self, capacity: int, n_dims: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.n_dims = n_dims
        # Zeroed, not empty: state_dict saves every row, written or not.
        self.a = np.zeros((capacity, n_dims))
        self.b = np.zeros((capacity, n_dims))
        self.sims = np.zeros(capacity)
        self.count = 0
        self._next = 0

    def append(self, a: np.ndarray, b: np.ndarray, sim: float) -> None:
        if self.capacity == 0:
            return
        i = self._next
        self.a[i] = a
        self.b[i] = b
        self.sims[i] = sim
        self._next = (i + 1) % self.capacity
        self.count = min(self.count + 1, self.capacity)

    def views(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(A, B, sims)`` in logical oldest-first order."""
        if self.count < self.capacity or self._next == 0:
            return self.a[: self.count], self.b[: self.count], self.sims[: self.count]
        idx = np.concatenate(
            [np.arange(self._next, self.capacity), np.arange(self._next)]
        )
        return self.a[idx], self.b[idx], self.sims[idx]

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        """Tuples in logical order (the legacy deque's iteration view)."""
        A, B, sims = self.views()
        for i in range(self.count):
            yield A[i], B[i], float(sims[i])

    def state_dict(self) -> Dict[str, Any]:
        return {
            "a": self.a.copy(),
            "b": self.b.copy(),
            "sims": self.sims.copy(),
            "count": self.count,
            "next": self._next,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        a = np.asarray(state["a"], dtype=np.float64)
        if a.shape != (self.capacity, self.n_dims):
            raise ValueError(
                f"record state has shape {a.shape}, expected "
                f"({self.capacity}, {self.n_dims})"
            )
        self.a = a.copy()
        self.b = np.asarray(state["b"], dtype=np.float64).copy()
        self.sims = np.asarray(state["sims"], dtype=np.float64).copy()
        self.count = int(state["count"])
        self._next = int(state["next"])


class ConceptState:
    """Everything stored for one concept."""

    def __init__(
        self,
        state_id: int,
        n_dims: int,
        classifier: Classifier,
        sim_record_samples: int = 4,
        sim_record_decay: float = 0.05,
    ) -> None:
        self.state_id = state_id
        self.sim_record_decay = sim_record_decay
        self.classifier = classifier
        self.fingerprint = ConceptFingerprint(n_dims)
        self.nonactive = ConceptFingerprint(n_dims)
        self.sim_stats = EwmaStats(alpha=sim_record_decay)
        # Normal window error rate of this concept's classifier while
        # active: the recurrence gate checks fresh windows against it
        # (the error rate is itself one of the fingerprint's supervised
        # meta-information features).
        self.error_stats = EwmaStats(alpha=sim_record_decay)
        # Most recent fingerprint pairs with their recorded similarity:
        # re-evaluating them under the current weighting scheme measures
        # how the scheme has shifted since the record was written.
        self.sim_pairs = SimPairRecord(sim_record_samples, n_dims)
        self.last_active_step = 0

    def record_similarity(
        self, concept_means: np.ndarray, window_fp: np.ndarray, sim: float
    ) -> None:
        """Log one stationary similarity observation and its pair."""
        self.sim_stats.update(sim)
        self.sim_pairs.append(concept_means, window_fp, sim)

    def reset_similarity_record(self) -> None:
        self.sim_stats = EwmaStats(alpha=self.sim_record_decay)

    def state_dict(self) -> Dict[str, Any]:
        """Complete serialized form of the stored concept.

        The classifier is opaque (arbitrary learner internals), so it
        travels as a pickle blob; everything else is arrays / scalars.
        """
        return {
            "state_id": self.state_id,
            "sim_record_decay": self.sim_record_decay,
            "classifier": pickle.dumps(self.classifier),
            "fingerprint": self.fingerprint.state_dict(),
            "nonactive": self.nonactive.state_dict(),
            "sim_stats": self.sim_stats.state_dict(),
            "error_stats": self.error_stats.state_dict(),
            "sim_pairs": self.sim_pairs.state_dict(),
            "last_active_step": self.last_active_step,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.state_id = int(state["state_id"])
        self.sim_record_decay = float(state["sim_record_decay"])
        self.classifier = pickle.loads(state["classifier"])
        self.fingerprint.load_state_dict(state["fingerprint"])
        self.nonactive.load_state_dict(state["nonactive"])
        self.sim_stats.load_state_dict(state["sim_stats"])
        self.error_stats.load_state_dict(state["error_stats"])
        self.sim_pairs.load_state_dict(state["sim_pairs"])
        self.last_active_step = int(state["last_active_step"])

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any]) -> "ConceptState":
        """Reconstruct a stored concept from its serialized form."""
        n_dims = len(np.asarray(state["fingerprint"]["counts"]))
        capacity = np.asarray(state["sim_pairs"]["a"]).shape[0]
        concept = cls(
            int(state["state_id"]),
            n_dims,
            classifier=None,  # type: ignore[arg-type]  # replaced by load
            sim_record_samples=capacity,
            sim_record_decay=float(state["sim_record_decay"]),
        )
        concept.load_state_dict(state)
        return concept

    def __repr__(self) -> str:
        return (
            f"ConceptState(id={self.state_id}, "
            f"fp_count={self.fingerprint.count}, "
            f"sim_n={self.sim_stats.count})"
        )


class FingerprintMatrix:
    """The ``(R, D)`` storage of every stored concept's fingerprint statistics.

    Six arrays with one row per storage slot: the concept fingerprint's
    Welford triple (``fp_counts``, ``fp_means``, ``fp_m2``) and the
    non-active fingerprint's (``na_counts``, ``na_means``, ``na_m2``).
    A stored state's two :class:`ConceptFingerprint` objects are views
    of its row, so every update lands here and nothing is synced.  A
    row does not move while its state is stored; removal hands the
    state a copy of its row and frees the slot.  Growing the arrays is
    the only step that re-points the views.

    :attr:`rows` holds the stored states' rows in repository order, so
    indexing an array with it (or with :meth:`rows_of`) gathers the
    rows in the order the per-state loops iterate in.
    """

    _INITIAL_CAPACITY = 8
    _ARRAYS = ("fp_counts", "fp_means", "fp_m2", "na_counts", "na_means", "na_m2")

    def __init__(self, n_dims: int) -> None:
        self.n_dims = n_dims
        #: Stored state ids and their storage rows, repository order.
        self.state_ids: List[int] = []
        self.rows = np.empty(0, dtype=np.intp)
        self._row_of: Dict[int, int] = {}
        self._row_states: Dict[int, ConceptState] = {}
        self._free: List[int] = []
        for name in self._ARRAYS:
            dtype = np.int64 if name.endswith("counts") else np.float64
            setattr(self, name, np.zeros((0, n_dims), dtype=dtype))
        self._grow()

    def _grow(self) -> None:
        old = len(self.fp_counts)
        new = max(2 * old, self._INITIAL_CAPACITY)
        for name in self._ARRAYS:
            array = getattr(self, name)
            grown = np.zeros((new, self.n_dims), dtype=array.dtype)
            grown[:old] = array
            setattr(self, name, grown)
        # Lowest free row first.
        self._free.extend(range(new - 1, old - 1, -1))
        for row, state in self._row_states.items():
            self._point(state, row)

    def _point(self, state: ConceptState, row: int) -> None:
        """Make ``state``'s fingerprints views of storage row ``row``."""
        fp, na = state.fingerprint, state.nonactive
        fp.counts, fp.means, fp.m2 = (
            self.fp_counts[row], self.fp_means[row], self.fp_m2[row]
        )
        na.counts, na.means, na.m2 = (
            self.na_counts[row], self.na_means[row], self.na_m2[row]
        )

    # -- membership ----------------------------------------------------
    def add(self, state: ConceptState) -> None:
        """Move ``state``'s statistics into a free row."""
        if state.fingerprint.n_dims != self.n_dims:
            raise ValueError(
                f"state has {state.fingerprint.n_dims} dims, "
                f"matrix holds {self.n_dims}"
            )
        if not self._free:
            self._grow()
        row = self._free.pop()
        fp, na = state.fingerprint, state.nonactive
        self.fp_counts[row], self.fp_means[row], self.fp_m2[row] = (
            fp.counts, fp.means, fp.m2
        )
        self.na_counts[row], self.na_means[row], self.na_m2[row] = (
            na.counts, na.means, na.m2
        )
        self._point(state, row)
        self._row_of[state.state_id] = row
        self._row_states[row] = state
        self.state_ids.append(state.state_id)
        self.rows = np.append(self.rows, row)

    def remove(self, state_id: int) -> None:
        """Give the state a copy of its row and free the slot."""
        row = self._row_of.pop(state_id, None)
        if row is None:
            return
        state = self._row_states.pop(row)
        for fp in (state.fingerprint, state.nonactive):
            fp.counts, fp.means, fp.m2 = (
                fp.counts.copy(), fp.means.copy(), fp.m2.copy()
            )
        self.state_ids.remove(state_id)
        self.rows = self.rows[self.rows != row]
        self._free.append(row)

    def row_of(self, state_id: int) -> int:
        return self._row_of[state_id]

    def rows_of(self, states: Iterable[ConceptState]) -> List[int]:
        """Storage rows of ``states``, in the given order."""
        return [self._row_of[s.state_id] for s in states]

    def __len__(self) -> int:
        return len(self.state_ids)


class Repository:
    """Bounded store of concept states with LRU eviction."""

    def __init__(self, max_size: int = 40) -> None:
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.max_size = max_size
        self._states: Dict[int, ConceptState] = {}
        self._next_id = 0
        self._matrix: Optional[FingerprintMatrix] = None
        self._states_list: Optional[List[ConceptState]] = None
        #: Optional eviction hook, called with the victim just before
        #: it leaves (the framework's observability counts and audits
        #: it there).
        self.on_evict: Optional[Callable[[ConceptState], None]] = None
        #: Evictions so far.  An evicted state is destroyed, so the
        #: count is the repository's concept loss; it is checkpointed
        #: and the same with or without a hook.
        self.evicted_dropped = 0

    def new_state(
        self,
        n_dims: int,
        classifier: Classifier,
        step: int,
        sim_record_samples: int = 4,
        sim_record_decay: float = 0.05,
        protect: Iterable[int] = (),
    ) -> ConceptState:
        """Create, store and return a fresh concept state.

        ``protect`` lists additional state ids that must survive any
        eviction this insertion triggers (the framework passes the
        currently active concept); the new state is always protected.
        """
        state = ConceptState(
            self._next_id, n_dims, classifier, sim_record_samples,
            sim_record_decay,
        )
        state.last_active_step = step
        self._store(state)
        self._next_id += 1
        self._evict_if_needed(protect={state.state_id, *protect})
        return state

    def _store(self, state: ConceptState) -> None:
        """Insert ``state`` and move its statistics into the storage.

        The storage takes the first state's dimensionality and refuses
        any other, before anything else changes.
        """
        if self._matrix is None:
            self._matrix = FingerprintMatrix(state.fingerprint.n_dims)
        self._matrix.add(state)
        self._states[state.state_id] = state
        self._states_list = None

    def _evict_if_needed(self, protect: set) -> None:
        while len(self._states) > self.max_size:
            evictable = [
                s for s in self._states.values() if s.state_id not in protect
            ]
            if not evictable:
                raise RepositoryFullError(
                    f"repository holds {len(self._states)} states "
                    f"(max_size={self.max_size}) but every state is "
                    f"protected ({sorted(protect)}); nothing can be evicted"
                )
            victim = min(evictable, key=lambda s: s.last_active_step)
            self.evicted_dropped += 1
            if self.on_evict is not None:
                self.on_evict(victim)
            self.remove(victim.state_id)

    def get(self, state_id: int) -> ConceptState:
        return self._states[state_id]

    def remove(self, state_id: int) -> None:
        self._states.pop(state_id, None)
        self._states_list = None
        if self._matrix is not None:
            self._matrix.remove(state_id)

    def states(self) -> List[ConceptState]:
        """All stored states (insertion order).

        The list is cached between membership changes so hot paths do
        not rebuild it per call; treat it as read-only.
        """
        if self._states_list is None:
            self._states_list = list(self._states.values())
        return self._states_list

    def matrix(self) -> FingerprintMatrix:
        """The ``(R, D)`` storage of every stored state's statistics.

        Created by the first insertion; an empty repository that never
        held a state has none.
        """
        if self._matrix is None:
            raise ValueError("an empty repository has no fingerprint matrix")
        return self._matrix

    def bank(self) -> ClassifierBank:
        """A classifier bank of the stored trees, keyed by state id.

        Built from the stored states on every call, so it holds exactly
        the trees stored now; the bank reads the trees' own arrays.
        Raises ``TypeError`` when a stored classifier is not a
        Hoeffding tree (:meth:`ClassifierBank.add` refuses it).
        """
        bank = ClassifierBank()
        for state in self.states():
            bank.add(state.state_id, state.classifier)
        return bank

    def __contains__(self, state_id: int) -> bool:
        return state_id in self._states

    def __len__(self) -> int:
        return len(self._states)

    # -- checkpointing --------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialized repository: stored states in insertion order.

        The :class:`FingerprintMatrix` is not serialized: each state's
        statistics travel in its own state dict, and loading re-inserts
        the states in the same order.
        """
        return {
            "max_size": self.max_size,
            "next_id": self._next_id,
            "evicted_dropped": self.evicted_dropped,
            "states": [s.state_dict() for s in self._states.values()],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.max_size = int(state["max_size"])
        self._next_id = int(state["next_id"])
        self.evicted_dropped = int(state["evicted_dropped"])
        self._states = {}
        self._matrix = None
        self._states_list = None
        for concept_state in state["states"]:
            self._store(ConceptState.from_state_dict(concept_state))
