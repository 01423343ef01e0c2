"""The repository's fingerprint matrix as the storage of every concept.

Hypothesis drives a :class:`Repository` through random sequences of
``new_state``, evictions (insertions past capacity), ``remove``,
incorporation into either fingerprint, ``reset_dims``, LRU touches and
a ``state_dict`` / ``load_state_dict`` round trip, at capacities 1–6
and fingerprints of 1 and 7 dimensions, with the matrix starting at 1,
2 or 8 rows so that growth re-points the views.  A plain Welford shadow
written here replays every update, and after each step the test
compares, as raw bytes:

* every stored concept's matrix rows and the state's own arrays (which
  must be views of those rows);
* the matrix rows gathered in repository order;
* ``make_weights`` in all four modes against the per-state loop of
  :func:`reference.reference_weights` over standalone copies of the
  shadow;
* every concept that has left the repository, which keeps the values
  it had when it left and shares no memory with the matrix.

Random draws honour ``REPRO_SEED`` (see :mod:`equivalence`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple
from unittest import mock

import numpy as np
from equivalence import SEED_OFFSET
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_weights

from repro.classifiers import MajorityClass
from repro.core.repository import ConceptState, FingerprintMatrix, Repository
from repro.core.weighting import make_weights
from repro.utils.stats import OnlineMinMax

OPS = (
    "new",
    "new",
    "new",
    "remove",
    "incorporate",
    "incorporate",
    "incorporate",
    "incorporate_nonactive",
    "reset_dims",
    "touch",
    "reload",
)
MODES = ("full", "sigma", "fisher", "none")
#: Two directions incorporated vectors cluster around, so stored
#: concepts share ranges and near-duplicate rows.
CENTERS = {
    n: np.stack([np.linspace(1.0, 2.0, n), np.linspace(2.0, -1.0, n)])
    for n in (1, 7)
}
FIELDS = ("counts", "means", "m2")

#: (counts, means, m2) of one fingerprint.
Triple = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _fresh(n_dims: int) -> Triple:
    return (
        np.zeros(n_dims, dtype=np.int64),
        np.zeros(n_dims),
        np.zeros(n_dims),
    )


def _welford(triple: Triple, x: np.ndarray) -> None:
    counts, means, m2 = triple
    counts += 1
    delta = x - means
    means += delta / counts
    m2 += delta * (x - means)


class Shadow:
    """What the repository should hold, kept without it."""

    def __init__(self) -> None:
        self.order: List[int] = []
        self.fp: Dict[int, Triple] = {}
        self.na: Dict[int, Triple] = {}

    def leave(self, state_id: int) -> Tuple[Triple, Triple]:
        self.order.remove(state_id)
        return self.fp.pop(state_id), self.na.pop(state_id)


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _triple_of(fingerprint) -> Triple:
    return (fingerprint.counts, fingerprint.means, fingerprint.m2)


def _assert_triple(actual: Triple, expected: Triple) -> None:
    for a, e in zip(actual, expected):
        assert a.dtype == e.dtype
        assert _bits(a) == _bits(e)


def _standalone(state_id: int, shadow: Shadow, n_dims: int) -> ConceptState:
    state = ConceptState(state_id, n_dims, MajorityClass(2))
    for fp, block in ((state.fingerprint, shadow.fp), (state.nonactive, shadow.na)):
        fp.load_state_dict(dict(zip(FIELDS, block[state_id])))
    return state


def _check(
    repo: Repository,
    shadow: Shadow,
    left: List[Tuple[ConceptState, Triple, Triple]],
    normalizer: OnlineMinMax,
    n_dims: int,
) -> None:
    states = repo.states()
    assert [s.state_id for s in states] == shadow.order
    for state, fp, na in left:
        assert state.state_id not in repo
        _assert_triple(_triple_of(state.fingerprint), fp)
        _assert_triple(_triple_of(state.nonactive), na)
    if not states:
        return
    matrix = repo.matrix()
    assert matrix.state_ids == shadow.order
    for state in states:
        row = matrix.row_of(state.state_id)
        for fingerprint, prefix, triple in (
            (state.fingerprint, "fp_", shadow.fp[state.state_id]),
            (state.nonactive, "na_", shadow.na[state.state_id]),
        ):
            stored = tuple(getattr(matrix, prefix + f)[row] for f in FIELDS)
            _assert_triple(stored, triple)
            for view, f in zip(_triple_of(fingerprint), FIELDS):
                assert view.base is getattr(matrix, prefix + f)
                assert np.shares_memory(view, stored[FIELDS.index(f)])
    rows = matrix.rows
    for prefix, block in (("fp_", shadow.fp), ("na_", shadow.na)):
        for i, f in enumerate(FIELDS):
            expected = np.stack([block[sid][i] for sid in shadow.order])
            assert _bits(getattr(matrix, prefix + f)[rows]) == _bits(expected)
    storage = [getattr(matrix, p + f) for p in ("fp_", "na_") for f in FIELDS]
    for state, _, _ in left:
        for array in _triple_of(state.fingerprint) + _triple_of(state.nonactive):
            assert not any(np.shares_memory(array, s) for s in storage)
    plain = [_standalone(sid, shadow, n_dims) for sid in shadow.order]
    for i in (0, len(states) - 1):
        for mode in MODES:
            engine = make_weights(mode, states[i], states, normalizer, matrix)
            expected = reference_weights(mode, plain[i], plain, normalizer)
            assert _bits(engine) == _bits(expected), mode


@given(
    capacity=st.integers(1, 6),
    n_dims=st.sampled_from([1, 7]),
    initial_rows=st.sampled_from([1, 2, 8]),
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 2**31 - 1)),
        min_size=10,
        max_size=60,
    ),
)
@settings(max_examples=200, deadline=None)
def test_storage_matches_welford_shadow(capacity, n_dims, initial_rows, ops):
    with mock.patch.object(FingerprintMatrix, "_INITIAL_CAPACITY", initial_rows):
        _run_storage_ops(capacity, n_dims, ops)


def _run_storage_ops(capacity, n_dims, ops):
    shadow = Shadow()
    left: List[Tuple[ConceptState, Triple, Triple]] = []
    normalizer = OnlineMinMax(n_dims)
    normalizer.update(np.full(n_dims, -3.0))
    normalizer.update(np.full(n_dims, 3.0))
    repo = Repository(capacity)
    stored: Dict[int, ConceptState] = {}
    evicted: List[int] = []

    def on_evict(victim):
        # The victim is the stored state, as the shadow knows it.
        assert victim is stored[victim.state_id]
        _assert_triple(_triple_of(victim.fingerprint), shadow.fp[victim.state_id])
        _assert_triple(_triple_of(victim.nonactive), shadow.na[victim.state_id])
        evicted.append(victim.state_id)
        leaves(victim.state_id)

    def leaves(state_id):
        fp, na = shadow.leave(state_id)
        left.append((stored.pop(state_id), fp, na))

    repo.on_evict = on_evict
    step = 0
    for kind, seed in ops:
        rng = np.random.default_rng(seed + SEED_OFFSET)
        step += 1
        center = CENTERS[n_dims][int(rng.integers(2))]
        xs = 10.0 ** rng.integers(-3, 4) * (
            center + 0.05 * rng.normal(size=(int(rng.integers(1, 4)), n_dims))
        )
        ids = list(shadow.order)
        pick = ids[int(rng.integers(len(ids)))] if ids else None
        protect = (pick,) if pick is not None and capacity > 1 else ()
        if kind == "new":
            # Evictions run inside the insertion; the new state joins
            # the shadow after them, at the end of the order.
            state = repo.new_state(
                n_dims, MajorityClass(2), step=step, protect=protect
            )
            sid = state.state_id
            shadow.order.append(sid)
            shadow.fp[sid], shadow.na[sid] = _fresh(n_dims), _fresh(n_dims)
            stored[sid] = state
        elif kind == "remove" and pick is not None:
            repo.remove(pick)
            leaves(pick)
        elif kind == "incorporate" and pick is not None:
            for x in xs:
                stored[pick].fingerprint.incorporate(x)
                _welford(shadow.fp[pick], x)
                normalizer.update(x)
        elif kind == "incorporate_nonactive" and pick is not None:
            for x in xs:
                stored[pick].nonactive.incorporate(x)
                _welford(shadow.na[pick], x)
                normalizer.update(x)
        elif kind == "reset_dims" and pick is not None:
            mask = rng.random(n_dims) < 0.5
            stored[pick].fingerprint.reset_dims(mask)
            counts, _, m2 = shadow.fp[pick]
            counts[mask] = 0
            m2[mask] = 0.0
        elif kind == "touch" and pick is not None:
            stored[pick].last_active_step = step
        elif kind == "reload":
            payload = repo.state_dict()
            repo = Repository(capacity)
            repo.load_state_dict(payload)
            repo.on_evict = on_evict
            stored = {s.state_id: s for s in repo.states()}
        _check(repo, shadow, left, normalizer, n_dims)
        # Every eviction is counted, and the count survives a reload.
        assert repo.evicted_dropped == len(evicted)
