"""Checkpointing: bit-for-bit resume, manifest integrity, eviction
payloads, resumable stream iterators and engine crash recovery.

The core guarantee under test: a run interrupted at observation T,
snapshotted, and restored into a **fresh process-equivalent** system
finishes with traces identical to the uninterrupted run — across every
execution toggle of the equivalence matrix (extraction cache,
vectorized selection, forest routing, incremental updates), both
engines (per-observation and chunked) and the ADWIN detection path.
The remaining tests pin the artifact layer itself: manifests reject
tampering, truncation and unknown schema versions; overwrites are
atomic; the codec restores every array exactly and one state always
writes the same bytes; the eviction hook is handed the victim itself.
"""

from __future__ import annotations

import copy
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from equivalence import (
    SEED_OFFSET,
    RunTrace,
    assert_identical_traces,
    build_system,
    run_config,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.classifiers import HoeffdingTree
from repro.core import DelayedLabelAdapter
from repro.core.repository import Repository
from repro.evaluation.runner import prepare_run
from repro.serving.manifest import (
    MANIFEST_NAME,
    SCHEMA_VERSION,
    SnapshotError,
    read_manifest,
)
from repro.serving.runner import StreamRunner
from repro.serving.snapshot import (
    ARRAYS_NAME,
    OBJECTS_NAME,
    STATE_NAME,
    load_system,
    read_state,
    save_system,
    system_from_payload,
    system_payload,
    write_state,
)
from repro.system import AdaptiveSystem

def _interrupted_run(
    overrides,
    tmp_path,
    *,
    chunk_size=None,
    interrupt_at=350,
    **build_kwargs,
) -> RunTrace:
    """Run to ``interrupt_at``, snapshot, restore fresh, finish."""
    system, stream = build_system(overrides, **build_kwargs)
    runner = StreamRunner(
        system,
        stream,
        oracle_drift=system.config.oracle_drift,
        chunk_size=chunk_size,
    )
    runner.run(max_observations=interrupt_at)
    path = runner.save_checkpoint(tmp_path / "ckpt")
    # A fresh stream stands in for the new process after a crash.
    _, fresh_stream = build_system(overrides, **build_kwargs)
    restored = StreamRunner.restore(path, fresh_stream)
    result = restored.run()
    return RunTrace(result, restored.system)


#: Resume scenarios: the default run, and one under LRU eviction
#: pressure (the restored repository rebuilds its matrix and bank
#: mirrors from fewer, churned states).
RESUME_SCENARIOS = {
    "base": ({}, {}),
    "eviction": ({"max_repository_size": 3}, {"seed": 7, "segment_length": 130}),
}


@pytest.mark.parametrize("chunk_size", [None, 16])
@pytest.mark.parametrize("scenario", list(RESUME_SCENARIOS))
def test_interrupt_restore_identical(scenario, chunk_size, tmp_path):
    overrides, build_kwargs = RESUME_SCENARIOS[scenario]
    reference = run_config(overrides, chunk_size=chunk_size, **build_kwargs)
    resumed = _interrupted_run(
        overrides, tmp_path, chunk_size=chunk_size, **build_kwargs
    )
    assert_identical_traces(resumed, reference)


@pytest.mark.parametrize("chunk_size", [None, 16])
def test_interrupt_restore_at_concept_boundary(chunk_size, tmp_path):
    """Interrupted just before a segment's first observation under
    oracle drift: the restored runner still knows the last concept, so
    the first observation it pulls gets its drift signal."""
    _, stream = build_system({})
    assert 300 in stream.drift_points
    reference = run_config({}, chunk_size=chunk_size)
    resumed = _interrupted_run(
        {}, tmp_path, chunk_size=chunk_size, interrupt_at=300
    )
    assert_identical_traces(resumed, reference)


def test_restore_rejects_harness_state_without_concept(tmp_path):
    """A harness state without the last concept (a checkpoint written
    before the runner kept one) cannot tell whether the next observation
    crosses a boundary: restore refuses it, so the engine recomputes the
    cell instead of skipping a drift signal."""
    system, stream = build_system({})
    runner = StreamRunner(system, stream, oracle_drift=True)
    runner.run(max_observations=100)
    state = runner._harness_state()
    del state["concept"]
    save_system(system, tmp_path / "old", extra_state=state)
    _, fresh_stream = build_system({})
    with pytest.raises(SnapshotError, match="concept"):
        StreamRunner.restore(tmp_path / "old", fresh_stream)


def test_payload_naming_removed_field_is_rejected():
    """A snapshot whose config names a field the config does not have
    fails to load, instead of building a silently different config."""
    system, _ = build_system()
    payload = system_payload(system)
    payload["config_overrides"]["forest_routing"] = False
    with pytest.raises(SnapshotError, match="forest_routing"):
        system_from_payload(payload)


#: A protocol-0 pickle of a class the tree module does not define.
_MISSING_CLASS_BLOB = b"crepro.classifiers.hoeffding_tree\n_NoSuchNode\n."


@pytest.mark.parametrize("defect", ["truncated", "missing-class", "junk-detector"])
def test_undecodable_blob_is_a_snapshot_error(defect):
    """A classifier or detector blob that does not unpickle — truncated,
    naming a class that does not exist, or junk — fails the load as a
    :class:`SnapshotError`, the one type recovery paths catch."""
    system, stream = build_system()
    StreamRunner(system, stream, oracle_drift=True).run(max_observations=200)
    payload = system_payload(system)
    concept = payload["state"]["repository"]["states"][0]
    if defect == "truncated":
        concept["classifier"] = concept["classifier"][:-20]
    elif defect == "missing-class":
        concept["classifier"] = _MISSING_CLASS_BLOB
    else:
        payload["state"]["detector"] = b"junk"
    with pytest.raises(SnapshotError, match="undecodable") as raised:
        system_from_payload(payload)
    assert raised.value.__cause__ is not None


def test_restore_latest_walks_past_an_undecodable_newest(tmp_path):
    """The newest checkpoint of a 150/300/450 chain has valid digests but
    a classifier naming a missing class: restore audits the fallback,
    resumes from 300 and finishes the uninterrupted run bit for bit."""
    from repro.serving.audit import AuditLog, read_audit_log
    from repro.serving.runner import checkpoint_chain

    reference = run_config({})
    system, stream = build_system({})
    runner = StreamRunner(
        system,
        stream,
        oracle_drift=system.config.oracle_drift,
        checkpoint_path=tmp_path / "chain",
        checkpoint_every=150,
        keep_checkpoints=3,
    )
    runner.run(max_observations=470)
    chain = checkpoint_chain(tmp_path / "chain")
    assert [read_manifest(p)["meta"]["n_seen"] for p in chain] == [450, 300, 150]
    state, meta = read_state(chain[0])
    concepts = state["system"]["state"]["repository"]["states"]
    concepts[-1]["classifier"] = _MISSING_CLASS_BLOB
    write_state(chain[0], state, meta)
    read_manifest(chain[0])  # the digests verify

    _, fresh_stream = build_system({})
    audit_path = tmp_path / "audit.jsonl"
    resumed = StreamRunner.restore_latest(
        tmp_path / "chain", fresh_stream, audit=AuditLog(audit_path)
    )
    assert resumed.n_seen == 300
    fallbacks = [
        e for e in read_audit_log(audit_path) if e["event"] == "snapshot_fallback"
    ]
    assert len(fallbacks) == 1 and "AttributeError" in fallbacks[0]["error"]
    assert_identical_traces(RunTrace(resumed.run(), resumed.system), reference)


def test_interrupt_restore_adwin_path(tmp_path):
    """Resume is exact under real (ADWIN) drift detection too."""
    overrides = {"oracle_drift": False}
    reference = run_config(overrides)
    resumed = _interrupted_run(overrides, tmp_path)
    assert_identical_traces(resumed, reference)


def test_periodic_checkpoints_do_not_perturb_run(tmp_path):
    """Saving every N observations leaves the run's traces untouched."""
    reference = run_config({})
    system, stream = build_system({})
    runner = StreamRunner(
        system,
        stream,
        oracle_drift=system.config.oracle_drift,
        checkpoint_path=tmp_path / "periodic",
        checkpoint_every=150,
    )
    result = runner.run()
    assert_identical_traces(RunTrace(result, system), reference)
    # The final checkpoint is itself a valid resume point.
    manifest = read_manifest(tmp_path / "periodic")
    assert manifest["meta"]["artifact"] == "checkpoint"


def test_restore_from_mid_stream_periodic_checkpoint(tmp_path):
    """Crash *after* a periodic save: resume from the snapshot on disk."""
    reference = run_config({})
    system, stream = build_system({})
    runner = StreamRunner(
        system,
        stream,
        oracle_drift=system.config.oracle_drift,
        checkpoint_path=tmp_path / "ckpt",
        checkpoint_every=200,
    )
    runner.run(max_observations=450)  # periodic save landed at 400
    saved_at = read_manifest(tmp_path / "ckpt")["meta"]["n_seen"]
    assert saved_at == 400
    # The 50 observations after the save are lost in the "crash"; the
    # restored run replays them identically from the snapshot.
    _, fresh_stream = build_system({})
    restored = StreamRunner.restore(tmp_path / "ckpt", fresh_stream)
    assert restored.n_seen == saved_at
    result = restored.run()
    assert_identical_traces(RunTrace(result, restored.system), reference)


def test_snapshot_roundtrip_er_variant(tmp_path):
    """The univariate error-rate variant snapshots and resumes too."""
    reference = run_config({}, variant="er")
    resumed = _interrupted_run({}, tmp_path, variant="er")
    assert_identical_traces(resumed, reference)


@pytest.mark.parametrize("name", ["htcd", "rcd", "dwm", "arf", "cpf"])
def test_baseline_interrupt_restore_identical(name, tmp_path):
    """Every Table VI baseline resumes bit for bit: checkpointed halfway
    through a recurring HPLANE-U stream, restored onto a fresh stream
    and finished, it reproduces the uninterrupted run observation by
    observation.  These systems checkpoint as pickled payloads."""

    def cell():
        return prepare_run(
            name, "HPLANE-U", seed=1 + SEED_OFFSET, segment_length=100,
            n_repeats=2,
        )

    reference = StreamRunner(*cell()).run()
    runner = StreamRunner(*cell())
    runner.run(max_observations=reference.n_observations // 2)
    path = runner.save_checkpoint(tmp_path / "ckpt")
    _, fresh_stream = cell()
    result = StreamRunner.restore(path, fresh_stream).run()
    for field in (
        "accuracy", "kappa", "c_f1", "n_observations", "n_drifts",
        "n_states", "state_ids",
    ):
        assert getattr(result, field) == getattr(reference, field), field


def test_from_snapshot_classmethod(tmp_path):
    system, stream = build_system({})
    it = stream.iter_resumable()
    for _ in range(300):
        x, y, _ = next(it)
        system.process(x, y)
    system.save_snapshot(tmp_path / "snap")
    twin = AdaptiveSystem.from_snapshot(tmp_path / "snap")
    assert type(twin) is type(system)
    assert twin._step == system._step
    assert twin.active_state_id == system.active_state_id
    for _ in range(200):
        x, y, _ = next(it)
        assert twin.process(x.copy(), y) == system.process(x, y)
        assert twin.active_state_id == system.active_state_id
    np.testing.assert_array_equal(twin.weights, system.weights)


def test_delayed_label_adapter_roundtrip_with_queued_labels(tmp_path):
    """An adapter snapshotted with labels still queued resumes exactly:
    the label queue, the missing-label rng (plain data, no pickle), both
    counters and the wrapped system travel through the codec."""

    def build():
        system, stream = build_system({})
        adapter = DelayedLabelAdapter(system, delay=40, missing_rate=0.3, seed=3)
        return adapter, stream

    adapter, stream = build()
    it = iter(stream)
    for _ in range(250):
        x, y, _ = next(it)
        adapter.process(x, y)
    assert len(adapter._queue) > 0
    state = adapter.state_dict()
    assert isinstance(state["rng"], dict)
    write_state(tmp_path / "adapter", state)
    loaded, _ = read_state(tmp_path / "adapter")
    twin, _ = build()
    twin.load_state_dict(loaded)
    for _ in range(200):
        x, y, _ = next(it)
        assert twin.process(x.copy(), y) == adapter.process(x, y)
    assert twin.n_labels_delivered == adapter.n_labels_delivered
    assert twin.n_labels_dropped == adapter.n_labels_dropped


def _views_intact(system) -> bool:
    """Every stored fingerprint is a view of its repository matrix row,
    and the rolling accumulators' sums are rows of their one array."""
    matrix = system.repository.matrix()
    for state in system.repository.states():
        row = matrix.row_of(state.state_id)
        for fp, means in (
            (state.fingerprint, matrix.fp_means),
            (state.nonactive, matrix.na_means),
        ):
            if not np.shares_memory(fp.means, means[row]):
                return False
    rolling = system.pipeline._rolling
    return np.shares_memory(rolling._s1, rolling._sums)


def test_pickled_ficsum_keeps_its_views(tmp_path):
    """A ``DelayedLabelAdapter`` around a ``Ficsum`` is saved as one
    pickle, and ``copy.deepcopy`` pickles as well: both rebuild the
    ``Ficsum`` from its snapshot payload, so the copies keep their
    views of shared storage and continue the run bit for bit."""
    system, stream = build_system(
        {"oracle_drift": False}, dataset="STAGGER", seed=1
    )
    adapter = DelayedLabelAdapter(system, delay=5)
    data = list(stream)
    for x, y, _ in data[:600]:
        adapter.process(x, y)
    assert system_payload(adapter)["kind"] == "pickled"
    save_system(adapter, tmp_path / "adapter")
    restored, _, _ = load_system(tmp_path / "adapter")
    twins = (restored, copy.deepcopy(adapter))
    for twin in twins:
        assert _views_intact(twin.system)
    for x, y, _ in data[600:]:
        prediction = adapter.process(x, y)
        for twin in twins:
            assert twin.process(x.copy(), y) == prediction
            assert twin.active_state_id == adapter.active_state_id
    for twin in twins:
        assert twin.system.drift_points == system.drift_points
        np.testing.assert_array_equal(twin.system.weights, system.weights)
        assert _views_intact(twin.system)


# ---------------------------------------------------------------------
# Manifest / artifact integrity
# ---------------------------------------------------------------------
def _small_snapshot(tmp_path, n=200):
    system, stream = build_system({})
    it = iter(stream)
    for _ in range(n):
        x, y, _ = next(it)
        system.process(x, y)
    path = tmp_path / "snap"
    save_system(system, path)
    return path


def test_manifest_rejects_payload_tampering(tmp_path):
    path = _small_snapshot(tmp_path)
    target = path / "arrays.npz"
    blob = bytearray(target.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    target.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="integrity"):
        load_system(path)


def test_manifest_rejects_missing_manifest(tmp_path):
    path = _small_snapshot(tmp_path)
    (path / MANIFEST_NAME).unlink()
    with pytest.raises(SnapshotError, match="manifest"):
        load_system(path)


def test_manifest_rejects_unknown_schema_version(tmp_path):
    path = _small_snapshot(tmp_path)
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    # Version 1 stored one npz member per array, and version 2 pickled
    # trees as node objects: neither may reach this reader's decoder.
    for version in (1, SCHEMA_VERSION - 1, SCHEMA_VERSION + 1):
        manifest["schema_version"] = version
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="version"):
            load_system(path)


def test_manifest_rejects_missing_payload_file(tmp_path):
    path = _small_snapshot(tmp_path)
    (path / "objects.pkl").unlink()
    with pytest.raises(SnapshotError, match="missing"):
        load_system(path)


def test_verify_false_skips_integrity_check(tmp_path):
    path = _small_snapshot(tmp_path)
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["files"]["state.json"]["sha256"] = "0" * 64
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError):
        load_system(path, verify=True)
    system, _, _ = load_system(path, verify=False)
    assert system is not None


def test_snapshot_overwrite_is_atomic(tmp_path):
    """Re-saving replaces the artifact wholesale, with no tmp residue."""
    path = _small_snapshot(tmp_path, n=200)
    first = read_manifest(path)
    system, _, _ = load_system(path)
    save_system(system, path)
    second = read_manifest(path)
    assert second["files"].keys() == first["files"].keys()
    assert not (tmp_path / "snap.tmp").exists()
    load_system(path)  # still a complete, verifiable artifact


def test_snapshot_bytes_are_reproducible(tmp_path):
    """Under a fixed clock one state always gives the same bytes: saving
    it twice, or saving its restored twin, writes identical payloads and
    manifests, because packing follows the state tree's traversal order."""
    system, stream = build_system({})
    StreamRunner(system, stream, oracle_drift=True).run()
    assert len(system.repository) >= 2

    def clock():
        return 1234.5

    first = save_system(system, tmp_path / "first", clock=clock)
    again = save_system(system, tmp_path / "again", clock=clock)
    twin, _, _ = load_system(first)
    resaved = save_system(twin, tmp_path / "resaved", clock=clock)
    for name in (ARRAYS_NAME, OBJECTS_NAME, STATE_NAME, MANIFEST_NAME):
        expected = (first / name).read_bytes()
        assert (again / name).read_bytes() == expected, name
        assert (resaved / name).read_bytes() == expected, name


#: Runs one HPLANE-U stream under the serve-fast configuration and
#: snapshots it under a fixed clock to ``sys.argv[1]``.
_SNAPSHOT_SCRIPT = """
import sys
from repro.core import FicsumConfig
from repro.core.variants import make_ficsum
from repro.serving.runner import StreamRunner
from repro.serving.snapshot import save_system
from repro.streams.datasets import make_dataset

stream = make_dataset("HPLANE-U", seed=3, segment_length=150, n_repeats=2)
system = make_ficsum(
    stream.meta.n_features,
    stream.meta.n_classes,
    FicsumConfig(sketch_profile="fast", oracle_drift=True),
)
StreamRunner(system, stream, oracle_drift=True).run()
# A stored concept with fewer retained similarity pairs than its record
# holds: its unwritten rows are saved too.
assert any(
    s.sim_pairs.count < s.sim_pairs.capacity for s in system.repository.states()
)
save_system(system, sys.argv[1], clock=lambda: 1234.5)
"""


def test_snapshot_bytes_match_across_processes(tmp_path):
    """Two processes snapshotting the same stream under a fixed clock
    write the same payload files and manifest: no saved array or pickled
    tree carries memory the process never wrote."""
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source, env.get("PYTHONPATH", "")) if p
    )
    for name in ("first", "second"):
        subprocess.run(
            [sys.executable, "-c", _SNAPSHOT_SCRIPT, str(tmp_path / name)],
            check=True,
            env=env,
            timeout=600,
        )
    for name in (ARRAYS_NAME, OBJECTS_NAME, STATE_NAME, MANIFEST_NAME):
        first = (tmp_path / "first" / name).read_bytes()
        assert (tmp_path / "second" / name).read_bytes() == first, name


def test_write_state_rejects_unserializable_leaf(tmp_path):
    # Object and structured (void) arrays cannot share a member keyed
    # by ``dtype.str``; each bad leaf follows an array already packed.
    structured = np.zeros(2, dtype=[("a", "<f8"), ("b", "<i4")])
    for leaf in (object(), np.array([None, 1], dtype=object), structured):
        with pytest.raises(SnapshotError, match="serializ"):
            write_state(tmp_path / "bad", {"ok": np.arange(3.0), "leaf": leaf})
        # A failed write never leaves a half-written artifact behind.
        assert not (tmp_path / "bad").exists()
        assert not (tmp_path / "bad.tmp").exists()


def test_write_read_state_roundtrip_exact(tmp_path):
    state = {
        "f": np.linspace(-1.0, 1.0, 97),
        "i": np.arange(13, dtype=np.int64),
        "nested": {"blob": pickle.dumps({"x": 1}), "none": None,
                   "list": [1, 2.5, "s"], "scalar": np.float64(0.1)},
    }
    write_state(tmp_path / "rt", state, meta={"k": "v"})
    loaded, meta = read_state(tmp_path / "rt")
    assert meta["k"] == "v"
    np.testing.assert_array_equal(loaded["f"], state["f"])
    assert loaded["f"].dtype == np.float64
    np.testing.assert_array_equal(loaded["i"], state["i"])
    assert loaded["nested"]["blob"] == state["nested"]["blob"]
    assert loaded["nested"]["none"] is None
    assert loaded["nested"]["list"] == [1, 2.5, "s"]
    assert loaded["nested"]["scalar"] == 0.1


#: float64 bit patterns: a signalling and a quiet NaN with payloads, -0.0.
_F8_SPECIALS = [0x7FF0_0000_DEAD_BEEF, 0xFFF8_0000_0000_0001, 1 << 63]


@st.composite
def _codec_arrays(draw):
    """Arrays of every dtype and layout the codec must restore exactly."""
    dtype = np.dtype(draw(st.sampled_from(["?", "<i4", "<i8", "|u1", "<f8"])))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    if dtype.kind == "f":
        bits = st.one_of(st.sampled_from(_F8_SPECIALS), st.integers(0, 2**64 - 1))
        array = draw(hnp.arrays(np.uint64, shape, elements=bits)).view(np.float64)
    else:
        array = draw(hnp.arrays(dtype, shape))
    layout = draw(st.sampled_from(["C", "F", "reversed"]))
    if layout == "F":
        return np.asfortranarray(array)
    if layout == "reversed":
        return array[(slice(None, None, -1),) * array.ndim + (Ellipsis,)]
    return array


@settings(max_examples=60, deadline=None)
@given(arrays=st.lists(_codec_arrays(), min_size=1, max_size=6))
def test_write_read_state_roundtrip_any_layout(arrays):
    """Every restored array has the original bytes, dtype and shape, the
    memory order ``np.load`` would give it, and its own buffer — also
    when several arrays share one dtype member."""
    state = {"arrays": arrays, "shared": arrays[0]}
    with tempfile.TemporaryDirectory() as tmp:
        write_state(Path(tmp) / "s", state)
        loaded, _ = read_state(Path(tmp) / "s")
    pairs = list(zip(arrays, loaded["arrays"]))
    pairs.append((arrays[0], loaded["shared"]))
    for original, restored in pairs:
        buffer = io.BytesIO()
        np.save(buffer, original)
        buffer.seek(0)
        reference = np.load(buffer)
        assert restored.dtype.str == original.dtype.str
        assert restored.shape == original.shape
        assert restored.tobytes() == original.tobytes()
        assert restored.flags.c_contiguous == reference.flags.c_contiguous
        assert restored.flags.f_contiguous == reference.flags.f_contiguous
        assert restored.flags.owndata


# ---------------------------------------------------------------------
# Eviction hook
# ---------------------------------------------------------------------
def test_eviction_hook_receives_the_victim():
    repo = Repository(max_size=2)
    evicted = []
    repo.on_evict = lambda victim: evicted.append((victim, victim.state_id in repo))
    states = []
    for step in range(3):
        tree = HoeffdingTree(n_classes=2, n_features=3, seed=step)
        states.append(repo.new_state(4, tree, step=step))
    assert len(repo) == 2
    assert len(evicted) == 1
    victim, stored_at_call = evicted[0]
    # LRU: the oldest last_active_step.  The hook sees the state object
    # itself while it is still stored; then it is gone.
    assert victim is states[0]
    assert stored_at_call
    assert victim.state_id not in repo
    assert repo.evicted_dropped == 1


def test_eviction_hook_absent_by_default():
    repo = Repository(max_size=1)
    assert repo.on_evict is None
    for step in range(2):
        tree = HoeffdingTree(n_classes=2, n_features=3, seed=step)
        repo.new_state(4, tree, step=step)
    assert len(repo) == 1  # evictions proceed silently without a hook


# ---------------------------------------------------------------------
# Resumable stream iterators
# ---------------------------------------------------------------------
def test_stream_iterator_state_roundtrip():
    _, stream = build_system({})
    it = stream.iter_resumable()
    for _ in range(100):
        next(it)
    state = it.state_dict()
    expect = [next(it) for _ in range(50)]
    _, fresh = build_system({})
    it2 = fresh.iter_resumable()
    it2.load_state_dict(state)
    for x, y, cid in expect:
        x2, y2, cid2 = next(it2)
        np.testing.assert_array_equal(x2, x)
        assert (y2, cid2) == (y, cid)


def test_stream_iterator_exhaustion_roundtrip():
    _, stream = build_system({})
    it = stream.iter_resumable()
    for _ in range(stream.meta.length):
        next(it)
    state = it.state_dict()
    _, fresh = build_system({})
    it2 = fresh.iter_resumable()
    it2.load_state_dict(state)
    with pytest.raises(StopIteration):
        next(it2)


# ---------------------------------------------------------------------
# Engine crash recovery
# ---------------------------------------------------------------------
def test_engine_resumes_mid_cell(tmp_path):
    from repro.evaluation.runner import prepare_run
    from repro.experiments import Engine, ExperimentSpec
    from repro.experiments.artifacts import result_payload

    spec = ExperimentSpec.from_dict({
        "systems": ["ficsum"], "datasets": ["STAGGER"], "seeds": [1],
        "segment_length": 150, "n_repeats": 3,
    })
    cell = spec.expand()[0]
    reference = Engine(results_dir=tmp_path / "clean").run(spec)
    ref_payload = result_payload(reference.artifacts[0].result)

    # Crash the cell partway, leaving its checkpoint behind.
    crash_dir = tmp_path / "crash"
    ckpt = crash_dir / "checkpoints" / cell.key()
    system, stream = prepare_run(
        cell.system, cell.dataset, seed=cell.seed,
        segment_length=cell.segment_length, n_repeats=cell.n_repeats,
        config=cell.config(), oracle_drift=cell.oracle,
    )
    StreamRunner(
        system, stream, oracle_drift=cell.oracle, keep_history=False,
        checkpoint_path=ckpt, checkpoint_every=400,
    ).run(max_observations=500)
    assert ckpt.exists()

    recovered = Engine(results_dir=crash_dir, checkpoint_every=400).run(spec)
    assert result_payload(recovered.artifacts[0].result) == ref_payload
    assert not ckpt.exists()  # cleaned up once the artifact lands


def test_engine_falls_back_on_corrupt_checkpoint(tmp_path):
    from repro.experiments import Engine, ExperimentSpec
    from repro.experiments.artifacts import result_payload

    spec = ExperimentSpec.from_dict({
        "systems": ["ficsum"], "datasets": ["STAGGER"], "seeds": [1],
        "segment_length": 150, "n_repeats": 3,
    })
    cell = spec.expand()[0]
    reference = Engine(results_dir=tmp_path / "clean").run(spec)
    crash_dir = tmp_path / "corrupt"
    ckpt = crash_dir / "checkpoints" / cell.key()
    ckpt.mkdir(parents=True)
    (ckpt / MANIFEST_NAME).write_text("{not json")
    recovered = Engine(results_dir=crash_dir, checkpoint_every=400).run(spec)
    assert result_payload(recovered.artifacts[0].result) == result_payload(
        reference.artifacts[0].result
    )


def test_engine_checkpoint_requires_results_dir():
    from repro.experiments import Engine

    with pytest.raises(ValueError, match="results_dir"):
        Engine(checkpoint_every=100)
    with pytest.raises(ValueError, match="checkpoint_every"):
        Engine(results_dir="/tmp/x", checkpoint_every=0)
