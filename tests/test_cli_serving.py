"""CLI coverage for the serving verbs: snapshot, inspect, metrics.

Each test drives :func:`repro.cli.main` exactly as a shell invocation
would — small STAGGER runs keep them fast.  The corrupt-manifest path
pins that ``repro inspect`` refuses a tampered payload (exit 1 with an
``error:`` line) unless integrity checking is explicitly skipped, and
the injected-clock tests pin the reproducible ``created_at`` stamp the
serving layer threads down to :func:`write_manifest`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.serving.manifest import MANIFEST_NAME, SCHEMA_VERSION, read_manifest
from repro.serving.snapshot import ARRAYS_NAME, write_state


def _snapshot_args(out, observations=150):
    return [
        "snapshot",
        "--system", "ficsum",
        "--dataset", "STAGGER",
        "--segment-length", "60",
        "--observations", str(observations),
        "--out", str(out),
    ]


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    """One small checkpoint shared by the inspect tests."""
    out = tmp_path_factory.mktemp("cli") / "snap.ckpt"
    assert main(_snapshot_args(out)) == 0
    return out


def test_snapshot_writes_complete_artifact(snapshot_dir, capsys):
    assert (snapshot_dir / MANIFEST_NAME).exists()
    manifest = read_manifest(snapshot_dir)
    assert manifest["meta"]["artifact"] == "checkpoint"
    assert manifest["meta"]["n_seen"] == 150


def test_snapshot_rejects_nonpositive_observations(tmp_path):
    with pytest.raises(SystemExit):
        main(_snapshot_args(tmp_path / "s.ckpt", observations=0))


def test_inspect_happy_path(snapshot_dir, capsys):
    assert main(["inspect", str(snapshot_dir)]) == 0
    out = capsys.readouterr().out
    assert f"schema    : version {SCHEMA_VERSION}" in out
    assert "verified (sha256)" in out
    assert "artifact" in out and "checkpoint" in out
    assert ARRAYS_NAME in out


def test_inspect_missing_snapshot(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nope.ckpt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_inspect_detects_tampered_payload(snapshot_dir, tmp_path, capsys):
    import shutil

    tampered = tmp_path / "tampered.ckpt"
    shutil.copytree(snapshot_dir, tampered)
    with (tampered / ARRAYS_NAME).open("ab") as fh:
        fh.write(b"\x00garbage")
    assert main(["inspect", str(tampered)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "integrity" in err
    # Explicitly skipping verification still summarises the manifest.
    assert main(["inspect", str(tampered), "--no-verify"]) == 0
    assert "integrity : skipped" in capsys.readouterr().out


def test_metrics_prints_observability_summary(tmp_path, capsys):
    audit_log = tmp_path / "audit.jsonl"
    assert main([
        "metrics",
        "--system", "ficsum",
        "--dataset", "STAGGER",
        "--segment-length", "60",
        "--observations", "150",
        "--audit-log", str(audit_log),
        "--oracle",
    ]) == 0
    out = capsys.readouterr().out
    assert "processed : 150 observations" in out
    assert "counters:" in out
    assert "observations" in out
    assert "audit log" in out
    # Oracle drifts at the concept boundaries (obs 60 and 120) force
    # at least one audited event, so the JSONL file materialises.
    assert audit_log.exists()


def test_metrics_rejects_system_without_observability():
    with pytest.raises(SystemExit):
        main([
            "metrics",
            "--system", "htcd",
            "--dataset", "STAGGER",
            "--observations", "50",
        ])


# ----------------------------------------------------------------------
# Injected clock (reproducible created_at)
# ----------------------------------------------------------------------
def test_write_state_stamps_injected_clock(tmp_path):
    write_state(
        tmp_path / "snap",
        {"values": np.arange(4.0), "n": 3},
        {"artifact": "test"},
        clock=lambda: 1234.5,
    )
    manifest = read_manifest(tmp_path / "snap")
    assert manifest["created_at"] == 1234.5


def test_runner_threads_clock_into_checkpoint_manifest(tmp_path):
    from repro.evaluation.runner import prepare_run
    from repro.serving.runner import StreamRunner

    system, stream = prepare_run(
        "ficsum", "STAGGER", seed=0, segment_length=60
    )
    target = tmp_path / "ckpt"
    runner = StreamRunner(
        system, stream, checkpoint_path=target, clock=lambda: 42.0
    )
    runner.run(max_observations=100)
    runner.save_checkpoint()
    assert read_manifest(target)["created_at"] == 42.0
