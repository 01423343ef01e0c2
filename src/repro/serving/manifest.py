"""Versioned snapshot manifests with content-hash integrity.

A snapshot is a directory of payload files plus a ``manifest.json``
written **last**: its presence marks the snapshot complete (a crash
mid-write leaves a manifest-less directory that readers reject), its
``schema_version`` gates forward compatibility, and its per-file SHA-256
digests let :func:`read_manifest` verify that payloads were neither
truncated nor tampered with before any of them is deserialized.

Schema-version policy: the version bumps whenever the *layout* of the
packed state tree changes incompatibly (renamed keys, re-typed leaves).
Readers accept exactly the versions they know how to interpret —
currently only :data:`SCHEMA_VERSION` — and fail loudly otherwise, so a
snapshot never silently half-loads across versions.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

#: Current snapshot layout version (see module docstring for policy).
#: Version 2: ``arrays.npz`` holds one member per dtype, and rng states
#: are plain dicts in ``state.json``.  Version 3: a pickled Hoeffding
#: tree is its ``state_dict`` (node tables and leaf blocks), no longer
#: a graph of node objects.  Version 4: concept states, the framework
#: and the normaliser drop the change counters that keyed per-step memos.
#: Version 5: concept states drop the member count that concept
#: families kept.
SCHEMA_VERSION = 5

MANIFEST_NAME = "manifest.json"


class SnapshotError(RuntimeError):
    """A snapshot is missing, incomplete, corrupt or unsupported."""


def file_digest(path: Union[str, Path]) -> str:
    """SHA-256 hex digest of a file's contents."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(
    directory: Union[str, Path],
    meta: Optional[Dict[str, Any]] = None,
    *,
    clock: Optional[Callable[[], float]] = None,
) -> Path:
    """Hash every payload file in ``directory`` and write the manifest.

    Must be called after all payload files are fully written — the
    manifest going down last is what makes its presence a completeness
    marker.

    ``clock`` supplies the ``created_at`` stamp.  It defaults to wall
    time — the one deliberately non-reproducible field in a snapshot —
    but callers that need byte-identical snapshot directories (tests,
    content-addressed stores) inject a fixed clock instead.
    """
    directory = Path(directory)
    if clock is None:
        clock = time.time  # repro-lint: disable=RPR001
    files: Dict[str, Dict[str, Any]] = {}
    for path in sorted(directory.iterdir()):
        if path.name == MANIFEST_NAME or not path.is_file():
            continue
        files[path.name] = {
            "sha256": file_digest(path),
            "size": path.stat().st_size,
        }
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "created_at": float(clock()),
        "files": files,
        "meta": dict(meta or {}),
    }
    manifest_path = directory / MANIFEST_NAME
    with manifest_path.open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def read_manifest(
    directory: Union[str, Path], verify: bool = True
) -> Dict[str, Any]:
    """Load a snapshot manifest, checking version and content hashes."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise SnapshotError(
            f"no manifest at {manifest_path} — snapshot missing or "
            "incompletely written"
        )
    try:
        with manifest_path.open("r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(
            f"unreadable manifest at {manifest_path}: {exc}"
        ) from exc
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot schema version {version!r} is not supported "
            f"(this reader understands version {SCHEMA_VERSION})"
        )
    if verify:
        for name, info in manifest.get("files", {}).items():
            path = directory / name
            if not path.exists():
                raise SnapshotError(f"payload file {name} is missing")
            digest = file_digest(path)
            if digest != info["sha256"]:
                raise SnapshotError(
                    f"payload file {name} fails its integrity check "
                    f"(expected {info['sha256'][:12]}…, got {digest[:12]}…)"
                )
    return manifest


__all__ = [
    "SCHEMA_VERSION",
    "MANIFEST_NAME",
    "SnapshotError",
    "file_digest",
    "write_manifest",
    "read_manifest",
]
