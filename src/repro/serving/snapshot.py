"""Snapshot serialization: state trees to versioned on-disk artifacts.

The core classes describe their mutable state as plain nested dicts
(see the ``state_dict`` convention in :mod:`repro.utils.stats`); this
module packs one such tree into a snapshot directory:

* ``arrays.npz``  — one member per dtype (named by ``dtype.str``, e.g.
  ``<f8``), holding every ndarray leaf of that dtype flattened and
  concatenated in traversal order (``np.savez`` round-trips every
  bit pattern, NaN payloads and ``-0.0`` included),
* ``objects.pkl`` — the opaque ``bytes`` leaves (pickled classifiers,
  detector state and stream concepts) as one pickled list,
* ``state.json``  — the tree skeleton, with ndarray leaves replaced by
  ``{"__array__": [member, offset, shape, order]}`` and bytes leaves by
  ``{"__blob__": index}`` sentinels (Python's JSON float round-trip is
  exact for doubles and its int round-trip for any int, so scalar
  leaves and rng states also restore bit-for-bit),
* ``manifest.json`` — written **last** (see
  :mod:`repro.serving.manifest`): schema version, content hashes and
  caller metadata.

Packing per dtype instead of per array keeps a save or restore at one
``npz`` member per dtype present (``<f8`` and ``<i8`` for FiCSUM's
states), however many arrays the repository holds.  Each restored array is an owned copy with the dtype, shape and memory
order ``np.load`` would give it: Fortran order for an array that was
only F-contiguous, C order otherwise.  Object and structured (void)
dtypes cannot be grouped by ``dtype.str`` and are rejected before
anything is written.  Members and offsets follow traversal order, so
one state always packs to the same bytes.

Writes are atomic at the directory level: everything lands in a
``<path>.tmp`` sibling which replaces the target only once complete,
so an interrupted save can never shadow a good previous snapshot.

On top of the tree codec sit the system-level helpers
:func:`save_system` / :func:`load_system`, which capture enough
constructor context (stream metadata + config overrides) to rebuild a
:class:`~repro.core.ficsum.Ficsum` from scratch and load its state —
and fall back to whole-object pickling for any other
:class:`~repro.system.AdaptiveSystem`.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.serving.manifest import (
    SnapshotError,
    read_manifest,
    write_manifest,
)

ARRAYS_NAME = "arrays.npz"
OBJECTS_NAME = "objects.pkl"
STATE_NAME = "state.json"

#: What decoding a read state tree into objects can raise.  Every
#: reader of decoded state turns these into :class:`SnapshotError`.
DECODE_ERRORS = (
    # Missing keys, mistyped or misshapen leaves.
    KeyError, IndexError, TypeError, ValueError,
    # A truncated or junk blob, or one naming a class or module that
    # does not exist.
    EOFError, AttributeError, ImportError, pickle.UnpicklingError,
)


# ----------------------------------------------------------------------
# Tree codec
# ----------------------------------------------------------------------
class _Packer:
    """Replaces a state tree's ndarray and bytes leaves with sentinels.

    Every array is flattened in the order ``np.load`` restores it in and
    appended to its dtype's member at that member's running offset.
    """

    def __init__(self) -> None:
        self.parts: Dict[str, List[np.ndarray]] = {}
        self.sizes: Dict[str, int] = {}
        self.blobs: List[bytes] = []

    def pack(self, node: Any) -> Any:
        if isinstance(node, np.ndarray):
            return {"__array__": self._array(node)}
        if isinstance(node, (bytes, bytearray)):
            self.blobs.append(bytes(node))
            return {"__blob__": len(self.blobs) - 1}
        if isinstance(node, dict):
            return {str(k): self.pack(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [self.pack(v) for v in node]
        if isinstance(node, np.generic):
            return node.item()
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        raise SnapshotError(
            f"state tree holds an unserializable leaf of type {type(node).__name__}"
        )

    def _array(self, array: np.ndarray) -> List[Any]:
        dtype = array.dtype
        if dtype.kind in "OV":
            raise SnapshotError(
                f"state tree holds an ndarray of unserializable dtype {dtype}"
            )
        flags = array.flags
        order = "F" if flags.f_contiguous and not flags.c_contiguous else "C"
        member = dtype.str
        offset = self.sizes.get(member, 0)
        self.parts.setdefault(member, []).append(array.ravel(order=order))
        self.sizes[member] = offset + array.size
        return [member, offset, list(array.shape), order]

    def members(self) -> Dict[str, np.ndarray]:
        """One flat array per dtype, in order of first appearance."""
        return {
            member: np.concatenate(parts, dtype=parts[0].dtype)
            for member, parts in self.parts.items()
        }


def _unpack(
    node: Any, members: Dict[str, np.ndarray], blobs: List[bytes]
) -> Any:
    if isinstance(node, dict):
        if len(node) == 1:
            if "__array__" in node:
                member, offset, shape, order = node["__array__"]
                flat = members[member][offset : offset + math.prod(shape)]
                return flat.reshape(shape, order=order).copy(order=order)
            if "__blob__" in node:
                return blobs[node["__blob__"]]
        return {k: _unpack(v, members, blobs) for k, v in node.items()}
    if isinstance(node, list):
        return [_unpack(v, members, blobs) for v in node]
    return node


# ----------------------------------------------------------------------
# Directory artifacts
# ----------------------------------------------------------------------
def write_state(
    path: Union[str, Path],
    state: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
    *,
    clock: Optional[Callable[[], float]] = None,
) -> Path:
    """Write one state tree as a complete snapshot directory.

    Atomic: the artifact is assembled in ``<path>.tmp`` and moved over
    the target only once the manifest (the completeness marker) is on
    disk.  An existing snapshot at ``path`` is replaced.  ``clock``
    (default: wall time) stamps the manifest's ``created_at``; inject a
    fixed one for byte-identical snapshot directories.
    """
    import json

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        packer = _Packer()
        skeleton = packer.pack(state)
        np.savez(tmp / ARRAYS_NAME, **packer.members())
        with (tmp / OBJECTS_NAME).open("wb") as fh:
            pickle.dump(packer.blobs, fh, protocol=pickle.HIGHEST_PROTOCOL)
        (tmp / STATE_NAME).write_text(json.dumps(skeleton), encoding="utf-8")
        write_manifest(tmp, meta, clock=clock)
        if path.exists():
            shutil.rmtree(path)
        os.replace(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


def read_state(
    path: Union[str, Path], verify: bool = True
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Load ``(state, meta)`` from a snapshot directory.

    ``verify`` checks every payload's content hash against the manifest
    before deserializing anything.
    """
    import json

    path = Path(path)
    if not path.is_dir():
        raise SnapshotError(f"no snapshot directory at {path}")
    manifest = read_manifest(path, verify=verify)
    try:
        with np.load(path / ARRAYS_NAME) as npz:
            members = {key: npz[key] for key in npz.files}
        with (path / OBJECTS_NAME).open("rb") as fh:
            blobs = pickle.load(fh)
        with (path / STATE_NAME).open("r", encoding="utf-8") as fh:
            skeleton = json.load(fh)
    except (OSError, ValueError, pickle.UnpicklingError) as exc:
        raise SnapshotError(
            f"corrupt snapshot payload at {path}: {exc}"
        ) from exc
    state = _unpack(skeleton, members, blobs)
    return state, manifest.get("meta", {})


# ----------------------------------------------------------------------
# System-level snapshots
# ----------------------------------------------------------------------
def system_payload(system: Any) -> Dict[str, Any]:
    """The serialized form of an adaptive system.

    :class:`~repro.core.ficsum.Ficsum` (all its restricted variants are
    plain ``Ficsum`` under different configs) serializes as constructor
    context + ``state_dict``; anything else falls back to one pickle
    blob of the whole object.
    """
    from repro.core.ficsum import Ficsum

    if isinstance(system, Ficsum):
        return {
            "kind": "ficsum",
            "n_features": system.n_features,
            "n_classes": system.n_classes,
            "config_overrides": system.config.overrides(),
            "config_seed": system.config.seed,
            "state": system.state_dict(),
        }
    return {"kind": "pickled", "blob": pickle.dumps(system)}


def system_from_payload(payload: Dict[str, Any]) -> Any:
    """Rebuild an adaptive system from :func:`system_payload` output.

    Any decode failure — missing keys, mistyped leaves, an
    unpicklable blob — surfaces as :class:`SnapshotError`: this is the
    single exception type recovery paths (the engine's checkpoint
    fallback, :meth:`StreamRunner.restore_latest`'s chain walk) catch,
    so wrapping here keeps those handlers narrow.
    """
    kind = payload.get("kind")
    if kind == "ficsum":
        from repro.core.config import FicsumConfig
        from repro.core.ficsum import Ficsum

        try:
            overrides = dict(payload["config_overrides"])
            overrides["seed"] = int(payload["config_seed"])
            cfg = FicsumConfig.from_overrides(overrides)
            system = Ficsum(
                int(payload["n_features"]), int(payload["n_classes"]), cfg
            )
            system.load_state_dict(payload["state"])
        except DECODE_ERRORS as exc:
            raise SnapshotError(
                f"undecodable ficsum system payload: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return system
    if kind == "pickled":
        try:
            return pickle.loads(payload["blob"])
        except DECODE_ERRORS as exc:
            raise SnapshotError(
                f"undecodable pickled system payload: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    raise SnapshotError(f"unknown system snapshot kind {kind!r}")


def save_system(
    system: Any,
    path: Union[str, Path],
    extra_state: Optional[Dict[str, Any]] = None,
    meta: Optional[Dict[str, Any]] = None,
    *,
    clock: Optional[Callable[[], float]] = None,
) -> Path:
    """Snapshot a system (plus optional harness state) to ``path``."""
    state: Dict[str, Any] = {"system": system_payload(system)}
    if extra_state is not None:
        state["extra"] = extra_state
    full_meta = {"artifact": "adaptive-system"}
    full_meta.update(meta or {})
    return write_state(path, state, full_meta, clock=clock)


def load_system(
    path: Union[str, Path], verify: bool = True
) -> Tuple[Any, Optional[Dict[str, Any]], Dict[str, Any]]:
    """Load ``(system, extra_state, meta)`` from :func:`save_system`.

    Raises :class:`SnapshotError` for every failure mode — a missing
    or tampered artifact (:func:`read_state`), a state tree without a
    system entry, or an undecodable system payload.
    """
    state, meta = read_state(path, verify=verify)
    if "system" not in state:
        raise SnapshotError(f"snapshot at {path} holds no system payload")
    system = system_from_payload(state["system"])
    return system, state.get("extra"), meta


__all__ = [
    "ARRAYS_NAME",
    "OBJECTS_NAME",
    "STATE_NAME",
    "DECODE_ERRORS",
    "SnapshotError",
    "write_state",
    "read_state",
    "system_payload",
    "system_from_payload",
    "save_system",
    "load_system",
]
