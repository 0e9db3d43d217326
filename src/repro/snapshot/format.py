"""Versioned on-disk envelope for simulation snapshots.

A snapshot file is::

    MAGIC                      b"REPROSNAP\\n"
    header                     one JSON line (sorted keys, UTF-8)
    payload                    zlib-compressed pickle of the state object

The header carries the format version, the payload kind, a SHA-256 of the
compressed payload and free-form ``meta`` (scenario, rounds completed, ...).
Keeping the header as a standalone JSON line means tooling — and
:func:`read_header` — can inspect a snapshot without unpickling anything.

Version discipline: :data:`SNAPSHOT_FORMAT_VERSION` is bumped whenever the
serialized state layout, or the meaning of the state it holds, changes
incompatibly; :func:`read_envelope` rejects
any other version with :class:`SnapshotVersionError` rather than risking a
silently-wrong resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import zlib
from typing import Any, Dict, Optional, Tuple

from repro.crypto.hashing import constant_time_equal

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SNAPSHOT_MAGIC",
    "SnapshotError",
    "SnapshotVersionError",
    "write_envelope",
    "read_header",
    "read_envelope",
]

SNAPSHOT_MAGIC = b"REPROSNAP\n"
# 2: vector epoch 2.  The layout is unchanged, but retained sampler hashes
# and every key now come from different functions (SplitMix64 input
# scramble, sieved prime search): resuming a version-1 state, or finishing a
# version-1 seed sweep, would silently mix the two epochs.  Conformance
# vectors share the envelope, so a version-1 vector is refused as such
# instead of being reported as drift in every section.
#
# A change to one payload kind alone renames that kind instead of bumping
# the version: the checkpoint payload became the bundle itself under the
# kind "checkpoint", so every "run-state" file is refused by kind before
# unpickling, while the vectors — same envelope, unchanged sections — stay
# valid.  A bump would have invalidated every committed vector for it.
# The bundle changed shape again when round records became columns, and
# the kind moved on to "checkpoint-2" the same way; once more when its
# spec dropped two engine fields (spec_version 2): "checkpoint-3"; and
# again when the telemetry hub lost its profiler: "checkpoint-4"; and when
# the RAPTEE settings became one class: "checkpoint-5".
SNAPSHOT_FORMAT_VERSION = 2


class SnapshotError(RuntimeError):
    """A snapshot could not be written, read or validated."""


class SnapshotVersionError(SnapshotError):
    """The snapshot's format version does not match this code's."""


def write_envelope(
    path: str, kind: str, meta: Dict[str, Any], state: object
) -> None:
    """Serialize ``state`` to ``path`` under a versioned, checksummed header.

    The write is atomic (temp file + rename), so an interrupted checkpoint
    never clobbers the previous good one — the property that makes
    checkpoint-every-N safe to leave on for multi-hour runs.
    """
    try:
        raw = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise SnapshotError(
            f"simulation state is not serializable: {exc}. Snapshots require "
            f"every attached callable (node_factory, custom hooks) to be a "
            f"module-level function or class instance, not a closure or lambda."
        ) from exc
    payload = zlib.compress(raw, 6)
    header = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "kind": kind,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "meta": dict(meta),
    }
    header_line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as stream:
        stream.write(SNAPSHOT_MAGIC)
        stream.write(header_line)
        stream.write(payload)
    os.replace(tmp_path, path)


def read_header(path: str) -> Dict[str, Any]:
    """Parse and validate the header only (no payload unpickling)."""
    with open(path, "rb") as stream:
        magic = stream.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotError(f"{path} is not a repro snapshot (bad magic)")
        header_line = stream.readline()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path}: corrupt snapshot header: {exc}") from exc
    version = header.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotVersionError(
            f"{path} uses snapshot format version {version!r}, but this "
            f"build reads version {SNAPSHOT_FORMAT_VERSION}. Re-create the "
            f"snapshot with the matching version of repro, or finish the "
            f"run with the version that wrote it."
        )
    return header


def read_envelope(
    path: str, expected_kind: Optional[str] = None
) -> Tuple[Dict[str, Any], Any]:
    """Read ``path`` back into ``(header, state)``, verifying integrity."""
    header = read_header(path)
    if expected_kind is not None and header.get("kind") != expected_kind:
        raise SnapshotError(
            f"{path} holds a {header.get('kind')!r} snapshot, "
            f"expected {expected_kind!r}"
        )
    with open(path, "rb") as stream:
        stream.read(len(SNAPSHOT_MAGIC))
        stream.readline()
        payload = stream.read()
    if len(payload) != header.get("payload_bytes"):
        raise SnapshotError(
            f"{path}: truncated snapshot payload "
            f"({len(payload)} bytes, header says {header.get('payload_bytes')})"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if not constant_time_equal(
        digest.encode("ascii"), str(header.get("payload_sha256")).encode("ascii")
    ):
        raise SnapshotError(f"{path}: snapshot payload checksum mismatch")
    try:
        state = pickle.loads(zlib.decompress(payload))
    except Exception as exc:
        raise SnapshotError(f"{path}: failed to deserialize payload: {exc}") from exc
    return header, state
