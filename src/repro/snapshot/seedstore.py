"""Per-seed result store backing resumable :func:`repro.experiments.runner.repeat`.

A deliberately simple, human-inspectable JSON file::

    {
      "format_version": 2,
      "kind": "repeat-checkpoint",
      "results": {"1": {...RunMetrics fields...}, "7": {...}}
    }

The store is written after *every* completed seed (atomically, temp file +
rename), so a multi-hour sweep killed at seed 37 restarts at seed 37 — not
at seed 0.  Values are plain dicts; the runner owns the dataclass
conversion so this module stays a dependency-free leaf.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

from repro.snapshot.format import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    SnapshotVersionError,
)

__all__ = ["SeedResultStore"]

_KIND = "repeat-checkpoint"


class SeedResultStore:
    """Append-per-seed JSON store of completed repetition results."""

    def __init__(self, path: str):
        self.path = path
        self._results: Dict[int, Dict[str, Any]] = {}
        if os.path.exists(path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as stream:
            try:
                document = json.load(stream)
            except json.JSONDecodeError as exc:
                raise SnapshotError(
                    f"{self.path}: corrupt repeat checkpoint: {exc}"
                ) from exc
        version = document.get("format_version")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotVersionError(
                f"{self.path} uses repeat-checkpoint format version "
                f"{version!r}, but this build reads version "
                f"{SNAPSHOT_FORMAT_VERSION}"
            )
        if document.get("kind") != _KIND:
            raise SnapshotError(
                f"{self.path} holds a {document.get('kind')!r} file, "
                f"expected {_KIND!r}"
            )
        self._results = {
            int(seed): dict(payload)
            for seed, payload in document.get("results", {}).items()
        }

    def results(self) -> Dict[int, Dict[str, Any]]:
        """Completed results, keyed by seed."""
        return dict(self._results)

    def record(self, seed: int, payload: Dict[str, Any]) -> None:
        """Persist one completed seed's metrics (atomic rewrite)."""
        self._results[int(seed)] = dict(payload)
        document = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "kind": _KIND,
            "results": {
                str(seed): self._results[seed] for seed in sorted(self._results)
            },
        }
        tmp_path = f"{self.path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as stream:
            json.dump(document, stream, indent=2, sort_keys=True)
            stream.write("\n")
        os.replace(tmp_path, self.path)
