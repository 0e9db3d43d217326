"""Conformance vectors: checksummed golden run records.

A vector file freezes one scenario's deterministic surface — the spec
itself plus the sections :func:`repro.scenario.run.artifact_sections`
produces — inside the versioned snapshot envelope
(:mod:`repro.snapshot.format`), with a sha256 per section recorded in the
envelope header's ``meta``.  That layering gives three distinct failure
modes, each reported distinctly:

* **envelope corruption** — bad magic/truncation/whole-payload checksum,
  raised by the envelope layer as :class:`~repro.snapshot.format
  .SnapshotError` (or :class:`SnapshotVersionError` on a format bump);
* **section corruption** — a section's stored bytes no longer match its
  recorded digest: :class:`~repro.scenario.errors.VectorIntegrityError`
  *naming the section*;
* **drift** — a healthy vector whose scenario, re-run on the current
  code, produces different bytes: reported (not raised) by
  :func:`verify_vector` with per-section expected/actual digests.

Any alternative RAPTEE implementation that can load the spec section and
emit the same sections can replay these vectors — that is the public
conformance suite the ROADMAP asks for.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.scenario.errors import VectorError, VectorIntegrityError
from repro.scenario.run import artifact_sections, run_scenario
from repro.scenario.spec import ScenarioSpec, spec_from_dict
from repro.snapshot.format import read_envelope, write_envelope

__all__ = [
    "DEFAULT_VECTOR_DIR",
    "VECTOR_SUFFIX",
    "VECTOR_KIND",
    "VECTOR_VERSION",
    "VectorVerification",
    "write_vector",
    "read_vector",
    "generate_vector",
    "verify_vector",
    "drift_report",
    "vector_path",
    "vector_files",
]

#: Envelope ``kind`` tag for conformance vectors.
VECTOR_KIND = "conformance-vector"
#: Bumped when the *section* layout changes incompatibly (the envelope
#: format itself is versioned separately by the snapshot layer).
VECTOR_VERSION = 1
#: Repo-relative home of the committed golden vectors.
DEFAULT_VECTOR_DIR = "vectors"
VECTOR_SUFFIX = ".vec"


def vector_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"{name}{VECTOR_SUFFIX}")


def vector_files(directory: str) -> List[str]:
    """The vector files in ``directory``, sorted."""
    return sorted(
        os.path.join(directory, entry)
        for entry in os.listdir(directory)
        if entry.endswith(VECTOR_SUFFIX)
    )


def _canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class VectorVerification:
    """Outcome of re-running one vector's scenario against its record."""

    name: str
    path: str
    #: section -> (recorded digest, fresh digest), for sections that drifted.
    drifted: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: Compact expected/actual values for drifted small sections
    #: (``pollution``, the digest sections) — the drift report's substance.
    details: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.drifted


def write_vector(path: str, sections: Dict[str, Any]) -> None:
    """Write a vector: canonical-JSON sections + per-section sha256 meta."""
    if "spec" not in sections:
        raise VectorError("a conformance vector requires a 'spec' section")
    encoded = {name: _canonical_json(value) for name, value in sections.items()}
    meta = {
        "vector_version": VECTOR_VERSION,
        "scenario": sections["spec"]["name"],
        "spec_version": sections["spec"]["spec_version"],
        "section_sha256": {name: _digest(text) for name, text in encoded.items()},
    }
    write_envelope(path, VECTOR_KIND, meta, {"sections": encoded})


def read_vector(path: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Read a vector back as ``(meta, sections)``, verifying integrity.

    Raises :class:`VectorIntegrityError` naming the first section whose
    stored bytes do not match their recorded digest; envelope-level
    problems (bad magic, truncation, version bump) surface as the
    snapshot layer's own errors.
    """
    header, state = read_envelope(path, expected_kind=VECTOR_KIND)
    meta = header.get("meta", {})
    version = meta.get("vector_version")
    if version != VECTOR_VERSION:
        raise VectorError(
            f"{path} is a version-{version!r} conformance vector; this build "
            f"reads version {VECTOR_VERSION}. Regenerate with "
            f"'repro vectors generate'."
        )
    encoded = state.get("sections") if isinstance(state, dict) else None
    if not isinstance(encoded, dict):
        raise VectorError(f"{path}: malformed vector payload (no sections)")
    recorded = meta.get("section_sha256", {})
    if sorted(recorded) != sorted(encoded):
        raise VectorIntegrityError(
            f"{path}: stored sections {sorted(encoded)} do not match the "
            f"header's digest list {sorted(recorded)}"
        )
    sections: Dict[str, Any] = {}
    for name in sorted(encoded):
        text = encoded[name]
        actual = _digest(text)
        if actual != recorded[name]:
            raise VectorIntegrityError(
                f"{path}: section {name!r} checksum mismatch "
                f"(recorded {recorded[name]}, stored bytes hash to {actual})",
                section=name,
            )
        sections[name] = json.loads(text)
    return meta, sections


def generate_vector(spec: ScenarioSpec, path: str) -> Dict[str, Any]:
    """Run ``spec`` and freeze the result at ``path``; returns the sections."""
    sections = artifact_sections(run_scenario(spec))
    write_vector(path, sections)
    return sections


#: Small sections whose expected/actual values are worth reproducing in a
#: drift report verbatim (the bulky ones are compared by digest only).
_DETAIL_SECTIONS = ("pollution", "trace_digest", "metrics_digest", "spec")


def verify_vector(path: str) -> VectorVerification:
    """Replay a vector's scenario on the current code and diff the record.

    Integrity problems raise; behavioural drift is *returned* so callers
    (the CLI, the pytest runner) can aggregate a report over many vectors.
    """
    meta, sections = read_vector(path)
    spec = spec_from_dict(sections["spec"])
    if spec.name != meta.get("scenario"):
        raise VectorError(
            f"{path}: header names scenario {meta.get('scenario')!r} but the "
            f"spec section is {spec.name!r}"
        )
    fresh = artifact_sections(run_scenario(spec))
    result = VectorVerification(name=spec.name, path=path)
    for name in sorted(set(sections) | set(fresh)):
        recorded_text = _canonical_json(sections[name]) if name in sections else ""
        fresh_text = _canonical_json(fresh[name]) if name in fresh else ""
        if recorded_text == fresh_text:
            continue
        result.drifted[name] = (_digest(recorded_text), _digest(fresh_text))
        if name in _DETAIL_SECTIONS:
            result.details[name] = {
                "recorded": sections.get(name),
                "actual": fresh.get(name),
            }
    return result


def drift_report(results: List[VectorVerification]) -> Dict[str, Any]:
    """A JSON-able report over many verifications (the CI artifact)."""
    return {
        "vector_version": VECTOR_VERSION,
        "total": len(results),
        "drifted": sum(1 for result in results if not result.ok),
        "vectors": [
            {
                "name": result.name,
                "path": result.path,
                "ok": result.ok,
                "drifted_sections": {
                    name: {"recorded_sha256": pair[0], "actual_sha256": pair[1]}
                    for name, pair in result.drifted.items()
                },
                "details": result.details,
            }
            for result in results
        ],
    }
