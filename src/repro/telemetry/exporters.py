"""Exporters: JSONL traces, CSV metric snapshots, human summary tables.

Everything here is string-in/string-out — the telemetry package performs no
I/O (the same purity discipline the simulation core obeys: the
``purity-io`` rule of ``tests/test_source_invariants.py``).  File writing
belongs to the CLI.

Determinism: JSONL lines use ``sort_keys`` and compact separators, and the
metrics CSV is emitted from the registry's sorted snapshot, so identical
runs export byte-identical artifacts — the property the ``trace-smoke`` CI
job and the acceptance test rely on.

Cost: the collector encodes each event to its line when it is emitted
(:mod:`repro.telemetry.trace`), so :func:`trace_to_jsonl` on a collector's
``events`` is one ``"".join`` of the stored lines — the exported text is
the only copy it allocates.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Sequence

from repro.telemetry.hub import Telemetry
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import (
    EVENT_KINDS,
    TraceEvent,
    TraceEvents,
    encode_line,
)

__all__ = [
    "trace_to_jsonl",
    "validate_trace_jsonl",
    "metrics_to_csv",
    "render_summary",
    "TRACE_SCHEMA_KEYS",
]

#: Exactly the keys every JSONL trace line must carry.
TRACE_SCHEMA_KEYS = ("fields", "kind", "name", "node", "phase", "round", "seq")


def trace_to_jsonl(events: Sequence[TraceEvent]) -> str:
    """Serialize a trace to JSON Lines (one event per line, sorted keys).

    A collector's :attr:`~repro.telemetry.trace.TraceCollector.events`
    already holds its lines, so exporting it is one join; any other
    sequence of events is encoded line by line.
    """
    if isinstance(events, TraceEvents):
        return events.jsonl()
    return "".join(
        encode_line(event.seq, event.kind, event.name, event.round,
                    event.node, event.phase, event.fields)
        for event in events
    )


def validate_trace_jsonl(text: str) -> int:
    """Validate a JSONL trace against the schema; returns the event count.

    Raises :class:`ValueError` on the first malformed line.  Used by the
    ``trace-smoke`` CI job and the integration tests.
    """
    count = 0
    expected_seq = 0
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            raise ValueError(f"line {line_number}: blank line in JSONL trace")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {line_number}: invalid JSON: {error}") from None
        if not isinstance(record, dict):
            raise ValueError(f"line {line_number}: expected an object")
        if tuple(sorted(record)) != TRACE_SCHEMA_KEYS:
            raise ValueError(
                f"line {line_number}: keys {sorted(record)} != "
                f"{list(TRACE_SCHEMA_KEYS)}"
            )
        if record["seq"] != expected_seq:
            raise ValueError(
                f"line {line_number}: seq {record['seq']} != {expected_seq}"
            )
        if record["kind"] not in EVENT_KINDS:
            raise ValueError(
                f"line {line_number}: kind {record['kind']!r} not in {EVENT_KINDS}"
            )
        if not isinstance(record["name"], str) or not record["name"]:
            raise ValueError(f"line {line_number}: name must be a non-empty string")
        if not isinstance(record["round"], int) or record["round"] < 0:
            raise ValueError(f"line {line_number}: round must be an int >= 0")
        if record["node"] is not None and not isinstance(record["node"], int):
            raise ValueError(f"line {line_number}: node must be an int or null")
        if record["phase"] is not None and not isinstance(record["phase"], str):
            raise ValueError(f"line {line_number}: phase must be a string or null")
        if not isinstance(record["fields"], dict):
            raise ValueError(f"line {line_number}: fields must be an object")
        expected_seq += 1
        count += 1
    return count


def _csv_field(value: object) -> str:
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n")):
        return '"' + text.replace('"', '""') + '"'
    return text


def metrics_to_csv(registry: MetricsRegistry) -> str:
    """Flatten a registry snapshot to CSV.

    Columns: ``name, kind, labels, value, count, sum`` — ``count``/``sum``
    are empty for counters and gauges; ``value`` is the histogram mean.
    """
    rows: List[str] = ["name,kind,labels,value,count,sum"]
    for sample in registry.snapshot():
        rows.append(
            ",".join(
                (
                    _csv_field(sample.name),
                    sample.kind,
                    _csv_field(sample.labels_text()),
                    repr(sample.value),
                    "" if sample.count is None else str(sample.count),
                    "" if sample.sum is None else repr(sample.sum),
                )
            )
        )
    return "\n".join(rows) + "\n"


def _table(rows: Iterable[Sequence[str]], header: Sequence[str]) -> str:
    all_rows = [list(header)] + [list(row) for row in rows]
    widths = [
        max(len(row[column]) for row in all_rows)
        for column in range(len(header))
    ]
    lines = []
    for index, row in enumerate(all_rows):
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


#: Families surfaced by :func:`render_summary`, with display labels.
_SUMMARY_FAMILIES = (
    ("sim.rounds", "rounds executed"),
    ("network.pushes_sent", "pushes sent"),
    ("network.pushes_delivered", "pushes delivered"),
    ("network.requests_sent", "requests sent"),
    ("network.replies_delivered", "replies delivered"),
    ("network.messages_lost", "messages lost"),
    ("sgx.ecalls", "SGX ECALLs"),
    ("attestation.verifications", "attestation verifications"),
    ("provisioning.attempts", "provisioning attempts"),
    ("faults.drops", "fault-injected drops"),
    ("raptee.degradations", "trusted-node degradations"),
    ("raptee.promotions", "trusted-node promotions"),
    # The fault drills' families: zero, so absent, without faults or membership.
    ("raptee.degraded_nodes", "still degraded (final)"),
    ("faults.crashes", "node crashes"),
    ("faults.restarts", "node restarts"),
    ("faults.enclave_crashes", "enclave crashes"),
    ("faults.blob_corruptions", "sealed blobs corrupted"),
    ("recovery.restores_from_seal", "sealed restores"),
    ("recovery.reprovisions", "re-provisionings"),
    ("recovery.failed_attempts", "failed recovery attempts"),
    ("membership.rotations", "group-key rotations"),
    ("membership.epoch", "group-key epoch (final)"),
    ("membership.revocations", "membership revocations"),
    ("membership.joins", "membership joins"),
    ("membership.leaves", "membership leaves"),
    ("membership.stale_degrades", "stale-epoch degrades"),
)


def render_summary(telemetry: Telemetry) -> str:
    """Human-readable roll-up of the headline metric families."""
    registry = telemetry.registry
    rows = []
    for family, label in _SUMMARY_FAMILIES:
        total = registry.total(family)
        if total or family in ("sim.rounds",):
            rows.append((label, f"{total:g}"))
    if telemetry.trace is not None:
        rows.append(("trace events", str(len(telemetry.trace))))
    return _table(rows, header=("metric", "total"))
