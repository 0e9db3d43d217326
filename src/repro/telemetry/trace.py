"""Structured trace model: events and spans keyed by ``(round, node, phase)``.

A trace is an append-only sequence of events collected in memory while a
simulation runs, each stored as the JSONL line it exports to: the line is
encoded once, when the event is emitted, so exporting a trace is a join
(:func:`repro.telemetry.exporters.trace_to_jsonl`) and a traced run holds
each event once.  Readers see :class:`TraceEvent` records through
:attr:`TraceCollector.events`, a read-only view that decodes a line when it
is read.  Every event carries the simulated round it happened in, the
acting node (when one is identifiable) and the engine phase (``begin`` /
``gossip`` / ``end``) — the coordinates the paper's evaluation reasons in.
Spans are begin/end event pairs sharing the begin event's sequence number,
which is enough to reconstruct nesting because the simulator is
single-threaded and round-synchronous.

Line format: byte for byte ``json.dumps(event.to_dict(), sort_keys=True,
separators=(",", ":"))`` plus ``"\\n"``.  :func:`encode_line` builds it
from a per-shape template — the record's keys are fixed and a fields
dict's keys repeat per call site — with ``str`` / ``int`` / ``bool`` /
``None`` values formatted in place and any other value (floats, nested
containers) handed to the ``json`` encoder;
``tests/test_property_telemetry.py`` holds the template to ``json.dumps``
on generated events.

Determinism contract: events contain only values derived from simulation
state (rounds, node IDs, causes, counts), never wall-clock readings — two
runs of the same scenario and seed must serialize to byte-identical JSONL
(enforced by ``tests/test_telemetry_integration.py``).  Wall-clock numbers
live in :mod:`repro.telemetry.profiling`, outside the trace.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = ["TraceEvent", "TraceEvents", "TraceCollector", "EVENT_KINDS",
           "encode_line"]

#: The three record kinds a trace line may carry.
EVENT_KINDS = ("event", "begin", "end")

#: Encodes what the templates do not format in place; the exact settings of
#: the reference ``json.dumps`` call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    ``seq`` is the global emission index (0-based); for ``kind="end"``
    records, ``fields["span"]`` holds the matching begin event's ``seq``.
    """

    seq: int
    kind: str
    name: str
    round: int
    node: Optional[int] = None
    phase: Optional[str] = None
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "name": self.name,
            "round": self.round,
            "node": self.node,
            "phase": self.phase,
            "fields": self.fields,
        }


@lru_cache(maxsize=256)
def _shape(keys: Tuple[object, ...]) -> Tuple[Optional[Tuple[str, ...]], str]:
    """``(sorted field keys, line template)`` for a fields dict with ``keys``.

    The template's ``%s`` slots take the field values in sorted key order,
    then kind, name, node, phase and round, already JSON-encoded; the last
    slot is ``seq``.  Keys other than exact ``str`` (ints, say) leave the
    whole fields dict to the encoder: ``None`` in place of the key order.
    """
    if all(type(key) is str for key in keys):
        order: Optional[Tuple[str, ...]] = tuple(sorted(keys))
        head = "{" + ",".join(
            encode_basestring_ascii(key).replace("%", "%%") + ":%s"
            for key in order
        ) + "}"
    else:
        order, head = None, "%s"
    return order, (
        '{"fields":' + head
        + ',"kind":%s,"name":%s,"node":%s,"phase":%s,"round":%s,"seq":%d}\n'
    )


def encode_line(
    seq: int,
    kind: str,
    name: str,
    round_number: int,
    node: Optional[int],
    phase: Optional[str],
    fields: Mapping[object, object],
) -> str:
    """The event's JSONL line, trailing newline included."""
    order, template = _shape(tuple(fields))
    values: List[object] = (
        [fields] if order is None else [fields[key] for key in order]
    )
    values += (kind, name, node, phase, round_number)
    encoded: List[object] = []
    for value in values:
        cls = type(value)
        if cls is str:
            encoded.append(encode_basestring_ascii(value))
        elif cls is int:
            encoded.append(value)  # "%s" of an exact int is its JSON
        elif value is None:
            encoded.append("null")
        elif cls is bool:
            encoded.append("true" if value else "false")
        else:
            encoded.append(_ENCODER.encode(value))
    encoded.append(seq)
    return template % tuple(encoded)


def _decode(line: str) -> TraceEvent:
    return TraceEvent(**json.loads(line))


class TraceEvents(Sequence[TraceEvent]):
    """Read-only view of a collector's events, decoding a line when read.

    The view is live: events emitted after it was taken show up in it.
    """

    __slots__ = ("_lines",)

    def __init__(self, lines: List[str]) -> None:
        self._lines = lines

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[TraceEvent, List[TraceEvent]]:
        if isinstance(index, slice):
            return [_decode(line) for line in self._lines[index]]
        return _decode(self._lines[index])

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(_decode, self._lines)

    def jsonl(self) -> str:
        """The trace as JSON Lines: one join of the stored lines."""
        return "".join(self._lines)


class TraceCollector:
    """Appends events in emission order and hands out span contexts."""

    def __init__(self) -> None:
        self._lines: List[str] = []

    def __setstate__(self, state: Dict[str, object]) -> None:
        if "_lines" not in state:
            raise ValueError(
                "this checkpoint holds a trace in the old layout (one "
                "TraceEvent object per event); this version of repro keeps "
                "each event as its JSONL line and cannot resume it. Finish "
                "the run with the version of repro that wrote the checkpoint."
            )
        self.__dict__.update(state)

    def __len__(self) -> int:
        return len(self._lines)

    @property
    def events(self) -> TraceEvents:
        """The events, decoded from their lines when read.

        A decoded event equals the emitted one for JSON-native values, up
        to one limit of JSON itself: a string holding a high surrogate
        followed by a low one (``"\\ud800\\udc00"``) is escaped exactly as
        the astral character the pair stands for (U+10000), so it reads
        back as that one character.  The stored line is still the
        reference encoding.
        """
        return TraceEvents(self._lines)

    def record(
        self,
        name: str,
        round_number: int,
        node: Optional[int],
        phase: Optional[str],
        kind: str,
        fields: Mapping[object, object],
    ) -> int:
        """Append one event as its line and return its ``seq``.

        The hub's and the network's emit path: ``fields`` is encoded now
        and not kept, so later mutation of it does not reach the trace.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"kind must be one of {EVENT_KINDS}, got {kind!r}")
        seq = len(self._lines)
        self._lines.append(
            encode_line(seq, kind, name, round_number, node, phase, fields)
        )
        return seq

    def emit(
        self,
        name: str,
        round_number: int,
        node: Optional[int] = None,
        phase: Optional[str] = None,
        kind: str = "event",
        **fields: object,
    ) -> TraceEvent:
        seq = self.record(name, round_number, node, phase, kind, fields)
        return TraceEvent(seq, kind, name, round_number, node, phase, fields)

    @contextmanager
    def span(
        self,
        name: str,
        round_number: int,
        node: Optional[int] = None,
        phase: Optional[str] = None,
        **fields: object,
    ) -> Iterator[TraceEvent]:
        """Emit a begin/end pair around a code block."""
        begin = self.emit(
            name, round_number, node=node, phase=phase, kind="begin", **fields
        )
        try:
            yield begin
        finally:
            self.record(name, round_number, node, phase, "end",
                        {"span": begin.seq})

    # -- reading -------------------------------------------------------------

    def named(self, name: str) -> List[TraceEvent]:
        return [event for event in self.events if event.name == name]

    def in_round(self, round_number: int) -> List[TraceEvent]:
        return [event for event in self.events if event.round == round_number]
