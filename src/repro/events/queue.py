"""Deterministic event queue: a heap keyed on ``(time, tiebreak_seq)``.

Python's :mod:`heapq` is only a partial order — two entries with equal
keys pop in an order that depends on heap internals (sift history), which
is exactly the kind of hidden state that breaks run-to-run reproducibility
the moment an unrelated event is added.  The queue therefore keys every
entry on ``(time, seq)`` where ``seq`` is a monotonically increasing
insertion counter: events scheduled for the same timestamp drain in the
order they were scheduled, always, regardless of how the heap happened to
arrange them.  The callable itself never participates in comparisons.

This mirrors the scheduler discipline of AsyncFlow-style simulators but
with the tie-break made explicit and pinned by a regression test
(``tests/test_events_queue.py``).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, NamedTuple, Optional

__all__ = ["Event", "EventQueue"]


class Event(NamedTuple):
    """One scheduled occurrence.

    ``label`` is a short human-readable tag (``"cycle.begin"``,
    ``"deliver.push"``, ``"round.boundary"`` …) for debugging; it carries
    no scheduling semantics.
    """

    time: float
    seq: int
    label: str
    action: Callable[[], None]


class EventQueue:
    """Min-heap of :class:`Event` ordered by ``(time, seq)``."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def scheduled_total(self) -> int:
        """How many events were ever scheduled (the insertion counter)."""
        return self._seq

    def schedule(self, time: float, label: str,
                 action: Callable[[], None]) -> Event:
        """Insert ``action`` at ``time``; later insertions at the same
        timestamp drain later (FIFO among equal times)."""
        if time < 0:
            raise ValueError(f"cannot schedule at negative time {time!r}")
        event = Event(float(time), self._seq, label, action)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def peek(self) -> Optional[Event]:
        return self._heap[0] if self._heap else None

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        return heapq.heappop(self._heap)
