"""Opt-in wall-clock profiling hooks for hot paths.

The telemetry trace and the metrics registry are part of the deterministic
surface — byte-identical across runs — so wall-clock timings can never live
there.  This module is the escape hatch: a :class:`Profiler` accumulates
``time.perf_counter`` durations per named section (sampler refresh, min-wise
hashing, view merge, …) when *enabled*, and compiles to a no-op otherwise.

The invariant the test suite enforces: enabling or disabling the profiler
never changes protocol results, because timers only ever *observe* the code
they wrap.  Profile read-outs are reported separately
(:func:`repro.telemetry.exporters.render_profile`) and never serialized
into the JSONL trace.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List

__all__ = ["ProfileRecord", "Profiler"]


@dataclass
class ProfileRecord:
    """Accumulated wall-clock cost of one named section."""

    calls: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


class Profiler:
    """Named wall-clock timers; inert unless ``enabled``."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.records: Dict[str, ProfileRecord] = {}

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Time a code block under ``name`` (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            record = self.records.get(name)
            if record is None:
                record = ProfileRecord()
                self.records[name] = record
            record.calls += 1
            record.total_seconds += elapsed
            record.max_seconds = max(record.max_seconds, elapsed)

    def rows(self) -> List[tuple]:
        """``(name, calls, total_s, mean_s, max_s)`` rows, sorted by cost."""
        return [
            (
                name,
                record.calls,
                record.total_seconds,
                record.mean_seconds,
                record.max_seconds,
            )
            for name, record in sorted(
                self.records.items(),
                key=lambda item: (-item[1].total_seconds, item[0]),
            )
        ]

    def reset(self) -> None:
        self.records.clear()
