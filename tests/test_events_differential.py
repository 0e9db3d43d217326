"""Differential equivalence: the round engine is a special case of the
event engine.

Contract (ISSUE 8 acceptance): an :class:`~repro.events.EventEngine` in
**barrier** mode with zero-latency links must reproduce the round
engine's run *byte for byte* — same exported trace JSONL, same metrics
CSV, same final views, same per-round traffic series — on the three
pinned scenarios (Brahms baseline, RAPTEE
with fixed eviction + encrypted transport, RAPTEE under an active fault
plan with a mid-run crash).

The scenarios and the observable-collection helper live in
``tests/_pinned.py``, shared with the other differentials so they can
never drift apart in what they consider "the deterministic surface".
"""

from __future__ import annotations

import pytest

from repro.events import EventOptions, wire_events
from tests._pinned import PINNED, run_pinned


def _events_runner(bundle, seed):
    """A runner that drives the bundle from the event queue, barrier mode."""

    def runner(rounds):
        wire_events(bundle, EventOptions(seed=seed, mode="barrier")).run(rounds)

    return runner


@pytest.mark.parametrize("name", sorted(PINNED))
def test_barrier_event_engine_byte_identical_to_round_engine(name):
    rounds_engine = run_pinned(name)
    event_engine = run_pinned(name, driver=_events_runner)
    # Byte-identical exported artifacts.
    assert rounds_engine["trace_jsonl"] == event_engine["trace_jsonl"]
    assert rounds_engine["metrics_csv"] == event_engine["metrics_csv"]
    # Identical protocol outcomes and per-round traffic series.
    assert rounds_engine["final_views"] == event_engine["final_views"]
    assert rounds_engine["view_trace"] == event_engine["view_trace"]
    assert rounds_engine["pushes_series"] == event_engine["pushes_series"]
    assert rounds_engine["requests_series"] == event_engine["requests_series"]
    assert rounds_engine["losses_series"] == event_engine["losses_series"]
    assert rounds_engine["totals"] == event_engine["totals"]


def test_differential_is_not_vacuous():
    """Guard: the scenarios actually produce traffic and trace events."""
    observed = run_pinned("brahms-baseline", driver=_events_runner)
    assert observed["totals"][0] > 0  # pushes_sent
    assert observed["trace_jsonl"]


def test_barrier_mode_rejects_latency_and_stragglers():
    from repro.events import ConstantLatency, LatencyConfig, StragglerProfile

    with pytest.raises(ValueError):
        EventOptions(seed=1, mode="barrier",
                     latency=LatencyConfig(default=ConstantLatency(0.01)))
    with pytest.raises(ValueError):
        EventOptions(seed=1, mode="barrier",
                     stragglers=StragglerProfile(0.1, 8.0))
    with pytest.raises(ValueError):
        EventOptions(seed=1, mode="sliding")
    with pytest.raises(ValueError):
        EventOptions(seed=1, tick_interval=0.0)
