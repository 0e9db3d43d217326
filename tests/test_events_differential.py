"""Differential equivalence: a barrier spec is the round loop.

Contract: a ``kind="events", mode="barrier"`` spec compiles to no
:class:`~repro.events.EventEngine` — its bundle's clock is its own
:class:`~repro.sim.engine.Simulation` — and through
:func:`~repro.scenario.run_scenario` it runs *byte for byte* what its
``kind="rounds"`` twin runs: same exported trace JSONL, same metrics CSV,
same final views, same per-round traffic series.  Pinned on the three
shared scenarios (Brahms baseline, RAPTEE with fixed eviction + encrypted
transport, RAPTEE under an active fault plan with a mid-run crash), which
live in ``tests/_pinned.py``.
"""

from __future__ import annotations

import math

import pytest

from repro.events import EventOptions
from repro.scenario import ScenarioSpecError, run_scenario, spec_from_dict
from tests._pinned import PINNED_DICTS, ROUNDS, observables

_BARRIER = {"kind": "events", "mode": "barrier"}


def _run(spec_dict, engine=None):
    if engine is not None:
        spec_dict = dict(spec_dict, engine=engine)
    return run_scenario(spec_from_dict(spec_dict))


@pytest.mark.parametrize("name", sorted(PINNED_DICTS))
def test_barrier_event_engine_byte_identical_to_round_engine(name):
    rounds = _run(PINNED_DICTS[name])
    barrier = _run(PINNED_DICTS[name], engine=_BARRIER)
    # No event engine is attached: the bundle runs on its own round loop.
    assert barrier.bundle.engine is barrier.bundle.simulation
    assert observables(barrier.bundle, ROUNDS) == observables(rounds.bundle, ROUNDS)


def test_differential_is_not_vacuous():
    """Guard: the scenarios produce traffic and trace events, and the fault
    scenario's injector fires on the barrier spec's clock."""
    observed = observables(
        _run(PINNED_DICTS["brahms-baseline"], engine=_BARRIER).bundle, ROUNDS
    )
    assert observed["totals"][0] > 0  # pushes_sent
    assert observed["trace_jsonl"]
    faults = _run(PINNED_DICTS["raptee-faults"], engine=_BARRIER)
    assert faults.bundle.faults.stats.crashes == 1


def test_barrier_mode_rejects_latency_and_stragglers():
    """A barrier spec is the round loop: a clock knob would be silently
    ignored, so the spec refuses it and names the field (``straggler`` and
    ``load`` are no engine fields at all any more: refused the same way)."""
    knobs = {"latency": "constant:10", "straggler": "0.1:8", "load": "10:30",
             "tick_interval": 2.5}
    for name, value in knobs.items():
        with pytest.raises(ScenarioSpecError) as excinfo:
            spec_from_dict(dict(PINNED_DICTS["brahms-baseline"],
                                engine=dict(_BARRIER, **{name: value})))
        assert excinfo.value.path == f"engine.{name}"


def test_event_options_refuse_a_clock_that_cannot_advance():
    for interval in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tick_interval"):
            EventOptions(seed=1, tick_interval=interval)
