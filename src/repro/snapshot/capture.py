"""Capture and restore of full simulation run state.

``save`` serializes *everything* a resumed run needs to be byte-identical
to a straight-through run — and nothing it does not:

* node protocol state: Brahms views, min-wise samplers (the numpy
  coefficient and retained-id columns), RAPTEE degradation flags,
  per-round buffers;
* every PRNG in the graph — the Mersenne-Twister protocol streams and the
  :class:`~repro.crypto.prng.Sha256Prng` key-material streams both travel
  through their ``getstate``/``setstate`` when pickled;
* the network: loss/fault hooks, lifetime and per-round traffic stats
  (the encrypted-byte count among them);
* SGX state: sealed blobs, group/device keys, attestation registry and
  outage flags, enclave crash/provisioning status, cycle accountants;
* fault-plan progress: the injector the bundle holds as ``faults`` — its
  RNG, pending revive schedule and injection stats — plus its recovery
  manager's retry state;
* telemetry: the metrics registry, the collected trace and the round/phase
  clock, so an exported trace covers rounds before *and* after the resume
  seam with no discontinuity.

Restoring returns a :class:`RunState`; the object graph comes back with
its internal references (nodes ↔ network ↔ telemetry ↔ injector) intact
because everything is serialized in one envelope.  A checkpoint written
before the bundle held its own fault injector and clock (a ``RunState``
with a ``fault_harness``, a bundle with ``events``) is refused with a
:class:`~repro.snapshot.format.SnapshotError` that says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.experiments.scenarios import SimulationBundle
from repro.sim.engine import Simulation
from repro.snapshot.format import read_envelope, read_header, write_envelope

__all__ = ["RunState", "Snapshotable", "save", "restore", "describe"]

_KIND = "run-state"

#: Anything ``save`` accepts: a prepared :class:`RunState`, a scenario
#: bundle (wired or not), or a bare engine.
Snapshotable = Union["RunState", SimulationBundle, Simulation]


@dataclass
class RunState:
    """One resumable run: the simulation plus its wiring and round budget.

    ``simulation`` is always set; ``bundle`` is kept when the state was
    built from one, so a resumed run keeps its trace / discovery /
    telemetry observers and its fault injector.
    """

    simulation: Simulation
    bundle: Optional[SimulationBundle] = None
    rounds_total: int = 0
    label: str = ""
    #: Free-form experiment context carried in the envelope header as well,
    #: so `repro snapshot info` can show it without unpickling.
    extra: Dict[str, Any] = field(default_factory=dict)

    def __setstate__(self, state: Dict[str, Any]) -> None:
        if "fault_harness" in state:
            raise ValueError(
                "this checkpoint holds a run state in the old layout (a fault "
                "harness beside the bundle); this version of repro keeps the "
                "injector in bundle.faults and cannot resume it. Finish the "
                "run with the version of repro that wrote the checkpoint."
            )
        self.__dict__.update(state)

    @property
    def rounds_completed(self) -> int:
        return self.simulation.round_number

    @property
    def rounds_remaining(self) -> int:
        return max(0, self.rounds_total - self.rounds_completed)

    def run_chunk(self, rounds: int) -> None:
        """Advance ``rounds`` rounds: the bundle with its observer stack
        when there is one, else the bare simulation.  Chunked execution
        invokes exactly the same per-round observer sequence as one
        straight call, which is what keeps checkpointed runs
        byte-identical.
        """
        if rounds > 0:
            (self.simulation if self.bundle is None else self.bundle).run(rounds)


def _coerce(state: Snapshotable) -> RunState:
    if isinstance(state, RunState):
        return state
    if isinstance(state, SimulationBundle):
        return RunState(simulation=state.simulation, bundle=state)
    if isinstance(state, Simulation):
        return RunState(simulation=state)
    raise TypeError(
        f"cannot snapshot a {type(state).__name__}; expected RunState, "
        f"SimulationBundle or Simulation"
    )


def save(state: Snapshotable, path: str) -> RunState:
    """Checkpoint a run to ``path``; returns the (coerced) state saved."""
    run_state = _coerce(state)
    meta = {
        "rounds_completed": run_state.rounds_completed,
        "rounds_total": run_state.rounds_total,
        "label": run_state.label,
        "nodes": len(run_state.simulation.nodes),
        **run_state.extra,
    }
    write_envelope(path, _KIND, meta, run_state)
    return run_state


def restore(path: str) -> RunState:
    """Load a checkpoint written by :func:`save`.

    Raises :class:`~repro.snapshot.format.SnapshotVersionError` on a format
    version mismatch and :class:`~repro.snapshot.format.SnapshotError` on a
    corrupt or wrong-kind file.
    """
    _header, state = read_envelope(path, expected_kind=_KIND)
    assert isinstance(state, RunState)
    return state


def describe(path: str) -> Dict[str, Any]:
    """The snapshot's header (version, kind, meta) without unpickling."""
    return read_header(path)
