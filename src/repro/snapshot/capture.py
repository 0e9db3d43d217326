"""Capture and restore of a per-node run: the checkpoint is the bundle.

``save`` serializes the :class:`~repro.experiments.scenarios.SimulationBundle`
— everything a resumed run needs to be byte-identical to a
straight-through run, and nothing it does not:

* node protocol state: Brahms views, min-wise samplers (the numpy
  coefficient and retained-id columns), RAPTEE degradation flags,
  per-round buffers;
* every PRNG in the graph — the Mersenne-Twister protocol streams and the
  :class:`~repro.crypto.prng.Sha256Prng` key-material streams both travel
  through their ``getstate``/``setstate`` when pickled;
* the network: loss/fault hooks and lifetime traffic totals (the
  encrypted-byte count among them);
* the round recorder: every closed round's record, the discovery rounds
  and the totals the next round's traffic is counted from;
* SGX state: sealed blobs, group/device keys, attestation registry and
  outage flags, enclave crash/provisioning status, cycle accountants;
* fault-plan progress: the injector the bundle holds as ``faults`` — its
  RNG, pending revive schedule and injection stats — plus its recovery
  manager's retry state;
* telemetry: the metrics registry, the collected trace and the round/phase
  clock, so an exported trace covers rounds before *and* after the resume
  seam with no discontinuity;
* the :class:`~repro.scenario.spec.ScenarioSpec` the bundle was compiled
  from, as ``bundle.spec``: its ``rounds`` is the run's round target.

Restoring returns the bundle; the object graph comes back with its
internal references (nodes ↔ network ↔ telemetry ↔ injector) intact
because everything is serialized in one envelope.  The payload kind is
``"checkpoint-5"``: a file of any other kind is refused before anything is
unpickled — among them every checkpoint written when the payload was a
wrapper around the bundle (kind ``"run-state"``), every bundle from
before round records were columns (kind ``"checkpoint"``: its recorder,
network stats and churn model have another shape), every bundle whose
spec is of ``spec_version`` 1 (kind ``"checkpoint-2"``: its engine section
still carries the ``load`` and ``straggler`` fields), and every bundle
from when the telemetry hub held a wall-clock profiler (kind
``"checkpoint-3"``: a hub-wired one names ``repro.telemetry.profiling``,
a module that no longer exists), and every bundle from when the RAPTEE
settings had two classes (kind ``"checkpoint-4"``: its spec's ``raptee``
section is a spec-module class that no longer exists, and its RAPTEE nodes
hold a :class:`~repro.core.config.RapteeConfig` of another shape).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.scenarios import SimulationBundle
from repro.snapshot.format import read_envelope, read_header, write_envelope

__all__ = ["save", "restore", "describe"]

_KIND = "checkpoint-5"


def save(bundle: SimulationBundle, path: str) -> None:
    """Checkpoint ``bundle`` to ``path``.  The header names the scenario and
    carries the rounds completed, the round target and the node count, so
    ``repro snapshot info`` shows them without unpickling."""
    if not isinstance(bundle, SimulationBundle):
        raise TypeError(
            f"cannot snapshot a {type(bundle).__name__}; expected a SimulationBundle"
        )
    meta = {
        "scenario": bundle.spec.name,
        "rounds_completed": bundle.simulation.round_number,
        "rounds_total": bundle.spec.rounds,
        "nodes": len(bundle.simulation.nodes),
    }
    write_envelope(path, _KIND, meta, bundle)


def restore(path: str) -> SimulationBundle:
    """Load a checkpoint written by :func:`save`.

    Raises :class:`~repro.snapshot.format.SnapshotVersionError` on a format
    version mismatch and :class:`~repro.snapshot.format.SnapshotError` on a
    corrupt or wrong-kind file.
    """
    _header, bundle = read_envelope(path, expected_kind=_KIND)
    return bundle


def describe(path: str) -> Dict[str, Any]:
    """The snapshot's header (version, kind, meta) without unpickling."""
    return read_header(path)
