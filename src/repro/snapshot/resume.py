"""Checkpointed execution of a :class:`~repro.experiments.scenarios.SimulationBundle`.

The paper's full-scale regeneration (10,000 nodes × 200 rounds) is a
multi-hour run; :func:`run_with_checkpoints` turns it into a sequence of
resumable chunks: every ``checkpoint_every`` rounds the bundle is saved
(atomically), so a crash or preemption costs at most one chunk of work,
and a finished run's final checkpoint can seed a longer one.  The round
target is the bundle's own ``spec.rounds``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.experiments.scenarios import SimulationBundle
from repro.snapshot.capture import save

__all__ = ["run_with_checkpoints"]


def run_with_checkpoints(
    bundle: SimulationBundle,
    rounds: Optional[int] = None,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[str] = None,
) -> SimulationBundle:
    """Run ``bundle`` to ``rounds`` total rounds, checkpointing as it goes.

    ``rounds`` counts from round zero (it is a *target*, not an increment),
    so resuming a checkpoint taken at round k with the same target runs
    exactly the missing rounds.  ``None`` keeps the stored target,
    ``bundle.spec.rounds``; a number replaces the spec with one that
    carries it.  With ``checkpoint_every`` > 0 the bundle is saved after
    every chunk — including the final one, so a completed run can later be
    extended by resuming with a larger target.  Chunked execution drives
    the same per-round observer sequence as one straight call, which is
    what keeps checkpointed runs byte-identical.
    """
    target = bundle.spec.rounds if rounds is None else rounds
    if target <= 0:
        raise ValueError("rounds must be a positive round target")
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be non-negative")
    if checkpoint_every and not checkpoint_path:
        raise ValueError("checkpoint_every requires a checkpoint_path")
    if target != bundle.spec.rounds:
        bundle.spec = dataclasses.replace(bundle.spec, rounds=target)

    chunk = checkpoint_every or target
    while bundle.simulation.round_number < target:
        bundle.run(min(chunk, target - bundle.simulation.round_number))
        if checkpoint_every:
            save(bundle, checkpoint_path)
    return bundle
