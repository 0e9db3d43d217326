"""Sharded, vectorized simulation core (the batch counterpart of
:mod:`repro.sim`).

The legacy engine is one Python object per node and one callback per
message — the right shape for protocol fidelity, the wrong one for
N = 10,000.  This package stores the whole population as struct-of-arrays
(:mod:`repro.shard.state`), batches each round's push/pull traffic per
partition (:mod:`repro.shard.engine`), and runs partitions on threads over
that one shared state (:mod:`repro.shard.pool`) — the process pool of the
experiment sweeps is not involved.  A deterministic cross-shard ordering
barrier — a stable ``(round, src, dst, seq)`` sort over the merged message
stream — makes every run byte-identical regardless of shard count, worker
count or numeric backend; ``tests/test_shard_differential.py`` pins that.

:func:`run_sharded` is the one-call surface: build, run, and collect the
byte-comparable artifacts (trace JSONL, metrics CSV, final views, network
totals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.shard.engine import ShardSimulation
from repro.shard.state import ShardConfig, ShardState, build_state, partition_bounds

__all__ = [
    "ShardConfig",
    "ShardState",
    "ShardSimulation",
    "ShardArtifacts",
    "build_state",
    "partition_bounds",
    "run_sharded",
]


@dataclass
class ShardArtifacts:
    """The byte-comparison surface of one sharded run."""

    simulation: ShardSimulation
    trace_jsonl: str
    metrics_csv: str
    final_views: Dict[int, List[int]]
    network_totals: Dict[str, int]


def run_sharded(
    config: ShardConfig,
    rounds: int,
    shards: int = 1,
    workers: int = 1,
    use_numpy: bool = True,
    trace_messages: bool = False,
) -> ShardArtifacts:
    """Run ``rounds`` rounds and collect every byte-identity artifact.

    The differential suite calls this for each (shards, workers, backend)
    combination and asserts the artifacts are equal byte for byte.
    """
    from repro.telemetry import (
        TelemetryConfig,
        Telemetry,
        metrics_to_csv,
        trace_to_jsonl,
    )

    telemetry = Telemetry(
        TelemetryConfig(tracing=True, trace_messages=trace_messages)
    )
    simulation = ShardSimulation(
        config, shards=shards, workers=workers, use_numpy=use_numpy,
        telemetry=telemetry,
    )
    simulation.run(rounds)
    stats = simulation.stats
    return ShardArtifacts(
        simulation=simulation,
        trace_jsonl=trace_to_jsonl(telemetry.trace.events),
        metrics_csv=metrics_to_csv(telemetry.registry),
        final_views=simulation.final_views(),
        network_totals={
            "pushes_sent": stats.pushes_sent,
            "pushes_delivered": stats.pushes_delivered,
            "requests_sent": stats.requests_sent,
            "replies_delivered": stats.replies_delivered,
            "messages_lost": stats.messages_lost,
            "bytes_encrypted": stats.bytes_encrypted,
        },
    )
