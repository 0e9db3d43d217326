"""Determinism matrix for the perf layer.

PR 3 proved ``repeat()`` gives seed-ordered, element-wise identical results
whatever the worker count; this extends that guarantee to the caches of the
perf layer: a worker pool (fresh processes, fresh caches) must agree
element-wise with the serial path (warm schedule/pair caches) — i.e. cache
warmth is not observable.  The pinned differential scenarios get the same
check on their full byte surface (trace JSONL, metrics CSV, views, series).
"""

from __future__ import annotations

import pytest

from repro.core.eviction import FixedEviction
from repro.experiments.runner import RunMetrics, repeat
from repro.experiments.scenarios import TopologySpec, build_raptee_simulation
from repro.experiments.runner import run_bundle
from tests._pinned import PINNED, run_pinned

SEEDS = [101, 202, 303, 404]
ROUNDS = 5


def _build_and_run_perf(seed: int) -> RunMetrics:
    # Module level so ProcessPoolExecutor can pickle it (workers > 1).
    # Encryption on: the scenario must cross the schedule and pair caches.
    spec = TopologySpec(
        n_nodes=30, byzantine_fraction=0.10, trusted_fraction=0.10,
        view_ratio=0.12, transport_encryption=True,
    )
    bundle = build_raptee_simulation(spec, seed, eviction=FixedEviction(0.6))
    return run_bundle(bundle, ROUNDS)


class TestPerfDeterminismMatrix:
    def test_workers_one_vs_four_element_wise_identical(self):
        serial = repeat(_build_and_run_perf, SEEDS, workers=1)
        pooled = repeat(_build_and_run_perf, SEEDS, workers=4)
        # RunMetrics is a frozen dataclass: == is field-wise equality.
        assert serial.runs == pooled.runs
        assert serial.resilience == pooled.resilience
        assert serial.discovery_round == pooled.discovery_round
        assert serial.stability_round == pooled.stability_round

    def test_repeated_serial_runs_identical(self):
        # Second pass runs with caches warm from the first — results must
        # not notice.
        assert repeat(_build_and_run_perf, SEEDS).runs == \
            repeat(_build_and_run_perf, SEEDS).runs


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_runs_are_self_deterministic(name):
    """Same seed → identical artifacts (no hidden global state)."""
    assert run_pinned(name) == run_pinned(name)


def test_encrypted_scenario_actually_encrypts():
    """Guard against the encrypted differentials passing vacuously."""
    assert run_pinned("raptee-fixed-eviction")["totals"][-1] > 0  # bytes_encrypted
