"""Differential equivalence: the shard count is a pure performance knob.

The shard engine's contract (the ordering barrier in
:mod:`repro.shard.engine`): for the same config, every observable artifact
— exported trace JSONL, metrics CSV, final views, lifetime network totals
— is **byte-identical** across shard counts, worker counts, and numeric
backends.  Pinned scenarios cover the feature families the barrier has to
order deterministically:

* the Brahms baseline under message loss with encrypted transport;
* RAPTEE with trusted nodes, adaptive eviction, a loss burst and
  crash/restart faults (the "faults run" the invariance matrix demands);
* periodic sampler validation with crashes (mid-run sampler resets);
* the rows of CI's retired ``shard-invariance`` matrix: encrypted lossy
  RAPTEE at N = 120 with few and with many trusted nodes, and a
  flood-shaped Brahms run whose first round spans many sampler-feed tiles.

Every config is compiled from a ``kind='shard'`` spec dict
(``tests/_pinned.py::shard_config``), some with fields replaced to reach
an edge, and every run is read through the
:class:`~repro.scenario.run.ScenarioArtifacts` every engine returns
(``tests/_pinned.py::run_shard_config``); ``run_scenario`` itself on a
shard spec is covered in ``tests/test_scenario_differential.py``.

A reduced-N shard sweep doubles as the N = 10,000 stand-in in the tier-1
run; the real paper-scale population runs only when ``REPRO_FULL_SCALE``
is set (its wall-clock is a minute or two; the perf ledger's
``shard-brahms-4k`` workload is the timed stand-in), which CI's
``paper-scale-memory`` job does, in a process of its own, to gate the
run's peak RSS.
"""

from __future__ import annotations

import functools
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.scenario.run import ScenarioArtifacts
from repro.shard.state import ShardConfig

from tests._pinned import known_ids, run_shard_config, shard_config


def _brahms_loss_config() -> ShardConfig:
    topology = {"n_nodes": 60, "byzantine_fraction": 0.10, "view_ratio": 0.14,
                "loss_rate": 0.08, "transport_encryption": True}
    return shard_config(topology, seed=11, protocol="brahms")


def _raptee_faults_config() -> ShardConfig:
    topology = {"n_nodes": 80, "byzantine_fraction": 0.10,
                "trusted_fraction": 0.30, "view_ratio": 0.12, "loss_rate": 0.05,
                "transport_encryption": True}
    return shard_config(
        topology, seed=7, protocol="raptee",
        raptee={"eviction": {"kind": "adaptive", "low_share": 0.2,
                             "high_share": 0.8, "low_rate": 0.1,
                             "high_rate": 0.6}},
        faults=[
            {"kind": "loss-burst", "window": {"start": 4, "end": 6},
             "loss_rate": 0.3},
            {"kind": "crash-restart", "node_id": 20, "at_round": 3,
             "down_rounds": 4},
            {"kind": "crash-restart", "node_id": 35, "at_round": 5,
             "down_rounds": 3},
        ],
    )


def _validation_config() -> ShardConfig:
    topology = {"n_nodes": 50, "byzantine_fraction": 0.10, "view_ratio": 0.16}
    config = shard_config(topology, seed=3, protocol="brahms")
    return replace(config, validation_period=5, crashes=((10, 2, 3), (22, 6, 2)))


def _raptee_edge_config(byzantine_fraction: float = 0.10, **overrides) -> ShardConfig:
    """A small RAPTEE population for the segment kernel's edge cases;
    ``overrides`` replace :class:`ShardConfig` fields directly."""
    topology = {"n_nodes": 70, "byzantine_fraction": byzantine_fraction,
                "trusted_fraction": 0.20, "view_ratio": 0.12, "loss_rate": 0.03,
                "transport_encryption": True}
    config = shard_config(topology, seed=23, protocol="raptee")
    return replace(config, **overrides)


def _byzantine_only_partition_config() -> ShardConfig:
    # 14 Byzantine ids: at shards=7 partition [0, 10) holds nothing else.
    return _raptee_edge_config(byzantine_fraction=0.20)


def _no_byzantine_config() -> ShardConfig:
    return _raptee_edge_config(byzantine_fraction=0.0)


def _evict_everything_config() -> ShardConfig:
    # Fixed rate 1.0: keep <= 0, every untrusted id a trusted owner pulled goes.
    return _raptee_edge_config(eviction_kind="fixed", eviction_params=(1.0,))


def _gamma_zero_config() -> ShardConfig:
    return _raptee_edge_config(gamma_count=0)


def _blocking_off_config() -> ShardConfig:
    # Flooded owners renew anyway, so the alpha part needs its keyed subset.
    return _raptee_edge_config(blocking_enabled=False)


def _no_trusted_exchange_config() -> ShardConfig:
    return _raptee_edge_config(trusted_exchange=False)


def _heavy_burst_config() -> ShardConfig:
    # 0.9 extra loss: owners with no delivered push or no answered pull.
    return _raptee_edge_config(loss_bursts=((2, 5, 0.9),))


def _saturated_config() -> ShardConfig:
    # Small population, long run: nodes soon know most ids, so the later
    # rounds mix owners that see a fresh id with owners that see none.
    topology = {"n_nodes": 40, "byzantine_fraction": 0.10, "view_ratio": 0.2}
    return shard_config(topology, seed=29, protocol="brahms")


def _encrypted_raptee_config(trusted_fraction: float) -> ShardConfig:
    topology = {"n_nodes": 120, "byzantine_fraction": 0.10,
                "trusted_fraction": trusted_fraction, "view_ratio": 0.08,
                "loss_rate": 0.05, "transport_encryption": True}
    return shard_config(topology, seed=7, protocol="raptee")


def _few_trusted_config() -> ShardConfig:
    return _encrypted_raptee_config(0.05)


def _many_trusted_config() -> ShardConfig:
    # t = 0.30 makes trusted pairs common, so swaps and eviction run.
    return _encrypted_raptee_config(0.30)


def _flood_config() -> ShardConfig:
    # l1 = N/5: round 1 hands each partition several feed tiles of fresh
    # pairs.  A sampler-feed workspace shared between threads, or carried
    # over stale, breaks these rows.
    topology = {"n_nodes": 400, "byzantine_fraction": 0.10, "view_ratio": 0.20,
                "loss_rate": 0.02}
    return shard_config(topology, seed=7, protocol="brahms")


SCENARIOS = {
    "brahms-loss-encrypted": (_brahms_loss_config, 12),
    "raptee-faults": (_raptee_faults_config, 15),
    "sampler-validation-crashes": (_validation_config, 12),
    "byzantine-only-partition": (_byzantine_only_partition_config, 8),
    "no-byzantine": (_no_byzantine_config, 8),
    "evict-everything": (_evict_everything_config, 8),
    "gamma-zero": (_gamma_zero_config, 8),
    "blocking-off": (_blocking_off_config, 8),
    "no-trusted-exchange": (_no_trusted_exchange_config, 8),
    "heavy-loss-burst": (_heavy_burst_config, 8),
    "saturated-known": (_saturated_config, 12),
    "raptee-few-trusted": (_few_trusted_config, 12),
    "raptee-many-trusted": (_many_trusted_config, 12),
    "brahms-flood": (_flood_config, 4),
}

#: ``(scenario, shards, workers, use_numpy)`` rows of the retired CI matrix
#: that the three generic tests below do not run: workers >= shards, and
#: the pure backend on threads or at another shard count.
EXTRA_ROWS = [
    (name, shards, workers, use_numpy)
    for name in ("raptee-few-trusted", "raptee-many-trusted")
    for shards, workers, use_numpy in ((4, 4, True), (7, 2, False))
] + [("brahms-flood", 4, 2, True), ("brahms-flood", 3, 1, False)]


def _assert_identical(probe: ScenarioArtifacts, baseline: ScenarioArtifacts,
                      label: str) -> None:
    assert probe.trace_jsonl == baseline.trace_jsonl, label
    assert probe.metrics_csv == baseline.metrics_csv, label
    assert probe.final_views == baseline.final_views, label
    assert probe.network_totals == baseline.network_totals, label
    assert probe.bundle.view_records == baseline.bundle.view_records, label
    assert probe.bundle.discovery_round == baseline.bundle.discovery_round, label


@functools.lru_cache(maxsize=None)
def _reference(name: str) -> ScenarioArtifacts:
    build, rounds = SCENARIOS[name]
    return run_shard_config(build(), rounds=rounds, shards=1,
                            trace_messages=True)


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def baseline(request):
    return request.param, SCENARIOS[request.param][1], _reference(request.param)


class TestShardCountInvariance:
    @pytest.mark.parametrize("shards", [2, 4, 7])
    def test_shards_are_byte_invisible(self, baseline, shards):
        name, rounds, reference = baseline
        build, _ = SCENARIOS[name]
        probe = run_shard_config(build(), rounds=rounds, shards=shards,
                            trace_messages=True)
        _assert_identical(probe, reference, f"{name} shards={shards}")

    def test_workers_are_byte_invisible(self, baseline):
        name, rounds, reference = baseline
        build, _ = SCENARIOS[name]
        probe = run_shard_config(build(), rounds=rounds, shards=3, workers=2,
                            trace_messages=True)
        _assert_identical(probe, reference, f"{name} workers=2")

    def test_pure_backend_matches_numpy(self, baseline):
        name, rounds, reference = baseline
        build, _ = SCENARIOS[name]
        probe = run_shard_config(build(), rounds=rounds, shards=2, use_numpy=False,
                            trace_messages=True)
        _assert_identical(probe, reference, f"{name} pure backend")


    @pytest.mark.parametrize("name, shards, workers, use_numpy", EXTRA_ROWS)
    def test_retired_ci_rows(self, name, shards, workers, use_numpy):
        build, rounds = SCENARIOS[name]
        probe = run_shard_config(build(), rounds=rounds, shards=shards,
                                 workers=workers, use_numpy=use_numpy,
                                 trace_messages=True)
        _assert_identical(
            probe, _reference(name),
            f"{name} shards={shards} workers={workers} numpy={use_numpy}",
        )


class TestRunnerDeterminism:
    def test_rerun_is_byte_identical(self):
        build, rounds = SCENARIOS["raptee-faults"]
        first = run_shard_config(build(), rounds=rounds, shards=4,
                            trace_messages=True)
        second = run_shard_config(build(), rounds=rounds, shards=4,
                             trace_messages=True)
        _assert_identical(second, first, "re-run")

    def test_faults_actually_fired(self):
        build, rounds = SCENARIOS["raptee-faults"]
        artifacts = run_shard_config(build(), rounds=rounds, shards=4)
        # The crash/restart schedule must be visible in the run — a dead
        # node drops out of the final views' liveness set while down and
        # the burst window raises losses; if the totals went to zero the
        # scenario would no longer pin what it claims to.
        assert artifacts.bundle.stats.messages_lost > 0
        assert artifacts.bundle.stats.bytes_encrypted > 0
        assert artifacts.bundle.state.evicted_ids > 0


class TestEdgeScenariosBite:
    """The edge scenarios must reach the edge they are named for."""

    def _state(self, name, shards=1):
        build, rounds = SCENARIOS[name]
        return run_shard_config(build(), rounds=rounds, shards=shards).bundle

    def test_byzantine_only_partition_exists(self):
        build, _ = SCENARIOS["byzantine-only-partition"]
        config = build()
        from repro.shard import partition_bounds

        lo, hi = partition_bounds(config.n_nodes, 7)[0]
        assert hi <= config.n_byzantine
        assert self._state("byzantine-only-partition", shards=7).state.renewals > 0

    def test_no_byzantine_still_evicts_and_swaps(self):
        simulation = self._state("no-byzantine")
        assert simulation.config.n_byzantine == 0
        assert simulation.state.trusted_exchanges > 0
        assert simulation.state.evicted_ids > 0

    def test_evict_everything_leaves_trusted_views_clean(self):
        simulation = self._state("evict-everything")
        assert simulation.state.evicted_ids > 0
        assert simulation.state.renewals > 0

    def test_gamma_zero_shortens_views(self):
        simulation = self._state("gamma-zero")
        config = simulation.config
        lengths = {len(view) for view in simulation.final_views().values()}
        assert max(lengths) <= config.alpha_count + config.beta_count

    def test_blocking_off_never_blocks(self):
        simulation = self._state("blocking-off")
        assert simulation.state.blocked_rounds == 0
        assert simulation.state.renewals > 0

    def test_no_trusted_exchange_never_swaps(self):
        simulation = self._state("no-trusted-exchange")
        assert simulation.state.trusted_exchanges == 0
        assert simulation.state.evicted_ids > 0

    def test_heavy_burst_starves_owners(self):
        simulation = self._state("heavy-loss-burst")
        by_round = {rec["round"]: rec for rec in simulation.trace_records}
        # In the burst most messages die; renewals collapse but the run
        # recovers afterwards.
        assert by_round[3]["losses"] > by_round[1]["losses"] * 5
        assert by_round[3]["renewals"] < by_round[8]["renewals"]

    def test_many_trusted_swaps_and_evicts(self):
        state = _reference("raptee-many-trusted").bundle.state
        assert state.trusted_exchanges > 0 and state.evicted_ids > 0

    def test_flood_spans_many_feed_tiles(self, monkeypatch):
        """Some single feed call must cross many tile boundaries, so the
        running ``best`` carries partial minima across tiles."""
        from repro.shard import engine

        build, _ = SCENARIOS["brahms-flood"]
        config = build()
        real_feed = engine._sampler_feed_numpy
        fed = []

        def recording_feed(state, node_a, node_b, f_owner, f_id):
            fed.append(f_id.size)
            return real_feed(state, node_a, node_b, f_owner, f_id)

        monkeypatch.setattr(engine, "_sampler_feed_numpy", recording_feed)
        run_shard_config(config, rounds=1, shards=1)
        tile_rows = engine._FEED_TILE_ELEMENTS // config.sample_size
        assert max(fed) > 8 * tile_rows, (max(fed), tile_rows)

    def test_saturated_run_has_owners_with_nothing_fresh(self):
        from repro.shard import ShardSimulation

        build, rounds = SCENARIOS["saturated-known"]
        simulation = ShardSimulation(build())
        config = simulation.config

        def observed():
            rows = simulation.state.known[config.n_byzantine:]
            return np.array([len(ids) for ids in known_ids(rows, config.n_nodes)])

        simulation.run(rounds - 1)
        before = observed()
        simulation.run_round()
        learned = observed() - before
        assert (learned == 0).any() and (learned > 0).any()


#: Peak RSS allowed to the N = 10,000 smoke, test process included.
_PAPER_SCALE_RSS_BUDGET_MIB = 400


class TestPaperScale:
    def test_reduced_scale_shard_sweep(self):
        # The CI stand-in for N = 10,000: same code path, every batch
        # kernel engaged, population cut to keep it in CI time.
        topology = {"n_nodes": 400, "byzantine_fraction": 0.10,
                    "view_ratio": 0.05, "loss_rate": 0.01}
        config = shard_config(topology, seed=1, protocol="brahms")
        reference = run_shard_config(config, rounds=3, shards=1)
        probe = run_shard_config(config, rounds=3, shards=8)
        _assert_identical(probe, reference, "n=400 shards=8")

    @pytest.mark.skipif(
        not os.environ.get("REPRO_FULL_SCALE"),
        reason="paper-scale population; set REPRO_FULL_SCALE=1 to run "
               "(minutes of wall-clock — the timed stand-in is the perf "
               "ledger's shard-brahms-4k workload, see BENCHMARK.json)",
    )
    def test_full_scale_10k_smoke(self):
        import resource

        # The topology's own view_ratio = 0.02 derives the paper's l1 = 200.
        topology = {"n_nodes": 10_000, "byzantine_fraction": 0.10,
                    "view_ratio": 0.02, "loss_rate": 0.01}
        config = shard_config(topology, seed=1, protocol="brahms")
        artifacts = run_shard_config(config, rounds=2, shards=8)
        views = artifacts.final_views
        assert len(views) == 10_000
        assert artifacts.bundle.stats.pushes_sent > 0
        # The process high-water mark (KiB on Linux), so this test runs in
        # a CI job of its own.  With a dense N × N `known` and round 1's
        # fresh (owner, id) pairs held until integration it peaked at
        # 864 MiB; with packed rows at 288 MiB.
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert peak_mib <= _PAPER_SCALE_RSS_BUDGET_MIB, peak_mib
