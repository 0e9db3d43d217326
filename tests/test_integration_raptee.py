"""End-to-end integration tests: the paper's qualitative claims at test scale.

These run full simulations (N ≈ 100-200, tens of rounds) and assert the
*directional* results the paper reports — RAPTEE beats Brahms, trusted views
are cleaner than honest ones, eviction strengthens identification attacks,
the system survives churn — not exact percentages.
"""

import statistics

import pytest

from repro.adversary.identification import IdentificationAttack
from repro.analysis.metrics import resilience_from_trace
from repro.core.eviction import AdaptiveEviction, FixedEviction
from repro.experiments.runner import run_bundle
from repro.experiments.scenarios import (
    TopologySpec,
    build_brahms_simulation,
    build_raptee_simulation,
)
from repro.sim.node import NodeKind

N = 150
ROUNDS = 45
SEED = 11


@pytest.fixture(scope="module")
def brahms_baseline():
    spec = TopologySpec(n_nodes=N, byzantine_fraction=0.2, view_ratio=0.08)
    return run_bundle(build_brahms_simulation(spec, SEED), rounds=ROUNDS)


@pytest.fixture(scope="module")
def raptee_run():
    spec = TopologySpec(
        n_nodes=N, byzantine_fraction=0.2, trusted_fraction=0.2, view_ratio=0.08
    )
    bundle = build_raptee_simulation(spec, SEED, eviction=AdaptiveEviction())
    metrics = run_bundle(bundle, rounds=ROUNDS)
    return bundle, metrics


class TestHeadlineResult:
    def test_brahms_views_get_polluted_beyond_byzantine_share(self, brahms_baseline):
        """Brahms at f=20 %: pollution far exceeds f (the Fig. 3 spiral)."""
        assert brahms_baseline.resilience > 0.30

    def test_raptee_reduces_byzantine_representation(self, brahms_baseline, raptee_run):
        _bundle, metrics = raptee_run
        assert metrics.resilience < brahms_baseline.resilience

    def test_trusted_views_cleaner_than_honest(self, raptee_run):
        bundle, _metrics = raptee_run
        record = bundle.trace.records[-1]
        trusted_mean = statistics.mean(record.by_kind[NodeKind.TRUSTED])
        honest_mean = statistics.mean(record.by_kind[NodeKind.HONEST])
        assert trusted_mean < honest_mean

    def test_byzantine_never_completes_trusted_exchange(self, raptee_run):
        bundle, _metrics = raptee_run
        for node in bundle.simulation.nodes.values():
            if node.kind is NodeKind.TRUSTED:
                # every trusted-source batch must come from a trusted node
                assert all(
                    source in bundle.trusted_ids
                    for source in (
                        batch.source for batch in node._pulled if batch.trusted_source
                    )
                )

    def test_trusted_exchanges_actually_happen(self, raptee_run):
        bundle, _metrics = raptee_run
        total = sum(
            node.trusted_exchanges_total
            for node in bundle.simulation.nodes.values()
            if node.kind is NodeKind.TRUSTED
        )
        assert total > 0

    def test_discovery_happens_for_most_nodes(self, raptee_run):
        bundle, _metrics = raptee_run
        correct = bundle.simulation.correct_node_ids()
        discovered = len(bundle.discovery.discovery_round)
        assert discovered >= 0.6 * len(correct)


class TestEvictionEffects:
    def test_full_eviction_cleans_trusted_views_most(self):
        """Trusted pollution should decrease monotonically-ish in ER."""
        spec = TopologySpec(
            n_nodes=N, byzantine_fraction=0.2, trusted_fraction=0.2, view_ratio=0.08
        )
        trusted_pollution = {}
        for rate in (0.0, 1.0):
            bundle = build_raptee_simulation(spec, SEED, eviction=FixedEviction(rate))
            run_bundle(bundle, rounds=ROUNDS)
            record = bundle.trace.records[-1]
            trusted_pollution[rate] = statistics.mean(record.by_kind[NodeKind.TRUSTED])
        assert trusted_pollution[1.0] < trusted_pollution[0.0]

    def test_eviction_rate_observed_matches_policy(self):
        spec = TopologySpec(
            n_nodes=100, byzantine_fraction=0.1, trusted_fraction=0.1, view_ratio=0.08
        )
        bundle = build_raptee_simulation(spec, SEED, eviction=FixedEviction(0.6))
        bundle.run(10)
        rates = [
            node.last_eviction_rate
            for node in bundle.simulation.nodes.values()
            if node.kind is NodeKind.TRUSTED and node.last_eviction_rate is not None
        ]
        assert rates and all(rate == 0.6 for rate in rates)


class TestIdentificationAttackIntegration:
    def _attack_f1(self, eviction, seed=SEED):
        spec = TopologySpec(
            n_nodes=N, byzantine_fraction=0.2, trusted_fraction=0.2, view_ratio=0.08
        )
        config = spec.brahms_config()
        bundle = build_raptee_simulation(
            spec, seed, eviction=eviction, probe_pulls=config.beta_count
        )
        bundle.run(20)
        attack = IdentificationAttack(bundle.coordinator)
        report = attack.classify(bundle.trusted_ids, since_round=1, until_round=20)
        return report

    def test_higher_eviction_is_more_identifiable(self):
        """§VI-A: the attack's effectiveness grows with the eviction rate."""
        low = self._attack_f1(FixedEviction(0.0))
        high = self._attack_f1(FixedEviction(1.0))
        assert high.f1 >= low.f1

    def test_full_eviction_attack_finds_some_trusted_nodes(self):
        report = self._attack_f1(FixedEviction(1.0))
        assert report.recall > 0.0


class TestPoisonedInjectionIntegration:
    def test_injected_nodes_self_heal(self):
        """§VI-B: poisoned trusted nodes run correct code and shed their
        poisoned views over time.  The view is 24 ids, not this module's 12:
        the join hands an injected node a tenth of its view in genuine
        entries, and a node that loses its last one before any correct node
        has sampled its id only ever talks to Byzantine nodes again.  With a
        single entry about half the injected nodes end that way; with two
        they heal to the level of the other trusted nodes (about 0.3)."""
        spec = TopologySpec(
            n_nodes=N,
            byzantine_fraction=0.1,
            trusted_fraction=0.1,
            poisoned_fraction=0.05,
            view_ratio=0.16,
        )
        for seed in (SEED, SEED + 1):
            bundle = build_raptee_simulation(spec, seed, eviction=AdaptiveEviction())
            sim = bundle.simulation
            poisoned = [
                node for node in sim.nodes.values()
                if node.kind is NodeKind.POISONED_TRUSTED
            ]
            byzantine = sim.byzantine_ids
            initial = statistics.mean(
                sum(1 for peer in node.view if peer in byzantine) / len(node.view)
                for node in poisoned
            )
            assert initial > 0.8  # poisoned at injection (minus the join entries)
            bundle.run(ROUNDS)
            final = statistics.mean(
                sum(1 for peer in node.view if peer in byzantine) / max(1, len(node.view))
                for node in poisoned
            )
            assert final < 0.6, seed  # self-healed well below full pollution


class TestChurnResilience:
    def test_brahms_survives_catastrophic_failure(self):
        from repro.sim.churn import CatastrophicFailure
        spec = TopologySpec(n_nodes=100, byzantine_fraction=0.0, view_ratio=0.08)
        bundle = build_brahms_simulation(spec, SEED)
        bundle.simulation._churn = CatastrophicFailure(at_round=10, fraction=0.3)
        bundle.run(40)
        alive = bundle.simulation.alive_nodes()
        assert len(alive) == 70
        dead = set(range(100)) - {node.node_id for node in alive}
        # Dead nodes mostly flushed from views (sampler validation + renewal).
        holding = [
            sum(1 for peer in node.view if peer in dead) / max(1, len(node.view))
            for node in alive
        ]
        assert statistics.mean(holding) < 0.10


class TestTransportEncryptionIntegration:
    def test_full_raptee_round_over_encrypted_transport(self):
        """The paper ciphers all pairwise traffic; the protocol must be
        oblivious to transport encryption."""
        spec = TopologySpec(n_nodes=40, byzantine_fraction=0.1, trusted_fraction=0.1,
                            view_ratio=0.2)
        plain = build_raptee_simulation(spec, 3, eviction=AdaptiveEviction())
        plain.run(3)
        encrypted = build_raptee_simulation(spec, 3, eviction=AdaptiveEviction())
        encrypted.simulation.network._encrypt = True
        encrypted.simulation.network._transport_secret = b"s" * 16
        encrypted.run(3)
        assert encrypted.simulation.network.stats.bytes_encrypted > 0
        # Identical protocol outcome: encryption is transparent.
        plain_views = {n.node_id: n.view_ids() for n in plain.simulation.correct_nodes()}
        enc_views = {n.node_id: n.view_ids() for n in encrypted.simulation.correct_nodes()}
        assert plain_views == enc_views
