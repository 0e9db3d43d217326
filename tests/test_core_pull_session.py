"""Full pull-session flows over a real network: 2-3 node micro-worlds."""

import random

import pytest

from repro.adversary.byzantine import ByzantineNode
from repro.adversary.coordinator import AdversaryCoordinator
from repro.core.config import RapteeConfig
from repro.core.node import RapteeNode
from repro.brahms.config import BrahmsConfig
from repro.sim.engine import RoundContext, Simulation
from repro.sim.messages import PullRequest
from repro.sim.network import Network
from repro.sim.node import NodeKind


@pytest.fixture
def config():
    return RapteeConfig()


_BRAHMS = BrahmsConfig(view_size=8, sample_size=4)


def micro_world(nodes, seed=0):
    network = Network(random.Random(seed))
    sim = Simulation(network, nodes, random.Random(seed))
    ctx = RoundContext(sim, 1)
    for node in nodes:
        node.begin_round(ctx)
    return sim, ctx


class TestTrustedToTrustedSession:
    def test_pull_with_swap(self, config, infrastructure):
        enclave_a, _ = infrastructure.new_trusted_enclave(1)
        enclave_b, _ = infrastructure.new_trusted_enclave(2)
        a = RapteeNode(1, NodeKind.TRUSTED, _BRAHMS, config, random.Random(1), enclave=enclave_a)
        b = RapteeNode(2, NodeKind.TRUSTED, _BRAHMS, config, random.Random(2), enclave=enclave_b)
        a.seed_view([2, 10, 11, 12])
        b.seed_view([1, 20, 21, 22])
        _sim, ctx = micro_world([a, b])

        batch = a._do_pull(ctx, 2)
        assert batch is not None
        assert batch.trusted_source
        assert set(batch.ids) <= {1, 20, 21, 22}
        # The swap ran: both sides recorded it and exchanged view parts.
        assert a.trusted_exchanges_total == 1
        assert b.trusted_exchanges_total == 1
        assert any(peer in (20, 21, 22, 2) for peer in a.view)
        # B received a trusted batch containing A's self-insertion or view.
        assert any(entry.trusted_source for entry in b._pulled)

    def test_next_pull_after_a_swap_sees_the_new_view_on_both_sides(
        self, config, infrastructure
    ):
        enclave_a, _ = infrastructure.new_trusted_enclave(1)
        enclave_b, _ = infrastructure.new_trusted_enclave(2)
        a = RapteeNode(1, NodeKind.TRUSTED, _BRAHMS, config, random.Random(1), enclave=enclave_a)
        b = RapteeNode(2, NodeKind.TRUSTED, _BRAHMS, config, random.Random(2), enclave=enclave_b)
        a.seed_view([2, 10, 11, 12])
        b.seed_view([1, 20, 21, 22])
        _sim, ctx = micro_world([a, b])
        # Both responders cache a reply built from the pre-swap views (B's
        # is built by the pull that precedes the swap).
        before_a = a.handle_request(PullRequest(sender=5))
        batch = a._do_pull(ctx, 2)
        assert batch.ids == (1, 20, 21, 22)
        assert a.trusted_exchanges_total == b.trusted_exchanges_total == 1
        # The swap reassigned both views mid-gossip: the next pull sees them.
        for node, before in ((a, before_a.ids), (b, batch.ids)):
            after = node.handle_request(PullRequest(sender=5)).ids
            assert after == tuple(node.view) != before

    def test_counts_feed_adaptive_rate(self, config, infrastructure):
        enclave_a, _ = infrastructure.new_trusted_enclave(3)
        enclave_b, _ = infrastructure.new_trusted_enclave(4)
        a = RapteeNode(3, NodeKind.TRUSTED, _BRAHMS, config, random.Random(1), enclave=enclave_a)
        b = RapteeNode(4, NodeKind.TRUSTED, _BRAHMS, config, random.Random(2), enclave=enclave_b)
        a.seed_view([4, 10])
        b.seed_view([3, 20])
        _sim, ctx = micro_world([a, b])
        a._do_pull(ctx, 4)
        assert a._id_contacts == 1
        assert a._trusted_id_contacts == 1


class TestTrustedToHonestSession:
    def test_pull_without_swap(self, config, infrastructure):
        enclave, _ = infrastructure.new_trusted_enclave(5)
        trusted = RapteeNode(5, NodeKind.TRUSTED, _BRAHMS, config,
                             random.Random(1), enclave=enclave)
        honest = RapteeNode(6, NodeKind.HONEST, _BRAHMS, config, random.Random(2))
        trusted.seed_view([6, 10])
        honest.seed_view([5, 30, 31])
        _sim, ctx = micro_world([trusted, honest])

        batch = trusted._do_pull(ctx, 6)
        assert batch is not None
        assert not batch.trusted_source
        assert trusted.trusted_exchanges_total == 0
        assert trusted._trusted_id_contacts == 0

    def test_honest_initiator_never_marks_trusted(self, config, infrastructure):
        enclave, _ = infrastructure.new_trusted_enclave(7)
        trusted = RapteeNode(7, NodeKind.TRUSTED, _BRAHMS, config,
                             random.Random(1), enclave=enclave)
        honest = RapteeNode(8, NodeKind.HONEST, _BRAHMS, config, random.Random(2))
        trusted.seed_view([8, 10])
        honest.seed_view([7, 30])
        _sim, ctx = micro_world([trusted, honest])

        batch = honest._do_pull(ctx, 7)
        assert batch is not None
        assert not batch.trusted_source  # honest nodes can't recognize K_T


class TestTrustedToByzantineSession:
    def test_byzantine_answer_is_untrusted_and_fake(self, config, infrastructure):
        coordinator = AdversaryCoordinator(
            byzantine_ids=[100, 101], correct_ids=[9],
            push_limit=4, rng=random.Random(0), strategy="balanced",
        )
        byz = ByzantineNode(100, coordinator, view_size=8, rng=random.Random(3))
        enclave, _ = infrastructure.new_trusted_enclave(9)
        trusted = RapteeNode(9, NodeKind.TRUSTED, _BRAHMS, config,
                             random.Random(1), enclave=enclave)
        trusted.seed_view([100])
        _sim, ctx = micro_world([trusted, byz])

        batch = trusted._do_pull(ctx, 100)
        assert batch is not None
        assert not batch.trusted_source
        assert set(batch.ids) <= {100, 101}
        assert trusted.trusted_exchanges_total == 0

    def test_dead_target_returns_none(self, config, infrastructure):
        enclave, _ = infrastructure.new_trusted_enclave(10)
        trusted = RapteeNode(10, NodeKind.TRUSTED, _BRAHMS, config,
                             random.Random(1), enclave=enclave)
        trusted.seed_view([99])
        _sim, ctx = micro_world([trusted])
        assert trusted._do_pull(ctx, 99) is None
