"""RAPTEE enclave and node tests."""

import random

import pytest

from repro.core.config import RapteeConfig
from repro.core.eviction import FixedEviction
from repro.core.node import RapteeNode
from repro.brahms.config import BrahmsConfig
from repro.brahms.node import PulledBatch
from repro.sgx.errors import EnclaveViolation, ProvisioningError
from repro.sim.messages import (
    AuthChallenge,
    AuthConfirm,
    AuthResponse,
    AuthResult,
    PullReply,
    PullRequest,
    TrustedSwapReply,
    TrustedSwapRequest,
)
from repro.sim.node import NodeKind


@pytest.fixture
def config():
    return RapteeConfig()


@pytest.fixture
def trusted_node(small_brahms_config, config, infrastructure):
    enclave, _device = infrastructure.new_trusted_enclave(100)
    node = RapteeNode(100, NodeKind.TRUSTED, small_brahms_config,
                      config, random.Random(1), enclave=enclave)
    node.seed_view(list(range(1, 11)))
    return node


@pytest.fixture
def honest_node(small_brahms_config, config):
    node = RapteeNode(200, NodeKind.HONEST, small_brahms_config, config, random.Random(2))
    node.seed_view(list(range(1, 11)))
    return node


class TestEnclaveProvisioning:
    def test_infrastructure_provisions(self, infrastructure):
        enclave, _device = infrastructure.new_trusted_enclave(1)
        assert enclave.is_provisioned()

    def test_group_key_is_unreachable(self, infrastructure):
        enclave, _device = infrastructure.new_trusted_enclave(2)
        with pytest.raises(EnclaveViolation):
            _ = enclave._group_key

    def test_unprovisioned_enclave_refuses_auth(self, prng):
        from repro.core.enclave import RapteeEnclave
        from repro.sgx.enclave import SgxDevice

        device = SgxDevice(50, prng.spawn("d"))
        host = device.load(RapteeEnclave, provisioning_key_bits=384)
        with pytest.raises(ProvisioningError):
            host.auth_respond(b"r" * 16)

    def test_seal_and_restore_roundtrip(self, infrastructure, prng):
        from repro.core.enclave import RapteeEnclave
        from repro.sgx.enclave import SgxDevice

        enclave, device = infrastructure.new_trusted_enclave(3)
        blob = enclave.seal_group_key()
        # A fresh (restarted) enclave on the SAME device restores the key.
        fresh = device.load(RapteeEnclave, provisioning_key_bits=384)
        assert not fresh.is_provisioned()
        fresh.restore_group_key(blob)
        assert fresh.is_provisioned()
        # Both enclaves now authenticate each other.
        r_a = b"c" * 16
        r_b, proof = fresh.auth_respond(r_a)
        assert enclave.auth_check_response(r_a, r_b, proof)

    def test_sealed_blob_does_not_restore_on_other_device(self, infrastructure, prng):
        from repro.core.enclave import RapteeEnclave
        from repro.sgx.enclave import SgxDevice
        from repro.sgx.errors import SealingError

        enclave, _device = infrastructure.new_trusted_enclave(4)
        blob = enclave.seal_group_key()
        other_device = SgxDevice(999, prng.spawn("other"))
        other = other_device.load(RapteeEnclave, provisioning_key_bits=384)
        with pytest.raises(SealingError):
            other.restore_group_key(blob)

    def test_two_enclaves_share_the_group_key(self, infrastructure):
        a, _ = infrastructure.new_trusted_enclave(5)
        b, _ = infrastructure.new_trusted_enclave(6)
        r_a = b"x" * 16
        r_b, proof = b.auth_respond(r_a)
        assert a.auth_check_response(r_a, r_b, proof)


class TestNodeConstruction:
    def test_trusted_requires_enclave(self, small_brahms_config, config):
        with pytest.raises(ValueError):
            RapteeNode(1, NodeKind.TRUSTED, small_brahms_config, config, random.Random(0))

    def test_untrusted_must_not_carry_enclave(self, small_brahms_config, config, infrastructure):
        enclave, _ = infrastructure.new_trusted_enclave(7)
        with pytest.raises(ValueError):
            RapteeNode(1, NodeKind.HONEST, small_brahms_config,
                       config, random.Random(0), enclave=enclave)

    def test_trusted_requires_provisioned_enclave(self, small_brahms_config, config, prng):
        from repro.core.enclave import RapteeEnclave
        from repro.sgx.enclave import SgxDevice

        device = SgxDevice(51, prng.spawn("d51"))
        host = device.load(RapteeEnclave, provisioning_key_bits=384)
        with pytest.raises(ValueError, match="provisioned"):
            RapteeNode(1, NodeKind.TRUSTED, small_brahms_config,
                       config, random.Random(0), enclave=host)


class TestAuthFlows:
    def test_trusted_pair_authenticates(self, small_brahms_config, config, infrastructure):
        enclave_a, _ = infrastructure.new_trusted_enclave(301)
        enclave_b, _ = infrastructure.new_trusted_enclave(302)
        a = RapteeNode(301, NodeKind.TRUSTED, small_brahms_config,
                       config, random.Random(3), enclave=enclave_a)
        b = RapteeNode(302, NodeKind.TRUSTED, small_brahms_config,
                       config, random.Random(4), enclave=enclave_b)
        b.begin_round(None)

        r_a = b"r" * 16
        response = b.handle_request(AuthChallenge(sender=301, r_a=r_a))
        assert isinstance(response, AuthResponse)
        assert a.enclave.auth_check_response(r_a, response.r_b, response.proof)
        confirm_proof = a.enclave.auth_confirm(r_a, response.r_b)
        ack = b.handle_request(AuthConfirm(sender=301, proof=confirm_proof))
        assert isinstance(ack, AuthResult) and ack.mutual
        assert 301 in b._trusted_sessions

    def test_honest_responder_never_validates(self, honest_node, trusted_node):
        honest_node.begin_round(None)
        r_a = b"r" * 16
        response = honest_node.handle_request(AuthChallenge(sender=100, r_a=r_a))
        assert isinstance(response, AuthResponse)
        assert not trusted_node.enclave.auth_check_response(r_a, response.r_b, response.proof)

    def test_confirm_without_challenge_is_rejected(self, trusted_node):
        trusted_node.begin_round(None)
        ack = trusted_node.handle_request(AuthConfirm(sender=55, proof=b"junk"))
        assert isinstance(ack, AuthResult) and not ack.mutual


class TestTrustedSwapGuard:
    def test_swap_requires_prior_authentication(self, trusted_node):
        trusted_node.begin_round(None)
        reply = trusted_node.handle_request(
            TrustedSwapRequest(sender=666, offered=(1, 2, 3))
        )
        assert reply is None  # not in _trusted_sessions

    def test_swap_after_authentication(self, small_brahms_config, config, infrastructure):
        enclave_a, _ = infrastructure.new_trusted_enclave(311)
        enclave_b, _ = infrastructure.new_trusted_enclave(312)
        a = RapteeNode(311, NodeKind.TRUSTED, small_brahms_config,
                       config, random.Random(5), enclave=enclave_a)
        b = RapteeNode(312, NodeKind.TRUSTED, small_brahms_config,
                       config, random.Random(6), enclave=enclave_b)
        b.seed_view(list(range(1, 11)))
        b.begin_round(None)
        r_a = b"r" * 16
        response = b.handle_request(AuthChallenge(sender=311, r_a=r_a))
        confirm = a.enclave.auth_confirm(r_a, response.r_b)
        b.handle_request(AuthConfirm(sender=311, proof=confirm))

        reply = b.handle_request(TrustedSwapRequest(sender=311, offered=(901, 902)))
        assert isinstance(reply, TrustedSwapReply)
        assert len(reply.offered) >= 1
        assert 901 in b.view and 902 in b.view  # swap applied
        assert any(batch.trusted_source for batch in b._pulled)

    def test_swap_disabled_by_config(self, small_brahms_config, infrastructure):
        config = RapteeConfig(trusted_exchange_enabled=False)
        enclave, _ = infrastructure.new_trusted_enclave(313)
        node = RapteeNode(313, NodeKind.TRUSTED, small_brahms_config,
                          config, random.Random(7), enclave=enclave)
        node.begin_round(None)
        node._trusted_sessions.add(700)
        assert node.handle_request(TrustedSwapRequest(sender=700, offered=(1,))) is None

    def test_honest_node_never_answers_swaps(self, honest_node):
        honest_node.begin_round(None)
        honest_node._trusted_sessions.add(1)  # even if somehow marked
        assert honest_node.handle_request(TrustedSwapRequest(sender=1, offered=(9,))) is None


class TestEviction:
    def _prime(self, node, untrusted_ids, trusted_ids=()):
        node.begin_round(None)
        if untrusted_ids:
            node._pulled.append(PulledBatch(source=1, ids=tuple(untrusted_ids)))
            node._id_contacts += 1
        if trusted_ids:
            node._pulled.append(
                PulledBatch(source=2, ids=tuple(trusted_ids), trusted_source=True)
            )
            node._id_contacts += 1
            node._trusted_id_contacts += 1

    def test_full_eviction_drops_all_untrusted(self, small_brahms_config, infrastructure):
        config = RapteeConfig(eviction=FixedEviction(1.0))
        enclave, _ = infrastructure.new_trusted_enclave(320)
        node = RapteeNode(320, NodeKind.TRUSTED, small_brahms_config,
                          config, random.Random(8), enclave=enclave)
        self._prime(node, untrusted_ids=range(50, 60), trusted_ids=(7, 8))
        effective = node._effective_pulled_ids()
        assert set(effective) == {7, 8}
        assert node.evicted_ids_total == 10

    def test_zero_eviction_keeps_everything(self, small_brahms_config, infrastructure):
        config = RapteeConfig(eviction=FixedEviction(0.0))
        enclave, _ = infrastructure.new_trusted_enclave(321)
        node = RapteeNode(321, NodeKind.TRUSTED, small_brahms_config,
                          config, random.Random(9), enclave=enclave)
        self._prime(node, untrusted_ids=range(50, 60))
        assert sorted(node._effective_pulled_ids()) == list(range(50, 60))

    def test_partial_eviction_fraction(self, small_brahms_config, infrastructure):
        config = RapteeConfig(eviction=FixedEviction(0.6))
        enclave, _ = infrastructure.new_trusted_enclave(322)
        node = RapteeNode(322, NodeKind.TRUSTED, small_brahms_config,
                          config, random.Random(10), enclave=enclave)
        self._prime(node, untrusted_ids=range(100, 200))
        kept = node._effective_pulled_ids()
        assert len(kept) == 40  # kept 40 % of 100

    def test_trusted_sources_never_evicted(self, small_brahms_config, infrastructure):
        config = RapteeConfig(eviction=FixedEviction(1.0))
        enclave, _ = infrastructure.new_trusted_enclave(323)
        node = RapteeNode(323, NodeKind.TRUSTED, small_brahms_config,
                          config, random.Random(11), enclave=enclave)
        self._prime(node, untrusted_ids=(), trusted_ids=tuple(range(70, 80)))
        assert sorted(node._effective_pulled_ids()) == list(range(70, 80))

    def test_adaptive_rate_recorded(self, small_brahms_config, config, infrastructure):
        enclave, _ = infrastructure.new_trusted_enclave(324)
        node = RapteeNode(324, NodeKind.TRUSTED, small_brahms_config,
                          config, random.Random(12), enclave=enclave)
        self._prime(node, untrusted_ids=range(20), trusted_ids=(1, 2))
        node._effective_pulled_ids()
        assert node.last_eviction_rate == pytest.approx(0.5)  # share = 1/2

    def test_honest_node_never_evicts(self, honest_node):
        honest_node.begin_round(None)
        honest_node._pulled.append(PulledBatch(source=1, ids=tuple(range(30))))
        assert len(honest_node._effective_pulled_ids()) == 30
        assert honest_node.evicted_ids_total == 0

    def test_eviction_disabled_by_config(self, small_brahms_config, infrastructure):
        config = RapteeConfig(
            eviction=FixedEviction(1.0),
            eviction_enabled=False,
        )
        enclave, _ = infrastructure.new_trusted_enclave(325)
        node = RapteeNode(325, NodeKind.TRUSTED, small_brahms_config,
                          config, random.Random(13), enclave=enclave)
        self._prime(node, untrusted_ids=range(10))
        assert len(node._effective_pulled_ids()) == 10
