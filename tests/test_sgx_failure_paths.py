"""SGX failure modes and their combinations (crash, outage, rot, revocation)."""

import random

import pytest

from repro.sgx.errors import EnclaveUnavailable, ProvisioningError, SealingError


class TestEnclaveCrash:
    def test_ecall_after_crash_raises(self, infrastructure):
        host, _device = infrastructure.new_trusted_enclave(1)
        assert not host.crashed
        host.crash()
        assert host.crashed
        with pytest.raises(EnclaveUnavailable, match="crashed"):
            host.is_provisioned()
        with pytest.raises(EnclaveUnavailable):
            host.seal_group_key()

    def test_fresh_enclave_on_same_device_works(self, infrastructure):
        host, _device = infrastructure.new_trusted_enclave(1)
        blob = host.seal_group_key()
        host.crash()
        fresh = infrastructure.reload_enclave(1)
        assert not fresh.crashed
        assert not fresh.is_provisioned()
        fresh.restore_group_key(blob)
        assert fresh.is_provisioned()


class TestAttestationOutage:
    def test_outage_blocks_provisioning(self, infrastructure):
        infrastructure.new_trusted_enclave(1)
        infrastructure.attestation.set_available(False)
        assert not infrastructure.attestation.available
        fresh = infrastructure.reload_enclave(1)
        with pytest.raises(ProvisioningError, match="unavailable"):
            infrastructure.provision_host(fresh)

    def test_outage_lifts(self, infrastructure):
        infrastructure.new_trusted_enclave(1)
        infrastructure.attestation.set_available(False)
        infrastructure.attestation.set_available(True)
        fresh = infrastructure.reload_enclave(1)
        infrastructure.provision_host(fresh)
        assert fresh.is_provisioned()


class TestSealedBlobCorruption:
    def test_corrupted_blob_fails_then_reattestation_recovers(
        self, infrastructure
    ):
        # The satellite combo: corruption -> unseal failure -> the node can
        # still recover with a full re-attestation.
        host, _device = infrastructure.new_trusted_enclave(1)
        blob = host.seal_group_key()
        corrupted = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        host.crash()

        fresh = infrastructure.reload_enclave(1)
        with pytest.raises(SealingError):
            fresh.restore_group_key(corrupted)
        assert not fresh.is_provisioned()

        infrastructure.provision_host(fresh)
        assert fresh.is_provisioned()


class TestDeviceRevocation:
    def test_revocation_spares_existing_key_but_blocks_reprovisioning(
        self, infrastructure, prng
    ):
        # The satellite combo: after revocation the provisioned group key
        # keeps working (the enclave already holds K_T) and sealed restore
        # still works (sealing is device-local) — but any future
        # attestation round-trip is dead.
        host, _device = infrastructure.new_trusted_enclave(1)
        peer, _peer_device = infrastructure.new_trusted_enclave(2)
        infrastructure.attestation.revoke_device(1)

        # K_T still in use: a sealed round-trip and a mutual auth succeed.
        blob = host.seal_group_key()
        restored = infrastructure.reload_enclave(1)
        restored.restore_group_key(blob)
        assert restored.is_provisioned()
        r_a = b"\x07" * 16
        r_b, proof = restored.auth_respond(r_a)
        assert peer.auth_check_response(r_a, r_b, proof)

        # But the revoked device can never re-attest.
        fresh = infrastructure.reload_enclave(1)
        with pytest.raises(ProvisioningError, match="attestation failed"):
            infrastructure.provision_host(fresh)

    def test_revoke_unknown_device_id_is_lenient(self, infrastructure):
        """Pin the blacklist semantics for ids nobody has registered yet.

        ``revoke_device`` is a pre-emptive blacklist add, not a lookup: an
        unknown id is accepted (no error), the call is idempotent, and a
        device that later registers under that id can attest its public key
        but never pass verification.
        """
        attestation = infrastructure.attestation
        attestation.revoke_device(999)
        attestation.revoke_device(999)  # idempotent, still no error
        # An unrelated registration and attestation are unaffected.
        host, _device = infrastructure.new_trusted_enclave(1)
        assert host.is_provisioned()
        # The pre-revoked id is dead on arrival once a device claims it.
        with pytest.raises(ProvisioningError, match="attestation failed"):
            infrastructure.new_trusted_enclave(999)

    def test_revocation_mid_recovery_degrades_permanently(
        self, small_brahms_config, infrastructure, small_raptee_config
    ):
        """Satellite combo matrix: revocation landing *during* the backoff
        ladder must abandon recovery permanently — no infinite backoff —
        across every rung the ladder can be on when the revocation lands.
        """
        from repro.core.deployment import TrustedInfrastructure
        from repro.core.node import RapteeNode
        from repro.core.recovery import EnclaveRecoveryManager, RetryPolicy
        from repro.crypto.prng import Sha256Prng, derive_seed
        from repro.sim.engine import Simulation
        from repro.sim.network import Network
        from repro.sim.node import NodeKind

        # (corrupt the sealed blob?, attestation outage?) — the revocation
        # check must win over both rungs either way.
        combos = [(False, False), (True, False), (False, True), (True, True)]
        for index, (corrupt_blob, outage) in enumerate(combos):
            fresh_infrastructure = TrustedInfrastructure(
                Sha256Prng(derive_seed(7, "combo", index)),
                provisioning_key_bits=384,
            )
            host, _device = fresh_infrastructure.new_trusted_enclave(1)
            node = RapteeNode(
                1, NodeKind.TRUSTED, small_brahms_config, small_raptee_config,
                random.Random(1), enclave=host,
            )
            simulation = Simulation(
                Network(random.Random(0)), [node], random.Random(0)
            )
            manager = EnclaveRecoveryManager(
                fresh_infrastructure, random.Random(9),
                policy=RetryPolicy(base_delay=1, multiplier=1, max_delay=1,
                                   jitter=0),
            )
            manager.adopt(node)
            revoked = {1}
            manager.set_revocation_check(lambda node_id: node_id in revoked)
            if corrupt_blob:
                manager.corrupt_sealed_blob(1)
            fresh_infrastructure.attestation.set_available(not outage)
            fresh_infrastructure.attestation.revoke_device(1)
            node.enclave.crash()

            for round_number in range(1, 8):
                simulation.round_number = round_number
                manager.tick(simulation)

            combo = f"corrupt_blob={corrupt_blob}, outage={outage}"
            assert node.degraded, combo
            assert manager.exhausted_node_ids() == (1,), combo
            assert manager.stats.revoked_abandons == 1, combo
            # The abandon fires before any rung: the ladder never spun.
            assert manager.stats.failed_attempts == 0, combo
            assert manager.stats.restores_from_seal == 0, combo
            # The stale sealed blob is gone — it wraps a key the node may
            # no longer hold legitimately.
            assert manager.sealed_blob(1) is None, combo
            # And the outage lifting later changes nothing: permanent.
            fresh_infrastructure.attestation.set_available(True)
            simulation.round_number = 20
            manager.tick(simulation)
            assert node.degraded, combo
            assert manager.stats.failed_attempts == 0, combo


class TestProvisioningFlakiness:
    def test_fault_hook_refuses_with_reason(self, infrastructure):
        infrastructure.new_trusted_enclave(1)
        infrastructure.provisioner.set_fault_hook(lambda: "rate limited")
        fresh = infrastructure.reload_enclave(1)
        with pytest.raises(ProvisioningError, match="injected fault: rate limited"):
            infrastructure.provision_host(fresh)
        assert infrastructure.provisioner.refused_count == 1

    def test_hook_cleared_restores_service(self, infrastructure):
        infrastructure.new_trusted_enclave(1)
        infrastructure.provisioner.set_fault_hook(lambda: "down")
        infrastructure.provisioner.set_fault_hook(None)
        fresh = infrastructure.reload_enclave(1)
        infrastructure.provision_host(fresh)
        assert fresh.is_provisioned()
