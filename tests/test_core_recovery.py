"""Enclave recovery: retry policy, sealed restore, re-attestation ladder."""

import random

import pytest

from repro.core.node import RapteeNode
from repro.core.recovery import (
    EnclaveRecoveryManager,
    RetryPolicy,
    provision_with_retry,
)
from repro.sgx.errors import ProvisioningError
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.node import NodeKind


class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay=1, multiplier=2, max_delay=8, jitter=0)
        rng = random.Random(0)
        delays = [policy.delay_rounds(attempt, rng) for attempt in range(5)]
        assert delays == [1, 2, 4, 8, 8]

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay=2, multiplier=1, max_delay=2, jitter=3)
        rng = random.Random(42)
        for _ in range(50):
            assert 2 <= policy.delay_rounds(0, rng) <= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=4, max_delay=2)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-1)
        with pytest.raises(ValueError):
            RetryPolicy().delay_rounds(-1, random.Random(0))


def make_deployment(infrastructure, small_brahms_config, small_raptee_config, node_id=1):
    """One provisioned trusted node inside a minimal simulation."""
    host, _device = infrastructure.new_trusted_enclave(node_id)
    node = RapteeNode(
        node_id, NodeKind.TRUSTED, small_brahms_config, small_raptee_config,
        random.Random(node_id), enclave=host,
    )
    simulation = Simulation(Network(random.Random(0)), [node], random.Random(0))
    manager = EnclaveRecoveryManager(infrastructure, random.Random(9))
    manager.adopt(node)
    return simulation, node, manager


class TestSealedRestore:
    def test_watchdog_restores_crashed_enclave_from_seal(
        self, small_brahms_config, infrastructure, small_raptee_config
    ):
        simulation, node, manager = make_deployment(
            infrastructure, small_brahms_config, small_raptee_config
        )
        node.enclave.crash()
        simulation.round_number = 1
        manager.tick(simulation)
        assert node.trusted
        assert not node.degraded
        assert node.enclave.is_provisioned()
        assert not node.enclave.crashed
        assert manager.stats.restores_from_seal == 1
        assert manager.stats.reprovisions == 0
        assert node.degradations_total == 1
        assert node.promotions_total == 1

    def test_restore_needs_no_attestation(
        self, small_brahms_config, infrastructure, small_raptee_config
    ):
        simulation, node, manager = make_deployment(
            infrastructure, small_brahms_config, small_raptee_config
        )
        infrastructure.attestation.set_available(False)  # total outage
        node.enclave.crash()
        simulation.round_number = 1
        manager.tick(simulation)
        assert node.trusted
        assert manager.stats.restores_from_seal == 1

    def test_restore_survives_device_revocation(
        self, small_brahms_config, infrastructure, small_raptee_config
    ):
        # Sealing is device-local: a revoked device cannot re-attest, but
        # it can still unseal its own blob and keep serving.
        simulation, node, manager = make_deployment(
            infrastructure, small_brahms_config, small_raptee_config
        )
        infrastructure.attestation.revoke_device(node.node_id)
        node.enclave.crash()
        simulation.round_number = 1
        manager.tick(simulation)
        assert node.trusted
        assert manager.stats.restores_from_seal == 1


class TestReattestation:
    def test_corrupted_blob_falls_back_to_reattestation(
        self, small_brahms_config, infrastructure, small_raptee_config
    ):
        simulation, node, manager = make_deployment(
            infrastructure, small_brahms_config, small_raptee_config
        )
        assert manager.corrupt_sealed_blob(node.node_id)
        node.enclave.crash()
        simulation.round_number = 1
        manager.tick(simulation)
        assert node.trusted
        assert manager.stats.corrupted_blobs == 1
        assert manager.stats.restores_from_seal == 0
        assert manager.stats.reprovisions == 1
        # The backup is refreshed after the re-provisioning.
        assert manager.sealed_blob(node.node_id) is not None

    def test_backoff_through_outage(self, small_brahms_config, infrastructure, small_raptee_config):
        simulation, node, manager = make_deployment(
            infrastructure, small_brahms_config, small_raptee_config
        )
        manager.policy = RetryPolicy(base_delay=2, multiplier=2, jitter=0)
        manager.corrupt_sealed_blob(node.node_id)
        infrastructure.attestation.set_available(False)
        node.enclave.crash()

        simulation.round_number = 1
        manager.tick(simulation)
        assert node.degraded
        assert manager.stats.failed_attempts == 1

        # Next round is inside the backoff window: no new attempt.
        simulation.round_number = 2
        manager.tick(simulation)
        assert manager.stats.failed_attempts == 1

        # Outage lifts; the retry fires once the backoff expires.
        infrastructure.attestation.set_available(True)
        simulation.round_number = 3
        manager.tick(simulation)
        assert node.trusted
        assert manager.stats.reprovisions == 1

    def test_exhaustion_after_max_attempts(
        self, small_brahms_config, infrastructure, small_raptee_config
    ):
        simulation, node, manager = make_deployment(
            infrastructure, small_brahms_config, small_raptee_config
        )
        manager.policy = RetryPolicy(base_delay=1, multiplier=1, max_delay=1,
                                     max_attempts=2, jitter=0)
        manager.corrupt_sealed_blob(node.node_id)
        infrastructure.attestation.revoke_device(node.node_id)  # permanent
        node.enclave.crash()
        for round_number in range(1, 6):
            simulation.round_number = round_number
            manager.tick(simulation)
        assert node.degraded
        assert manager.stats.failed_attempts == 2
        assert manager.exhausted_node_ids() == (node.node_id,)


class TestBootstrapRetry:
    def test_retries_through_transient_failures(self, infrastructure):
        refusals = iter(["flaky", "flaky"])

        def hook():
            return next(refusals, None)

        infrastructure.provisioner.set_fault_hook(hook)
        host = infrastructure.new_trusted_enclave(
            5, retry=RetryPolicy(max_attempts=5, jitter=0),
            retry_rng=random.Random(0),
        )[0]
        assert host.is_provisioned()
        assert infrastructure.provisioner.refused_count == 2

    def test_gives_up_after_max_attempts(self, infrastructure):
        infrastructure.new_trusted_enclave(6)
        infrastructure.provisioner.set_fault_hook(lambda: "always down")
        fresh = infrastructure.reload_enclave(6)
        with pytest.raises(ProvisioningError):
            provision_with_retry(
                infrastructure, fresh,
                RetryPolicy(max_attempts=3, jitter=0), random.Random(0),
            )

    def test_retry_policy_requires_rng(self, infrastructure):
        with pytest.raises(ValueError, match="retry_rng"):
            infrastructure.new_trusted_enclave(7, retry=RetryPolicy())


class TestFailureCauseChaining:
    """Exhausted retries must surface *why* the last attempt failed.

    Regression tests: the raised ProvisioningError used to swallow the
    underlying fault, leaving drills unable to tell an attestation outage
    from a corrupted key binding.
    """

    def test_bootstrap_exhaustion_chains_last_fault(self, infrastructure):
        infrastructure.new_trusted_enclave(6)
        infrastructure.provisioner.set_fault_hook(lambda: "always down")
        fresh = infrastructure.reload_enclave(6)
        with pytest.raises(ProvisioningError) as excinfo:
            provision_with_retry(
                infrastructure, fresh,
                RetryPolicy(max_attempts=3, jitter=0), random.Random(0),
            )
        error = excinfo.value
        assert "provisioning failed after 3 attempt(s)" in str(error)
        assert "always down" in str(error)
        assert isinstance(error.__cause__, ProvisioningError)
        assert "always down" in str(error.__cause__)

    def test_recovery_telemetry_carries_cause_and_detail(
        self, small_brahms_config, infrastructure, small_raptee_config
    ):
        from repro.telemetry import Telemetry

        simulation, node, manager = make_deployment(
            infrastructure, small_brahms_config, small_raptee_config
        )
        telemetry = Telemetry()
        manager.set_telemetry(telemetry)
        manager.policy = RetryPolicy(base_delay=1, multiplier=1, max_delay=1,
                                     max_attempts=1, jitter=0)
        manager.corrupt_sealed_blob(node.node_id)
        infrastructure.attestation.set_available(False)
        node.enclave.crash()
        telemetry.begin_round(1)
        simulation.round_number = 1
        manager.tick(simulation)
        telemetry.end_round(alive_nodes=1)

        # The outage's AttestationError arrives wrapped by the provisioner;
        # the detail string keeps the underlying outage visible.
        (failed,) = telemetry.trace.named("recovery.failed_attempts")
        assert failed.fields["cause"] == "ProvisioningError"
        assert "unavailable" in str(failed.fields["detail"])
        (exhausted,) = telemetry.trace.named("recovery.exhausted")
        assert exhausted.fields["cause"] == "ProvisioningError"
        assert "unavailable" in str(exhausted.fields["detail"])
        assert manager._states[node.node_id].last_cause == "ProvisioningError"


class TestNodeDegradation:
    def test_note_enclave_failure_is_trusted_only(self, small_brahms_config, small_raptee_config):
        node = RapteeNode(3, NodeKind.HONEST, small_brahms_config,
                          small_raptee_config, random.Random(3))
        node.note_enclave_failure()
        assert not node.degraded
        assert node.degradations_total == 0

    def test_degraded_node_uses_private_key(
        self, small_brahms_config, infrastructure, small_raptee_config
    ):
        host, _device = infrastructure.new_trusted_enclave(8)
        node = RapteeNode(8, NodeKind.TRUSTED, small_brahms_config, small_raptee_config,
                          random.Random(8), enclave=host)
        assert node.trusted
        node.note_enclave_failure()
        assert not node.trusted
        assert node.trusted_role
        assert node._own_key is not None

    def test_promote_requires_provisioned_enclave(
        self, small_brahms_config, infrastructure, small_raptee_config
    ):
        host, _device = infrastructure.new_trusted_enclave(9)
        node = RapteeNode(9, NodeKind.TRUSTED, small_brahms_config, small_raptee_config,
                          random.Random(9), enclave=host)
        node.note_enclave_failure()
        with pytest.raises(ValueError):
            node.promote(infrastructure.reload_enclave(9))  # unprovisioned
        fresh = infrastructure.reload_enclave(9)
        infrastructure.provision_host(fresh)
        node.promote(fresh)
        assert node.trusted
        assert node.promotions_total == 1

    def test_promote_rejected_for_honest_nodes(self, small_brahms_config, small_raptee_config):
        node = RapteeNode(4, NodeKind.HONEST, small_brahms_config,
                          small_raptee_config, random.Random(4))
        with pytest.raises(ValueError):
            node.promote(None)
