"""Fault-plan schema: validation and windows."""

import pytest

from repro.faults.plan import (
    AttestationOutageFault,
    CrashRestartFault,
    EclipseFault,
    EnclaveCrashFault,
    FaultPlan,
    LinkFault,
    LossBurstFault,
    OmissionFault,
    PartitionFault,
    ProvisioningFlakinessFault,
    RoundWindow,
    SealedBlobCorruptionFault,
)


class TestRoundWindow:
    def test_covers_is_inclusive(self):
        window = RoundWindow(3, 5)
        assert not window.covers(2)
        assert window.covers(3)
        assert window.covers(5)
        assert not window.covers(6)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RoundWindow(0, 5)
        with pytest.raises(ValueError):
            RoundWindow(5, 4)


class TestFaultValidation:
    def test_link_fault_needs_distinct_endpoints(self):
        with pytest.raises(ValueError):
            LinkFault(1, 1, RoundWindow(1, 2)).validate()

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            LinkFault(1, 2, RoundWindow(1, 2), loss_rate=1.5).validate()
        with pytest.raises(ValueError):
            LossBurstFault(RoundWindow(1, 2), loss_rate=-0.1).validate()
        with pytest.raises(ValueError):
            OmissionFault(1, RoundWindow(1, 2), drop_rate=2.0).validate()
        with pytest.raises(ValueError):
            ProvisioningFlakinessFault(RoundWindow(1, 2), failure_rate=7.0).validate()

    def test_partition_groups_must_be_disjoint_and_non_empty(self):
        window = RoundWindow(1, 2)
        with pytest.raises(ValueError):
            PartitionFault(frozenset(), frozenset({1}), window).validate()
        with pytest.raises(ValueError):
            PartitionFault(frozenset({1, 2}), frozenset({2, 3}), window).validate()

    def test_eclipse_victim_not_allowed_peer(self):
        with pytest.raises(ValueError):
            EclipseFault(1, RoundWindow(1, 2), allowed=frozenset({1})).validate()

    def test_crash_restart_bounds(self):
        with pytest.raises(ValueError):
            CrashRestartFault(1, at_round=0, down_rounds=2).validate()
        with pytest.raises(ValueError):
            CrashRestartFault(1, at_round=3, down_rounds=0).validate()

    def test_point_faults_need_positive_round(self):
        for fault in (
            EnclaveCrashFault(1, at_round=0),
            SealedBlobCorruptionFault(1, at_round=0),
        ):
            with pytest.raises(ValueError):
                fault.validate()


class TestFaultPlan:
    def test_plan_validates_on_construction(self):
        with pytest.raises(ValueError):
            FaultPlan([LinkFault(1, 1, RoundWindow(1, 2))])
        with pytest.raises(TypeError):
            FaultPlan(["not a fault"])

    def test_of_type_filters(self):
        plan = FaultPlan([
            LinkFault(1, 2, RoundWindow(1, 2)),
            LossBurstFault(RoundWindow(3, 4), 0.5),
            LinkFault(2, 3, RoundWindow(1, 2)),
        ])
        assert len(plan.of_type(LinkFault)) == 2
        assert len(plan.of_type(LossBurstFault)) == 1
        assert len(plan) == 3

    def test_needs_sgx(self):
        assert not FaultPlan([LinkFault(1, 2, RoundWindow(1, 2))]).needs_sgx
        assert FaultPlan([AttestationOutageFault(RoundWindow(1, 2))]).needs_sgx
        assert FaultPlan([EnclaveCrashFault(1, at_round=2)]).needs_sgx

    def test_empty_plan(self):
        plan = FaultPlan()
        assert len(plan) == 0
