"""Fault-plan schema: validation and windows, and the one schedule check
(:func:`~repro.faults.plan.validate_faults`) every engine applies."""

import pytest

from repro.faults.plan import (
    AttestationOutageFault,
    CrashRestartFault,
    EclipseFault,
    EnclaveCrashFault,
    FaultPlan,
    FaultPlanError,
    LinkFault,
    LossBurstFault,
    OmissionFault,
    PartitionFault,
    ProvisioningFlakinessFault,
    RoundWindow,
    SealedBlobCorruptionFault,
    validate_faults,
)
from repro.scenario import ScenarioSpecError, run_scenario, spec_from_dict


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
        with pytest.raises(ValueError, match="node_id must be non-negative"):
            CrashRestartFault(-1, at_round=3, down_rounds=1).validate()

    def test_a_full_loss_burst_is_valid(self):
        LossBurstFault(RoundWindow(2, 3), 1.0).validate()

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


class TestScheduleRule:
    """One node's crash-restart windows never overlap; the window runs
    through the restart round ``at_round + down_rounds``."""

    def test_overlap_names_the_later_window(self):
        faults = [LossBurstFault(RoundWindow(1, 2), 0.5),
                  CrashRestartFault(5, at_round=3, down_rounds=1),
                  CrashRestartFault(5, at_round=2, down_rounds=3)]
        with pytest.raises(FaultPlanError, match="overlaps.*node 5") as excinfo:
            validate_faults(faults)
        assert excinfo.value.index == 1

    def test_a_crash_in_the_restart_round_overlaps(self):
        with pytest.raises(FaultPlanError, match="overlaps"):
            validate_faults([CrashRestartFault(5, at_round=2, down_rounds=3),
                             CrashRestartFault(5, at_round=5, down_rounds=1)])

    def test_back_to_back_windows_and_other_nodes_pass(self):
        validate_faults([CrashRestartFault(5, at_round=2, down_rounds=3),
                         CrashRestartFault(5, at_round=6, down_rounds=1),
                         CrashRestartFault(6, at_round=2, down_rounds=3)])

    def test_a_fault_of_its_own_is_reported_by_index(self):
        with pytest.raises(FaultPlanError, match="loss_rate") as excinfo:
            validate_faults([CrashRestartFault(5, at_round=2, down_rounds=1),
                             LossBurstFault(RoundWindow(1, 2), 1.5)])
        assert excinfo.value.index == 1


def _spec(kind, faults, rounds=7):
    """Brahms at N = 40 (Byzantine ids 0-3) on the ``kind`` engine."""
    return spec_from_dict({
        "name": "schedule", "protocol": "brahms", "seed": 3, "rounds": rounds,
        "adversary_strategy": "balanced",
        "topology": {"n_nodes": 40, "byzantine_fraction": 0.1},
        "faults": faults, "engine": {"kind": kind},
    })


def _crash(node_id, at_round, down_rounds):
    return {"kind": "crash-restart", "node_id": node_id, "at_round": at_round,
            "down_rounds": down_rounds}


@pytest.mark.parametrize("kind", ["rounds", "shard"])
class TestSchedulesOnEveryEngine:
    def test_overlapping_crash_windows_are_refused_at_load(self, kind):
        with pytest.raises(ScenarioSpecError) as excinfo:
            _spec(kind, [_crash(5, 2, 3), _crash(5, 3, 1)])
        assert excinfo.value.path == "faults[1]"
        assert "overlaps" in str(excinfo.value)

    def test_a_negative_node_id_is_refused_at_load(self, kind):
        with pytest.raises(ScenarioSpecError) as excinfo:
            _spec(kind, [_crash(-1, 2, 3)])
        assert excinfo.value.path == "faults[0]"

    def test_a_crash_takes_the_node_down_until_its_restart_round(self, kind):
        records = run_scenario(_spec(kind, [_crash(5, 2, 3)]),
                               telemetry=None).bundle.view_records
        assert [5 in record.nodes for record in records] == [
            True, False, False, False, True, True, True]

    def test_a_full_loss_burst_loses_every_message_of_its_rounds(self, kind):
        burst = [{"kind": "loss-burst", "window": {"start": 2, "end": 3},
                  "loss_rate": 1.0}]
        totals = [dict(zip(("pushes_sent", "pushes_delivered", "requests_sent",
                            "replies_delivered", "messages_lost"),
                           run_scenario(_spec(kind, burst, rounds), telemetry=None)
                           .network_totals))
                  for rounds in range(1, 5)]
        for round_number, before, after in zip(range(2, 5), totals, totals[1:]):
            delta = {name: after[name] - before[name] for name in before}
            sent = delta["pushes_sent"] + delta["requests_sent"]
            delivered = delta["pushes_delivered"] + delta["replies_delivered"]
            assert sent > 0
            if round_number in (2, 3):
                assert (delta["messages_lost"], delivered) == (sent, 0)
            else:
                assert (delta["messages_lost"], delivered) == (0, sent)
