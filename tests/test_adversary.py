"""Adversary model tests: coordinator, Byzantine node, identification,
poisoned injection."""

import random
from collections import Counter

import pytest

from repro.adversary.byzantine import ByzantineNode
from repro.adversary.coordinator import AdversaryCoordinator
from repro.adversary.identification import IdentificationAttack, IdentificationReport
from repro.adversary.poisoned import build_poisoned_trusted_node, poison_initial_state
from repro.core.config import RapteeConfig
from repro.core.node import RapteeNode
from repro.sim.messages import AuthChallenge, AuthResponse, PullReply, PullRequest
from repro.sim.node import NodeKind


def make_coordinator(n_byz=10, n_correct=90, push_limit=12, strategy="balanced", **kwargs):
    return AdversaryCoordinator(
        byzantine_ids=range(n_byz),
        correct_ids=range(n_byz, n_byz + n_correct),
        push_limit=push_limit,
        rng=random.Random(0),
        strategy=strategy,
        **kwargs,
    )


class TestCoordinator:
    def test_balanced_spreads_evenly(self):
        coordinator = make_coordinator(n_byz=10, n_correct=50, push_limit=10)
        targets = Counter()
        for byz in range(10):
            targets.update(coordinator.push_targets_for(byz, round_number=1))
        assert sum(targets.values()) == 100
        assert set(targets) <= set(range(10, 60))
        assert max(targets.values()) == min(targets.values())  # exactly even

    def test_budget_respects_rate_limit(self):
        coordinator = make_coordinator(push_limit=7)
        for byz in range(10):
            assert len(coordinator.push_targets_for(byz, 1)) <= 7

    def test_assignments_change_per_round(self):
        coordinator = make_coordinator()
        first = coordinator.push_targets_for(0, 1)
        second = coordinator.push_targets_for(0, 2)
        assert first != second  # reshuffled

    def test_adaptive_budget_grows_with_pollution(self):
        coordinator = make_coordinator(strategy="adaptive_balanced", expected_pushes=10)
        coordinator.set_pollution_probe(lambda: 0.0)
        low = sum(len(coordinator.push_targets_for(b, 1)) for b in range(10))
        coordinator.set_pollution_probe(lambda: 0.8)
        high = sum(len(coordinator.push_targets_for(b, 2)) for b in range(10))
        assert high > low

    def test_adaptive_budget_capped_by_limit(self):
        coordinator = make_coordinator(strategy="adaptive_balanced", expected_pushes=10, push_limit=2)
        coordinator.set_pollution_probe(lambda: 1.0)
        total = sum(len(coordinator.push_targets_for(b, 1)) for b in range(10))
        assert total <= coordinator.total_budget

    def test_fake_view_rotation_covers_all_identities(self):
        coordinator = make_coordinator(n_byz=20)
        served = set()
        for _ in range(10):
            served.update(coordinator.fake_view(5))
        assert served == set(range(20))

    def test_fake_view_only_byzantine_ids(self):
        coordinator = make_coordinator()
        assert set(coordinator.fake_view(8)) <= set(range(10))

    def test_fake_view_larger_than_pool(self):
        coordinator = make_coordinator(n_byz=3)
        assert sorted(coordinator.fake_view(10)) == [0, 1, 2]

    def test_intel_recording(self):
        coordinator = make_coordinator(n_byz=10)
        coordinator.record_pull_answer(50, [0, 1, 99, 98], round_number=3)
        assert coordinator.intel[50] == [(3, 0.5)]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_coordinator(strategy="chaotic")


class TestByzantineNode:
    def test_pull_answer_is_all_byzantine(self):
        coordinator = make_coordinator()
        node = ByzantineNode(0, coordinator, view_size=8, rng=random.Random(1))
        reply = node.handle_request(PullRequest(sender=50))
        assert isinstance(reply, PullReply)
        assert set(reply.ids) <= set(range(10))
        assert len(reply.ids) == 8

    def test_participates_in_auth_with_random_key(self):
        coordinator = make_coordinator()
        node = ByzantineNode(0, coordinator, view_size=8, rng=random.Random(1))
        response = node.handle_request(AuthChallenge(sender=50, r_a=b"r" * 16))
        assert isinstance(response, AuthResponse)

    def test_cannot_pass_trusted_check(self, infrastructure, small_raptee_config):
        coordinator = make_coordinator()
        byz = ByzantineNode(0, coordinator, view_size=8, rng=random.Random(1))
        enclave, _ = infrastructure.new_trusted_enclave(400)
        response = byz.handle_request(AuthChallenge(sender=400, r_a=b"r" * 16))
        assert not enclave.auth_check_response(b"r" * 16, response.r_b, response.proof)

    def test_view_ids_are_fake(self):
        coordinator = make_coordinator()
        node = ByzantineNode(0, coordinator, view_size=8, rng=random.Random(1))
        assert set(node.view_ids()) <= set(range(10))

    def test_known_ids_is_global_membership(self):
        coordinator = make_coordinator(n_byz=5, n_correct=10)
        node = ByzantineNode(0, coordinator, view_size=8, rng=random.Random(1))
        assert len(node.known_ids()) == 15


class TestIdentificationAttack:
    def test_report_metrics(self):
        report = IdentificationReport(
            labeled_trusted=frozenset({1, 2, 3}),
            true_positives=2,
            false_positives=1,
            false_negatives=2,
        )
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(0.5)
        assert report.f1 == pytest.approx(2 * (2 / 3) * 0.5 / ((2 / 3) + 0.5))

    def test_zero_division_guards(self):
        empty = IdentificationReport(frozenset(), 0, 0, 0)
        assert empty.precision == empty.recall == empty.f1 == 0.0

    def test_classifier_flags_low_pollution_nodes(self):
        coordinator = make_coordinator(n_byz=10, n_correct=20)
        # Nodes 10..24: pollution 0.5; nodes 25..29: pollution 0.1 (evictors).
        for node in range(10, 25):
            coordinator.record_pull_answer(node, [0] * 5 + [90] * 5, 1)
        for node in range(25, 30):
            coordinator.record_pull_answer(node, [0] + [90] * 9, 1)
        attack = IdentificationAttack(coordinator, threshold=0.10)
        report = attack.classify(true_trusted=range(25, 30))
        assert report.labeled_trusted == frozenset(range(25, 30))
        assert report.precision == 1.0 and report.recall == 1.0

    def test_classifier_respects_window(self):
        coordinator = make_coordinator()
        coordinator.record_pull_answer(50, [0] * 10, round_number=100)  # outside
        attack = IdentificationAttack(coordinator)
        report = attack.classify(true_trusted=[50], since_round=1, until_round=10)
        assert report.labeled_trusted == frozenset()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            IdentificationAttack(make_coordinator(), threshold=0.0)


class TestPoisonedInjection:
    def test_poisoned_view_is_all_byzantine(self, small_raptee_config, infrastructure):
        node = build_poisoned_trusted_node(
            500,
            small_raptee_config,
            infrastructure,
            byzantine_ids=list(range(10)),
            rng=random.Random(0),
        )
        assert node.kind is NodeKind.POISONED_TRUSTED
        assert set(node.view) <= set(range(10))
        assert len(node.view) == small_raptee_config.brahms.view_size
        assert set(node.samplers.sample_list()) <= set(range(10))

    def test_poisoned_node_holds_real_group_key(self, small_raptee_config, infrastructure):
        node = build_poisoned_trusted_node(
            501, small_raptee_config, infrastructure,
            byzantine_ids=[1, 2, 3], rng=random.Random(0),
        )
        genuine, _ = infrastructure.new_trusted_enclave(502)
        r_a = b"r" * 16
        r_b, proof = node.enclave.auth_respond(r_a)
        assert genuine.auth_check_response(r_a, r_b, proof)

    def test_poison_requires_byzantine_ids(self, small_raptee_config, infrastructure):
        enclave, _ = infrastructure.new_trusted_enclave(503)
        node = RapteeNode(503, NodeKind.POISONED_TRUSTED, small_raptee_config,
                          random.Random(0), enclave=enclave)
        with pytest.raises(ValueError):
            poison_initial_state(node, [], random.Random(0))

    def test_poisoned_counts_as_correct_not_byzantine(self, small_raptee_config, infrastructure):
        node = build_poisoned_trusted_node(
            504, small_raptee_config, infrastructure,
            byzantine_ids=[1], rng=random.Random(0),
        )
        assert not node.kind.is_byzantine
        assert node.kind.runs_trusted_code
