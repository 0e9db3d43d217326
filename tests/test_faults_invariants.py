"""InvariantChecker: per-round safety property auditing."""

import random

import pytest

from repro.faults.invariants import InvariantChecker, InvariantViolation
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.node import NodeBase, NodeKind


class StubNode(NodeBase):
    """A node whose view/known sets the test scripts directly."""

    def __init__(self, node_id, view=(), known=None, kind=NodeKind.HONEST):
        super().__init__(node_id, kind)
        self.view = list(view)
        self.known = set(known) if known is not None else set(view) | {node_id}

    def begin_round(self, ctx):
        return None

    def gossip(self, ctx):
        return None

    def end_round(self, ctx):
        return None

    def handle_request(self, message):
        return None

    def view_ids(self):
        return list(self.view)

    def known_ids(self):
        return self.known

    def seed_view(self, ids):
        self.view = list(ids)


def make_sim(nodes):
    return Simulation(Network(random.Random(0)), nodes, random.Random(0))


def check(simulation, round_number=1, **kwargs):
    simulation.round_number = round_number
    checker = InvariantChecker(record_only=True, **kwargs)
    checker.on_round_end(simulation)
    return checker


class TestPerNodeInvariants:
    def test_clean_views_pass(self):
        sim = make_sim([StubNode(0, [1]), StubNode(1, [0])])
        checker = check(sim)
        assert checker.ok
        assert checker.rounds_checked == 1

    def test_self_in_view_detected(self):
        sim = make_sim([StubNode(0, [0, 1]), StubNode(1, [0])])
        checker = check(sim)
        violations = [v for v in checker.violations if v.invariant == "no-self"]
        assert violations and violations[0].node_id == 0

    def test_never_registered_id_detected(self):
        sim = make_sim([StubNode(0, [1, 99], known={0, 1, 99}), StubNode(1, [0])])
        checker = check(sim)
        assert any(v.invariant == "registered-ids" and "99" in v.detail
                   for v in checker.violations)

    def test_departed_node_is_still_legitimate(self):
        # IDs of nodes that left via churn may linger in views; only IDs
        # that *never* existed are phantoms.
        sim = make_sim([StubNode(0, [1, 2]), StubNode(1, [0]), StubNode(2, [0])])
        sim.remove_node(2)
        checker = check(sim)
        assert checker.ok

    def test_view_not_subset_of_known_detected(self):
        sim = make_sim([StubNode(0, [1], known={0}), StubNode(1, [0])])
        checker = check(sim)
        assert any(v.invariant == "view-known" for v in checker.violations)

    def test_duplicates_opt_in(self):
        sim = make_sim([StubNode(0, [1, 1]), StubNode(1, [0])])
        assert check(sim).ok  # Brahms views repeat IDs by design
        checker = check(sim, check_duplicate_entries=True)
        assert any(v.invariant == "no-duplicates" for v in checker.violations)

    def test_byzantine_nodes_are_not_audited(self):
        byz = StubNode(0, [0, 0], kind=NodeKind.BYZANTINE)
        sim = make_sim([byz, StubNode(1, [2]), StubNode(2, [1])])
        assert check(sim).ok


class TestConnectivity:
    def _split_population(self):
        ring_a = [StubNode(i, [(i + 1) % 3]) for i in range(3)]
        ring_b = [StubNode(i, [3 + (i - 2) % 3]) for i in range(3, 6)]
        return make_sim(ring_a + ring_b)

    def test_split_overlay_detected_after_grace(self):
        sim = self._split_population()
        checker = check(sim, round_number=20, connectivity_grace=10)
        assert any(v.invariant == "connectivity" for v in checker.violations)

    def test_grace_period_suppresses_check(self):
        sim = self._split_population()
        assert check(sim, round_number=5, connectivity_grace=10).ok

    def test_single_straggler_tolerated(self):
        nodes = [StubNode(i, [(i + 1) % 10]) for i in range(10)]
        nodes.append(StubNode(10, [99], known={10, 99}))  # islanded
        sim = make_sim(nodes + [StubNode(99, [0])])
        sim.remove_node(99)
        checker = check(sim, round_number=20)
        assert not any(v.invariant == "connectivity" for v in checker.violations)

    def test_connected_overlay_passes(self):
        nodes = [StubNode(i, [(i + 1) % 8]) for i in range(8)]
        assert check(make_sim(nodes), round_number=20).ok

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            InvariantChecker(connectivity_tolerance=1.5)


class TestReporting:
    def test_raises_by_default_with_diagnostics(self):
        sim = make_sim([StubNode(0, [0])])
        sim.round_number = 7
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_round_end(sim)
        message = str(excinfo.value)
        assert "round 7" in message
        assert "node 0" in message
        assert "no-self" in message

    def test_record_only_collects(self):
        sim = make_sim([StubNode(0, [0]), StubNode(1, [1])])
        checker = check(sim)
        assert len(checker.violations) == 2
        assert not checker.ok
