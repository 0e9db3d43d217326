"""Property-based invariants at the protocol level.

Brahms' view renewal must stay within the α/β/γ budget and draw only from
its declared sources; the eviction arithmetic must hit the requested
proportion exactly for any pool.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.brahms.config import BrahmsConfig
from repro.brahms.node import BrahmsNode, PulledBatch
from repro.core.config import RapteeConfig
from repro.core.eviction import FixedEviction
from repro.core.node import RapteeNode
from repro.sim.node import NodeKind


class TestRenewalProperties:
    @given(
        pushed=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=30),
        pulled=st.lists(st.integers(min_value=61, max_value=120), min_size=1, max_size=60),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_renewed_view_respects_source_budget(self, pushed, pulled, seed):
        config = BrahmsConfig(view_size=10, sample_size=5)
        node = BrahmsNode(0, NodeKind.HONEST, config, random.Random(seed))
        node.samplers.update(range(200, 210))
        new_view = node._renew_view(pushed, pulled)

        pushed_part = [p for p in new_view if 1 <= p <= 60]
        pulled_part = [p for p in new_view if 61 <= p <= 120]
        history_part = [p for p in new_view if p >= 200]
        assert len(pushed_part) <= config.alpha_count
        assert len(pulled_part) == config.beta_count
        assert len(history_part) == config.gamma_count
        # Nothing outside the three sources.
        assert len(pushed_part) + len(pulled_part) + len(history_part) == len(new_view)

    @given(
        pushed=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=30),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_renewal_without_pulls_or_history(self, pushed, seed):
        config = BrahmsConfig(view_size=10, sample_size=5)
        node = BrahmsNode(0, NodeKind.HONEST, config, random.Random(seed))
        new_view = node._renew_view(pushed, [])
        # Only the push portion can be present (empty samplers, no pulls).
        assert len(new_view) <= config.alpha_count
        assert set(new_view) <= set(pushed)


class TestEvictionArithmetic:
    @given(
        pool_size=st.integers(min_value=0, max_value=200),
        rate_percent=st.integers(min_value=0, max_value=100),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_eviction_proportion(self, pool_size, rate_percent, seed):
        rate = rate_percent / 100.0
        config = RapteeConfig(eviction=FixedEviction(rate))
        # Build a bare trusted node without the full provisioning flow:
        # the eviction arithmetic does not touch the enclave.
        node = RapteeNode.__new__(RapteeNode)
        BrahmsNode.__init__(node, 0, NodeKind.TRUSTED, BrahmsConfig(view_size=8, sample_size=4),
                           random.Random(seed))
        node.raptee_config = config
        node._trusted_role = True
        node.degraded = False
        node._unbiaser = None
        node._pulled = [PulledBatch(source=1, ids=tuple(range(100, 100 + pool_size)))]
        node._id_contacts = 1
        node._trusted_id_contacts = 0
        node.last_eviction_rate = None
        node.evicted_ids_total = 0

        kept = node._effective_pulled_ids()
        expected_kept = pool_size - int(round(rate * pool_size))
        assert len(kept) == max(0, expected_kept)
        assert node.evicted_ids_total == pool_size - len(kept)
