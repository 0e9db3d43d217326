"""Unit tests for the sharded engine's building blocks.

The differential suite (``test_shard_differential.py``) pins whole-run
byte-identity; this file pins the pieces that identity rests on — the
counter-based randomness (scalar == vector), the packed-domain Mersenne
fold and the tiled sampler feed, the keyed bootstrap selection, the
min-wise sampler anchors, the vectorised adversary assignment, the
thread-dispatch seam and its read-only contract, partition bounds, the
compile-time feature gate, the ``EngineSpec.shards`` knob, and the CLI
surface.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import tracemalloc
import typing
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.eviction import AdaptiveEviction, FixedEviction
from repro.crypto.minwise import MERSENNE_PRIME_31
from repro.faults.plan import CrashRestartFault, FaultPlan, LossBurstFault, RoundWindow
from repro.scenario.spec import EngineSpec, ScenarioSpecError
from repro.shard import partition_bounds
from repro.shard.compile import (
    ShardUnsupportedError,
    shard_config_from_spec,
)
from repro.shard.engine import (
    SessionArrays,
    _adversary_assignment,
    _batch_lengths,
    _batch_refs,
    _callee_effects,
    _fake_view,
    _fold_pack,
    _keyed_keep_numpy,
    _keyed_subset,
    _known_live,
    _pack_views,
    _pulled_batches_numpy,
    _row_ones,
    _set_bits,
    _stream_ids,
)
from repro.shard.rand import (Purpose, key64, key_array, key_row, keyed_order, keys_into,
                              rand_float)
from repro.shard.state import EMPTY_SAMPLE, ShardConfig, ShardState, build_state

from repro.experiments.scenarios import TopologySpec
from repro.sim.node import NodeKind
from repro.sim.observers import KIND_CODE, RoundRecord

from tests._pinned import (
    assert_saturated_samples_uniform,
    known_ids,
    run_shard_config,
    shard_config,
)


class TestCounterRandomness:
    def test_key_array_matches_scalar(self):
        import numpy as np

        a_values = list(range(0, 400, 7))
        b_values = [v * 3 + 1 for v in range(len(a_values))]
        for purpose in (Purpose.PUSH_TARGET, Purpose.SESSION_LOSS,
                        Purpose.RENEW_GAMMA, Purpose.BOOTSTRAP):
            batched = key_array(11, purpose, 5, np.asarray(a_values),
                                np.asarray(b_values))
            expected = [key64(11, purpose, 5, a, b)
                        for a, b in zip(a_values, b_values)]
            assert [int(v) for v in batched] == expected

    def test_key_array_broadcasts(self):
        import numpy as np

        batched = key_array(3, Purpose.EVICT_KEEP, 2, np.uint64(9),
                            np.arange(16, dtype=np.uint64))
        assert [int(v) for v in batched] == [
            key64(3, Purpose.EVICT_KEEP, 2, 9, b) for b in range(16)
        ]

    @pytest.mark.parametrize("layout", ["writable", "read-only", "broadcast",
                                        "strided", "transposed"])
    def test_key_array_leaves_its_inputs_alone(self, layout):
        """The in-place kernel computes in arrays of its own: inputs of any
        layout come back unchanged (a read-only one would raise), and the
        keys still equal :func:`key64` element by element."""
        grid = np.arange(48, dtype=np.uint64).reshape(6, 8) * np.uint64(7919)
        if layout == "writable":
            a_values, b_values = grid, grid[::-1].copy()
        elif layout == "read-only":
            a_values, b_values = grid.copy(), grid.copy()
            a_values.flags.writeable = b_values.flags.writeable = False
        elif layout == "broadcast":
            a_values = np.broadcast_to(np.arange(6, dtype=np.uint64)[:, None], (6, 8))
            b_values = np.broadcast_to(grid[0], (6, 8))
        elif layout == "strided":
            a_values, b_values = grid[::2, ::3], grid[1::2, 1::3]
        else:
            a_values, b_values = grid.T, grid[::-1].T
        before = (a_values.copy(), b_values.copy())
        keys = key_array(4, Purpose.RENEW_PUSH, 3, a_values, b_values)
        assert np.array_equal(a_values, before[0])
        assert np.array_equal(b_values, before[1])
        assert keys.shape == np.broadcast_shapes(a_values.shape, b_values.shape)
        assert [int(k) for k in keys.ravel()] == [
            key64(4, Purpose.RENEW_PUSH, 3, int(a), int(b))
            for a, b in zip(a_values.ravel(), b_values.ravel())
        ]

    def test_key_array_broadcasts_a_column_against_a_row(self):
        """The bootstrap's shape: a column and a row give the grid, and
        `keys_into` over a `key_row` gives the same words in place."""
        nodes = np.arange(5, dtype=np.uint64)[:, None]
        ids = np.arange(9, dtype=np.uint64)[None, :]
        keys = key_array(6, Purpose.BOOTSTRAP, 0, nodes, ids)
        out, scratch = np.empty((5, 9), np.uint64), np.empty((5, 9), np.uint64)
        assert keys_into(out, scratch, nodes,
                         key_row(6, Purpose.BOOTSTRAP, 0, ids[0])) is out
        assert np.array_equal(out, keys)
        assert keys.tolist() == [
            [key64(6, Purpose.BOOTSTRAP, 0, a, b) for b in range(9)]
            for a in range(5)
        ]

    def test_draws_are_coordinate_pure(self):
        # Same coordinates, same draw — no hidden sequence state.
        assert key64(1, 2, 3, 4, 5) == key64(1, 2, 3, 4, 5)
        # Each coordinate matters.
        baseline = key64(1, 2, 3, 4, 5)
        assert baseline != key64(2, 2, 3, 4, 5)
        assert baseline != key64(1, 3, 3, 4, 5)
        assert baseline != key64(1, 2, 4, 4, 5)
        assert baseline != key64(1, 2, 3, 5, 5)
        assert baseline != key64(1, 2, 3, 4, 6)

    def test_rand_float_unit_interval(self):
        values = [rand_float(7, Purpose.PUSH_LOSS, r, n)
                  for r in range(20) for n in range(20)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 350  # essentially no collisions

    def test_keyed_order_is_permutation(self):
        items = list(range(50))
        ordered = keyed_order(items, 5, Purpose.ADV_ORDER, 9)
        assert sorted(ordered) == items
        assert ordered != items  # astronomically unlikely to be identity
        assert ordered == keyed_order(items, 5, Purpose.ADV_ORDER, 9)
        assert ordered != keyed_order(items, 5, Purpose.ADV_ORDER, 10)


_P31 = MERSENNE_PRIME_31


def _fold_case(offset: int):
    """``(a, r, b)`` whose single fold ``(x & p) + (x >> 31)`` of
    ``x = a·r + b = 2·2^31 + (p + offset − 2)`` is exactly ``p + offset``."""
    return (4, 1 << 30, _P31 + offset - 2)


class TestPackedFold:
    """`_fold_pack` against ``((a·r + b) % p) << 32 | id`` in Python ints."""

    @given(
        cases=st.lists(
            st.one_of(
                st.tuples(st.integers(1, _P31 - 1), st.integers(0, _P31 - 1),
                          st.integers(0, _P31 - 1)),
                st.sampled_from([
                    (_P31 - 1, _P31 - 1, _P31 - 1),  # the largest x = p(p − 1)
                    (1, 0, 0),                        # x = 0
                    (1, _P31 - 1, 1),                 # x = p: ≡ 0, f = 1
                    (2, _P31 - 1, 2),                 # x = 2p
                    # the single fold lands on p − 1, p, p + 1
                    _fold_case(-1), _fold_case(0), _fold_case(1),
                ]),
                # a·r + b ≡ 0 (mod p) for arbitrary a, r
                st.tuples(st.integers(1, _P31 - 1), st.integers(0, _P31 - 1))
                .map(lambda ar: (ar[0], ar[1], -ar[0] * ar[1] % _P31)),
            ),
            min_size=1, max_size=40,
        ),
        ids=st.lists(st.sampled_from([0, 1, 2 ** 31, 2 ** 32 - 1])
                     | st.integers(0, 2 ** 32 - 1), min_size=3, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_python_ints(self, cases, ids):
        import numpy as np

        x = np.asarray([[a * r + b] * len(ids) for a, r, b in cases],
                       dtype=np.uint64)
        scratch = np.empty_like(x)
        _fold_pack(x, scratch, np.asarray(ids, dtype=np.uint64)[None, :])
        assert x.tolist() == [
            [((a * r + b) % _P31) << 32 | pid for pid in ids]
            for a, r, b in cases
        ]

    def test_forced_edges_are_the_edges_they_claim(self):
        for offset in (-1, 0, 1):
            a, r, b = _fold_case(offset)
            x = a * r + b
            assert 0 < a < _P31 and 0 <= r < _P31
            assert (x & _P31) + (x >> 31) == _P31 + offset
        assert EMPTY_SAMPLE > ((_P31 - 1) << 32 | (2 ** 32 - 1))


def _kernel_config(**overrides) -> ShardConfig:
    """RAPTEE with trusted swaps, adaptive eviction, loss, a crash and
    sampler validation: every branch of the apply phase in a few rounds."""
    topology = {"n_nodes": 64, "byzantine_fraction": 0.10,
                "trusted_fraction": 0.25, "view_ratio": 0.12, "loss_rate": 0.05,
                "transport_encryption": True}
    config = shard_config(topology, seed=41, protocol="raptee", faults=[
        {"kind": "crash-restart", "node_id": 30, "at_round": 2,
         "down_rounds": 3},
    ])
    return replace(config, validation_period=2, **overrides)


def _flood_config() -> ShardConfig:
    """Brahms with l1 = N/4: round 1 hands every node most of the
    population as fresh ids (runs of up to ~90 rows per owner), then the
    frontier collapses — the shape of the paper-scale round-1 flood."""
    topology = {"n_nodes": 96, "byzantine_fraction": 0.10, "view_ratio": 0.25,
                "loss_rate": 0.02}
    return shard_config(topology, seed=23, protocol="brahms")


@st.composite
def _tiny_configs(draw):
    """A random valid ``ShardConfig`` at N <= 40, a shard count and a
    worker count (together, the partition count): any α/β/γ split, up to
    N/2 Byzantine nodes, RAPTEE with no, fixed or adaptive eviction, loss,
    sampler validation and push limits."""
    n = draw(st.integers(3, 40))
    view_size = draw(st.integers(2, n - 1))
    alpha = draw(st.integers(1, view_size - 1))
    beta = draw(st.integers(1, view_size - alpha))
    gamma = draw(st.integers(0, view_size - alpha - beta))
    n_byzantine = draw(st.integers(0, n // 2))
    protocol = draw(st.sampled_from(["brahms", "raptee"]))
    raptee = {}
    if protocol == "raptee":
        eviction = draw(st.sampled_from([
            None, FixedEviction(0.4), FixedEviction(1.0),
            AdaptiveEviction(0.2, 0.8, 0.2, 0.8),
            AdaptiveEviction(0.0, 0.5, 0.0, 1.0),
        ]))
        raptee = {"n_trusted": draw(st.integers(0, n - n_byzantine)),
                  "eviction": eviction,
                  "trusted_exchange": draw(st.booleans())}
    config = ShardConfig(
        protocol=protocol, n_nodes=n, seed=draw(st.integers(0, 2 ** 16)),
        n_byzantine=n_byzantine, view_size=view_size,
        sample_size=draw(st.integers(1, 6)), alpha_count=alpha,
        beta_count=beta, gamma_count=gamma,
        blocking_enabled=draw(st.booleans()),
        validation_period=draw(st.sampled_from([0, 1, 2])),
        push_limit=draw(st.one_of(st.none(), st.integers(1, 4))),
        loss_rate=draw(st.sampled_from([0.0, 0.1, 0.3])), **raptee,
    )
    return config, draw(st.integers(1, 4)), draw(st.integers(1, 4))


def _recorded_deltas(monkeypatch, config, use_numpy, rounds=6, shards=3,
                     workers=1):
    """Run ``rounds`` rounds and return every ``apply_partition`` delta in
    canonical form, per (round, partition).  Records at the
    ``map_partitions`` seam, so each delta is what the kernel computed from
    that round's frozen state and barrier.  ``min(shards, workers)``
    partitions: inline, the whole population is one."""
    from repro.shard import ShardSimulation, pool
    from repro.shard.engine import apply_partition

    real_map = pool.map_partitions
    recorded = []

    def recording_map(fn, tasks, workers):
        results = real_map(fn, tasks, workers)
        if fn is apply_partition:
            recorded.extend(_canonical_delta(delta) for delta in results)
        return results

    with monkeypatch.context() as patch:
        patch.setattr(pool, "map_partitions", recording_map)
        ShardSimulation(config, shards=shards, workers=workers,
                        use_numpy=use_numpy).run(rounds)
    return recorded


def _canonical_delta(delta):
    """A PartitionDelta as backend-independent plain Python values."""
    views = {node: [int(v) for v in ids] for node, ids in delta.new_views}
    samples = {
        (node, int(slot)): int(value)
        for node, slots, values in delta.samp_updates
        for slot, value in zip(slots, values)
    }
    known = {(node, int(v)) for node, ids in delta.known_additions for v in ids}
    for block in delta.blocks:
        if block.views is not None:
            nodes, rows, lens = block.views
            for node, row, length in zip(nodes.tolist(), rows.tolist(),
                                         lens.tolist()):
                assert all(v == -1 for v in row[length:])
                views[node] = row[:length]
        if block.samples is not None:
            nodes, slots, packed = (column.tolist() for column in block.samples)
            samples.update(zip(zip(nodes, slots), packed))
        bits = block.known_bits
        rows = known_ids(bits, 8 * bits.shape[1])
        for owner, ids in enumerate(rows, start=block.node_a):
            known.update((owner, v) for v in ids)
    return {
        "bounds": (delta.lo, delta.hi),
        "views": views,
        "samples": samples,
        "known": known,
        "resets": [tuple(int(v) for v in reset) for reset in delta.samp_resets],
        "counters": (delta.renewals, delta.blocked, delta.evicted,
                     delta.trusted_exchanges, delta.sampler_resets),
    }


class TestSegmentKernel:
    def test_deltas_match_pure_backend_field_by_field(self, monkeypatch):
        config = _kernel_config()
        vector = _recorded_deltas(monkeypatch, config, use_numpy=True, workers=3)
        scalar = _recorded_deltas(monkeypatch, config, use_numpy=False, workers=3)
        assert len(vector) == len(scalar) == 6 * 3
        for got, expected in zip(vector, scalar):
            for name in expected:
                assert got[name] == expected[name], (expected["bounds"], name)
        # The run must have reached every field it compares.
        totals = [sum(d["counters"][i] for d in scalar) for i in range(5)]
        assert all(total > 0 for total in totals), totals
        assert any(d["samples"] for d in scalar)

    def test_block_size_is_invisible(self, monkeypatch):
        import numpy as np

        from repro.shard import engine

        config = _kernel_config()
        # Twelve rounds: in the later ones owners know so much that
        # N − 1 − |known| is the smaller term of their fresh-pair bound.
        rounds = 12
        real_costs = engine._owner_costs
        binding = []

        def recording_costs(config, batch_count, push_count, known_count, t):
            seen = batch_count * config.view_size + push_count
            binding.append(int(np.count_nonzero(
                config.n_nodes - 1 - known_count < seen)))
            return real_costs(config, batch_count, push_count, known_count, t)

        monkeypatch.setattr(engine, "_owner_costs", recording_costs)
        whole = _recorded_deltas(monkeypatch, config, use_numpy=True,
                                 rounds=rounds)
        assert len(binding) == rounds and binding[0] == 0
        assert all(count > 0 for count in binding[-3:]), binding
        assert len(engine._owner_blocks(np.full(10, config.n_nodes), 64)) == 10
        # At 1 every owner charged anything is a block of its own.
        for budget in (1, 64, 1000):
            monkeypatch.setattr(engine, "_BLOCK_ELEMENTS", budget)
            assert _recorded_deltas(monkeypatch, config, use_numpy=True,
                                    rounds=rounds) == whole, budget

        # Blocks of a few owners: some start inside the trusted band and end
        # past it, so the eviction prefix is strict and non-empty.
        real_block = engine._apply_block_numpy
        spans = []

        def recording_block(config, state, round_no, node_a, node_b, *rest):
            spans.append((node_a, node_b))
            return real_block(config, state, round_no, node_a, node_b, *rest)

        monkeypatch.setattr(engine, "_apply_block_numpy", recording_block)
        monkeypatch.setattr(engine, "_BLOCK_ELEMENTS",
                            5 * (config.n_nodes + 4 * config.view_size))
        banded = _recorded_deltas(monkeypatch, config, use_numpy=True,
                                  rounds=rounds)
        t_hi = config.n_byzantine + config.n_trusted
        assert isinstance(config.eviction, AdaptiveEviction)
        assert any(a < t_hi < b for a, b in spans), sorted(set(spans))
        assert banded == whole

    def test_the_ledger_population_is_one_partition_of_one_block(
            self, monkeypatch):
        """The `shard-raptee-1k` shape (N = 1,000, l1 = 20, shards = 4,
        inline): the round applies one partition, whose owners' charges
        fit :data:`_BLOCK_ELEMENTS` in one owner block from round 1, as the
        constant's comment says."""
        from repro.shard import ShardSimulation, engine

        topology = {"n_nodes": 1000, "byzantine_fraction": 0.1,
                    "trusted_fraction": 0.01, "view_ratio": 0.02,
                    "transport_encryption": True}
        config = shard_config(topology, seed=14000, protocol="raptee")
        assert config.view_size == 20
        real_blocks = engine._owner_blocks
        cuts = []

        def recording_blocks(cost, budget):
            cuts.append(real_blocks(cost, budget))
            return cuts[-1]

        monkeypatch.setattr(engine, "_owner_blocks", recording_blocks)
        simulation = ShardSimulation(config, shards=4)
        assert simulation._bounds == [(0, config.n_nodes)]
        simulation.run(3)
        assert cuts == [[(0, 900)]] * 3

    @settings(max_examples=60, deadline=None)
    @given(case=_tiny_configs(), budget=st.integers(1, 400))
    def test_blocks_hold_no_more_than_they_are_charged(self, case, budget):
        """Four rounds of a random tiny config under a random budget: per
        owner block, each owner's fresh ids stay within its charge
        (`_owner_costs` bounds them exactly), the blocks tile the
        partition's owners in order, and a block of more than one owner is
        charged at most the budget.  The run equals one at the default
        budget."""
        from collections import defaultdict

        from repro.shard import ShardSimulation, engine

        config, shards, workers = case
        real_blocks, real_block = engine._owner_blocks, engine._apply_block_numpy
        # Per thread, each partition's (charges, blocks, applied blocks).
        calls = defaultdict(list)

        def recording_blocks(cost, limit):
            blocks = real_blocks(cost, limit)
            calls[threading.get_ident()].append((cost, blocks, []))
            return blocks

        def recording_block(config, state, round_no, node_a, node_b, *rest):
            out = real_block(config, state, round_no, node_a, node_b, *rest)
            calls[threading.get_ident()][-1][2].append((node_a, node_b, out[2]))
            return out

        runs = []
        for patched in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if patched:
                    patch.setattr(engine, "_owner_blocks", recording_blocks)
                    patch.setattr(engine, "_apply_block_numpy", recording_block)
                    patch.setattr(engine, "_BLOCK_ELEMENTS", budget)
                runs.append(ShardSimulation(config, shards=shards,
                                            workers=workers))
                runs[-1].run(4)
        cut, whole = runs
        assert cut.final_views() == whole.final_views()
        for node in range(config.n_byzantine, config.n_nodes):
            assert cut.state.sample_ids(node) == whole.state.sample_ids(node)
        for cost, blocks, applied in (c for per in calls.values() for c in per):
            assert [a for a, _b in blocks] == [0] + [b for _a, b in blocks[:-1]]
            assert blocks[-1][1] == cost.size
            assert len(applied) == len(blocks)
            for (a, b), (node_a, node_b, fresh) in zip(blocks, applied):
                assert node_b - node_a == b - a
                assert (fresh <= cost[a:b]).all(), (fresh, cost[a:b])
                assert b - a == 1 or int(cost[a:b].sum()) <= budget

    def test_a_saturated_round_still_splits_by_its_batches(self, monkeypatch):
        """Once every owner knows every other id its fresh-pair bound is 0,
        but its pulled batches still cost its block: a budget below the
        round's summed batch charge still cuts several blocks, each within
        the budget, and the round's outputs do not move."""
        import numpy as np

        from repro.shard import ShardSimulation, engine

        config = _flood_config()
        runs = [ShardSimulation(config), ShardSimulation(config)]
        for simulation in runs:
            simulation.run(14)
        n_byz = config.n_byzantine
        known = runs[0]._known_count[n_byz:]
        assert (known == config.n_nodes - 1).all(), known
        real_costs, real_blocks = engine._owner_costs, engine._owner_blocks
        seen = []

        def recording_costs(config, batch_count, *rest):
            cost = real_costs(config, batch_count, *rest)
            seen.append((batch_count, cost))
            return cost

        def recording_blocks(cost, budget):
            seen.append(real_blocks(cost, budget))
            return seen[-1]

        budget = 4 * config.beta_count * engine._BATCH_COST
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_owner_costs", recording_costs)
            patch.setattr(engine, "_owner_blocks", recording_blocks)
            patch.setattr(engine, "_BLOCK_ELEMENTS", budget)
            runs[0].run_round()
        (batch_count, cost), blocks = seen
        assert (cost == batch_count * engine._BATCH_COST).all()
        assert int(cost.sum()) > budget and len(blocks) > 1
        assert all(b - a == 1 or int(cost[a:b].sum()) <= budget
                   for a, b in blocks)
        runs[1].run_round()
        assert runs[0].final_views() == runs[1].final_views()
        assert np.array_equal(runs[0].state.samp_best, runs[1].state.samp_best)

    @settings(max_examples=80, deadline=None)
    @given(case=_tiny_configs())
    def test_numpy_matches_pure_on_random_configs(self, case):
        """Four rounds of a random tiny config on both backends: the same
        final views and the same sampler ids."""
        from repro.shard import ShardSimulation

        config, shards, workers = case
        runs = [ShardSimulation(config, shards=shards, workers=workers,
                                use_numpy=use_numpy)
                for use_numpy in (True, False)]
        for simulation in runs:
            simulation.run(4)
        vector, scalar = runs
        assert vector.final_views() == scalar.final_views()
        for node in range(config.n_byzantine, config.n_nodes):
            assert (vector.state.sample_ids(node)
                    == scalar.state.sample_ids(node)), node

    def test_feed_tile_size_is_invisible(self, monkeypatch):
        from repro.shard import engine

        config = _flood_config()
        whole = _recorded_deltas(monkeypatch, config, use_numpy=True, rounds=4,
                                 shards=2)
        assert whole == _recorded_deltas(monkeypatch, config, use_numpy=False,
                                         rounds=4, shards=2)
        l2 = config.sample_size
        # Round 1 is the first two deltas (one per shard).
        longest = max(Counter(
            owner for delta in whole[:2] for owner, _ in delta["known"]
        ).values())
        # One row per tile; an odd 7 rows, so the longest owner run is cut
        # into many tiles and tiles straddle owners; one tile for everything.
        assert longest >= 3 * 7
        for elements in (l2, 7 * l2 + 3, longest * config.n_nodes * l2):
            monkeypatch.setattr(engine, "_FEED_TILE_ELEMENTS", elements)
            assert _recorded_deltas(monkeypatch, config, use_numpy=True,
                                    rounds=4, shards=2) == whole, elements

    @pytest.mark.parametrize("width", [1, 7, None], ids=["column", "odd", "default"])
    def test_feed_forms_agree_on_a_flood_block(self, monkeypatch, width):
        """The owner form and the tile form on one block: segments of 0 to
        90 ids, an owner cut into many column chunks (``width`` columns of
        the workspace), and a forced hash tie — two ids given one
        ``reduced`` value make up an owner's whole segment, so every one of
        its samplers ties, across chunks when ``width`` is 1.  Both forms
        return the same arrays, equal to ``((a·r + b) % p) << 32 | id`` in
        Python ints, and the tie goes to the smaller id."""
        import numpy as np

        from repro.shard import build_state, engine

        config = ShardConfig(protocol="brahms", n_nodes=300, seed=7,
                             n_byzantine=30, view_size=12, sample_size=16,
                             alpha_count=5, beta_count=5, gamma_count=2)
        state = build_state(config)
        l2 = config.sample_size
        tie_lo, tie_hi = 41, 250
        state.reduced[tie_hi] = state.reduced[tie_lo]
        node_a, node_b = 40, 52
        rng = np.random.default_rng(3)
        lengths = [0, 1, 90, 5, 0, 33, 2, 60, 17, 0, 3, 75]
        segments = [np.sort(rng.choice(config.n_nodes, size, replace=False))
                    for size in lengths]
        segments[6] = np.asarray([tie_lo, tie_hi])
        owner = np.repeat(np.arange(node_a, node_b), lengths)
        ids = np.concatenate(segments)
        if width is not None:
            monkeypatch.setattr(engine, "_FEED_TILE_ELEMENTS", width * l2)

        outputs = []
        for elements in (0, ids.size * l2 + 1):  # every owner; no owner
            monkeypatch.setattr(engine, "_FEED_OWNER_ELEMENTS", elements)
            outputs.append([column.tolist() for column in
                            engine._sampler_feed_numpy(state, node_a, node_b,
                                                       owner, ids)])
        assert outputs[0] == outputs[1]

        p = MERSENNE_PRIME_31
        expected = []
        for local, segment in enumerate(segments):
            node = node_a + local
            for j in range(l2):
                a, b = int(state.samp_a[node, j]), int(state.samp_b[node, j])
                best = min([((a * int(state.reduced[c]) + b) % p) << 32 | int(c)
                            for c in segment.tolist()], default=EMPTY_SAMPLE)
                if best < int(state.samp_best[node, j]):
                    expected.append((node, j, best))
        assert list(zip(*outputs[0])) == expected
        tied = [value for node, _, value in expected if node == node_a + 6]
        assert len(tied) == l2
        assert all(value & 0xFFFFFFFF == tie_lo for value in tied)

    def test_feed_form_selection_is_invisible(self, monkeypatch):
        """Every owner in the owner form (threshold 0), the default rule, a
        threshold that splits round 1's owners between the forms, and every
        owner in tiles (threshold above any segment): the same deltas,
        equal to the pure backend's."""
        from repro.shard import engine

        config = _flood_config()
        pure = _recorded_deltas(monkeypatch, config, use_numpy=False, rounds=4,
                                shards=2)
        lengths = sorted(Counter(
            owner for delta in pure[:2] for owner, _ in delta["known"]
        ).values())
        middle = lengths[len(lengths) // 2]
        assert lengths[0] < middle < lengths[-1]
        for elements in (0, engine._FEED_OWNER_ELEMENTS,
                         middle * config.sample_size,
                         lengths[-1] * config.sample_size + 1):
            monkeypatch.setattr(engine, "_FEED_OWNER_ELEMENTS", elements)
            assert _recorded_deltas(monkeypatch, config, use_numpy=True,
                                    rounds=4, shards=2) == pure, elements

    def test_threads_feed_from_their_own_workspace(self, monkeypatch):
        """shards=4 on two threads, several tiles per call: a workspace
        shared between calls (or one carried over stale) would let one
        partition's hashes land in another's samplers."""
        import numpy as np

        from repro.shard import engine

        config = _flood_config()
        monkeypatch.setattr(engine, "_FEED_TILE_ELEMENTS",
                            7 * config.sample_size + 3)
        inline = run_shard_config(config, rounds=5, shards=1, trace_messages=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_shard_config(config, rounds=5, shards=4, workers=2,
                                   trace_messages=True)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.trace_jsonl == inline.trace_jsonl
        assert threaded.metrics_csv == inline.metrics_csv
        assert threaded.final_views == inline.final_views
        assert threaded.network_totals == inline.network_totals
        for name in ("samp_best", "known", "view"):
            assert np.array_equal(getattr(threaded.bundle.state, name),
                                  getattr(inline.bundle.state, name)), name

    def test_feed_allocation_does_not_grow_with_the_flood(self, monkeypatch):
        """The feed's peak traced allocation is the workspace plus per-owner
        arrays: feeding four times the fresh pairs must not raise it, in
        the tile form (the default rule at these sizes) or the owner form
        (threshold 0, a long owner taken in column chunks)."""
        import numpy as np

        from repro.shard import build_state, engine

        config = ShardConfig(protocol="brahms", n_nodes=600, seed=5,
                             n_byzantine=60, view_size=12, sample_size=16,
                             alpha_count=5, beta_count=5, gamma_count=2)
        state = build_state(config)
        node_a, node_b = 100, 140
        monkeypatch.setattr(engine, "_FEED_TILE_ELEMENTS", 32 * 16)

        def peak(per_owner: int) -> int:
            owner = np.repeat(np.arange(node_a, node_b, dtype=np.int32), per_owner)
            ids = np.tile(np.arange(per_owner, dtype=np.int32), node_b - node_a)
            tracemalloc.start()
            try:
                engine._sampler_feed_numpy(state, node_a, node_b, owner, ids)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        workspace = 2 * 32 * 16 * 8
        for elements in (engine._FEED_OWNER_ELEMENTS, 0):
            monkeypatch.setattr(engine, "_FEED_OWNER_ELEMENTS", elements)
            small, large = peak(120), peak(480)
            assert small >= workspace
            assert large <= small + 1024, elements

    def test_delta_does_not_grow_with_the_flood(self, monkeypatch):
        """A round-1 flood at N = 1,200 comes back as one packed row per
        owner, in owner blocks that tile the partition: no array of a block
        is as long as its fresh-pair count."""
        import numpy as np

        from repro.shard import ShardSimulation, pool
        from repro.shard.engine import apply_partition

        topology = {"n_nodes": 1200, "byzantine_fraction": 0.10,
                    "view_ratio": 0.10}
        config = shard_config(topology, seed=3, protocol="brahms")
        real_map = pool.map_partitions
        deltas = []

        def recording_map(fn, tasks, workers):
            results = real_map(fn, tasks, workers)
            if fn is apply_partition:
                deltas.extend(results)
            return results

        monkeypatch.setattr(pool, "map_partitions", recording_map)
        ShardSimulation(config, shards=3).run(1)
        width = -(-config.n_nodes // 8)
        assert deltas
        for delta in deltas:
            starts = [block.node_a for block in delta.blocks]
            ends = [block.node_a + len(block.known_bits) for block in delta.blocks]
            assert starts[0] == max(delta.lo, config.n_byzantine)
            assert starts[1:] == ends[:-1] and ends[-1] == delta.hi
            for block in delta.blocks:
                bits = block.known_bits
                assert bits.dtype == np.uint8 and bits.shape[1] == width
                fresh = int(np.bitwise_count(bits).sum())
                assert fresh > 20 * len(bits)  # a flood, not a trickle
                arrays = [bits, *(block.views or ()), *(block.samples or ())]
                assert all(len(array) != fresh for array in arrays), fresh

    def test_packed_known_matches_the_pure_sets(self):
        """Node by node and round by round on a crash run whose sampler
        validation replays known ids: the popcount discovery counts and
        `_known_live` agree with the pure backend's sets.  A Byzantine band
        that ends mid-byte pins the bit order."""
        import numpy as np

        from repro.shard import ShardSimulation

        config = _kernel_config()
        assert config.n_byzantine % 8
        vector = ShardSimulation(config, shards=3)
        scalar = ShardSimulation(config, shards=3, use_numpy=False)
        correct = range(config.n_byzantine, config.n_nodes)
        for _ in range(6):
            vector.run_round()
            scalar.run_round()
            assert known_ids(vector.state.known, config.n_nodes) == [
                sorted(ids) for ids in scalar.state.known
            ]
            assert np.array_equal(vector._known_poll(), scalar._known_poll())
            for node in correct:
                assert (_known_live(vector.state, node, [])
                        == _known_live(scalar.state, node, [])), node
        assert vector.state.sampler_resets == scalar.state.sampler_resets > 0

    def test_keyed_keep_matches_scalar_subset(self):
        import numpy as np

        config = _kernel_config()
        lengths = [0, 1, 5, 9, 2, 30]
        keeps = [3, 1, 5, 4, 0, 7]
        owner = np.repeat(np.arange(10, 16), lengths)
        index = np.concatenate([np.arange(n) for n in lengths])
        items = np.arange(owner.size) * 7 + 1
        mask = _keyed_keep_numpy(config, 4, Purpose.EVICT_KEEP, owner, index,
                                 np.repeat(keeps, lengths))
        at = 0
        for node, length, keep in zip(range(10, 16), lengths, keeps):
            segment = items[at:at + length]
            expected = _keyed_subset(config, 4, Purpose.EVICT_KEEP, node,
                                     segment.tolist(), keep) if keep else []
            assert segment[mask[at:at + length]].tolist() == expected
            at += length


def _reference_case(n, n_byz, n_trusted, l1, views, sources, dst, answered,
                    caller_swap, callee_effect, seed=5):
    """A RAPTEE state whose correct views are ``views`` (``views[i]`` is
    node ``n_byz + i``'s) and the sessions of ``sources`` (``[m, slots]``
    matrices; a batch is trusted exactly when both ends are trusted)."""
    config = ShardConfig(protocol="raptee", n_nodes=n, seed=seed,
                         n_byzantine=n_byz, n_trusted=n_trusted, view_size=l1,
                         sample_size=2, alpha_count=1, beta_count=1,
                         gamma_count=0)
    state = build_state(config)
    for node, row in enumerate(views, start=n_byz):
        state.set_view_row(node, row)
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64).reshape(src.size, -1)

    def trusted(ids):
        return (ids >= n_byz) & (ids < n_byz + n_trusted)

    both = trusted(src)[:, None] & trusted(dst)
    answered = np.asarray(answered, dtype=bool).reshape(dst.shape)
    sess = SessionArrays(
        src, dst, answered, answered & both,
        np.asarray(caller_swap, dtype=bool).reshape(dst.shape) & both,
        np.asarray(callee_effect, dtype=bool).reshape(dst.shape) & both,
    )
    return config, state, sess


def _explicit_streams(config, state, round_no, sess):
    """Per correct owner, its pulled id stream the way `_apply_nodes_pure`
    assembles it: pull answers by slot (a Byzantine peer's fake window),
    each caller swap right behind its answer, then callee-side swaps by
    (caller, slot); trusted batches' ids before untrusted ones', the
    owner's own occurrences dropped.  Also each batch's id list, in that
    order, for the per-batch checks."""
    streams, batches = {}, []
    for owner in range(config.n_byzantine, config.n_nodes):
        own = []
        for row in np.flatnonzero(sess.src == owner).tolist():
            for k in range(sess.dst.shape[1]):
                peer = int(sess.dst[row, k])
                if sess.answered[row, k]:
                    ids = (_fake_view(config, round_no, owner, k)
                           if peer < config.n_byzantine else state.view_row(peer))
                    own.append((ids, bool(sess.trusted_batch[row, k])))
                if sess.caller_swap[row, k]:
                    own.append((state.view_row(peer), True))
        rows, slots = np.nonzero(sess.callee_effect & (sess.dst == owner))
        for caller, _k in sorted(zip(sess.src[rows].tolist(), slots.tolist())):
            own.append((state.view_row(caller), True))
        kept = [([i for i in ids if i != owner], flag) for ids, flag in own]
        ordered = ([ids for ids, flag in kept if flag]
                   + [ids for ids, flag in kept if not flag])
        streams[owner] = [i for ids in ordered for i in ids]
        batches.extend((owner, ids) for ids in ordered)
    return streams, batches


def _check_references(config, state, sess, round_no=3):
    """The batch-reference resolver against `_explicit_streams`: the
    packed rows, each batch's length, every owner's pull length and the id
    at every position of the block's stream (every β pick there is)."""
    n, n_byz = config.n_nodes, config.n_byzantine
    bits = _pack_views(config, state)
    assert bits.shape == (n, -(-n // 64)) and bits.dtype == np.uint64
    window = min(config.view_size, n_byz)
    rows = [[(s + t) % n_byz for t in range(window)] for s in range(n_byz)]
    rows += [state.view_row(node) for node in range(n_byz, n)]
    unpacked = np.unpackbits(bits.view(np.uint8), axis=1)
    for node, ids in enumerate(rows):
        assert np.flatnonzero(unpacked[node]).tolist() == sorted(set(ids)), node

    streams, expected = _explicit_streams(config, state, round_no, sess)
    b_owner, b_peer, b_slot, _trusted = _pulled_batches_numpy(
        sess, _callee_effects(sess, n_byz, n), n_byz, n)
    ref = _batch_refs(config, round_no, b_owner, b_peer, b_slot)
    lens, held = _batch_lengths(state, bits, _row_ones(bits), n_byz, b_owner,
                                ref)
    assert [(o, len(ids)) for o, ids in expected] == list(
        zip(b_owner.tolist(), lens.tolist()))
    assert held.tolist() == [i for i, (o, _ids) in enumerate(expected)
                             if o in rows[int(ref[i])]]
    for owner, stream in streams.items():
        assert int(lens[b_owner == owner].sum()) == len(stream), owner
    everything = [i for owner in sorted(streams) for i in streams[owner]]
    ids = _stream_ids(state, n_byz, b_owner, ref, lens, held,
                      np.arange(len(everything)))
    assert ids.tolist() == everything
    return expected


@st.composite
def _reference_cases(draw):
    """Random views (short ones padded with -1, repeats allowed, other
    nodes' ids, so a peer's view often holds an owner once or twice),
    random sessions (Byzantine peers answer with fake windows, which wrap
    whenever ``n_byz`` is below l1 or the start is near ``n_byz``) and
    random trusted swaps."""
    n = draw(st.integers(6, 30))
    n_byz = draw(st.integers(0, n // 3))
    n_trusted = draw(st.integers(0, n - n_byz))
    l1 = draw(st.integers(2, min(9, n - 1)))
    views = [draw(st.lists(st.integers(0, n - 1).filter(lambda v, me=me: v != me),
                           max_size=l1))
             for me in range(n_byz, n)]
    sources = sorted(draw(st.sets(st.integers(n_byz, n - 1), min_size=1)))
    slots = draw(st.integers(1, 4))
    cells = len(sources) * slots
    flags = st.lists(st.booleans(), min_size=cells, max_size=cells)
    dst = draw(st.lists(st.integers(0, n - 1), min_size=cells, max_size=cells))
    return _reference_case(n, n_byz, n_trusted, l1, views, sources, dst,
                           draw(flags), draw(flags), draw(flags),
                           seed=draw(st.integers(0, 2 ** 16)))


class TestPulledReferences:
    """The apply kernel reads pulled ids as (batch, length) references into
    the round's packed views; these pin that form to the explicit id
    stream the pure backend builds."""

    @settings(max_examples=100, deadline=None)
    @given(case=_reference_cases())
    def test_lengths_and_picks_match_the_explicit_stream(self, case):
        _check_references(*case)

    @settings(max_examples=50, deadline=None)
    @given(case=_reference_cases(), rows=st.integers(1, 3))
    def test_held_rows_read_in_chunks_of_a_few_rows(self, case, rows):
        """The exact passes over batches whose row holds their owner give
        the same lengths and picks when every chunk is one to three rows."""
        from repro.shard import engine

        config = case[0]
        with mock.patch.object(engine, "_HELD_CHUNK_CELLS",
                               rows * config.view_size):
            _check_references(*case)

    def test_the_edges_the_resolver_skips_over(self):
        """Hand-made: owner 5's peers hold it once (node 6) and twice (node
        7, around a -1 padded short view), two fake windows wrap modulo
        ``n_byz = 3 < l1``, and trusted nodes 3 and 4 swap both ways."""
        views = [
            [6, 7, 0, 1],  # 3 (trusted)
            [5, 3, 6],     # 4 (trusted)
            [6, 4],        # 5
            [5, 0, 1, 3],  # 6: holds 5 once
            [5, 2, 5],     # 7: holds 5 twice
            [],            # 8
        ]
        # Sessions of 3, 4 and 5, two slots each.
        config, state, sess = _reference_case(
            9, 3, 2, 4, views, [3, 4, 5],
            dst=[4, 0, 3, 1, 6, 7],
            answered=[1, 1, 1, 1, 1, 1],
            caller_swap=[1, 0, 1, 0, 0, 0],
            callee_effect=[1, 0, 1, 0, 0, 0],
        )
        expected = _check_references(config, state, sess)
        owners = [owner for owner, _ids in expected]
        assert owners.count(3) == 4 and owners.count(4) == 4  # swaps both ways
        assert [len(ids) for owner, ids in expected if owner == 5] == [3, 1]
        windows = [ids for owner, ids in expected if owner in (3, 4)
                   and set(ids) <= {0, 1, 2}]
        assert len(windows) == 2 and all(len(ids) == 3 for ids in windows)

    def test_each_round_reads_its_own_start_of_round_views(self, monkeypatch):
        """`ShardSimulation` repacks and recounts only the renewed rows
        between rounds and adds each block's fresh count to its ``known``
        counts; what the applies read must still equal a fresh pack of the
        round's views, its rows' popcounts, and a popcount of ``known``."""
        from repro.shard import ShardSimulation, pool
        from repro.shard.engine import Barrier, apply_partition

        simulation = ShardSimulation(_kernel_config(), shards=3, workers=2)
        real_map = pool.map_partitions
        checked = []

        def checking_map(fn, tasks, workers):
            if fn is apply_partition:
                barrier = next(i for i in tasks[0] if isinstance(i, Barrier))
                fresh = _pack_views(simulation.config, simulation.state)
                assert np.array_equal(barrier.view_bits, fresh)
                assert np.array_equal(barrier.view_ones, _row_ones(fresh))
                assert np.array_equal(barrier.known_count,
                                      _row_ones(simulation.state.known))
                checked.append(simulation.state.renewals)
            return real_map(fn, tasks, workers)

        monkeypatch.setattr(pool, "map_partitions", checking_map)
        simulation.run(6)
        assert len(checked) == 6 and checked[-1] > checked[1] > 0

    @pytest.mark.parametrize("n, rows", [(13, 4), (64, 3), (4000, 7)])
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.09, 0.11, 0.5, 1.0])
    def test_set_bits_reads_packed_rows_in_both_forms(self, n, rows, density):
        """`_set_bits` equals a scan of the unpacked rows, below and above
        the density where it switches form."""
        generator = np.random.default_rng(int(density * 100) + n)
        dense = generator.random((rows, n)) < density
        owner, ids, counts = _set_bits(np.packbits(dense, axis=1), n)
        expected_owner, expected_ids = np.nonzero(dense)
        assert owner.tolist() == expected_owner.tolist()
        assert ids.tolist() == expected_ids.tolist()
        assert counts.tolist() == dense.sum(axis=1).tolist()


class TestKnownPoll:
    @pytest.mark.parametrize("n, n_byz", [(61, 8), (61, 5), (43, 0), (43, 13)])
    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 1000])
    def test_counts_are_exact_in_any_chunking(self, monkeypatch, n, n_byz,
                                              rows_per_chunk):
        """`_known_poll` counts each correct node's observed correct ids
        exactly, whether the Byzantine band ends on a byte boundary or not,
        with N off a multiple of 8, one row a chunk, a ragged last chunk,
        or one chunk for all."""
        from repro.shard import ShardSimulation, engine

        config = ShardConfig(protocol="brahms", n_nodes=n, seed=n + n_byz,
                             n_byzantine=n_byz)
        simulation = ShardSimulation(config)
        simulation.run(2)
        width = -(-n // 8) - n_byz // 8
        monkeypatch.setattr(engine, "_POLL_CHUNK_BYTES", rows_per_chunk * width)
        rows = known_ids(simulation.state.known[n_byz:], n)
        expected = [sum(i >= n_byz for i in ids) for ids in rows]
        assert simulation._known_poll().tolist() == expected
        assert 0 < min(expected) and max(expected) < n - n_byz


def _saturated_brahms(seed: int, use_numpy: bool):
    """Run Brahms (N = 80, 40 samplers a node, no faults) until every
    correct node has observed every other id; returns (config, state)."""
    from repro.shard import ShardSimulation

    topology = {"n_nodes": 80, "byzantine_fraction": 0.10, "view_ratio": 0.15}
    config = replace(
        shard_config(topology, seed=seed, protocol="brahms"), sample_size=40,
    )
    simulation = ShardSimulation(config, shards=2, use_numpy=use_numpy)
    state = simulation.state
    correct = range(config.n_byzantine, config.n_nodes)

    def observed(node: int) -> int:
        if use_numpy:
            return len(known_ids(state.known[node:node + 1], config.n_nodes)[0])
        return len(state.known[node])

    while any(observed(node) < config.n_nodes - 1 for node in correct):
        assert simulation.round_number < 200
        simulation.run_round()
    return config, state


@pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "pure"])
class TestSamplerAnchors:
    """Analytic anchors for the min-wise samplers (ROADMAP fidelity (b)):
    they need no second engine, only the definition of the sampler."""

    def test_saturated_sampler_holds_the_population_minimum(self, use_numpy):
        """Brahms' sampler keeps the minimum of its hash over everything
        streamed to it.  Once a node has observed every other id, each of
        its samplers must therefore hold exactly ``min (h(id), id)`` over
        the population minus itself — whatever order, tiling or round the
        ids arrived in (here in Python ints)."""
        config, state = _saturated_brahms(1, use_numpy)
        n, p = config.n_nodes, MERSENNE_PRIME_31
        reduced = [int(v) for v in state.reduced]
        for node in range(config.n_byzantine, n):
            for j in range(config.sample_size):
                a, b = int(state.samp_a[node][j]), int(state.samp_b[node][j])
                assert int(state.samp_best[node][j]) == min(
                    ((a * reduced[pid] + b) % p) << 32 | pid
                    for pid in range(n) if pid != node
                ), (node, j)

    def test_saturated_samples_are_uniform(self, use_numpy):
        """72 correct nodes × 40 samplers, three fixed seeds pooled (the
        per-node ``SamplerGroup`` takes the same anchor in
        ``test_brahms_config_sampler.py``)."""
        histograms = []
        for seed in (1, 2, 3):
            config, state = _saturated_brahms(seed, use_numpy)
            observed = [0] * config.n_nodes
            for node in range(config.n_byzantine, config.n_nodes):
                for packed in state.samp_best[node]:
                    assert int(packed) != EMPTY_SAMPLE
                    observed[int(packed) & 0xFFFFFFFF] += 1
            histograms.append(observed)
        assert_saturated_samples_uniform(
            histograms, config.n_byzantine, config.sample_size
        )


class TestBootstrap:
    @pytest.mark.parametrize("key_bits", [64, 6, 2, 0])
    def test_selection_matches_the_keyed_sort(self, key_bits):
        """`_bootstrap_matrix_numpy` keeps the l1 smallest ``(key, id)`` per
        node without sorting the rest; narrow keys force ties inside the
        selection and across its boundary.  The chunk keys are narrowed at
        `keys_into`, the seam every bootstrap key (the full-sort fallback
        rows' too) goes through."""
        from repro.shard import state

        config = ShardConfig(protocol="brahms", n_nodes=70, seed=9,
                             n_byzantine=7, view_size=11, alpha_count=4,
                             beta_count=4, gamma_count=3)
        mask = (1 << key_bits) - 1

        def narrowed(out, scratch, a_values, b_row):
            keys = keys_into(out, scratch, a_values, b_row)
            return np.bitwise_and(keys, np.uint64(mask), out=keys)

        with mock.patch.object(
            state, "key64", lambda *coords: key64(*coords) & mask
        ), mock.patch.object(state, "keys_into", narrowed):
            matrix = state._bootstrap_matrix_numpy(config)
            rows = [state._bootstrap_row(config, node) for node in range(70)]
        assert matrix.tolist() == rows
        assert matrix.dtype == "int64"

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_selection_equals_the_keyed_sort_rows(self, data):
        """Any population and view size a config admits (n ≥ 3, since
        α, β ≥ 1 make l1 ≥ 2) and any seed: the matrix is the pure rows."""
        from repro.shard import state

        n = data.draw(st.integers(min_value=3, max_value=120), label="n")
        l1 = data.draw(st.integers(min_value=2, max_value=n - 1), label="l1")
        seed = data.draw(st.integers(min_value=0, max_value=(1 << 64) - 1),
                         label="seed")
        config = ShardConfig(protocol="brahms", n_nodes=n, seed=seed,
                             view_size=l1, alpha_count=1, beta_count=1,
                             gamma_count=0)
        assert state._bootstrap_matrix_numpy(config).tolist() == [
            state._bootstrap_row(config, node) for node in range(n)
        ]

    @pytest.mark.parametrize("expected_below", [None, 0])
    def test_rows_short_of_candidates_take_the_full_sort(self, expected_below):
        """A τ under which about l1 keys fall (``None``: some rows come up
        short, some not) or none does (``0``: every row short): the short
        rows take the full sort, and the matrix still equals the pure rows."""
        from repro.shard import state

        config = ShardConfig(protocol="brahms", n_nodes=120, seed=5,
                             view_size=9, alpha_count=4, beta_count=4,
                             gamma_count=1)
        n, l1 = config.n_nodes, config.view_size
        below = l1 if expected_below is None else expected_below
        tau = np.uint64(int(below / (n - 1) * 2.0 ** 64))
        with mock.patch.object(
            state, "_bootstrap_threshold", lambda *_: tau
        ), mock.patch.object(
            state, "_bootstrap_row_numpy", wraps=state._bootstrap_row_numpy
        ) as full_sort:
            matrix = state._bootstrap_matrix_numpy(config)
        short = full_sort.call_count
        assert 0 < short < n if expected_below is None else short == n
        assert matrix.tolist() == [
            state._bootstrap_row(config, node) for node in range(n)
        ]

    def test_view_may_hold_everyone_else(self):
        from repro.shard import state

        config = ShardConfig(protocol="brahms", n_nodes=9, seed=3, view_size=8,
                             alpha_count=3, beta_count=3, gamma_count=2)
        assert state._bootstrap_matrix_numpy(config).tolist() == [
            state._bootstrap_row(config, node) for node in range(9)
        ]


class TestAnnotations:
    def test_state_dataclass_hints_resolve(self):
        """``ShardConfig.push_limit: Optional[int]`` used to name a type the
        module never imported."""
        from repro.shard.engine import PartitionDelta

        for cls in (ShardConfig, ShardState, PartitionDelta):
            hints = typing.get_type_hints(cls)
            assert set(hints) == set(cls.__dataclass_fields__)
        assert typing.get_type_hints(ShardConfig)["push_limit"] == typing.Optional[int]


def _scalar_adversary_assignment(config, alive, round_no):
    """The balanced attack as the scalar engine defined it: victims in
    `keyed_order`, quota/remainder fill, one `byz_push_limit` run per alive
    Byzantine node.  Returns ``(src, seq, dst)`` triples."""
    byz_alive = [b for b in range(config.n_byzantine) if alive[b]]
    correct_alive = [node for node in range(config.n_byzantine, config.n_nodes)
                     if alive[node]]
    if not byz_alive or not correct_alive:
        return []
    limit = config.byz_push_limit
    perm = keyed_order(correct_alive, config.seed, Purpose.ADV_ORDER, round_no)
    quota, remainder = divmod(len(byz_alive) * limit, len(perm))
    pool = []
    for index, victim in enumerate(perm):
        pool.extend([victim] * (quota + (1 if index < remainder else 0)))
    return [
        (byz, seq, dst)
        for b_index, byz in enumerate(byz_alive)
        for seq, dst in enumerate(pool[b_index * limit:(b_index + 1) * limit])
    ]


class TestAdversaryAssignment:
    @given(
        n_byzantine=st.integers(min_value=0, max_value=6),
        n_correct=st.integers(min_value=0, max_value=14),
        # A zero budget is the multiplier's 0: the config refuses push_limit 0.
        push_limit=st.integers(min_value=1, max_value=5),
        multiplier=st.integers(min_value=0, max_value=3),
        round_no=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=2 ** 32),
        # 64: real keys; 1: every victim lands on one of two keys; 0: all tie.
        key_bits=st.sampled_from([64, 1, 0]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_definition(self, n_byzantine, n_correct, push_limit,
                                       multiplier, round_no, seed, key_bits, data):
        from repro.shard import engine, rand, state

        n_nodes = max(3, n_byzantine + n_correct)
        config = ShardConfig(
            protocol="brahms", n_nodes=n_nodes, seed=seed,
            n_byzantine=n_byzantine, push_limit=push_limit, view_size=2,
            alpha_count=1, beta_count=1, gamma_count=0,
        )
        alive = data.draw(st.one_of(
            st.lists(st.booleans(), min_size=n_nodes, max_size=n_nodes),
            # The empty cases: no Byzantine alive, no correct alive.
            st.sampled_from([
                [node >= n_byzantine for node in range(n_nodes)],
                [node < n_byzantine for node in range(n_nodes)],
            ]),
        ))
        mask = (1 << key_bits) - 1
        # The multiplier is one protocol constant (repro.brahms.config);
        # patched here so budgets off its multiples are exercised too.
        with mock.patch.object(
            state, "BYZANTINE_PUSH_LIMIT_MULTIPLIER", multiplier
        ), mock.patch.object(
            rand, "key64", lambda *coords: key64(*coords) & mask
        ), mock.patch.object(
            engine, "key_array", lambda *coords: key_array(*coords) & mask
        ):
            expected = _scalar_adversary_assignment(config, alive, round_no)
            src, seq, dst = _adversary_assignment(config, alive, round_no)
        assert list(zip(src.tolist(), seq.tolist(), dst.tolist())) == expected
        assert src.dtype == seq.dtype == dst.dtype == "int64"
        # (src, seq) strictly ascending: the barrier's push order rests on it.
        assert list(zip(src.tolist(), seq.tolist())) == sorted(
            set(zip(src.tolist(), seq.tolist())))


def _fault_config(protocol: str) -> ShardConfig:
    """A crash window and a loss burst inside the first rounds."""
    topology = {"n_nodes": 64, "byzantine_fraction": 0.10,
                "trusted_fraction": 0.25 if protocol == "raptee" else 0.0,
                "view_ratio": 0.12, "loss_rate": 0.05,
                "transport_encryption": True}
    return shard_config(topology, seed=13, protocol=protocol, faults=[
        {"kind": "loss-burst", "window": {"start": 2, "end": 4},
         "loss_rate": 0.4},
        {"kind": "crash-restart", "node_id": 30, "at_round": 2,
         "down_rounds": 2},
    ])


class TestPartitionDispatch:
    """The `map_partitions` seam: threads over shared state, nothing pickled."""

    def test_closure_runs_on_threads_in_partition_order(self):
        from repro.shard.pool import map_partitions

        later_finished = threading.Event()
        threads = []

        def work(index):  # a closure: unpicklable, so nothing pickles it
            threads.append(threading.current_thread())
            if index == 0:
                assert later_finished.wait(timeout=10)
            else:
                later_finished.set()
            return index * 10

        assert map_partitions(work, [(0,), (1,)], 2) == [0, 10]
        assert threading.main_thread() not in threads
        assert map_partitions(lambda a, b: a + b, [(1, 2), (3, 4), (5, 6)], 2) == [
            3, 7, 11,
        ]

    def test_inline_when_one_worker_or_one_task(self):
        from repro.shard.pool import map_partitions

        def where(_index):
            return threading.current_thread()

        main = threading.main_thread()
        assert map_partitions(where, [(0,), (1,)], 1) == [main, main]
        assert map_partitions(where, [(0,)], 4) == [main]

    def test_earliest_partition_failure_is_raised(self):
        from repro.shard.pool import map_partitions

        last_failed = threading.Event()

        def work(index):
            if index == 1:
                assert last_failed.wait(timeout=10)
                raise KeyError("partition 1")
            if index == 3:
                last_failed.set()
                raise IndexError("partition 3")
            return index

        with pytest.raises(KeyError, match="partition 1"):
            map_partitions(work, [(0,), (1,), (2,), (3,)], 2)

    @pytest.mark.parametrize("protocol", ["raptee", "brahms"])
    def test_partition_phases_never_write_shared_state(self, monkeypatch, protocol):
        """The property thread dispatch rests on: with every state array (and
        the barrier's) write-protected while the partition functions run, a
        write would raise ``ValueError: assignment destination is read-only``."""
        from repro.shard import ShardSimulation, pool
        from repro.shard.engine import Barrier, apply_partition, plan_partition

        simulation = ShardSimulation(_fault_config(protocol), shards=3, workers=2)
        state = simulation.state
        fields = ("view", "view_len", "samp_a", "samp_b", "samp_best", "alive",
                  "known", "reduced")
        real_map = pool.map_partitions
        seen = []

        def frozen_map(fn, tasks, workers):
            arrays = [getattr(state, name) for name in fields]
            for item in tasks[0]:
                if isinstance(item, Barrier):
                    # Message tracing alone reads every push, so the
                    # simulation drops them before the applies run.
                    assert item.push_sent is None
                    arrays += [item.view_bits, item.view_ones,
                               item.known_count, *item.push_by_dst,
                               *item.sess_arrays]
            for array in arrays:
                array.setflags(write=False)
            try:
                return real_map(fn, tasks, workers)
            finally:
                seen.append(fn)
                for array in arrays:
                    array.setflags(write=True)

        monkeypatch.setattr(pool, "map_partitions", frozen_map)
        simulation.run(6)
        assert seen == [plan_partition, apply_partition] * 6
        assert state.renewals > 0 and simulation.stats.messages_lost > 0

    def test_oversubscribed_threads_are_byte_invisible(self):
        """More threads than cores and a tiny switch interval: the run is
        still byte-identical to inline, and no process was started."""
        config = _kernel_config()
        inline = run_shard_config(config, rounds=6, shards=8, trace_messages=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_shard_config(config, rounds=6, shards=8, workers=8,
                                   trace_messages=True)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.trace_jsonl == inline.trace_jsonl
        assert threaded.metrics_csv == inline.metrics_csv
        assert threaded.final_views == inline.final_views
        assert threaded.network_totals == inline.network_totals
        assert multiprocessing.active_children() == []


class TestPartitionCount:
    """``shards`` caps the partitions and ``workers`` cuts them: a round
    maps ``min(shards, workers)`` partition tasks, so an inline round plans
    and applies the population once."""

    @pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "pure"])
    @pytest.mark.parametrize("shards, workers", [
        (1, 1), (4, 1), (4, 2), (3, 8), (7, 7),
    ])
    def test_one_partition_per_worker_up_to_shards(self, monkeypatch, shards,
                                                   workers, use_numpy):
        from repro.shard import ShardSimulation, pool

        real_map = pool.map_partitions
        counts = []

        def counting_map(fn, tasks, workers):
            counts.append(len(tasks))
            return real_map(fn, tasks, workers)

        monkeypatch.setattr(pool, "map_partitions", counting_map)
        ShardSimulation(_kernel_config(), shards=shards, workers=workers,
                        use_numpy=use_numpy).run(2)
        assert counts == [min(shards, workers)] * 4


class TestWireLegs:
    def test_a_refused_swap_request_is_charged_on_both_backends(self):
        """A trusted swap request that reaches its callee crosses the wire
        whether or not the callee honours it, as on the per-node network:
        a session whose challenge pair arrived, whose confirm and pull
        request were lost and whose swap request arrived (so the callee
        refuses it) costs two frames plus the swap request's frame and the
        caller's view.  Both backends charge it alike."""
        from repro.shard.engine import (_LEG_CH_FWD, _LEG_CH_REP, _LEG_CONF_FWD,
                                        _LEG_PULL_FWD, _LEG_SWAP_FWD, _leg_float,
                                        plan_partition)
        from repro.sim.messages import FRAME_BYTES, ID_BYTES

        config = shard_config(
            {"n_nodes": 48, "byzantine_fraction": 0.10, "trusted_fraction": 0.5,
             "view_ratio": 0.25, "loss_rate": 0.3, "transport_encryption": True},
            seed=5, protocol="raptee")
        states = [build_state(config, use_numpy) for use_numpy in (True, False)]
        loss = config.loss_rate
        refused = 0
        for round_no in range(1, 7):
            vector, scalar = (
                plan_partition(config, state, round_no, loss, 0, config.n_nodes,
                               (), (), ())
                for state in states)
            assert vector.sess_bytes == scalar.sess_bytes > 0
            for session in scalar.sessions:
                lost = [_leg_float(config, round_no, session.src, session.k, leg) < loss
                        for leg in range(8)]
                if (config.is_trusted(session.src) and config.is_trusted(session.dst)
                        and not lost[_LEG_CH_FWD] and not lost[_LEG_CH_REP]
                        and lost[_LEG_CONF_FWD] and lost[_LEG_PULL_FWD]
                        and not lost[_LEG_SWAP_FWD]):
                    assert not session.callee_effect
                    assert session.enc_bytes == (
                        3 * FRAME_BYTES
                        + ID_BYTES * int(states[1].view_len[session.src]))
                    refused += 1
        assert refused >= 3


class TestDiscoveryCounting:
    def test_only_the_per_node_engines_count_the_bootstrap_view(self):
        """A named modelling difference (DESIGN.md §8): discovery on the
        per-node engines counts what a node *knows*, its bootstrap view
        included; the shard engine counts what it *observed* in gossip.
        Before any gossip, on one Brahms spec, every per-node
        ``known_ids()`` is the node plus its l1 bootstrap ids, while every
        shard ``known`` row is empty and `_known_poll` counts 0 (the shard
        discovery count adds the node itself)."""
        from repro.scenario import compile_spec, spec_from_dict

        spec = {"name": "discovery-count", "protocol": "brahms", "seed": 5,
                "rounds": 1, "adversary_strategy": "balanced",
                "topology": {"n_nodes": 40, "byzantine_fraction": 0.10,
                             "view_ratio": 0.20}}
        per_node = compile_spec(spec_from_dict(spec)).simulation
        shard = compile_spec(spec_from_dict({**spec, "engine": {"kind": "shard"}}))
        correct = per_node.correct_nodes()
        assert len(correct) == 36
        for node in correct:
            assert len(node.view_ids()) == shard.config.view_size == 8
            assert set(node.known_ids()) == {node.node_id, *node.view_ids()}
        assert not shard.state.known.any()
        assert shard._known_poll().tolist() == [0] * 36


class TestRoundRecord:
    def test_a_9000_node_record_fits_200_kib(self):
        """A record is columns: one round of the paper's N = 10,000 (9,000
        correct nodes), in the dtypes a shard run's records hold and with
        no column shared, takes at most 200 KiB under tracemalloc (~150
        KiB).  A record of per-node dicts took ~854 KiB."""
        config = shard_config({"n_nodes": 40, "byzantine_fraction": 0.1,
                               "trusted_fraction": 0.1, "view_ratio": 0.2},
                              seed=3, protocol="raptee")
        sample = run_shard_config(config, rounds=1).bundle.view_records[0]
        n = 9_000
        tracemalloc.start()
        try:
            record = RoundRecord(
                1,
                np.arange(1_000, 1_000 + n, dtype=sample.nodes.dtype),
                np.zeros(n, dtype=sample.kinds.dtype),
                np.full(n, 0.25, dtype=sample.shares.dtype),
                sample.pushes, sample.requests, sample.losses,
            )
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert record.mean_byzantine_fraction == 0.25
        assert size <= 200 * 1024, size

    @pytest.mark.parametrize("n_byzantine, n_trusted",
                             [(0, 0), (4, 0), (4, 5), (0, 7), (3, 37)])
    def test_kinds_follow_the_id_bands(self, n_byzantine, n_trusted):
        """The kind column, filled band by band, is what
        `NodeKind.for_banded_id` says of each correct id."""
        from repro.shard import ShardSimulation

        config = ShardConfig(protocol="raptee" if n_trusted else "brahms",
                             n_nodes=40, seed=1, n_byzantine=n_byzantine,
                             n_trusted=n_trusted, view_size=4, alpha_count=1,
                             beta_count=1, gamma_count=1)
        kinds = ShardSimulation(config)._kinds
        assert kinds.tolist() == [
            KIND_CODE[NodeKind.for_banded_id(node, n_byzantine, n_trusted)]
            for node in range(n_byzantine, 40)
        ]
        assert kinds.dtype == np.int8 and not kinds.flags.writeable

    def test_a_down_node_leaves_the_columns(self):
        config = replace(
            shard_config({"n_nodes": 40, "byzantine_fraction": 0.1,
                          "trusted_fraction": 0.1, "view_ratio": 0.2},
                         seed=3, protocol="raptee"),
            crashes=(CrashRestartFault(7, 2, 1),),
        )
        records = run_shard_config(config, rounds=3).bundle.view_records
        assert [7 in record.nodes for record in records] == [True, False, True]
        full = records[0]
        assert full.nodes.tolist() == list(range(4, 40))
        assert full.shares_of(NodeKind.TRUSTED) == full.shares[:4].tolist()
        assert len(full.shares_of(NodeKind.HONEST)) == 32


class TestWorkersValidation:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected_at_construction(self, workers):
        from repro.shard import ShardSimulation

        with pytest.raises(ValueError, match="workers must be positive"):
            ShardSimulation(_kernel_config(), shards=4, workers=workers)

    @pytest.mark.parametrize("flags", [
        ["--shards", "4", "--shard-workers", "0"],
        ["--shards", "1", "--shard-workers", "-3"],
    ])
    def test_cli_rejects_nonpositive_shard_workers(self, capsys, flags):
        exit_code = main(["run", "--nodes", "60", "--rounds", "2", *flags])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --shard-workers must be at least 1\n"
        assert captured.out == ""

    def test_cli_rejects_nonpositive_shards(self, capsys):
        exit_code = main(["run", "--nodes", "60", "--rounds", "2", "--shards", "0"])
        assert exit_code == 2
        assert "--shards must be at least 1" in capsys.readouterr().err


class TestConfigValidation:
    """`ShardConfig` refuses, naming the field, what the per-node configs
    refuse; each of these used to run silently or die mid-run."""

    _VALID = dict(protocol="raptee", n_nodes=20, seed=1, n_byzantine=2,
                  n_trusted=2, view_size=4, sample_size=2, alpha_count=2,
                  beta_count=1, gamma_count=1)

    @pytest.mark.parametrize("overrides, field", [
        ({"n_trusted": -2}, "n_trusted"),
        ({"n_byzantine": -3}, "n_byzantine"),
        ({"validation_period": -1}, "validation_period"),
        ({"push_limit": 0}, "push_limit"),
        ({"view_size": 20}, "view_size"),
        ({"view_size": 25}, "view_size"),
        ({"alpha_count": 2, "beta_count": 2}, r"alpha_count \+ beta_count"),
        ({"gamma_count": 2}, r"alpha_count \+ beta_count \+ gamma_count"),
    ], ids=["n_trusted", "n_byzantine", "validation_period", "push_limit",
            "view_is_population", "view_over_population", "counts_over_view",
            "gamma_over_view"])
    def test_refused_at_construction(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            ShardConfig(**{**self._VALID, **overrides})


class TestFaultScheduleValidation:
    """The crash and burst rules are the fault plan's
    (`repro.faults.plan.validate_faults`, what every engine applies):
    `FaultPlan` and `ShardConfig` refuse the same schedules with the same
    message.  Only the range check on node ids is `ShardConfig`'s own."""

    def _config(self, crashes=(), loss_bursts=()):
        return ShardConfig(protocol="brahms", n_nodes=20, seed=1,
                           n_byzantine=2, view_size=4, sample_size=2,
                           alpha_count=2, beta_count=1, gamma_count=1,
                           crashes=tuple(CrashRestartFault(*c) for c in crashes),
                           loss_bursts=tuple(
                               LossBurstFault(RoundWindow(first, last), rate)
                               for first, last, rate in loss_bursts))

    def _refused(self, match, crashes=()):
        faults = [CrashRestartFault(*crash) for crash in crashes]
        with pytest.raises(ValueError, match=match):
            FaultPlan(faults)
        with pytest.raises(ValueError, match=match):
            self._config(crashes=crashes)

    def test_valid_schedules_accepted(self):
        config = self._config(
            crashes=((5, 2, 3), (5, 6, 1), (19, 1, 1)),
            loss_bursts=((3, 3, 0.0), (1, 9, 0.99), (4, 5, 1.0)),
        )
        assert len(config.crashes) == 3
        FaultPlan(config.crashes + config.loss_bursts)

    @pytest.mark.parametrize("crash", [(-1, 2, 3), (20, 2, 3)])
    def test_crash_node_out_of_range(self, crash):
        # (-1, 2, 3) used to crash node N-1 through negative indexing; every
        # engine refuses it.  An id >= N is refused on shard only: a
        # per-node churn arrival may take one.
        with pytest.raises(ValueError, match="node_id must be non-negative|node id outside"):
            self._config(crashes=(crash,))

    @pytest.mark.parametrize("crash", [(5, 0, 3), (5, 2, 0), (5, 2, -1)])
    def test_crash_rounds_must_be_positive(self, crash):
        self._refused("(at_round|down_rounds) must be >= 1", crashes=(crash,))

    @pytest.mark.parametrize("second", [(5, 3, 1), (5, 5, 2), (5, 2, 1)])
    def test_overlapping_crash_windows_rejected(self, second):
        # Node 5 is down for rounds 2-4 and restarts in round 5; a second
        # window touching any of those would revive it early or race the
        # restart.
        self._refused("overlaps.*node 5", crashes=((5, 2, 3), second))
        self._refused("overlaps.*node 5", crashes=(second, (5, 2, 3)))

    def test_same_rounds_on_different_nodes_allowed(self):
        self._config(crashes=((5, 2, 3), (6, 2, 3)))
        FaultPlan([CrashRestartFault(5, 2, 3), CrashRestartFault(6, 2, 3)])

    def test_inverted_burst_window_rejected(self):
        with pytest.raises(ValueError, match="window end must be >= start"):
            self._config(loss_bursts=((3, 2, 0.5),))

    @pytest.mark.parametrize("rate", [1.5, -0.1])
    def test_burst_rate_out_of_range_rejected(self, rate):
        with pytest.raises(ValueError, match=r"loss_rate must be in \[0, 1\]"):
            self._config(loss_bursts=((2, 3, rate),))


class TestPartitionBounds:
    def test_bounds_cover_population(self):
        for n_nodes in (1, 7, 100, 10_000):
            for shards in (1, 3, 8, 16):
                bounds = partition_bounds(n_nodes, shards)
                assert bounds[0][0] == 0 and bounds[-1][1] == n_nodes
                for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                    assert hi == lo
                sizes = [hi - lo for lo, hi in bounds]
                assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_nodes_collapses(self):
        assert len(partition_bounds(3, 8)) == 3

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            partition_bounds(10, 0)


#: The `repr` of the config each shard vector's catalog spec compiles to:
#: the committed vectors were recorded from exactly these, field for field.
_VECTOR_CONFIGS = {
    "shard-brahms": (
        "ShardConfig(protocol='brahms', n_nodes=50, seed=401, "
        "n_byzantine=5, n_trusted=0, view_size=8, sample_size=4, "
        "alpha_count=3, beta_count=3, gamma_count=2, blocking_enabled=True,"
        " validation_period=10, push_limit=None, loss_rate=0.0, "
        "encrypt=False, eviction=None, "
        "trusted_exchange=True, loss_bursts=(), crashes=())"
    ),
    "shard-raptee-fixed-eviction": (
        "ShardConfig(protocol='raptee', n_nodes=40, seed=402, "
        "n_byzantine=4, n_trusted=8, view_size=8, sample_size=4, "
        "alpha_count=3, beta_count=3, gamma_count=2, blocking_enabled=True,"
        " validation_period=10, push_limit=None, loss_rate=0.0, "
        "encrypt=False, eviction=FixedEviction(value=0.6), "
        "trusted_exchange=True, loss_bursts=(), crashes=())"
    ),
    "shard-raptee-adaptive-eviction": (
        "ShardConfig(protocol='raptee', n_nodes=40, seed=403, "
        "n_byzantine=4, n_trusted=8, view_size=8, sample_size=4, "
        "alpha_count=3, beta_count=3, gamma_count=2, blocking_enabled=True,"
        " validation_period=10, push_limit=None, loss_rate=0.0, "
        "encrypt=False, eviction=AdaptiveEviction(low_share=0.2, "
        "high_share=0.8, low_rate=0.2, high_rate=0.8), trusted_exchange=True, "
        "loss_bursts=(), crashes=())"
    ),
    "shard-fault-lossburst": (
        "ShardConfig(protocol='brahms', n_nodes=50, seed=404, "
        "n_byzantine=5, n_trusted=0, view_size=8, sample_size=4, "
        "alpha_count=3, beta_count=3, gamma_count=2, blocking_enabled=True,"
        " validation_period=10, push_limit=None, loss_rate=0.0, "
        "encrypt=False, eviction=None, trusted_exchange=True, "
        "loss_bursts=(LossBurstFault(window=RoundWindow(start=2, end=4), "
        "loss_rate=0.3),), crashes=())"
    ),
    "shard-fault-crash": (
        "ShardConfig(protocol='raptee', n_nodes=40, seed=405, "
        "n_byzantine=4, n_trusted=8, view_size=8, sample_size=4, "
        "alpha_count=3, beta_count=3, gamma_count=2, blocking_enabled=True,"
        " validation_period=10, push_limit=None, loss_rate=0.0, "
        "encrypt=False, eviction=AdaptiveEviction(low_share=0.2, "
        "high_share=0.8, low_rate=0.2, high_rate=0.8), trusted_exchange=True, "
        "loss_bursts=(), crashes=(CrashRestartFault(node_id=5, at_round=2, "
        "down_rounds=2, crash_enclave=True),))"
    ),
}


class TestCompileGate:
    def test_poisoned_views_unsupported(self):
        topology = {"n_nodes": 60, "byzantine_fraction": 0.1,
                    "trusted_fraction": 0.05, "poisoned_fraction": 0.2}
        with pytest.raises(ShardUnsupportedError, match="poisoned"):
            shard_config(topology, seed=1, protocol="raptee")

    def test_brahms_forces_eviction_off(self):
        topology = {"n_nodes": 60, "byzantine_fraction": 0.1}
        config = shard_config(topology, seed=1, protocol="brahms")
        assert config.eviction is None
        # ... as does a RAPTEE spec with eviction switched off.
        config = shard_config(dict(topology, trusted_fraction=0.1), seed=1,
                              protocol="raptee", raptee={"eviction_enabled": False})
        assert config.eviction is None

    @pytest.mark.parametrize("name", sorted(_VECTOR_CONFIGS))
    def test_vector_specs_compile_to_the_pinned_config(self, name):
        from repro.scenario.catalog import get_spec

        assert repr(shard_config_from_spec(get_spec(name))) == _VECTOR_CONFIGS[name]

    def test_spec_with_wrong_engine_kind_rejected(self):
        from repro.scenario.spec import ScenarioSpec

        spec = ScenarioSpec(
            name="not-shard", protocol="brahms",
            topology=TopologySpec(n_nodes=60, byzantine_fraction=0.1),
            seed=1, rounds=5,
        )
        with pytest.raises(ValueError, match="engine.kind"):
            shard_config_from_spec(spec)


class TestEngineSpecShards:
    def test_shard_kind_accepts_partitions(self):
        assert EngineSpec(kind="shard", shards=4).shards == 4

    def test_nonpositive_rejected(self):
        with pytest.raises(ScenarioSpecError):
            EngineSpec(kind="shard", shards=0)
        with pytest.raises(ScenarioSpecError):
            EngineSpec(kind="shard", shards=True)

    def test_other_engines_must_keep_one(self):
        with pytest.raises(ScenarioSpecError):
            EngineSpec(kind="rounds", shards=2)


class TestCli:
    def test_run_shards_smoke(self, capsys):
        exit_code = main([
            "run", "--protocol", "brahms", "--nodes", "60", "--rounds", "6",
            "--f", "0.1", "--view-ratio", "0.15", "--shards", "3",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "brahms (shard engine)" in out
        assert "shards:             3" in out
        assert "byz IDs in views" in out

    def test_shards_reject_event_clock(self, capsys):
        exit_code = main([
            "run", "--engine", "events", "--shards", "2",
            "--nodes", "60", "--rounds", "2",
        ])
        assert exit_code == 2
        assert "no event clock" in capsys.readouterr().err

    def test_shards_reject_snapshots(self, capsys, tmp_path):
        exit_code = main([
            "run", "--shards", "2", "--nodes", "60", "--rounds", "2",
            "--checkpoint-every", "1",
            "--checkpoint-out", str(tmp_path / "x.snapshot"),
        ])
        assert exit_code == 2
        assert "snapshot" in capsys.readouterr().err

    def test_shards_reject_unsupported_topology(self, capsys):
        exit_code = main([
            "run", "--shards", "2", "--nodes", "60", "--rounds", "2",
            "--poisoned", "0.2",
        ])
        assert exit_code == 2
        assert "poisoned" in capsys.readouterr().err
