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

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.crypto.minwise import MERSENNE_PRIME_31
from repro.scenario.spec import EngineSpec, ScenarioSpecError
from repro.shard import partition_bounds
from repro.shard.compile import (
    ShardUnsupportedError,
    eviction_fields,
    shard_config_from_spec,
)
from repro.shard.engine import (
    _adversary_assignment,
    _fold_pack,
    _keyed_keep_numpy,
    _keyed_subset,
    _known_live,
)
from repro.shard.rand import Purpose, key64, key_array, keyed_order, rand_float
from repro.shard.state import EMPTY_SAMPLE, ShardConfig, ShardState

from repro.experiments.scenarios import TopologySpec

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


def _recorded_deltas(monkeypatch, config, use_numpy, rounds=6, shards=3):
    """Run ``rounds`` rounds and return every ``apply_partition`` delta in
    canonical form, per (round, partition).  Records at the
    ``map_partitions`` seam, so each delta is what the kernel computed from
    that round's frozen state and barrier."""
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
        ShardSimulation(config, shards=shards, use_numpy=use_numpy).run(rounds)
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
    if delta.view_arrays is not None:
        nodes, rows, lens = delta.view_arrays
        for node, row, length in zip(nodes.tolist(), rows.tolist(), lens.tolist()):
            assert all(v == -1 for v in row[length:])
            views[node] = row[:length]
    if delta.samp_arrays is not None:
        nodes, slots, packed = (column.tolist() for column in delta.samp_arrays)
        samples.update(zip(zip(nodes, slots), packed))
    if delta.known_bits is not None:
        bits = delta.known_bits
        rows = known_ids(bits, 8 * bits.shape[1])
        for owner, ids in enumerate(rows, start=delta.hi - len(rows)):
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
        vector = _recorded_deltas(monkeypatch, config, use_numpy=True)
        scalar = _recorded_deltas(monkeypatch, config, use_numpy=False)
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
        whole = _recorded_deltas(monkeypatch, config, use_numpy=True)
        # 64 elements: every owner is a block of its own and the sampler
        # matrix is fed a few rows at a time, splitting owners across chunks.
        monkeypatch.setattr(engine, "_BLOCK_ELEMENTS", 64)
        assert len(engine._owner_blocks(np.full(10, config.n_nodes), 64)) == 10
        tiny = _recorded_deltas(monkeypatch, config, use_numpy=True)
        monkeypatch.setattr(engine, "_BLOCK_ELEMENTS", 1000)
        odd = _recorded_deltas(monkeypatch, config, use_numpy=True)
        assert tiny == whole
        assert odd == whole

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
        owner: no array of a delta is as long as its fresh-pair count."""
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
        for delta in deltas:
            base = max(delta.lo, config.n_byzantine)
            bits = delta.known_bits
            assert bits.dtype == np.uint8
            assert bits.shape == (delta.hi - base, width)
            fresh = int(np.bitwise_count(bits).sum())
            assert fresh > 20 * (delta.hi - base)  # a flood, not a trickle
            arrays = [bits, *(delta.view_arrays or ()), *(delta.samp_arrays or ())]
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

    @given(
        shares=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=30),
        anchors=st.lists(st.floats(min_value=0.0, max_value=1.0),
                         min_size=2, max_size=2, unique=True).map(sorted),
        rates=st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=2, max_size=2).map(sorted),
    )
    @settings(max_examples=200, deadline=None)
    def test_eviction_rates_match_scalar(self, shares, anchors, rates):
        """The array twin is bit-equal to the scalar rule, which is the
        §IV-C policy itself (`ShardConfig.eviction_rate` asks it)."""
        import numpy as np

        from repro.core.eviction import AdaptiveEviction, FixedEviction

        # The anchor points themselves are where the clamps switch.
        shares = np.asarray(shares + anchors + [0.0, 1.0])
        policies = (None, FixedEviction(rates[0]),
                    AdaptiveEviction(*anchors, *rates))
        for policy in policies:
            kind, params = eviction_fields(policy)
            config = _kernel_config(eviction_kind=kind, eviction_params=params)
            expected = [0.0 if policy is None else policy.rate(share)
                        for share in shares.tolist()]
            assert config.eviction_rates(shares).tolist() == expected
            assert [config.eviction_rate(share)
                    for share in shares.tolist()] == expected


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
        selection and across its boundary (the full-sort fallback rows)."""
        from repro.shard import state

        config = ShardConfig(protocol="brahms", n_nodes=70, seed=9,
                             n_byzantine=7, view_size=11, alpha_count=4,
                             beta_count=4, gamma_count=3)
        mask = (1 << key_bits) - 1
        with mock.patch.object(
            state, "key64", lambda *coords: key64(*coords) & mask
        ), mock.patch.object(
            state, "key_array", lambda *coords: key_array(*coords) & mask
        ):
            matrix = state._bootstrap_matrix_numpy(config)
            rows = [state._bootstrap_row(config, node) for node in range(70)]
        assert matrix.tolist() == rows
        assert matrix.dtype == "int64"

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
                    arrays += [*item.push_canonical, *item.push_by_dst,
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
    """`ShardConfig` rejects fault entries it used to run silently wrong."""

    def _config(self, **faults):
        return ShardConfig(protocol="brahms", n_nodes=20, seed=1,
                           n_byzantine=2, view_size=4, sample_size=2,
                           alpha_count=2, beta_count=1, gamma_count=1, **faults)

    def test_valid_schedules_accepted(self):
        config = self._config(
            crashes=((5, 2, 3), (5, 6, 1), (19, 1, 1)),
            loss_bursts=((3, 3, 0.0), (1, 9, 0.99)),
        )
        assert len(config.crashes) == 3

    @pytest.mark.parametrize("crash", [(-1, 2, 3), (20, 2, 3)])
    def test_crash_node_out_of_range(self, crash):
        # (-1, 2, 3) used to crash node N-1 through negative indexing.
        with pytest.raises(ValueError, match=r"crash \(-?\d+, 2, 3\).*node id"):
            self._config(crashes=(crash,))

    @pytest.mark.parametrize("crash", [(5, 0, 3), (5, 2, 0), (5, 2, -1)])
    def test_crash_rounds_must_be_positive(self, crash):
        with pytest.raises(ValueError, match="at_round and down_rounds"):
            self._config(crashes=(crash,))

    @pytest.mark.parametrize("second", [(5, 3, 1), (5, 5, 2), (5, 2, 1)])
    def test_overlapping_crash_windows_rejected(self, second):
        # Node 5 is down for rounds 2-4 and restarts in round 5; a second
        # window touching any of those would revive it early or race the
        # restart.
        with pytest.raises(ValueError, match="overlaps.*node 5"):
            self._config(crashes=((5, 2, 3), second))
        with pytest.raises(ValueError, match="overlaps.*node 5"):
            self._config(crashes=(second, (5, 2, 3)))

    def test_same_rounds_on_different_nodes_allowed(self):
        self._config(crashes=((5, 2, 3), (6, 2, 3)))

    def test_inverted_burst_window_rejected(self):
        with pytest.raises(ValueError, match=r"loss burst \(3, 2, 0.5\).*first"):
            self._config(loss_bursts=((3, 2, 0.5),))

    @pytest.mark.parametrize("rate", [1.5, 1.0, -0.1])
    def test_burst_rate_out_of_range_rejected(self, rate):
        with pytest.raises(ValueError, match="rate must be in"):
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
        "encrypt=False, eviction_kind='none', eviction_params=(), "
        "trusted_exchange=True, loss_bursts=(), crashes=())"
    ),
    "shard-raptee-fixed-eviction": (
        "ShardConfig(protocol='raptee', n_nodes=40, seed=402, "
        "n_byzantine=4, n_trusted=8, view_size=8, sample_size=4, "
        "alpha_count=3, beta_count=3, gamma_count=2, blocking_enabled=True,"
        " validation_period=10, push_limit=None, loss_rate=0.0, "
        "encrypt=False, eviction_kind='fixed', eviction_params=(0.6,), "
        "trusted_exchange=True, loss_bursts=(), crashes=())"
    ),
    "shard-raptee-adaptive-eviction": (
        "ShardConfig(protocol='raptee', n_nodes=40, seed=403, "
        "n_byzantine=4, n_trusted=8, view_size=8, sample_size=4, "
        "alpha_count=3, beta_count=3, gamma_count=2, blocking_enabled=True,"
        " validation_period=10, push_limit=None, loss_rate=0.0, "
        "encrypt=False, eviction_kind='adaptive', eviction_params=(0.2, "
        "0.8, 0.2, 0.8), trusted_exchange=True, loss_bursts=(), crashes=())"
    ),
    "shard-fault-lossburst": (
        "ShardConfig(protocol='brahms', n_nodes=50, seed=404, "
        "n_byzantine=5, n_trusted=0, view_size=8, sample_size=4, "
        "alpha_count=3, beta_count=3, gamma_count=2, blocking_enabled=True,"
        " validation_period=10, push_limit=None, loss_rate=0.0, "
        "encrypt=False, eviction_kind='none', eviction_params=(), "
        "trusted_exchange=True, loss_bursts=((2, 4, 0.3),), crashes=())"
    ),
    "shard-fault-crash": (
        "ShardConfig(protocol='raptee', n_nodes=40, seed=405, "
        "n_byzantine=4, n_trusted=8, view_size=8, sample_size=4, "
        "alpha_count=3, beta_count=3, gamma_count=2, blocking_enabled=True,"
        " validation_period=10, push_limit=None, loss_rate=0.0, "
        "encrypt=False, eviction_kind='adaptive', eviction_params=(0.2, "
        "0.8, 0.2, 0.8), trusted_exchange=True, loss_bursts=(), "
        "crashes=((5, 2, 2),))"
    ),
}


class TestCompileGate:
    def test_poisoned_views_unsupported(self):
        topology = {"n_nodes": 60, "byzantine_fraction": 0.1,
                    "trusted_fraction": 0.05, "poisoned_fraction": 0.2}
        with pytest.raises(ShardUnsupportedError, match="poisoned"):
            shard_config(topology, seed=1, protocol="raptee")

    def test_unknown_eviction_policy_unsupported(self):
        class Weird:
            pass

        with pytest.raises(ShardUnsupportedError, match="Weird"):
            eviction_fields(Weird())

    def test_brahms_forces_eviction_off(self):
        topology = {"n_nodes": 60, "byzantine_fraction": 0.1}
        config = shard_config(topology, seed=1, protocol="brahms")
        assert config.eviction_kind == "none"

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
