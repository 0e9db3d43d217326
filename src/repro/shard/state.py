"""Struct-of-arrays state for the sharded engine.

The legacy engine keeps one Python object per node; at N = 10,000 that is
10,000 heaps of views, samplers and counters exchanged message by message.
Here the *population* is the data structure:

* ``view`` — int64 matrix ``[N, l1]`` (rows padded with -1) + ``view_len``;
* ``samp_a``/``samp_b`` — per-(node, sampler) min-wise coefficients;
* ``samp_best`` — the retained (hash, id) of each sampler *packed* into one
  int64 as ``hash << 32 | id`` so a running minimum is a single integer
  ``min`` with the tie broken toward the smaller id (deterministic on both
  backends, no (hash, id) tuple compares on the hot path);
* ``alive`` — liveness flags (crash/restart faults toggle them);
* ``known`` — per-node observed ids: uint8 ``np.packbits`` rows ``[N,
  ⌈N/8⌉]`` (sets on the pure backend).  Samplers are fed *only ids new to
  the node*: a min-wise sampler is duplicate-insensitive, so skipping
  re-feeds collapses the Θ(rounds · β·l1² · l2) sampler cost to the
  novelty frontier (see ``repro/shard/engine.py``).

Node identity layout matches :class:`repro.experiments.scenarios.TopologySpec`:
ids ``[0, n_byzantine)`` are Byzantine, the next ``n_trusted`` are trusted
(RAPTEE), the rest honest.  Byzantine rows are unused (their behaviour is
the adversary model, not state).

Both backends — numpy matrices and plain Python lists — hold the *same
integers*; ``tests/test_shard_differential.py`` pins backend equality on
full runs.

:class:`ShardConfig` declares no setting of its own twice: its eviction
policy is a :class:`~repro.core.eviction.EvictionPolicy` (asked for one
rate or an array of them) and its loss bursts and crashes are the
:mod:`repro.faults.plan` fault objects, checked by the same
:func:`~repro.faults.plan.validate_faults` as on the per-node engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.brahms.config import BYZANTINE_PUSH_LIMIT_MULTIPLIER
from repro.core.eviction import EvictionPolicy
from repro.crypto.minwise import MERSENNE_PRIME_31, scramble64, splitmix64_array
from repro.faults.plan import CrashRestartFault, LossBurstFault, validate_faults
from repro.shard.rand import Purpose, key64, key_array, key_row, keys_into

__all__ = ["ShardConfig", "ShardState", "EMPTY_SAMPLE", "build_state", "partition_bounds"]

#: numpy is a hard dependency; the perf ledger still records this flag.
HAVE_NUMPY = True

_P = MERSENNE_PRIME_31
#: Packed sampler sentinel: strictly greater than any real ``hash << 32 | id``
#: (real hashes are < p and ids are < 2^32), so "empty" loses every min.
EMPTY_SAMPLE = _P << 32


@dataclass(frozen=True)
class ShardConfig:
    """Pure-data description of one sharded run (frozen and picklable).

    The supported feature set is the v1 batch-friendly subset of the
    scenario space: Brahms and RAPTEE topologies with loss, modeled
    encryption, eviction, the balanced adversary, loss-burst and
    crash/restart faults.  Churn, membership epochs, poisoned views,
    sketch unbiasing and the event engine stay on the legacy engines —
    :func:`repro.shard.compile.shard_config_from_spec` rejects them with
    explicit errors rather than silently approximating.

    ``eviction`` ``None`` evicts nothing (Brahms, or eviction switched
    off).  Of the fault checks only ``node_id < n_nodes`` is this class's
    own: a per-node churn arrival may take an id ≥ N.
    """

    protocol: str  # "brahms" | "raptee"
    n_nodes: int
    seed: int
    n_byzantine: int = 0
    n_trusted: int = 0
    view_size: int = 20
    sample_size: int = 10
    alpha_count: int = 8
    beta_count: int = 8
    gamma_count: int = 4
    blocking_enabled: bool = True
    validation_period: int = 10
    push_limit: Optional[int] = None
    loss_rate: float = 0.0
    encrypt: bool = False
    eviction: Optional[EvictionPolicy] = None
    trusted_exchange: bool = True
    loss_bursts: Tuple[LossBurstFault, ...] = ()
    crashes: Tuple[CrashRestartFault, ...] = ()

    def __post_init__(self) -> None:
        if self.protocol not in ("brahms", "raptee"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.n_nodes <= 1:
            raise ValueError("need at least two nodes")
        for name in ("n_byzantine", "n_trusted"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.n_byzantine + self.n_trusted > self.n_nodes:
            raise ValueError("byzantine + trusted exceed the population")
        if self.protocol == "brahms" and self.n_trusted:
            raise ValueError("trusted nodes are a RAPTEE concept")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.view_size <= 0 or self.sample_size <= 0:
            raise ValueError("view_size and sample_size must be positive")
        if self.view_size >= self.n_nodes:
            raise ValueError(
                f"view_size must be below n_nodes ({self.n_nodes}): a view "
                f"holds other nodes only"
            )
        if min(self.alpha_count, self.beta_count) <= 0 or self.gamma_count < 0:
            raise ValueError("alpha/beta counts must be positive, gamma >= 0")
        if self.alpha_count + self.beta_count + self.gamma_count > self.view_size:
            raise ValueError(
                "alpha_count + beta_count + gamma_count must not exceed "
                f"view_size ({self.view_size})"
            )
        if self.validation_period < 0:
            raise ValueError("validation_period must be non-negative")
        if self.push_limit is not None and self.push_limit <= 0:
            raise ValueError("push_limit must be positive when set")
        validate_faults(self.loss_bursts + self.crashes)
        for crash in self.crashes:
            if crash.node_id >= self.n_nodes:
                raise ValueError(
                    f"crash {crash!r}: node id outside [0, {self.n_nodes})"
                )

    @property
    def effective_push_limit(self) -> int:
        return self.push_limit if self.push_limit is not None else self.alpha_count

    @property
    def byz_push_limit(self) -> int:
        return self.effective_push_limit * BYZANTINE_PUSH_LIMIT_MULTIPLIER

    def is_byzantine(self, node_id: int) -> bool:
        return node_id < self.n_byzantine

    def is_trusted(self, node_id: int) -> bool:
        return self.n_byzantine <= node_id < self.n_byzantine + self.n_trusted


@dataclass
class ShardState:
    """The whole population, struct-of-arrays (one backend or the other)."""

    use_numpy: bool
    round_number: int = 0
    # numpy backend: ndarray members; pure backend: nested lists / sets.
    view: object = None
    view_len: object = None
    samp_a: object = None
    samp_b: object = None
    samp_best: object = None
    alive: object = None
    known: object = None
    #: reduced[i] = scramble64(i) mod p, shared by every sampler hash.
    reduced: object = None
    sampler_resets: int = 0
    evicted_ids: int = 0
    trusted_exchanges: int = 0
    renewals: int = 0
    blocked_rounds: int = 0

    def view_row(self, node_id: int) -> List[int]:
        if self.use_numpy:
            length = int(self.view_len[node_id])
            return [int(v) for v in self.view[node_id, :length]]
        return list(self.view[node_id])

    def set_view_row(self, node_id: int, ids: List[int]) -> None:
        if self.use_numpy:
            length = len(ids)
            self.view[node_id, :length] = ids
            self.view[node_id, length:] = -1
            self.view_len[node_id] = length
        else:
            self.view[node_id] = list(ids)
            self.view_len[node_id] = len(ids)

    def sample_ids(self, node_id: int) -> List[int]:
        """Non-empty sampler ids of a node, in sampler order."""
        if self.use_numpy:
            packed = self.samp_best[node_id]
            return [int(p) & 0xFFFFFFFF for p in packed if int(p) != EMPTY_SAMPLE]
        return [p & 0xFFFFFFFF for p in self.samp_best[node_id] if p != EMPTY_SAMPLE]

    def is_alive(self, node_id: int) -> bool:
        return bool(self.alive[node_id])


def partition_bounds(n_nodes: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` id ranges, one per shard, sizes within one."""
    if shards <= 0:
        raise ValueError("shards must be positive")
    shards = min(shards, n_nodes)
    return [
        (n_nodes * index // shards, n_nodes * (index + 1) // shards)
        for index in range(shards)
    ]


def _bootstrap_row(config: ShardConfig, node_id: int) -> List[int]:
    """l1 distinct peers, uniform over everyone else: the first l1 of the
    keyed order over the other ids (ties by id — both backends agree)."""
    n = config.n_nodes
    keyed = sorted(
        (other for other in range(n) if other != node_id),
        key=lambda other: (
            key64(config.seed, Purpose.BOOTSTRAP, 0, node_id, other),
            other,
        ),
    )
    return keyed[: config.view_size]


#: uint64 words per bootstrap key chunk (whole rows, at least one): the
#: chunk and the finaliser's scratch, 256 KiB each, stay in L2 together
#: (README "Sharded engine" has the sweep).
_BOOTSTRAP_CHUNK_WORDS = 1 << 15
#: Node rows per bootstrap selection block (a whole number of chunks): one
#: sort orders the candidates of a block.
_BOOTSTRAP_BLOCK_ROWS = 64
_TOP_KEY = np.uint64((1 << 64) - 1)


def _bootstrap_threshold(n: int, l1: int) -> np.uint64:
    """τ: about l1 + 6√l1 + 8 of a node's n − 1 uniform 64-bit keys fall
    below it, so a row with fewer than l1 below it is a 6σ rarity."""
    expected = l1 + 6.0 * math.sqrt(l1) + 8.0
    if expected >= n - 1:
        return _TOP_KEY
    return np.uint64(min(int(expected / (n - 1) * 2.0 ** 64), (1 << 64) - 1))


def _bootstrap_matrix_numpy(config: ShardConfig):
    """Vectorised bootstrap: per node, the l1 smallest ``(key, id)`` of the
    keyed other ids, in that order — the pure path's sort, without sorting
    the other N − l1.

    Keys are made in place, in cache-sized chunks of whole rows: the
    ``id·C_B ^ base`` row once (:func:`key_row`), then per chunk one xor
    with the nodes' ``node·C_A`` column and the finaliser
    (:func:`keys_into`, the seam ``TestBootstrap`` narrows keys at).  Only
    the keys below τ (:func:`_bootstrap_threshold`) are kept.  A block of
    rows lays its candidates out as a ``[rows, most]`` matrix padded with
    the top key, in id order, so one stable sort along the rows orders
    them by ``(key, id)``.  Every key left out is ≥ τ and so above every
    candidate: a row with l1 candidates has its answer in its first l1,
    ties included.  A row with fewer takes the full stable sort of its
    keys instead.
    """
    n, l1 = config.n_nodes, config.view_size
    view = np.empty((n, l1), dtype=np.int64)
    row = key_row(config.seed, Purpose.BOOTSTRAP, 0, np.arange(n, dtype=np.uint64))
    tau = _bootstrap_threshold(n, l1)
    chunk = max(1, min(n, _BOOTSTRAP_CHUNK_WORDS // n))
    block = chunk * max(1, _BOOTSTRAP_BLOCK_ROWS // chunk)
    keys = np.empty((chunk, n), dtype=np.uint64)
    scratch = np.empty_like(keys)
    below = np.empty(chunk * n, dtype=bool)
    for start in range(0, n, block):
        stop = min(n, start + block)
        # Candidate cells (node − start)·N + id, ascending, and their keys.
        cells, candidates = [], []
        for lo in range(start, stop, chunk):
            rows = min(stop, lo + chunk) - lo
            chunk_keys = keys_into(keys[:rows], scratch[:rows],
                                   np.arange(lo, lo + rows, dtype=np.uint64)[:, None],
                                   row).reshape(-1)
            # Self must never bootstrap into its own view: its key is the top.
            chunk_keys[np.arange(rows) * (n + 1) + lo] = _TOP_KEY
            hits = np.flatnonzero(np.less(chunk_keys, tau, out=below[:chunk_keys.size]))
            candidates.append(chunk_keys[hits])
            cells.append(hits + (lo - start) * n)
        cell = np.concatenate(cells)
        owner = cell // n
        counts = np.bincount(owner, minlength=stop - start)
        if cell.size:
            first = np.cumsum(counts) - counts
            padded = np.full((stop - start, max(l1, int(counts.max()))), _TOP_KEY)
            padded[owner, np.arange(cell.size) - first[owner]] = np.concatenate(candidates)
            order = np.argsort(padded, axis=1, kind="stable")[:, :l1]
            view[start:stop] = (cell - owner * n).take(first[:, None] + order, mode="clip")
        for short in np.flatnonzero(counts < l1).tolist():
            view[start + short] = _bootstrap_row_numpy(row, start + short, l1)
    return view


def _bootstrap_row_numpy(row, node_id: int, l1: int):
    """One node's bootstrap by the full stable sort of its N keys."""
    keys, scratch = np.empty((2, row.size), dtype=np.uint64)
    keys_into(keys, scratch, np.uint64(node_id), row)
    keys[node_id] = _TOP_KEY
    return np.argsort(keys, kind="stable")[:l1]


def build_state(config: ShardConfig, use_numpy: bool = True) -> ShardState:
    """Allocate and bootstrap the population state (``use_numpy=False``:
    the pure-Python reference backend of the differential tests)."""
    n, l1, l2 = config.n_nodes, config.view_size, config.sample_size
    state = ShardState(use_numpy=use_numpy)
    if use_numpy:
        state.view = _bootstrap_matrix_numpy(config)
        state.view_len = np.full(n, l1, dtype=np.int64)
        nodes = np.arange(n, dtype=np.uint64)[:, None]
        slots = np.arange(l2, dtype=np.uint64)[None, :]
        a_keys = key_array(config.seed, Purpose.SAMPLER_A, 0, nodes, slots)
        b_keys = key_array(config.seed, Purpose.SAMPLER_B, 0, nodes, slots)
        state.samp_a = (a_keys % np.uint64(_P - 1)).astype(np.int64) + 1
        state.samp_b = (b_keys % np.uint64(_P)).astype(np.int64)
        state.samp_best = np.full((n, l2), EMPTY_SAMPLE, dtype=np.int64)
        state.alive = np.ones(n, dtype=bool)
        state.known = np.zeros((n, -(-n // 8)), dtype=np.uint8)
        state.reduced = (
            splitmix64_array(np.arange(n, dtype=np.uint64)) % np.uint64(_P)
        ).astype(np.int64)
    else:
        state.view = [_bootstrap_row(config, i) for i in range(n)]
        state.view_len = [l1] * n
        state.samp_a = [
            [1 + key64(config.seed, Purpose.SAMPLER_A, 0, i, j) % (_P - 1)
             for j in range(l2)]
            for i in range(n)
        ]
        state.samp_b = [
            [key64(config.seed, Purpose.SAMPLER_B, 0, i, j) % _P for j in range(l2)]
            for i in range(n)
        ]
        state.samp_best = [[EMPTY_SAMPLE] * l2 for _ in range(n)]
        state.alive = [True] * n
        state.known = [set() for _ in range(n)]
        state.reduced = [scramble64(i) % _P for i in range(n)]
    # Byzantine rows carry no protocol state; an empty view keeps any
    # accidental read loud (index errors) instead of plausible.
    for node_id in range(config.n_byzantine):
        state.set_view_row(node_id, [])
    return state
