"""The sharded bulk-synchronous simulation engine.

One round is three phases, each a pure function of start-of-round state:

1. **plan** (per partition, parallelizable) — every alive correct node in
   the partition draws its push targets and runs its pull sessions against
   the *frozen* start-of-round views; Byzantine pushes come from the
   globally precomputed balanced-attack assignment.  All randomness is
   counter-based (:mod:`repro.shard.rand`), so no draw depends on
   iteration order or on any other partition.
2. **barrier** (global) — partition outputs are merged and stably sorted
   by the canonical ``(round, src, dst, seq)`` push key; pull sessions
   carry the per-source slot ``seq = k`` and are kept in ``(round, src,
   seq)`` order (their construction order).  Statistics and trace events
   are emitted in these orders.  This is the step that makes runs
   byte-identical regardless of shard count: whatever the partitioning or
   scheduling, the merged message sequence is the same.
3. **apply** (per partition, parallelizable) — every node integrates what
   the barrier assigned to it: eviction, sampler updates, blocking and
   view renewal, writing *new* state that becomes visible only at the next
   round.

A partition is one worker's share: the driver cuts ``min(shards,
workers)`` of them, so an inline round runs each phase once over the whole
population.

Deliberate, documented differences from the legacy object engine (the
shard engine has its own differential suite — one partition vs four must
be byte-identical; it does not reproduce legacy byte streams):

* Trusted swaps never mutate a view mid-round; both halves of a swap land
  in the pulled pool and take effect at renewal (BSP discipline).
* Both engines charge one formula for encrypted traffic, a delivered
  leg's :func:`repro.sim.messages.wire_bytes` (``FRAME_BYTES`` plus
  ``ID_BYTES`` per carried id); shard's trusted swap carries whole views
  where the per-node swap offers half of one.
* Min-wise samplers are fed only ids *new to the node* (duplicate feeds
  cannot change a min), and a sampler reset replays the node's known live
  ids under its fresh hash — the incremental form of "min over everything
  the node has observed".
* A sampler retains the lexicographically smallest ``(hash, id)`` pair —
  the id tiebreak (probability ~2^-31 per pair) makes both backends and
  any shard count agree exactly.
* System discovery counts what a node *observed* — its ``known`` row
  (pushed and pulled ids, after eviction) plus itself; the per-node
  engines also count the bootstrap view and evicted ids
  (``tests/test_shard_engine.py::TestDiscoveryCounting`` pins this).  The metric
  definitions themselves are :mod:`repro.analysis.metrics`' on every engine.

Backend strategy: the pure-Python paths are the readable reference, run
only when a differential test passes ``use_numpy=False``; the numpy paths
compute the *same integers* with no per-node and no per-session Python
loop.  Data layout of a numpy round:

* **plan** emits arrays — pushes as flat ``(src, seq, dst, ok)`` columns,
  pull sessions as ``[nodes, β]`` matrices (:class:`SessionArrays`) whose
  eight RAPTEE legs are boolean masks over ``[nodes, β]`` loss-key
  matrices (Brahms is the pull pair of the same masks);
* **barrier** concatenates them — each plan's pushes are already in
  ``(src, seq)`` order — and sorts only the delivered pushes, stably by
  destination; the full ``(src, dst, seq)`` sort is message tracing's;
* **apply** is a segment kernel run in owner blocks under
  :data:`_BLOCK_ELEMENTS`.  An owner is charged what its block will hold
  (`_owner_costs`): an exact upper bound on its fresh pairs — ``batches ·
  l1 + pushes``, or ``N − 1 − |known|`` once that is smaller — plus a
  little per pulled batch, read off the session masks, the delivery index
  and the ``known`` counts `ShardSimulation` keeps.  So a round cuts few
  blocks once owners have little left to learn: the `shard-raptee-1k`
  population is one block from round 1, and an N = 10,000 round goes from
  282 blocks in the round-1 flood to 11 by round 8 and 6 from round 18
  (174 every round when each owner was charged N).  Before the partitions
  run, `ShardSimulation` hands them the start-of-round views packed as
  ``Barrier.view_bits``: ``[N, ⌈N/64⌉]`` uint64 rows in ``np.packbits``
  bit order, the layout of ``known``, whose Byzantine rows carry the fake
  windows (row ``s`` the window starting at ``s``); it keeps the bitset
  across rounds and repacks only the rows renewed since.  A block's pulled
  batches stay references — owner, row, length, in stream order — and
  never become ids: each owner's row of what it observed is the OR of its
  batches' packed rows (`_or_rows`, slot by slot over cache-sized rows)
  and of its pushes, less its own bit; that row AND-NOT its ``known`` row
  *is* the block's ``known`` delta, and its set bits are the fresh
  ``(owner, id)`` pairs, ids ascending (`_set_bits`).  A batch's length is
  its row's length less the owner's occurrences, which one bit test per
  batch flags and the row's kept popcount (``Barrier.view_ones``) resolves
  unless the row repeats an id; a β pick finds its batch by one
  ``searchsorted`` on the running lengths and reads ``view[peer, k]`` past
  the owner's occurrences, or ``(start + k) mod n_byz`` in a fake window.
  Only trusted owners under eviction keep the explicit ``[batches, l1]``
  id stream, because §IV-C keeps a keyed share of their ids per
  occurrence; they are a prefix of the block.  Keyed subsets are a
  per-segment keyed rank, and each block's delta comes back as arrays that
  ``_integrate`` writes a block at a time.  Fresh pairs never leave their
  block, so no array grows with the population or the round-1 flood.
* the **sampler feed** closes each owner block: the ``[fresh, l2]``
  min-wise hash matrix of the block's fresh pairs, min-reduced per owner
  segment, in one of two forms chosen per owner by segment size.  An
  owner with ``k`` fresh ids and ``k · l2 >=`` :data:`_FEED_OWNER_ELEMENTS`
  (the round-1 flood) takes the owner-major form: ``[l2, k]`` hashes
  ``a ⊗ r + b`` over contiguous rows, with no gather, then one ``argmin``
  per sampler, so only the ``l2`` winners are packed.  Shorter segments
  (the steady state) share ``[rows, l2]`` tiles that mix owners: two row
  gathers of the coefficients, the ``mod p`` reduction finished in the
  packed ``hash << 32 | id`` domain (`_fold_pack` has the bound proof), a
  ``reduceat`` per segment.  Ids ascend inside a segment and ``argmin``
  keeps the first of equal hashes, so on a tie both forms keep the smaller
  id.  Both run in one workspace of two uint64 buffers of
  :data:`_FEED_TILE_ELEMENTS` owned by the call (threads under
  ``--shard-workers`` never share one): a tile is that many elements, a
  long owner is taken in column chunks of that many, gathers write into
  it and every other pass is in place.  What the round-1 flood costs is
  then passes over cache-resident memory, not page faults on fresh
  ``[rows, l2]`` temporaries.

Small differential scenarios pin numpy == pure byte equality, which is
what licenses the vector paths at N = 10,000.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import DISCOVERY_THRESHOLD
from repro.crypto.minwise import MERSENNE_PRIME_31
from repro.shard.rand import Purpose, key64, key_array
from repro.shard.state import (
    EMPTY_SAMPLE,
    ShardConfig,
    ShardState,
    build_state,
    partition_bounds,
)
from repro.sim.messages import FRAME_BYTES, ID_BYTES
from repro.sim.network import NetworkStats
from repro.sim.node import NodeKind
from repro.sim.observers import KIND_CODE, RoundRecord

__all__ = ["ShardSimulation", "plan_partition", "apply_partition", "merge_plans"]

_P = MERSENNE_PRIME_31
_FLOAT_SCALE = 2.0 ** -53
#: Per-session leg indices (RAPTEE runs all eight, Brahms the pull pair).
_LEG_CH_FWD, _LEG_CH_REP = 0, 1
_LEG_CONF_FWD, _LEG_CONF_REP = 2, 3
_LEG_PULL_FWD, _LEG_PULL_REP = 4, 5
_LEG_SWAP_FWD, _LEG_SWAP_REP = 6, 7


def _leg_float(config: ShardConfig, round_no: int, src: int, k: int, leg: int) -> float:
    return (
        key64(config.seed, Purpose.SESSION_LOSS, round_no, src, k * 16 + leg) >> 11
    ) * _FLOAT_SCALE


@dataclass
class SessionResult:
    """Outcome of one pull session (src, slot k), fixed at plan time."""

    src: int
    k: int
    dst: int
    answered: bool = False
    trusted_batch: bool = False
    caller_swap: bool = False
    callee_effect: bool = False
    requests: int = 0
    replies: int = 0
    losses: int = 0
    enc_bytes: int = 0


class SessionArrays(NamedTuple):
    """A block of pull sessions on the numpy backend: ``src[m]`` ascending,
    every other member a ``[m, β]`` matrix indexed ``(source row, slot k)``
    — the array form of ``m · β`` :class:`SessionResult` objects."""

    src: object
    dst: object
    answered: object
    trusted_batch: object
    caller_swap: object
    callee_effect: object


@dataclass
class PartitionPlan:
    """Everything a partition's nodes emitted this round.

    Pure backend: parallel Python push lists plus :class:`SessionResult`
    objects.  numpy backend: ``push_arrays`` holds (src, seq, dst, ok)
    arrays and ``sess_arrays`` the sessions as :class:`SessionArrays`.
    ``sess_*`` totals are summed at plan time either way.
    """

    lo: int
    hi: int
    push_src: List[int] = field(default_factory=list)
    push_seq: List[int] = field(default_factory=list)
    push_dst: List[int] = field(default_factory=list)
    push_ok: List[bool] = field(default_factory=list)
    push_arrays: Optional[Tuple] = None
    sessions: List[SessionResult] = field(default_factory=list)
    sess_arrays: Optional[SessionArrays] = None
    sess_requests: int = 0
    sess_replies: int = 0
    sess_losses: int = 0
    sess_bytes: int = 0


def _view_len_of(state: ShardState, node: int) -> int:
    return int(state.view_len[node])


def _view_entry(state: ShardState, node: int, index: int) -> int:
    return int(state.view[node][index])


def _fake_view(config: ShardConfig, round_no: int, caller: int, k: int) -> List[int]:
    """The adversary's pull answer: a rotating window of Byzantine ids."""
    n_byz = config.n_byzantine
    if n_byz == 0:
        return []
    start = key64(config.seed, Purpose.FAKE_VIEW, round_no, caller, k) % n_byz
    count = min(config.view_size, n_byz)
    return [(start + t) % n_byz for t in range(count)]


def _reply_len(config: ShardConfig, state: ShardState, dst: int) -> int:
    """Ids carried by ``dst``'s pull answer (for modeled encryption)."""
    if config.is_byzantine(dst):
        return min(config.view_size, config.n_byzantine) if config.n_byzantine else 0
    return _view_len_of(state, dst)


# -- plan phase ---------------------------------------------------------------


def _plan_session(config: ShardConfig, state: ShardState, round_no: int,
                  eff_loss: float, src: int, k: int, dst: int) -> SessionResult:
    """Scalar reference for one pull session (the pure backend runs it;
    `_plan_sessions_numpy` computes the same bits as leg masks)."""
    result = SessionResult(src=src, k=k, dst=dst)
    dead = not state.is_alive(dst)
    encrypt = config.encrypt

    def lost(leg: int) -> bool:
        return eff_loss > 0.0 and _leg_float(config, round_no, src, k, leg) < eff_loss

    def wire(payload_ids: int) -> None:
        if encrypt:
            result.enc_bytes += FRAME_BYTES + ID_BYTES * payload_ids

    if config.protocol == "raptee":
        both_trusted = (
            config.trusted_exchange
            and config.is_trusted(src)
            and config.is_trusted(dst)
        )
        # Auth challenge.
        result.requests += 1
        if dead or lost(_LEG_CH_FWD):
            result.losses += 1
            return result
        wire(0)
        if lost(_LEG_CH_REP):
            result.losses += 1
            return result
        result.replies += 1
        wire(0)
        # Auth confirm: the responder registers the session only if the
        # confirm arrives; the confirm *reply* is informational.
        result.requests += 1
        conf_ok = not lost(_LEG_CONF_FWD)
        if not conf_ok:
            result.losses += 1
        else:
            wire(0)
            if lost(_LEG_CONF_REP):
                result.losses += 1
            else:
                result.replies += 1
                wire(0)
        # The Brahms pull itself.
        result.requests += 1
        if lost(_LEG_PULL_FWD):
            result.losses += 1
        else:
            wire(0)
            if lost(_LEG_PULL_REP):
                result.losses += 1
            else:
                result.replies += 1
                result.answered = True
                result.trusted_batch = both_trusted
                wire(_reply_len(config, state, dst))
        # Trusted swap: the caller attempts it whenever the peer proved
        # trust; the callee only honours it if the confirm registered, but
        # the request crosses the wire either way.
        if both_trusted:
            result.requests += 1
            if lost(_LEG_SWAP_FWD):
                result.losses += 1
                return result
            wire(_view_len_of(state, src))
            if conf_ok:
                result.callee_effect = True
                if lost(_LEG_SWAP_REP):
                    result.losses += 1
                else:
                    result.replies += 1
                    result.caller_swap = True
                    wire(_view_len_of(state, dst))
        return result

    # Brahms: one pull request, one reply.
    result.requests += 1
    if dead or lost(_LEG_PULL_FWD):
        result.losses += 1
        return result
    wire(0)
    if lost(_LEG_PULL_REP):
        result.losses += 1
        return result
    result.replies += 1
    result.answered = True
    wire(_reply_len(config, state, dst))
    return result


def plan_partition(
    config: ShardConfig,
    state: ShardState,
    round_no: int,
    eff_loss: float,
    lo: int,
    hi: int,
    adv_src: Sequence[int],
    adv_seq: Sequence[int],
    adv_dst: Sequence[int],
) -> PartitionPlan:
    """Phase 1 for partition ``[lo, hi)``: pure function of frozen state.

    ``adv_*`` are this partition's slice of the global Byzantine push
    assignment (already restricted to sources in ``[lo, hi)``).
    """
    plan = PartitionPlan(lo=lo, hi=hi)
    if state.use_numpy:
        # Nodes that gossip this round: alive, correct, non-empty view.
        ids = np.arange(max(lo, config.n_byzantine), hi, dtype=np.int64)
        nodes = ids[state.alive[ids] & (state.view_len[ids] > 0)]
        _plan_pushes_numpy(config, state, round_no, eff_loss, nodes, plan,
                           adv_src, adv_seq, adv_dst)
        _plan_sessions_numpy(config, state, round_no, eff_loss, nodes, plan)
        return plan

    seed = config.seed
    correct = [
        node for node in range(max(lo, config.n_byzantine), hi)
        if state.is_alive(node) and _view_len_of(state, node) > 0
    ]
    for node in correct:
        _plan_pushes_pure(config, state, round_no, eff_loss, node, plan)
    # Byzantine push loss draws (keyed, so any shard computes the same bit).
    for src, seq, dst in zip(adv_src, adv_seq, adv_dst):
        lost = eff_loss > 0.0 and (
            (key64(seed, Purpose.PUSH_LOSS, round_no, src, seq) >> 11) * _FLOAT_SCALE
            < eff_loss
        )
        plan.push_src.append(src)
        plan.push_seq.append(seq)
        plan.push_dst.append(dst)
        plan.push_ok.append((not lost) and state.is_alive(dst))
    for node in correct:
        for k in range(config.beta_count):
            dst = _view_entry(
                state, node,
                key64(seed, Purpose.PULL_TARGET, round_no, node, k)
                % _view_len_of(state, node),
            )
            plan.sessions.append(
                _plan_session(config, state, round_no, eff_loss, node, k, dst)
            )
    for session in plan.sessions:
        plan.sess_requests += session.requests
        plan.sess_replies += session.replies
        plan.sess_losses += session.losses
        plan.sess_bytes += session.enc_bytes
    return plan


def _plan_pushes_pure(config: ShardConfig, state: ShardState, round_no: int,
                      eff_loss: float, node: int, plan: PartitionPlan) -> None:
    view_len = _view_len_of(state, node)
    seed = config.seed
    for k in range(config.alpha_count):
        dst = _view_entry(
            state, node, key64(seed, Purpose.PUSH_TARGET, round_no, node, k) % view_len
        )
        lost = eff_loss > 0.0 and (
            (key64(seed, Purpose.PUSH_LOSS, round_no, node, k) >> 11) * _FLOAT_SCALE
            < eff_loss
        )
        plan.push_src.append(node)
        plan.push_seq.append(k)
        plan.push_dst.append(dst)
        plan.push_ok.append((not lost) and state.is_alive(dst))


def _lost_numpy(keys, eff_loss: float):
    """Loss gate over a key array: the top 53 bits as a float in [0, 1)."""
    return (keys >> np.uint64(11)).astype(np.float64) * _FLOAT_SCALE < eff_loss


def _keyed_view_entries(config: ShardConfig, state: ShardState, purpose: int,
                        round_no: int, nodes, width: int):
    """``[nodes, width]`` uniform picks from each node's own view."""
    keys = key_array(
        config.seed, purpose, round_no,
        nodes.astype(np.uint64)[:, None],
        np.arange(width, dtype=np.uint64)[None, :],
    )
    lens = state.view_len[nodes][:, None].astype(np.uint64)
    return state.view[nodes[:, None], (keys % lens).astype(np.int64)]


def _plan_pushes_numpy(config: ShardConfig, state: ShardState, round_no: int,
                       eff_loss: float, nodes, plan: PartitionPlan,
                       adv_src, adv_seq, adv_dst) -> None:
    seed = config.seed
    width = config.alpha_count
    # Byzantine pushes first: their sources lie below every correct id and
    # the assignment is (src, seq)-ordered, so the plan's pushes are too.
    bsrc = np.asarray(adv_src, dtype=np.int64)
    bseq = np.asarray(adv_seq, dtype=np.int64)
    src = np.concatenate([bsrc, np.repeat(nodes, width)])
    seq = np.concatenate(
        [bseq, np.tile(np.arange(width, dtype=np.int64), nodes.size)]
    )
    dst = np.concatenate([
        np.asarray(adv_dst, dtype=np.int64),
        _keyed_view_entries(config, state, Purpose.PUSH_TARGET, round_no,
                            nodes, width).ravel(),
    ])
    ok = state.alive[dst]
    if eff_loss > 0.0:
        # Correct and Byzantine pushes share the (src, seq) loss coordinates.
        ok &= ~_lost_numpy(
            key_array(seed, Purpose.PUSH_LOSS, round_no,
                      src.astype(np.uint64), seq.astype(np.uint64)),
            eff_loss,
        )
    plan.push_arrays = (src, seq, dst, ok)


def _plan_sessions_numpy(config: ShardConfig, state: ShardState, round_no: int,
                         eff_loss: float, nodes, plan: PartitionPlan) -> None:
    """Every session of the partition at once: the legs of `_plan_session`
    as boolean masks over ``[nodes, β]`` (identical bits).  Loss draws are
    pure functions of their coordinates, so evaluating a leg the scalar
    path would have short-circuited past changes nothing."""
    dst = _keyed_view_entries(config, state, Purpose.PULL_TARGET, round_no,
                              nodes, config.beta_count)
    shape = dst.shape
    node_col = nodes.astype(np.uint64)[:, None]
    slot_row = np.arange(config.beta_count, dtype=np.uint64)[None, :] * np.uint64(16)

    def lost(leg: int):
        if eff_loss <= 0.0:
            return np.zeros(shape, dtype=bool)
        return _lost_numpy(
            key_array(config.seed, Purpose.SESSION_LOSS, round_no, node_col,
                      slot_row + np.uint64(leg)),
            eff_loss,
        )

    def count(mask) -> int:
        return int(np.count_nonzero(mask))

    reachable = state.alive[dst]
    never = np.zeros(shape, dtype=bool)
    requests = replies = losses = frames = payload_ids = 0
    caller_swap = callee_effect = both_trusted = conf_ok = never
    if config.protocol == "raptee":
        # Auth challenge, then confirm (the responder registers the session
        # only if the confirm arrives; its reply is informational).
        challenged = reachable & ~lost(_LEG_CH_FWD)
        authed = challenged & ~lost(_LEG_CH_REP)
        conf_ok = authed & ~lost(_LEG_CONF_FWD)
        conf_replied = conf_ok & ~lost(_LEG_CONF_REP)
        n_authed = count(authed)
        requests += dst.size + n_authed
        replies += n_authed + count(conf_replied)
        # One loss ends a failed challenge; confirm legs lose one each.
        losses += (dst.size - n_authed) + (n_authed - count(conf_replied))
        frames += count(challenged) + n_authed + count(conf_ok) + count(conf_replied)
        pulling = authed
        if config.trusted_exchange and config.n_trusted:
            t_lo = config.n_byzantine
            t_hi = t_lo + config.n_trusted
            both_trusted = (
                ((nodes >= t_lo) & (nodes < t_hi))[:, None]
                & (dst >= t_lo) & (dst < t_hi)
            )
    else:
        pulling = np.ones(shape, dtype=bool)

    # The Brahms pull: request, then the view as reply.
    pull_arrived = pulling & reachable & ~lost(_LEG_PULL_FWD)
    answered = pull_arrived & ~lost(_LEG_PULL_REP)
    n_pulling, n_answered = count(pulling), count(answered)
    requests += n_pulling
    replies += n_answered
    losses += n_pulling - n_answered
    frames += count(pull_arrived) + n_answered
    if config.encrypt:
        reply_ids = np.where(
            dst < config.n_byzantine,
            min(config.view_size, config.n_byzantine),
            state.view_len[dst],
        )
        payload_ids += int(reply_ids[answered].sum())

    # Trusted swap: the caller attempts it whenever the peer proved trust;
    # the callee only honours it if the confirm registered, but the request
    # crosses the wire either way.
    swapping = pulling & both_trusted
    if swapping.any():
        swap_arrived = swapping & ~lost(_LEG_SWAP_FWD)
        callee_effect = swap_arrived & conf_ok
        caller_swap = callee_effect & ~lost(_LEG_SWAP_REP)
        requests += count(swapping)
        replies += count(caller_swap)
        losses += (count(swapping) - count(swap_arrived)
                   + count(callee_effect) - count(caller_swap))
        frames += count(swap_arrived) + count(caller_swap)
        if config.encrypt:
            src_len = np.broadcast_to(state.view_len[nodes][:, None], shape)
            payload_ids += int(src_len[swap_arrived].sum())
            payload_ids += int(state.view_len[dst[caller_swap]].sum())

    plan.sess_arrays = SessionArrays(
        nodes, dst, answered, answered & both_trusted, caller_swap, callee_effect
    )
    plan.sess_requests = requests
    plan.sess_replies = replies
    plan.sess_losses = losses
    if config.encrypt:
        plan.sess_bytes = FRAME_BYTES * frames + ID_BYTES * payload_ids


# -- barrier ------------------------------------------------------------------


@dataclass
class Barrier:
    """The canonically ordered merge of every partition's plan."""

    use_numpy: bool
    #: Pure backend: delivered pushes per destination, in (src, seq) order.
    pushed: Dict[int, List[int]] = field(default_factory=dict)
    #: Pure backend: sessions grouped per *caller*, in slot order.
    sessions_by_src: Dict[int, List[SessionResult]] = field(default_factory=dict)
    #: Pure backend: callee-side swap effects per *destination*, in
    #: (caller, k) order.
    swaps_by_dst: Dict[int, List[SessionResult]] = field(default_factory=dict)
    #: numpy backend: every push as (src, seq, dst, ok) columns in (src,
    #: seq) order, for message tracing only (`ShardSimulation` drops them
    #: once traced) ...
    push_sent: Optional[Tuple] = None
    #: ... and the delivered subset sorted by (dst, src, seq), with the
    #: destination column first — the apply phase's delivery index.
    push_by_dst: Optional[Tuple] = None
    #: numpy backend: every session of the round, sources ascending.
    sess_arrays: Optional[SessionArrays] = None
    #: numpy backend: the start-of-round views as ``[N, ⌈N/64⌉]`` uint64
    #: rows of ``np.packbits`` bits, Byzantine rows holding the fake windows
    #: by start; `ShardSimulation` updates it before the applies read it ...
    view_bits: Optional[np.ndarray] = None
    #: ... with each row's set bits (the distinct ids of the view) ...
    view_ones: Optional[np.ndarray] = None
    #: ... and every node's count of ``known`` ids, ``[N]``.
    known_count: Optional[np.ndarray] = None
    pushes_sent: int = 0
    pushes_delivered: int = 0
    requests_sent: int = 0
    replies_delivered: int = 0
    messages_lost: int = 0
    enc_bytes: int = 0
    #: Pure backend: canonically sorted (src, dst, seq, ok) for tracing.
    push_order: List[Tuple[int, int, int, bool]] = field(default_factory=list)


def merge_plans(plans: Sequence[PartitionPlan], use_numpy: bool = False) -> Barrier:
    """Phase 2: the deterministic cross-shard ordering barrier.

    Pushes are traced in ``(round, src, dst, seq)`` order (round is
    constant inside a barrier) and delivered in ``(dst, src, seq)`` order;
    pull sessions carry the unique per-source slot ``seq = k``, so their
    construction order — sources ascending across partitions, slots
    ascending within a source — already *is* the ``(round, src, seq)``
    order and needs no re-sort.  Every downstream consumer (stats, traces,
    per-destination delivery) iterates these canonical orders, so nothing
    can depend on how the plans were partitioned or scheduled.

    On the numpy backend each plan's pushes are already in ``(src, seq)``
    order, so the concatenation is too: one stable ``dst`` sort of the
    delivered pushes is the delivery order, and only message tracing sorts
    every push into the ``(src, dst, seq)`` order (`_traced_push_order`).
    """
    barrier = Barrier(use_numpy=use_numpy)
    for plan in plans:
        barrier.requests_sent += plan.sess_requests
        barrier.replies_delivered += plan.sess_replies
        barrier.enc_bytes += plan.sess_bytes
        barrier.messages_lost += plan.sess_losses
    if use_numpy:
        src, seq, dst, ok = (
            np.concatenate(column)
            for column in zip(*(p.push_arrays for p in plans))
        )
        barrier.push_sent = (src, seq, dst, ok)
        # The delivered subset is still (src, seq)-ordered: a stable sort
        # by dst alone makes it (dst, src, seq).  Narrowed because numpy's
        # stable sort is a radix sort on keys of 16 bits or fewer.
        dsrc, ddst = src[ok], dst[ok]
        span = int(ddst.max(initial=0)) + 1
        delivery = np.argsort(ddst.astype(np.min_scalar_type(span)), kind="stable")
        barrier.push_by_dst = (ddst[delivery], dsrc[delivery])
        barrier.pushes_sent = int(src.size)
        barrier.pushes_delivered = int(ddst.size)
        barrier.sess_arrays = SessionArrays(*(
            np.concatenate(column)
            for column in zip(*(p.sess_arrays for p in plans))
        ))
    else:
        records: List[Tuple[int, int, int, bool]] = []
        for plan in plans:
            records.extend(
                zip(plan.push_src, plan.push_dst, plan.push_seq, plan.push_ok)
            )
        records.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
        barrier.push_order = records
        for src_id, dst_id, _seq, delivered in records:
            if delivered:
                barrier.pushes_delivered += 1
                barrier.pushed.setdefault(dst_id, []).append(src_id)
        barrier.pushes_sent = len(records)
        # Delivery lists are in (src, seq) order per destination: the sort
        # above is (src, dst, seq) and appends preserve it per dst.
        swaps: List[SessionResult] = []
        for plan in plans:
            for session in plan.sessions:
                barrier.sessions_by_src.setdefault(session.src, []).append(session)
                if session.callee_effect:
                    swaps.append(session)
        swaps.sort(key=lambda s: (s.dst, s.src, s.k))
        for session in swaps:
            barrier.swaps_by_dst.setdefault(session.dst, []).append(session)
    barrier.messages_lost += barrier.pushes_sent - barrier.pushes_delivered
    return barrier


def _traced_push_order(push_sent):
    """The ``(src, dst, seq)`` order of `Barrier.push_sent`: one packed key
    per push, unique because ``(src, seq)`` names a push."""
    src, seq, dst, _ok = push_sent
    span = int(dst.max(initial=0)) + 1
    width = int(seq.max(initial=0)) + 1
    return np.argsort((src * span + dst) * width + seq)


# -- apply phase --------------------------------------------------------------


class BlockDelta(NamedTuple):
    """One owner block's writes on the numpy backend, for owners
    ``[node_a, node_a + len(known_bits))``."""

    node_a: int
    #: (nodes[r], rows[r, l1] padded with -1, lens[r]); None if none renewed.
    views: Optional[Tuple]
    #: flat (node, sampler index, packed value) triples; None if none improved.
    samples: Optional[Tuple]
    #: the fresh ids, one packed row per owner (uint8, the layout of
    #: ``ShardState.known``) ...
    known_bits: np.ndarray
    #: ... and their count per owner.
    fresh_count: np.ndarray


@dataclass
class PartitionDelta:
    """State changes computed by one partition's apply pass.

    The pure backend fills the per-node lists; the numpy backend appends
    one :class:`BlockDelta` per owner block, which ``_integrate`` writes a
    block at a time.
    """

    lo: int
    hi: int
    new_views: List[Tuple[int, Sequence[int]]] = field(default_factory=list)
    #: Per node: (node, sampler index sequence, packed value sequence).
    samp_updates: List[Tuple[int, Sequence[int], Sequence[int]]] = field(
        default_factory=list
    )
    known_additions: List[Tuple[int, Sequence[int]]] = field(default_factory=list)
    blocks: List[BlockDelta] = field(default_factory=list)
    samp_resets: List[Tuple[int, int, int, int, int]] = field(default_factory=list)
    renewals: int = 0
    blocked: int = 0
    evicted: int = 0
    trusted_exchanges: int = 0
    sampler_resets: int = 0


def _sampler_feed_pure(config: ShardConfig, state: ShardState, node: int,
                       candidates: List[int], delta: PartitionDelta) -> None:
    a_row, b_row = state.samp_a[node], state.samp_b[node]
    current = state.samp_best[node]
    slots: List[int] = []
    values: List[int] = []
    for j in range(config.sample_size):
        a, b = a_row[j], b_row[j]
        best = current[j]
        for cand in candidates:
            packed = (((a * state.reduced[cand] + b) % _P) << 32) | cand
            if packed < best:
                best = packed
        if best != current[j]:
            slots.append(j)
            values.append(best)
    if slots:
        delta.samp_updates.append((node, slots, values))


def _keyed_subset(config: ShardConfig, round_no: int, purpose: int, node: int,
                  items: List[int], count: int) -> List[int]:
    """``count`` distinct items, uniform via per-index keys, kept in their
    original order (deterministic replacement for ``rng.sample``)."""
    if count >= len(items):
        return list(items)
    indexed = sorted(
        range(len(items)),
        key=lambda idx: (key64(config.seed, purpose, round_no, node, idx), idx),
    )[:count]
    indexed.sort()
    return [items[idx] for idx in indexed]


def apply_partition(
    config: ShardConfig,
    state: ShardState,
    round_no: int,
    lo: int,
    hi: int,
    barrier: Barrier,
) -> PartitionDelta:
    """Phase 3 for partition ``[lo, hi)``: integrate the barrier's output.

    Reads only frozen state plus the barrier; writes land in the returned
    delta, applied by the engine once every partition finished (so no
    partition ever observes another's round-``r`` effects during round
    ``r``).
    """
    delta = PartitionDelta(lo=lo, hi=hi)
    validate = (
        config.validation_period > 0
        and round_no % config.validation_period == 0
    )
    if validate:
        # Sampler validation only ever resets a sampler anchored on a dead
        # id; with everyone alive it is a (huge) no-op — skip the scan.
        if state.use_numpy:
            validate = not bool(state.alive.all())
        else:
            validate = not all(state.alive)

    if state.use_numpy:
        _apply_segments_numpy(config, state, round_no, lo, hi, barrier, delta,
                              validate)
    else:
        _apply_nodes_pure(config, state, round_no, lo, hi, barrier, delta,
                          validate)
    return delta


def _apply_nodes_pure(config, state, round_no, lo, hi, barrier, delta,
                      validate) -> None:
    seed = config.seed
    for node in range(max(lo, config.n_byzantine), hi):
        if not state.is_alive(node):
            continue
        # Delivered push sources, in (src, seq) order.
        pushed = [src for src in barrier.pushed.get(node, ()) if src != node]
        sessions = barrier.sessions_by_src.get(node, ())

        # Assemble pulled batches: own pull answers (slot order), the
        # caller half of a swap right after its session's pull batch, then
        # callee-side swap effects in (caller, k) order.
        batches: List[Tuple[List[int], bool]] = []
        contacts = 0
        trusted_contacts = 0
        for session in sessions:
            if session.answered:
                if config.is_byzantine(session.dst):
                    ids = _fake_view(config, round_no, node, session.k)
                else:
                    ids = state.view_row(session.dst)
                batches.append((ids, session.trusted_batch))
                contacts += 1
                if session.trusted_batch:
                    trusted_contacts += 1
            if session.caller_swap:
                batches.append((state.view_row(session.dst), True))
                delta.trusted_exchanges += 1
        for session in barrier.swaps_by_dst.get(node, ()):
            batches.append((state.view_row(session.src), True))
            contacts += 1
            trusted_contacts += 1

        # Byzantine eviction (§IV-C) on the untrusted portion.
        trusted_ids: List[int] = []
        untrusted_ids: List[int] = []
        for ids, trusted in batches:
            bucket = trusted_ids if trusted else untrusted_ids
            bucket.extend(pid for pid in ids if pid != node)
        if (
            config.eviction is not None
            and config.is_trusted(node)
            and untrusted_ids
        ):
            share = trusted_contacts / contacts if contacts else 0.0
            rate = config.eviction.rate(share)
            keep = len(untrusted_ids) - int(round(rate * len(untrusted_ids)))
            delta.evicted += len(untrusted_ids) - max(0, keep)
            if keep <= 0:
                untrusted_ids = []
            else:
                untrusted_ids = _keyed_subset(
                    config, round_no, Purpose.EVICT_KEEP, node, untrusted_ids, keep
                )
        pulled = trusted_ids + untrusted_ids

        # Samplers: feed only ids this node has never observed (duplicate
        # feeds are no-ops for a min), then remember them.
        fresh = sorted(set(pushed + pulled) - state.known[node])
        if fresh:
            _sampler_feed_pure(config, state, node, fresh, delta)
            delta.known_additions.append((node, fresh))

        # Blocking defense and view renewal.
        blocked = config.blocking_enabled and len(pushed) > config.alpha_count
        if blocked:
            delta.blocked += 1
        if not blocked and pushed and pulled:
            unique_pushed = list(dict.fromkeys(pushed))
            alpha_part = _keyed_subset(
                config, round_no, Purpose.RENEW_PUSH, node,
                unique_pushed, config.alpha_count,
            )
            beta_part = [
                pulled[key64(seed, Purpose.RENEW_PULL, round_no, node, t) % len(pulled)]
                for t in range(config.beta_count)
            ]
            gamma_part: List[int] = []
            samples = state.sample_ids(node)
            if samples:
                gamma_part = [
                    samples[
                        key64(seed, Purpose.RENEW_GAMMA, round_no, node, t)
                        % len(samples)
                    ]
                    for t in range(config.gamma_count)
                ]
            delta.new_views.append((node, alpha_part + beta_part + gamma_part))
            delta.renewals += 1

        # Periodic sampler liveness validation (uses start-of-round
        # liveness, like everything else in the round).
        if validate:
            _validate_samplers(config, state, round_no, node, fresh, delta)


#: Budget for the segment kernel's per-block temporaries, in the units of
#: `_owner_costs`: a fresh pair (which the block decodes, feeds and drops;
#: ~100 bytes of temporaries each in the round-1 flood),
#: :data:`_BATCH_COST` a pulled batch, and the explicit ids of trusted
#: owners under eviction.  An owner's own rows (a few packed
#: ``⌈N/64⌉``-word rows, its new view and sampler rows) ride on its ~β
#: batches' charge.  5 · 2^16 is the largest budget that keeps a round-1
#: flood block at N = 4,000 (~1,640 fresh ids an owner, charged ~2,600)
#: within the ~217k fresh pairs the old charge of N an owner at 2^19
#: allowed it.  On a 2-vCPU Xeon @ 2.1 GHz, 2^18 / 5 · 2^16 / 3 · 2^17 /
#: 2^19 cut that flood into 37 / 29 / 24 / 18 blocks of at most 166k /
#: 208k / 248k / 331k pairs, with a round-1 `tracemalloc` peak of 18.8 /
#: 20.2 / 22.0 / 25.0 MiB (20.5 at the old charge), while the replayed
#: `shard-brahms-4k` rounds took 834–1,010 / 413–440 / 342–362 ms of CPU
#: (rounds 1 / 2 / 3, best of 5 interleaved replays) at every budget
#: alike.  The `shard-raptee-1k` population (900 owners, one partition
#: inline) is one block from round 1 at any of them.
_BLOCK_ELEMENTS = 5 << 16
#: What a pulled batch costs a block beyond its ids: its row of the batch
#: table, its reference and length, and its `_or_rows` slot.  Without it
#: a round whose owners know everything is one block however many batches
#: it pulls.  At N = 10,000 (l1 = 200, ~80 batches an owner) 1 / 2 / 4
#: cut round 9 into 8 / 10 / 14 blocks at no measurable difference in
#: CPU; at 2 a round-9 block of ~960 owners peaks at ~10 MiB
#: (`tracemalloc`) and a round-41 block of ~2,040 owners and ~160k
#: batches, whose owners are charged little else, at ~17 MiB: ~110 bytes
#: a batch with its owners' rows, within its two units (a round-1 flood
#: block holds ~64 bytes a unit) and below the plan phase's ~58 MiB.
_BATCH_COST = 2
#: Elements of one sampler-feed tile (``tile // l2`` rows of the
#: ``[fresh, l2]`` hash matrix).  The feed makes a dozen elementwise
#: passes over its two uint64 workspace buffers, so both should sit in
#: L2: on the ledger host (2 MiB L2 a core) the three `shard-brahms-4k`
#: rounds (l2 = 40) took 2.96 s at 2^13, 2.63 s at 2^14, 2.59 s at 2^15,
#: 2.57 s at 2^16 and 3.06 s at 2^17 (medians of three interleaved
#: sweeps, measured with one feed call per partition, not per block) —
#: smaller tiles pay per-tile dispatch, larger ones spill.  Being reused,
#: the workspace is faulted in once per call whatever the flood's size.
_FEED_TILE_ELEMENTS = 1 << 15
#: An owner whose fresh segment of ``k`` ids has ``k · l2`` at least this
#: many hash elements is fed in the owner-major form (`_feed_owner`), the
#: rest in mixed-owner tiles: the owner form saves the gathers and the
#: per-element packing but pays a dozen numpy calls per owner, so it wins
#: on round-1 floods (`shard-brahms-4k`: ~1,640 ids at l2 = 40) and loses
#: on steady-state trickles (`shard-raptee-1k`: <= ~120 ids at l2 = 10).
#: On a 2-vCPU Xeon @ 2.1 GHz (blocks of 40 equal segments) the two forms
#: broke even at ~4,000 elements for l2 = 10, ~6,000 for l2 = 20 and 40
#: and ~10,000 for l2 = 100; at 12,000 the owner form was 16-38% faster.
_FEED_OWNER_ELEMENTS = 1 << 13
#: numpy's ufunc buffer size (elements) while the owner form runs: no
#: longer than its rows (a chunk has at least ``_FEED_OWNER_ELEMENTS /
#: l2`` columns, >= 64 while l2 <= 128), so the ``[l2, 1]`` coefficient
#: broadcasts are never buffered.
_FEED_OWNER_BUFSIZE = 64
#: Packed ``known`` bytes per chunk of `ShardSimulation._known_poll`: the
#: popcount buffer stays in L2 instead of spanning every correct row.
_POLL_CHUNK_BYTES = 1 << 16
#: Bool marks per chunk of `_pack_rows` (whole rows, at least one): the
#: chunk stays in L2 between its scatter and its ``packbits``.
_PACK_CHUNK_CELLS = 1 << 18
#: View cells per chunk of the exact passes over batches whose row holds
#: their owner (`_batch_lengths`, `_stream_ids`): each gathers whole
#: ``l1``-wide rows, ~18 bytes a cell with its masks.  Once views settle a
#: quarter of the batches hold their owner (N = 10,000, round 41: 39,061
#: of a 2,037-owner block's 159,727), and unchunked those passes peaked at
#: ~50 MiB in such a block; a chunk is ~2.4 MB.
_HELD_CHUNK_CELLS = 1 << 17


def _row_chunks(count: int, width: int):
    """Slices over ``count`` rows of ``width`` cells, about
    :data:`_HELD_CHUNK_CELLS` cells (and at least one row) each."""
    step = max(1, _HELD_CHUNK_CELLS // width)
    return (slice(at, at + step) for at in range(0, count, step))


def _owner_costs(config: ShardConfig, batch_count, push_count, known_count,
                 t_owners: int):
    """Per owner, what its block is charged in :data:`_BLOCK_ELEMENTS`
    units: an exact upper bound on its fresh pairs, plus
    :data:`_BATCH_COST` a pulled batch, plus ``batches · l1`` for the
    first ``t_owners`` (trusted) owners under eviction, which build their
    explicit ids.  A fresh id is one the owner observed and does not know
    yet, so it has at most ``batches · l1 + pushes`` of them (a batch is
    one row of at most l1 ids) and at most ``N − 1 − |known|`` (it never
    learns itself)."""
    l1 = config.view_size
    cost = np.minimum(batch_count * l1 + push_count,
                      config.n_nodes - 1 - known_count)
    cost += batch_count * _BATCH_COST
    if config.eviction is not None:
        cost[:t_owners] += batch_count[:t_owners] * l1
    return cost


def _owner_blocks(cost, budget: int) -> List[Tuple[int, int]]:
    """Cut ``range(len(cost))`` into consecutive ``[a, b)`` blocks whose
    summed cost stays within ``budget`` (an owner over budget by itself
    still gets a block of its own)."""
    total = np.cumsum(cost)
    blocks: List[Tuple[int, int]] = []
    a = 0
    while a < cost.size:
        spent = int(total[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(total, spent + budget, side="right")))
        blocks.append((a, b))
        a = b
    return blocks


def _segment_index(local, segments: int):
    """For items grouped by non-decreasing segment number ``local``: each
    item's position inside its segment, and the per-segment counts."""
    counts = np.bincount(local, minlength=segments)
    first = np.cumsum(counts) - counts
    return np.arange(local.size, dtype=np.int64) - first[local], counts


def _keyed_keep_numpy(config: ShardConfig, round_no: int, purpose: int,
                      owner, index, keep):
    """The array form of `_keyed_subset`: a mask keeping, per owner, the
    ``keep`` items with the smallest ``(key, index)``.  ``owner`` is
    non-decreasing and ``index`` counts 0, 1, ... inside each owner's run;
    the stable lexsort leaves runs in place and breaks key ties by index,
    so the sorted position inside a run *is* the keyed rank."""
    keys = key_array(config.seed, purpose, round_no,
                     owner.astype(np.uint64), index.astype(np.uint64))
    rank = np.empty_like(index)
    rank[np.lexsort((keys, owner))] = index
    return rank < keep


def _callee_effects(sess: SessionArrays, base: int, hi: int) -> Tuple:
    """The callee-side swap effects owed to owners in ``[base, hi)`` as
    ``(owner, caller, slot)`` columns in ``(owner, caller, k)`` order: one
    ``nonzero`` over the round's (sparse) effect mask, sorted by owner."""
    e_row, e_slot = np.nonzero(sess.callee_effect)
    e_owner = sess.dst[e_row, e_slot]
    mine = np.flatnonzero((e_owner >= base) & (e_owner < hi))
    order = mine[np.argsort(e_owner[mine], kind="stable")]
    return e_owner[order], sess.src[e_row[order]], e_slot[order]


def _batch_counts(sess: SessionArrays, effects: Tuple, base: int, hi: int):
    """Per owner in ``[base, hi)``, straight from the session masks: the
    pulled batches, the ``contacts`` and ``trusted_contacts`` eviction
    counts, and the number of completed caller swaps in the range."""
    span = hi - base
    first, last = np.searchsorted(sess.src, (base, hi))
    local = sess.src[first:last] - base
    answered, trusted, swapped = (
        np.zeros(span, dtype=np.int64) for _ in range(3)
    )
    answered[local] = np.count_nonzero(sess.answered[first:last], axis=1)
    trusted[local] = np.count_nonzero(sess.trusted_batch[first:last], axis=1)
    swapped[local] = np.count_nonzero(sess.caller_swap[first:last], axis=1)
    callee = np.bincount(effects[0] - base, minlength=span)
    contacts = answered + callee
    return contacts + swapped, contacts, trusted + callee, int(swapped.sum())


def _pulled_batches_numpy(sess: SessionArrays, effects: Tuple, node_a: int,
                          node_b: int):
    """The pulled batches owed to owners in ``[node_a, node_b)``, in
    stream order (``effects`` is `_callee_effects` of a range covering
    them).

    Returns parallel per-batch columns ``(owner, peer, slot, trusted)`` —
    ``peer`` is the node whose view the batch carries (a Byzantine peer
    answers with its fake window, keyed by ``slot``) — sorted by owner and,
    per owner, in the order `_apply_nodes_pure` streams them: trusted
    batches first (pull answers by slot with the caller half of a swap
    right behind its answer, then callee-side swap effects in (caller, k)
    order), untrusted answers by slot after them.
    """
    first, last = np.searchsorted(sess.src, (node_a, node_b))
    src, dst = sess.src[first:last], sess.dst[first:last]
    a_row, a_slot = np.nonzero(sess.answered[first:last])
    a_trusted = sess.trusted_batch[first:last][a_row, a_slot]
    c_row, c_slot = np.nonzero(sess.caller_swap[first:last])
    e_first, e_last = np.searchsorted(effects[0], (node_a, node_b))
    e_owner, e_peer, e_slot = (column[e_first:e_last] for column in effects)
    owner = np.concatenate([src[a_row], src[c_row], e_owner])
    peer = np.concatenate([dst[a_row, a_slot], dst[c_row, c_slot], e_peer])
    slot = np.concatenate([a_slot, c_slot, e_slot])
    trusted = np.concatenate([
        a_trusted, np.ones(c_row.size + e_owner.size, dtype=bool),
    ])
    group = np.concatenate([
        np.where(a_trusted, 0, 2), np.zeros(c_row.size, dtype=np.int64),
        np.ones(e_owner.size, dtype=np.int64),
    ])
    within = np.concatenate([
        2 * a_slot, 2 * c_slot + 1, np.arange(e_owner.size, dtype=np.int64),
    ])
    # One packed (owner, group, within) key: unique per batch, so any sort
    # yields the one stream order.
    width = int(within.max(initial=0)) + 1
    order = np.argsort(((owner - node_a) * 3 + group) * width + within)
    return owner[order], peer[order], slot[order], trusted[order]


def _apply_segments_numpy(config, state, round_no, lo, hi, barrier, delta,
                          validate) -> None:
    """The array form of `_apply_nodes_pure` for the whole partition: every
    per-node list there is a segment of a flat ``(owner, id)`` array here,
    in the same element order, and every keyed draw uses the same
    coordinates.  Dead owners need no filter: nothing is delivered to, and
    no session starts from, a node that was dead at the start of the round.

    Owner blocks are cut by `_owner_costs`, from per-owner batch and push
    counts read off the session masks and the delivery index, and each
    block gathers its own pulled batches, so no per-batch array spans the
    partition.
    """
    base = max(lo, config.n_byzantine)
    if base >= hi:
        return
    sess = barrier.sess_arrays
    effects = _callee_effects(sess, base, hi)
    batch_count, contacts, trusted_contacts, delta.trusted_exchanges = (
        _batch_counts(sess, effects, base, hi)
    )
    push_count = np.diff(
        np.searchsorted(barrier.push_by_dst[0], np.arange(base, hi + 1))
    )
    t_owners = max(0, min(config.n_byzantine + config.n_trusted, hi) - base)
    cost = _owner_costs(config, batch_count, push_count,
                        barrier.known_count[base:hi], t_owners)
    for a, b in _owner_blocks(cost, _BLOCK_ELEMENTS):
        node_a, node_b = base + a, base + b
        renewed, bits, fresh_count, fresh = _apply_block_numpy(
            config, state, round_no, node_a, node_b, barrier,
            _pulled_batches_numpy(sess, effects, node_a, node_b),
            contacts[a:b], trusted_contacts[a:b], delta,
        )
        samples = (_sampler_feed_numpy(state, node_a, node_b, *fresh)
                   if fresh[1].size else None)
        delta.blocks.append(BlockDelta(node_a, renewed, samples, bits,
                                       fresh_count))
        if validate:
            _validate_block_numpy(config, state, round_no, node_a, node_b,
                                  fresh, delta)


def _pack_rows(rows, out) -> None:
    """Write each -1 padded id row of ``rows`` into the same row of the
    uint64 ``out`` as one set bit per id, in ``np.packbits`` order (id
    ``i`` is bit ``7 − i % 8`` of byte ``i // 8``): every bit of ``out``
    is written.  Rows go through a reused bool chunk of about
    :data:`_PACK_CHUNK_CELLS` marks, one scatter and one ``packbits`` a
    chunk; a spare byte past the row takes the padding's marks."""
    width = out.shape[1] * 64 + 8
    step = max(1, _PACK_CHUNK_CELLS // width)
    marks = np.zeros((min(step, len(rows)), width), dtype=bool)
    offsets = np.arange(len(marks), dtype=np.int64)[:, None] * width
    out8 = out.view(np.uint8)
    for at in range(0, len(rows), step):
        chunk = rows[at:at + step]
        count = len(chunk)
        marks[:count] = False
        marks.reshape(-1)[np.where(chunk >= 0, chunk, width - 1)
                          + offsets[:count]] = True
        out8[at:at + count] = np.packbits(marks[:count], axis=1)[:, :-1]


def _pack_views(config: ShardConfig, state: ShardState):
    """The start-of-round views as packed rows (`Barrier.view_bits`): a
    correct node's row holds its view; Byzantine rows hold no view, so row
    ``s < n_byz`` holds the fake window that starts at ``s``."""
    n, n_byz = config.n_nodes, config.n_byzantine
    bits = np.empty((n, -(-n // 64)), dtype=np.uint64)
    window = np.arange(min(config.view_size, n_byz), dtype=np.int64)
    _pack_rows((np.arange(n_byz, dtype=np.int64)[:, None] + window) % n_byz,
               bits[:n_byz])
    _pack_rows(state.view[n_byz:], bits[n_byz:])
    return bits


def _or_sorted_ids(acc8, local, ids) -> None:
    """OR the bits of ``(local owner, id)`` pairs, sorted by owner then id
    (repeats allowed), into the packed byte rows ``acc8``: pairs that land
    in one byte are adjacent, so one ``reduceat`` per byte run."""
    if not ids.size:
        return
    flat = local * acc8.shape[1] + (ids >> 3)
    bit = np.right_shift(np.uint8(0x80), (ids & 7).astype(np.uint8))
    first = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    acc8.reshape(-1)[flat[first]] |= np.bitwise_or.reduceat(bit, first)


def _or_rows(view_bits, ref, o_first):
    """Per owner ``o``, the OR of the packed rows ``view_bits[ref[i]]``
    over its batches ``o_first[o] <= i < o_first[o + 1]``.  Slot by slot:
    owners ranked by batch count, descending, so the owners with a ``j``-th
    batch are a prefix of the ranking, and slot ``j`` is one ``take`` of
    their rows into a reused buffer and one in-place OR — two numpy calls
    a slot over cache-sized rows, with no ``[batches, words]`` gather."""
    count = np.diff(o_first)
    owners = count.size
    order = np.argsort(-count, kind="stable")
    ranked = count[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(owners)
    b_local = np.repeat(np.arange(owners), count)
    slots = np.empty((int(ranked[0]), owners), dtype=np.int64)
    slots[np.arange(ref.size) - o_first[b_local], rank[b_local]] = ref
    live = np.searchsorted(-ranked, -np.arange(slots.shape[0]), side="left")
    ored = np.zeros((owners, view_bits.shape[1]), dtype=np.uint64)
    rows = np.empty_like(ored)
    for j, k in enumerate(live.tolist()):
        view_bits.take(slots[j, :k], axis=0, out=rows[:k], mode="clip")
        ored[:k] |= rows[:k]
    acc = np.empty_like(ored)
    acc[order] = ored
    return acc


def _row_ones(bits):
    """The set bits of each row of a packed array, as int64."""
    return np.bitwise_count(bits).sum(axis=1, dtype=np.int64)


def _set_bits(bits, n: int):
    """The set bits of packed byte rows as ``(row, id)`` pairs in
    row-major order, ids ascending per row (id ``i < n`` is bit ``7 − i %
    8`` of byte ``i // 8``), and the count per row.

    Two forms, by density, because numpy's ``nonzero`` scans a bool array
    branch-free at about 10% set or more and with a branch per element
    below that (~0.85 ns an element above, up to ~2.4 ns just under, on a
    2-vCPU Xeon @ 2.1 GHz): a dense block unpacks its rows whole; a sparse
    one unpacks only its non-zero bytes, whose bits are at least 1/8 set.
    On the `shard-brahms-4k` blocks (41% / 18% / 10% set in rounds 1 / 2 /
    3) the dense form took ~60 / ~20 / ~40 ms a round and the sparse one
    ~120 / ~60 / ~20 ms (replayed blocks, best of 9)."""
    rows, width = bits.shape
    counts = _row_ones(bits)
    row = np.repeat(np.arange(rows), counts)
    if int(counts.sum()) * 10 >= rows * n:
        ids = np.flatnonzero(np.unpackbits(bits, axis=1, count=n).view(bool))
        ids -= row * n
        return row, ids, counts
    nonzero = bits != 0
    at = np.flatnonzero(nonzero)
    base = at - np.repeat(np.arange(rows) * width,
                          np.count_nonzero(nonzero, axis=1))
    base <<= 3
    bit = np.flatnonzero(np.unpackbits(bits.reshape(-1)[at]).view(bool))
    ids = base[bit >> 3]
    bit &= 7
    ids += bit
    return row, ids, counts


def _batch_refs(config: ShardConfig, round_no: int, b_owner, b_peer, b_slot):
    """Per batch, the row of the round's packed views it carries: its
    peer's, or for a Byzantine peer the fake window at its keyed start
    (the Byzantine rows hold those windows, so a reference below
    ``n_byz`` *is* a fake window)."""
    ref = b_peer.copy()
    fake = np.flatnonzero(b_peer < config.n_byzantine)
    if fake.size:
        ref[fake] = (key_array(
            config.seed, Purpose.FAKE_VIEW, round_no,
            b_owner[fake].astype(np.uint64), b_slot[fake].astype(np.uint64),
        ) % np.uint64(config.n_byzantine)).astype(np.int64)
    return ref


def _batch_lengths(state: ShardState, view_bits, view_ones, n_byz: int,
                   b_owner, ref):
    """Per batch, the ids it adds to its owner's pulled stream — the
    referenced row's length less the owner's occurrences in it — and the
    indices of the batches whose row holds the owner.  One bit test per
    batch finds those; a fake window never holds a correct owner.  A held
    row whose set bits (``view_ones``) equal its length is that many
    distinct ids, so it holds the owner once; only rows with a repeated id
    or a -1 slot are counted exactly, against the view row."""
    lens = state.view_len[ref]
    lens[ref < n_byz] = min(state.view.shape[1], n_byz)
    byte = view_bits.view(np.uint8)[ref, b_owner >> 3]
    held = np.flatnonzero(np.left_shift(byte, (b_owner & 7).astype(np.uint8))
                          & np.uint8(0x80))
    if held.size:
        once = view_ones[ref[held]] == lens[held]
        lens[held[once]] -= 1
        recount = held[~once]
        for part in _row_chunks(recount.size, state.view.shape[1]):
            at = recount[part]
            lens[at] -= np.count_nonzero(
                state.view[ref[at]] == b_owner[at, None], axis=1)
    return lens, held


def _stream_ids(state: ShardState, n_byz: int, b_owner, ref, lens, held, pos):
    """The ids at positions ``pos`` of a pulled stream given as batch
    references (batch ``i`` contributes ``lens[i]`` ids, in batch order):
    one ``searchsorted`` on the running counts finds each position's batch
    and its offset ``k`` there, whose id is ``(start + k) mod n_byz`` in a
    fake window, else the ``k``-th view entry — skipping the owner's own
    occurrences in the ``held`` batches."""
    end = np.cumsum(lens)
    at = np.searchsorted(end, pos, side="right")
    k = pos - (end[at] - lens[at])
    row = ref[at]
    ids = state.view[row, k]
    fake = np.flatnonzero(row < n_byz)
    if fake.size:
        ids[fake] = (row[fake] + k[fake]) % n_byz
    holds = np.zeros(ref.size, dtype=bool)
    holds[held] = True
    skip = np.flatnonzero(holds[at])
    for part in _row_chunks(skip.size, state.view.shape[1]):
        pick = skip[part]
        entries = state.view[row[pick]]
        kept = (entries >= 0) & (entries != b_owner[at[pick], None])
        col = np.argmax(np.cumsum(kept, axis=1) > k[pick, None], axis=1)
        ids[pick] = entries[np.arange(pick.size), col]
    return ids


def _evicted_stream(config, state, round_no, node_a, t_owners, batches, ref,
                    contacts, trusted_contacts, delta):
    """The explicit pulled stream of the block's first ``t_owners`` owners
    — trusted, under eviction (§IV-C keeps a keyed share of their
    untrusted ids *per occurrence*) — as flat cells ``(owner − node_a) · N
    + id`` in stream order after eviction.  ``batches`` and ``ref`` are
    those owners' batches (a prefix of the block's)."""
    n_byz, n = config.n_byzantine, config.n_nodes
    b_owner, _peer, _slot, b_trusted = batches
    ids = state.view[ref]
    fake = np.flatnonzero(ref < n_byz)
    if fake.size:
        window = np.arange(min(config.view_size, n_byz), dtype=np.int64)
        ids[fake, : window.size] = (ref[fake, None] + window) % n_byz
    valid = (ids >= 0) & (ids != b_owner[:, None])
    ids += ((b_owner - node_a) * n)[:, None]
    cells = ids[valid]
    at_risk = np.flatnonzero(np.repeat(~b_trusted, valid.sum(axis=1)))
    if at_risk.size:
        r_local = cells[at_risk] // n
        index, total = _segment_index(r_local, t_owners)
        share = np.divide(trusted_contacts[:t_owners], contacts[:t_owners],
                          out=np.zeros(t_owners),
                          where=contacts[:t_owners] > 0)
        keep = total - np.rint(
            config.eviction.rates(share) * total
        ).astype(np.int64)
        delta.evicted += int((total - np.maximum(keep, 0)).sum())
        cells = np.delete(cells, at_risk[~_keyed_keep_numpy(
            config, round_no, Purpose.EVICT_KEEP, r_local + node_a, index,
            keep[r_local],
        )])
    return cells


def _apply_block_numpy(config, state, round_no, node_a, node_b, barrier,
                       batches, contacts, trusted_contacts, delta):
    """One owner block ``[node_a, node_b)`` of the segment kernel: counts
    go to ``delta``; returns the block's ``(nodes, rows, lens)`` renewed
    views (None when there are none), its fresh ids as packed rows, their
    count per owner and as ``(owner, id)`` pairs, owner-sorted with ids
    ascending per owner."""
    seed = config.seed
    n_byz, n = config.n_byzantine, config.n_nodes
    owners = node_b - node_a

    # Delivered pushes, (owner, src, seq)-ordered, minus self-pushes.
    ddst, dsrc = barrier.push_by_dst
    first, last = np.searchsorted(ddst, (node_a, node_b))
    p_owner, p_src = ddst[first:last], dsrc[first:last]
    not_self = p_src != p_owner
    p_owner, p_src = p_owner[not_self], p_src[not_self]
    push_len = np.bincount(p_owner - node_a, minlength=owners)

    # Pulled batches as references into the round's packed views.
    b_owner, b_peer, b_slot, _trusted = batches
    ref = _batch_refs(config, round_no, b_owner, b_peer, b_slot)
    pull_len = np.zeros(owners, dtype=np.int64)

    # Trusted owners under eviction keep the explicit id stream.  Trusted
    # ids ``[n_byz, n_byz + n_trusted)`` are the lowest correct ids and a
    # block starts at or above ``n_byz``, so they and their batches are
    # prefixes of the block's.
    t_owners = min(n_byz + config.n_trusted, node_b) - node_a
    t_batches, cells = 0, None
    if config.eviction is not None and t_owners > 0:
        t_batches = int(np.searchsorted(b_owner, node_a + t_owners))
        cells = _evicted_stream(
            config, state, round_no, node_a, t_owners,
            tuple(column[:t_batches] for column in batches), ref[:t_batches],
            contacts, trusted_contacts, delta,
        )
        pull_bounds = np.searchsorted(cells, np.arange(t_owners + 1) * n)
        pull_len[:t_owners] = np.diff(pull_bounds)

    # Everyone else's stream is only its (batch, length) references.
    b_owner, ref = b_owner[t_batches:], ref[t_batches:]
    view_bits = barrier.view_bits
    b_len, b_held = _batch_lengths(state, view_bits, barrier.view_ones, n_byz,
                                   b_owner, ref)
    o_first = np.searchsorted(b_owner, np.arange(node_a, node_b + 1))
    stream_at = np.concatenate(([0], np.cumsum(b_len)))[o_first]
    pull_len += np.diff(stream_at)

    # Everything an owner observed, as one packed row: its batches' rows
    # OR-ed (the evicting prefix's surviving ids instead), its pushes, not
    # itself.
    acc = _or_rows(view_bits, ref, o_first)
    acc8 = acc.view(np.uint8)
    if cells is not None:
        ordered = np.sort(cells)
        local = ordered // n
        _or_sorted_ids(acc8, local, ordered - local * n)
    _or_sorted_ids(acc8, p_owner - node_a, p_src)
    own = np.arange(node_a, node_b)
    acc8[np.arange(owners), own >> 3] &= ~np.right_shift(
        np.uint8(0x80), (own & 7).astype(np.uint8))

    # Novelty stays packed: what the owner observed and did not know is the
    # ``known`` delta itself, and its set bits in row-major order are the
    # fresh (owner, id) pairs, ids ascending per owner.
    observed = acc8[:, :state.known.shape[1]]
    bits = np.bitwise_and(observed, state.known[node_a:node_b])
    np.bitwise_xor(observed, bits, out=bits)
    f_local, f_id, f_count = _set_bits(bits, n)

    # Blocking defense and view renewal.
    if config.blocking_enabled:
        blocked = push_len > config.alpha_count
        delta.blocked += int(np.count_nonzero(blocked))
        renewing = ~blocked & (push_len > 0) & (pull_len > 0)
    else:
        renewing = (push_len > 0) & (pull_len > 0)
    r_local = np.flatnonzero(renewing)
    renewed = None
    if r_local.size:
        delta.renewals += int(r_local.size)
        r_nodes = r_local + node_a
        rows = np.full((r_local.size, config.view_size), -1, dtype=np.int64)
        row_of = np.zeros(owners, dtype=np.int64)
        row_of[r_local] = np.arange(r_local.size)

        # α: distinct pushed sources (first occurrences of a (src, seq)-
        # sorted run), thinned by keyed rank where more than α remain.
        distinct = renewing[p_owner - node_a]
        distinct[1:] &= (p_owner[1:] != p_owner[:-1]) | (p_src[1:] != p_src[:-1])
        u_owner, u_src = p_owner[distinct], p_src[distinct]
        u_index, u_count = _segment_index(u_owner - node_a, owners)
        if int(u_count.max()) > config.alpha_count:
            chosen = _keyed_keep_numpy(config, round_no, Purpose.RENEW_PUSH,
                                       u_owner, u_index, config.alpha_count)
            u_owner, u_src = u_owner[chosen], u_src[chosen]
            u_index, u_count = _segment_index(u_owner - node_a, owners)
        rows[row_of[u_owner - node_a], u_index] = u_src
        alpha_len = u_count[r_local]

        # β: keyed picks from the owner's pulled stream — explicit cells
        # for the evicting prefix, batch references for everyone else.
        node_col = r_nodes.astype(np.uint64)[:, None]
        beta_keys = key_array(
            seed, Purpose.RENEW_PULL, round_no, node_col,
            np.arange(config.beta_count, dtype=np.uint64)[None, :],
        )
        picks = (beta_keys
                 % pull_len[r_local].astype(np.uint64)[:, None]).astype(np.int64)
        beta = np.empty_like(picks)
        split = int(np.searchsorted(r_local, t_owners)) if cells is not None else 0
        if split:
            evicting = r_local[:split]
            beta[:split] = (cells[pull_bounds[evicting][:, None] + picks[:split]]
                            - (evicting * n)[:, None])
        beta[split:] = _stream_ids(
            state, n_byz, b_owner, ref, b_len, b_held,
            (stream_at[r_local[split:]][:, None] + picks[split:]).ravel(),
        ).reshape(-1, config.beta_count)
        beta_cols = alpha_len[:, None] + np.arange(config.beta_count)[None, :]
        rows[np.arange(r_local.size)[:, None], beta_cols] = beta
        lens = alpha_len + config.beta_count

        # γ: keyed picks among the non-empty samplers (start-of-round
        # samples, in sampler order).
        held = state.samp_best[r_nodes]
        filled = held != EMPTY_SAMPLE
        filled_count = filled.sum(axis=1)
        sampled = np.flatnonzero(filled_count > 0)
        if config.gamma_count and sampled.size:
            slot_order = np.argsort(~filled[sampled], axis=1, kind="stable")
            gamma_keys = key_array(
                seed, Purpose.RENEW_GAMMA, round_no, node_col[sampled],
                np.arange(config.gamma_count, dtype=np.uint64)[None, :],
            )
            picks = (gamma_keys
                     % filled_count[sampled].astype(np.uint64)[:, None])
            slots = np.take_along_axis(slot_order, picks.astype(np.int64), axis=1)
            gamma_cols = (lens[sampled][:, None]
                          + np.arange(config.gamma_count)[None, :])
            rows[sampled[:, None], gamma_cols] = (
                np.take_along_axis(held[sampled], slots, axis=1)
                & np.int64(0xFFFFFFFF)
            )
            lens[sampled] += config.gamma_count
        renewed = (r_nodes, rows, lens)
    return renewed, bits, f_count, (f_local + node_a, f_id)


def _fold_pack(x, scratch, ids) -> None:
    """Overwrite ``x = a·r + b`` (uint64, ``a, b, r < p``) with the packed
    sampler value ``(x mod p) << 32 | id``, in place, using the equal-shape
    ``scratch``; ``ids`` broadcasts against ``x``.

    One fold is enough in the packed domain.  ``x <= p(p − 1) < 2^62``, so
    ``x >> 31 <= p − 2`` and ``f = (x & p) + (x >> 31) <= 2p − 2 < 2^32``
    with ``f ≡ x (mod p)`` (2^31 ≡ 1): ``y = f << 32 | id`` fits a uint64
    and the canonical value is ``y`` when ``f < p``, else ``y − (p << 32)``.
    In uint64 that subtraction wraps above every real value exactly when
    ``f < p`` and lands on the canonical value otherwise (``f = p`` on hash
    0), so the answer is ``min(y, y − (p << 32))`` — no second fold, no
    compare, no masked subtract."""
    np.right_shift(x, np.uint64(31), out=scratch)
    x &= np.uint64(_P)
    x += scratch
    x <<= np.uint64(32)
    x |= ids
    np.subtract(x, np.uint64(_P << 32), out=scratch)
    np.minimum(x, scratch, out=x)


def _feed_owner(samp_a, samp_b, reduced, node: int, cand, best_row,
                x_buf, t_buf) -> None:
    """The owner-major feed of one owner's fresh ids ``cand`` (ascending):
    ``x[l2, k] = a ⊗ r + b`` over contiguous rows, the canonical fold
    ``f = (x & p) + (x >> 31)``, ``h = min(f, f − p)`` (``f <= 2p − 2``;
    the wrapped uint64 subtraction loses exactly when ``f < p``), one
    ``argmin`` per sampler row, and only the ``l2`` winners packed and
    min-ed into ``best_row`` in place.  ``argmin`` keeps the first of equal
    hashes, which is the smaller id — the packed min's tiebreak.  Columns
    are taken in equal chunks, as few as fit the workspace, so no chunk is
    a sliver that pays a dozen calls for a few columns."""
    l2 = best_row.size
    chunks = -(-cand.size * l2 // x_buf.size)
    width = -(-cand.size // chunks)
    a, b = samp_a[node][:, None], samp_b[node][:, None]
    lanes = np.arange(l2)
    for at in range(0, cand.size, width):
        chunk = cand[at:at + width]
        x = x_buf.reshape(-1)[:l2 * chunk.size].reshape(l2, chunk.size)
        scratch = t_buf.reshape(-1)[:x.size].reshape(x.shape)
        np.multiply(a, reduced[chunk], out=x)
        x += b
        np.right_shift(x, np.uint64(31), out=scratch)
        x &= np.uint64(_P)
        x += scratch
        np.subtract(x, np.uint64(_P), out=scratch)
        np.minimum(x, scratch, out=x)
        win = x.argmin(axis=1)
        packed = x[lanes, win] << np.uint64(32)
        packed |= chunk[win].astype(np.uint64)
        np.minimum(best_row, packed, out=best_row)


def _sampler_feed_numpy(state: ShardState, node_a: int, node_b: int,
                        f_owner, f_id):
    """Feed fresh ``(owner, id)`` pairs (owner-sorted, ids ascending per
    owner) to the samplers of owners ``[node_a, node_b)``: per owner
    segment, the min over its ``[k, l2]`` min-wise hash matrix.  Returns
    the improved samplers as flat ``(node, sampler index, packed value)``
    arrays.

    Two forms compute the same integers, chosen per owner by size: an
    owner with ``k · l2 >= _FEED_OWNER_ELEMENTS`` takes the owner-major
    form (`_feed_owner`); the rest go through ``[rows, l2]`` tiles that mix
    owners — two row gathers of the coefficients, the packed fold
    (`_fold_pack`) and a ``reduceat`` per segment — which beat a dozen
    numpy calls per owner when segments are short.  A tile may split an
    owner; the running ``best`` absorbs the partial minima.  On a hash tie
    both forms keep the smaller id.

    Both forms work in one workspace of two ``[rows, l2]`` uint64 buffers
    owned by this call (so partitions on threads never share one).  Per
    tile nothing of ``[rows, l2]`` size is allocated: gathers land in the
    workspace (``mode="clip"`` — indices are in range, and numpy only
    writes ``out`` unbuffered when it need not raise) and every other pass
    is in place."""
    current = state.samp_best[node_a:node_b].view(np.uint64)
    best = current.copy()
    l2 = current.shape[1]
    rows = min(f_id.size, max(1, _FEED_TILE_ELEMENTS // l2))
    x_buf = np.empty((rows, l2), dtype=np.uint64)
    t_buf = np.empty_like(x_buf)
    samp_a, samp_b, reduced = (
        table.view(np.uint64)
        for table in (state.samp_a, state.samp_b, state.reduced)
    )
    # Owner segments, once per call: first row of each owner that has any.
    # (Keys of the owner column's dtype: a mismatch makes searchsorted copy
    # the whole column.)
    first = f_owner.searchsorted(
        np.arange(node_a, node_b + 1, dtype=f_owner.dtype)
    )
    length = first[1:] - first[:-1]
    seg_owner = np.flatnonzero(length)
    seg_first = first[seg_owner]
    if int(length.max()) * l2 >= _FEED_OWNER_ELEMENTS:
        owner_form = length[seg_owner] * l2 >= _FEED_OWNER_ELEMENTS
        with np.errstate():  # restores the buffer size on exit
            # A per-row coefficient broadcast along the row is copied into
            # numpy's 8,192-element ufunc buffer to grow the inner loop
            # past the row, which doubles the cost of ``a ⊗ r`` and
            # ``+ b``; a buffer shorter than a row runs them unbuffered.
            np.setbufsize(_FEED_OWNER_BUFSIZE)
            for local in seg_owner[owner_form].tolist():
                _feed_owner(samp_a, samp_b, reduced, node_a + local,
                            f_id[first[local]:first[local + 1]], best[local],
                            x_buf, t_buf)
        # The tiles see only the short segments, gathered back to back
        # (fewer than _FEED_OWNER_ELEMENTS / l2 rows an owner).
        seg_owner = seg_owner[~owner_form]
        seg_len = length[seg_owner]
        tile_first = np.cumsum(seg_len) - seg_len
        keep = (np.repeat(seg_first[~owner_form] - tile_first, seg_len)
                + np.arange(int(seg_len.sum())))
        f_owner, f_id, seg_first = f_owner[keep], f_id[keep], tile_first
    for at in range(0, f_id.size, rows):
        end = min(at + rows, f_id.size)
        nodes, cand = f_owner[at:end], f_id[at:end]
        x, scratch = x_buf[:end - at], t_buf[:end - at]
        samp_a.take(nodes, axis=0, out=x, mode="clip")
        x *= reduced[cand][:, None]
        samp_b.take(nodes, axis=0, out=scratch, mode="clip")
        x += scratch
        _fold_pack(x, scratch, cand.astype(np.uint64)[:, None])
        # Segments of this tile: the owner running at its first row, then
        # every owner that starts inside it.
        s_lo = int(seg_first.searchsorted(at, side="right"))
        s_hi = int(seg_first.searchsorted(end, side="left"))
        starts = seg_first[s_lo - 1:s_hi] - at
        starts[0] = 0
        segment = seg_owner[s_lo - 1:s_hi]
        best[segment] = np.minimum(
            best[segment], np.minimum.reduceat(x, starts, axis=0)
        )
    local, slots = np.nonzero(best < current)
    return local + node_a, slots, best[local, slots].view(np.int64)


def _validate_block_numpy(config, state, round_no, node_a, node_b, fresh,
                          delta) -> None:
    """Sampler validation for owners ``[node_a, node_b)``: one scan finds
    the (rare) alive owners holding a dead sample; only those take the
    scalar reset-and-replay."""
    held = state.samp_best[node_a:node_b]
    stale = (held != EMPTY_SAMPLE) & ~state.alive[held & np.int64(0xFFFFFFFF)]
    stale &= state.alive[node_a:node_b, None]
    f_owner, f_id = fresh
    for node in (np.flatnonzero(stale.any(axis=1)) + node_a).tolist():
        first, last = np.searchsorted(f_owner, (node, node + 1))
        _validate_samplers(config, state, round_no, node,
                           f_id[first:last].tolist(), delta)


def _validate_samplers(config: ShardConfig, state: ShardState, round_no: int,
                       node: int, fresh: List[int], delta: PartitionDelta) -> None:
    """Reset samplers anchored on dead ids; replay known live ids so the
    fresh hash function still ranges over everything the node observed."""
    replay: Optional[List[int]] = None
    for j in range(config.sample_size):
        packed = int(state.samp_best[node][j])
        if packed == EMPTY_SAMPLE:
            continue
        current = packed & 0xFFFFFFFF
        if state.is_alive(current):
            continue
        new_a = 1 + key64(
            config.seed, Purpose.SAMPLER_RESET_A, round_no, node, j
        ) % (_P - 1)
        new_b = key64(
            config.seed, Purpose.SAMPLER_RESET_B, round_no, node, j
        ) % _P
        if replay is None:
            replay = _known_live(state, node, fresh)
        best = EMPTY_SAMPLE
        for cand in replay:
            packed_cand = (((new_a * int(state.reduced[cand]) + new_b) % _P) << 32) | cand
            if packed_cand < best:
                best = packed_cand
        delta.samp_resets.append((node, j, new_a, new_b, best))
        delta.sampler_resets += 1


def _known_live(state: ShardState, node: int, fresh: List[int]) -> List[int]:
    """The node's observed ids (including this round's) that are alive."""
    if state.use_numpy:
        known = np.flatnonzero(np.unpackbits(state.known[node]))
        merged = np.union1d(known, np.asarray(fresh, dtype=np.int64)) if fresh else known
        live = merged[state.alive[merged.astype(np.int64)]]
        return [int(v) for v in live]
    merged = set(state.known[node])
    merged.update(fresh)
    return sorted(c for c in merged if state.is_alive(c))


# -- adversary ----------------------------------------------------------------


def _adversary_assignment(config: ShardConfig, alive, round_no: int) -> Tuple:
    """The balanced attack: spread the adversary's whole push budget evenly
    over the alive correct population (deterministic multiset).

    Victims are taken in keyed order (ties by id), each ``quota`` times and
    the first ``remainder`` once more; the ``b``-th alive Byzantine node
    sends the ``b``-th run of ``byz_push_limit`` entries.  Returns int64
    ``(src, seq, dst)`` arrays, sources ascending, for both backends.
    """
    alive = np.asarray(alive, dtype=bool)
    n_byz = config.n_byzantine
    byz = np.flatnonzero(alive[:n_byz])
    victims = np.flatnonzero(alive[n_byz:]) + n_byz
    if not byz.size or not victims.size:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    limit = config.byz_push_limit
    keys = key_array(config.seed, Purpose.ADV_ORDER, round_no, 0, victims)
    quota, remainder = divmod(byz.size * limit, victims.size)
    counts = np.full(victims.size, quota, dtype=np.int64)
    counts[:remainder] += 1
    return (
        np.repeat(byz, limit),
        np.tile(np.arange(limit, dtype=np.int64), byz.size),
        np.repeat(victims[np.lexsort((victims, keys))], counts),
    )


# -- the driver ---------------------------------------------------------------


class ShardSimulation:
    """Drives :class:`ShardState` through bulk-synchronous rounds.

    ``workers`` threads run the partition phases over the shared state
    (``1`` → inline; see :mod:`repro.shard.pool`) and the population is
    cut into ``min(shards, workers)`` partitions: ``shards`` is a cap, and
    a partition exists only to be handed to a worker, so an inline round
    plans and applies the population once.  Both are *performance* knobs:
    the barrier makes every output byte-identical across any combination —
    that is the property the shard differential suite pins.
    """

    def __init__(
        self,
        config: ShardConfig,
        shards: int = 1,
        workers: int = 1,
        use_numpy: bool = True,
        telemetry=None,
    ):
        if shards <= 0:
            raise ValueError("shards must be positive")
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.config = config
        self.shards = shards
        self.workers = workers
        self.state = build_state(config, use_numpy=use_numpy)
        self.stats = NetworkStats()
        self.round_number = 0
        self.telemetry = telemetry
        self.trace_records: List[Dict[str, object]] = []
        #: One record per closed round, appended by :meth:`_close_round`.
        self.view_records: List[RoundRecord] = []
        self._bounds = partition_bounds(config.n_nodes, min(shards, workers))
        # Every correct node's id and kind code, in id order: the columns
        # of a round in which all of them are up.
        n_byz = config.n_byzantine
        self._nodes = np.arange(n_byz, config.n_nodes, dtype=np.int64)
        # The bands of `NodeKind.for_banded_id`: trusted ids, then honest.
        self._kinds = np.full(config.n_nodes - n_byz, KIND_CODE[NodeKind.HONEST],
                              dtype=np.int8)
        self._kinds[:config.n_trusted] = KIND_CODE[NodeKind.TRUSTED]
        self._nodes.flags.writeable = self._kinds.flags.writeable = False
        # The round each correct node discovered the system.
        self._discovered_at = np.full(config.n_nodes - n_byz, -1, dtype=np.int64)
        # The packed views the applies read (numpy backend) and their rows'
        # set bits, kept across rounds, and the nodes whose views were
        # renewed since last packed; every node's count of known ids.
        self._view_bits: Optional[np.ndarray] = None
        self._view_ones: Optional[np.ndarray] = None
        self._renewed: List[np.ndarray] = []
        self._known_count: Optional[np.ndarray] = None

    # -- faults ---------------------------------------------------------------

    def _apply_crash_schedule(self) -> None:
        for crash in self.config.crashes:
            if self.round_number == crash.at_round:
                self.state.alive[crash.node_id] = False
                self._emit("shard.crash", node=crash.node_id)
                self._count("faults.crashes", 1)
            elif self.round_number == crash.at_round + crash.down_rounds:
                self.state.alive[crash.node_id] = True
                self._emit("shard.restart", node=crash.node_id)

    def _effective_loss(self) -> float:
        keep = 1.0 - self.config.loss_rate
        for burst in self.config.loss_bursts:
            if burst.window.covers(self.round_number):
                keep *= 1.0 - burst.loss_rate
        return 1.0 - keep

    # -- telemetry ------------------------------------------------------------

    def _emit(self, name: str, **fields: object) -> None:
        if self.telemetry is not None:
            self.telemetry.event(name, **fields)

    def _count(self, name: str, amount: int, **labels: object) -> None:
        if self.telemetry is not None and amount:
            self.telemetry.counter(name, **labels).inc(amount)

    # -- rounds ---------------------------------------------------------------

    def run_round(self) -> None:
        self.round_number += 1
        round_no = self.round_number
        if self.telemetry is not None:
            self.telemetry.begin_round(round_no)
        self._apply_crash_schedule()
        eff_loss = self._effective_loss()
        # The barrier copies what it keeps of the plans, so they go here.
        barrier = merge_plans(self._run_plans(round_no, eff_loss),
                              self.state.use_numpy)
        self._record_barrier(round_no, barrier)
        # Only message tracing reads every push.
        barrier.push_sent = None
        if self.state.use_numpy:
            barrier.view_bits, barrier.view_ones = self._packed_views()
            barrier.known_count = self._known_counts()
        deltas = self._run_applies(round_no, barrier)
        self._integrate(deltas)
        self._close_round(round_no, barrier, deltas)

    def _packed_views(self):
        """This round's `Barrier.view_bits` and `Barrier.view_ones`: packed
        and counted whole in the first round, then only the rows
        `_integrate` renewed are — no other write touches a view (a renewal
        is ~5–80% of the rows a round in the ledger's and the paper-scale
        runs)."""
        if self._view_bits is None:
            self._view_bits = _pack_views(self.config, self.state)
            self._view_ones = _row_ones(self._view_bits)
        elif self._renewed:
            nodes = np.concatenate(self._renewed)
            packed = np.empty((nodes.size, self._view_bits.shape[1]),
                              dtype=np.uint64)
            _pack_rows(self.state.view[nodes], packed)
            self._view_bits[nodes] = packed
            self._view_ones[nodes] = _row_ones(packed)
        self._renewed = []
        return self._view_bits, self._view_ones

    def _known_counts(self):
        """This round's `Barrier.known_count`: one popcount of ``known`` in
        the first round, then kept by `_integrate`, which adds each block's
        fresh ids (they are new to ``known`` by construction)."""
        if self._known_count is None:
            self._known_count = _row_ones(self.state.known)
        return self._known_count

    def _run_plans(self, round_no: int, eff_loss: float):
        state = self.state
        adversary = _adversary_assignment(self.config, state.alive, round_no)
        # Byzantine sources ascend, so a partition's share is one slice.
        cuts = np.searchsorted(
            adversary[0], [lo for lo, _hi in self._bounds] + [self.config.n_nodes]
        ).tolist()
        if not state.use_numpy:
            adversary = tuple(column.tolist() for column in adversary)
        tasks = [
            (self.config, state, round_no, eff_loss, lo, hi)
            + tuple(column[first:last] for column in adversary)
            for (lo, hi), first, last in zip(self._bounds, cuts, cuts[1:])
        ]
        return self._map_partitions(plan_partition, tasks)

    def _run_applies(self, round_no: int, barrier: Barrier):
        tasks = [
            (self.config, self.state, round_no, lo, hi, barrier)
            for lo, hi in self._bounds
        ]
        return self._map_partitions(apply_partition, tasks)

    def _map_partitions(self, fn, tasks):
        # Looked up at call time, not imported at module level: the perf
        # ledger and tests/test_shard_engine.py wrap ``pool.map_partitions``.
        from repro.shard import pool

        return pool.map_partitions(fn, tasks, self.workers)

    def _integrate(self, deltas: Sequence[PartitionDelta]) -> None:
        state = self.state
        for delta in deltas:
            for node, row in delta.new_views:
                state.set_view_row(node, row)
            for node, slots, packed in delta.samp_updates:
                for j, value in zip(slots, packed):
                    state.samp_best[node][j] = value
            for node, fresh in delta.known_additions:
                state.known[node].update(fresh)
            for block in delta.blocks:
                if block.views is not None:
                    nodes, rows, lens = block.views
                    state.view[nodes] = rows
                    state.view_len[nodes] = lens
                    self._renewed.append(nodes)
                if block.samples is not None:
                    nodes, slots, packed = block.samples
                    state.samp_best[nodes, slots] = packed
                span = slice(block.node_a, block.node_a + len(block.known_bits))
                state.known[span] |= block.known_bits
                self._known_count[span] += block.fresh_count
            # After the feeds: a reset replaces whatever its sampler held.
            for node, j, new_a, new_b, packed in delta.samp_resets:
                state.samp_a[node][j] = new_a
                state.samp_b[node][j] = new_b
                state.samp_best[node][j] = packed
            state.renewals += delta.renewals
            state.blocked_rounds += delta.blocked
            state.evicted_ids += delta.evicted
            state.trusted_exchanges += delta.trusted_exchanges
            state.sampler_resets += delta.sampler_resets

    def _record_barrier(self, round_no: int, barrier: Barrier) -> None:
        stats = self.stats
        stats.pushes_sent += barrier.pushes_sent
        stats.pushes_delivered += barrier.pushes_delivered
        stats.requests_sent += barrier.requests_sent
        stats.replies_delivered += barrier.replies_delivered
        stats.messages_lost += barrier.messages_lost
        stats.bytes_encrypted += barrier.enc_bytes
        self._count("network.pushes_sent", barrier.pushes_sent)
        self._count("network.pushes_delivered", barrier.pushes_delivered)
        self._count("network.messages_lost", barrier.messages_lost)
        self._count("network.requests_sent", barrier.requests_sent, kind="session")
        self._count("network.replies_delivered", barrier.replies_delivered,
                    kind="session")
        telemetry = self.telemetry
        if telemetry is None or not telemetry.config.trace_messages:
            return
        # Message tracing iterates the canonical orders scalar-wise; meant
        # for the small pinned differential scenarios, not N = 10,000.
        if barrier.push_sent is not None:
            psrc, _pseq, pdst, pok = barrier.push_sent
            for i in _traced_push_order(barrier.push_sent).tolist():
                telemetry.event("net.push", node=int(psrc[i]), dst=int(pdst[i]),
                                delivered=bool(pok[i]))
        else:
            for src_id, dst_id, _seq, ok in barrier.push_order:
                telemetry.event("net.push", node=src_id, dst=dst_id,
                                delivered=bool(ok))
        if barrier.sess_arrays is not None:
            sess = barrier.sess_arrays
            for src_id, dsts, answers, effects in zip(
                sess.src.tolist(), sess.dst.tolist(), sess.answered.tolist(),
                sess.callee_effect.tolist(),
            ):
                for dst_id, answered, effect in zip(dsts, answers, effects):
                    telemetry.event("net.request", node=src_id, dst=dst_id,
                                    delivered=answered, swap=effect)
        for src_id in sorted(barrier.sessions_by_src):
            for session in barrier.sessions_by_src[src_id]:
                telemetry.event(
                    "net.request",
                    node=session.src,
                    dst=session.dst,
                    delivered=session.answered,
                    swap=session.callee_effect,
                )

    def _close_round(self, round_no: int, barrier: Barrier,
                     deltas: Sequence[PartitionDelta]) -> None:
        """The round's one reduction over the new state: O(N·l1) for the
        views plus a popcount over the packed ``known`` (N²/8 bytes)."""
        config, state = self.config, self.state
        n_byz = config.n_byzantine
        alive = np.asarray(state.alive[n_byz:], dtype=bool)
        byz, lens = self._view_poll()
        byz_entries, total_entries = int(byz[alive].sum()), int(lens[alive].sum())
        shares = np.divide(byz, lens, out=np.zeros(lens.size), where=lens > 0)
        nodes, kinds = self._nodes, self._kinds
        if not alive.all():
            nodes, kinds, shares = nodes[alive], kinds[alive], shares[alive]
        self.view_records.append(RoundRecord(
            round_no, nodes, kinds, shares,
            barrier.pushes_sent, barrier.requests_sent, barrier.messages_lost,
        ))
        # A node always knows itself; `known` rows never hold their owner.
        reached = (self._known_poll() + 1) / alive.size >= DISCOVERY_THRESHOLD
        self._discovered_at[alive & reached & (self._discovered_at < 0)] = round_no
        record = {
            "round": round_no,
            "pushes": barrier.pushes_sent,
            "requests": barrier.requests_sent,
            "losses": barrier.messages_lost,
            "renewals": sum(d.renewals for d in deltas),
            "blocked": sum(d.blocked for d in deltas),
            "evicted": sum(d.evicted for d in deltas),
            "byz_entries": byz_entries,
            "view_entries": total_entries,
        }
        self.trace_records.append(record)
        if self.telemetry is not None:
            self._count("shard.renewals", record["renewals"])
            self._count("shard.blocked_rounds", record["blocked"])
            self._count("shard.evicted_ids", record["evicted"])
            for name in ("trusted_exchanges", "sampler_resets"):
                self._count(f"shard.{name}", sum(getattr(d, name) for d in deltas))
            self.telemetry.gauge("shard.byz_view_share").set(
                byz_entries / total_entries if total_entries else 0.0
            )
            self.telemetry.event("round.stats", **record)
            self.telemetry.end_round(int(np.count_nonzero(state.alive)))

    def _view_poll(self) -> Tuple:
        """Per correct node, in id order: the Byzantine entries and all
        entries of its view (two integer arrays)."""
        n_byz, state = self.config.n_byzantine, self.state
        if state.use_numpy:
            rows = state.view[n_byz:]  # -1 padded past their length
            return ((rows >= 0) & (rows < n_byz)).sum(axis=1), state.view_len[n_byz:]
        return (np.array([sum(v < n_byz for v in row) for row in state.view[n_byz:]]),
                np.array(state.view_len[n_byz:]))

    def _known_poll(self):
        """Per correct node, in id order: the correct ids it has observed."""
        n_byz, state = self.config.n_byzantine, self.state
        if state.use_numpy:
            # The bytes from the one holding id n_byz on, less that byte's
            # Byzantine ids (its top n_byz % 8 bits), popcounted a chunk of
            # rows at a time into one reused buffer.
            head, rem = divmod(n_byz, 8)
            rows = state.known[n_byz:, head:]
            counts = np.empty(len(rows), dtype=np.int64)
            step = max(1, _POLL_CHUNK_BYTES // rows.shape[1])
            ones = np.empty((min(step, len(rows)), rows.shape[1]), dtype=np.uint8)
            for at in range(0, len(rows), step):
                chunk = rows[at:at + step]
                np.bitwise_count(chunk, out=ones[:len(chunk)]).sum(
                    axis=1, dtype=np.int64, out=counts[at:at + step])
            if rem:
                counts -= np.bitwise_count(rows[:, 0] >> (8 - rem))
            return counts
        return np.array([sum(i >= n_byz for i in row) for row in state.known[n_byz:]])

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

    # -- outputs --------------------------------------------------------------

    def final_views(self) -> Dict[int, List[int]]:
        """Every correct node's view, in id order (byte-compare surface)."""
        return {
            node: self.state.view_row(node)
            for node in range(self.config.n_byzantine, self.config.n_nodes)
        }

    # The finished run as :class:`repro.scenario.run.ScenarioArtifacts` reads
    # it: with ``telemetry``, ``stats`` and ``view_records``, the members a
    # ``SimulationBundle`` has under the same names.  (A record's mean is
    # the mean of *shares*, the paper's metric; ``trace_records`` holds the
    # share of *entries* — equal only while all views have one length.)

    @property
    def view_size(self) -> int:
        return self.config.view_size

    def all_views(self) -> Dict[int, Tuple[int, ...]]:
        """Every node's view in id order; Byzantine rows hold no state."""
        return {
            node: tuple(self.state.view_row(node))
            for node in range(self.config.n_nodes)
        }

    @property
    def discovery_round(self) -> int:
        """Round by which every correct node now alive had observed
        :data:`~repro.analysis.metrics.DISCOVERY_THRESHOLD` of the correct
        ids; -1 if some node has not."""
        reached = self._discovered_at[
            np.asarray(self.state.alive[self.config.n_byzantine:], dtype=bool)
        ]
        return int(reached.max()) if reached.size and reached.min() >= 0 else -1
