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

Deliberate, documented differences from the legacy object engine (the
shard engine has its own differential suite — shards=1 vs shards=4 must be
byte-identical; it does not reproduce legacy byte streams):

* Trusted swaps never mutate a view mid-round; both halves of a swap land
  in the pulled pool and take effect at renewal (BSP discipline).
* Transport encryption is *modeled* as deterministic byte accounting
  (64 bytes framing + 8 per carried id per delivered leg) instead of
  running AES over pickled payloads.
* Min-wise samplers are fed only ids *new to the node* (duplicate feeds
  cannot change a min), and a sampler reset replays the node's known live
  ids under its fresh hash — the incremental form of "min over everything
  the node has observed".
* A sampler retains the lexicographically smallest ``(hash, id)`` pair —
  the id tiebreak (probability ~2^-31 per pair) makes both backends and
  any shard count agree exactly.
* System discovery counts what a node *observed* — its ``known`` row
  (pushed and pulled ids, after eviction) plus itself; the per-node
  engines also count the bootstrap view and evicted ids.  The metric
  definitions themselves are :mod:`repro.analysis.metrics`' on every engine.

Backend strategy: the pure-Python paths are the readable reference, run
only when a differential test passes ``use_numpy=False``; the numpy paths
compute the *same integers* with no per-node and no per-session Python
loop.  Data layout of a numpy round:

* **plan** emits arrays — pushes as flat ``(src, seq, dst, ok)`` columns,
  pull sessions as ``[nodes, β]`` matrices (:class:`SessionArrays`) whose
  eight RAPTEE legs are boolean masks over ``[nodes, β]`` loss-key
  matrices (Brahms is the pull pair of the same masks);
* **barrier** concatenates them and sorts the pushes once (one packed
  ``(src, dst, seq)`` key);
* **apply** is a segment kernel over flat ``(owner, id)`` arrays: pulled
  batches are gathered as a ``[batches, l1]`` view-matrix slice in stream
  order and turned, in place, into one column of flat cells
  ``(owner − node_a) · N + id`` — owner-ascending, so one ``searchsorted``
  gives each owner's segment, the trusted owners' eviction runs over a
  prefix, and the cells index the marks directly.  Novelty and per-owner
  uniqueness fall out of one dense ``[owners, N]`` mark-and-scan against
  unpacked ``known`` rows, keyed subsets are a per-segment keyed rank,
  and the delta comes back as arrays (fresh ids as packed rows) that
  ``_integrate`` writes once per field.
  Owners are processed in blocks under :data:`_BLOCK_ELEMENTS`, and fresh
  ``(owner, id)`` pairs never leave their block, so no array grows with
  the round-1 flood.
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
from repro.sim.network import NetworkStats
from repro.sim.node import NodeKind
from repro.sim.observers import RoundRecord

__all__ = ["ShardSimulation", "plan_partition", "apply_partition", "merge_plans"]

_P = MERSENNE_PRIME_31
_FLOAT_SCALE = 2.0 ** -53
#: Per-session leg indices (RAPTEE runs all eight, Brahms the pull pair).
_LEG_CH_FWD, _LEG_CH_REP = 0, 1
_LEG_CONF_FWD, _LEG_CONF_REP = 2, 3
_LEG_PULL_FWD, _LEG_PULL_REP = 4, 5
_LEG_SWAP_FWD, _LEG_SWAP_REP = 6, 7
_FRAME_BYTES = 64
_ID_BYTES = 8


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
            result.enc_bytes += _FRAME_BYTES + _ID_BYTES * payload_ids

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
        # trust; the callee only honours it if the confirm registered.
        if both_trusted:
            result.requests += 1
            if lost(_LEG_SWAP_FWD):
                result.losses += 1
            elif conf_ok:
                wire(_view_len_of(state, src))
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
    bsrc = np.asarray(adv_src, dtype=np.int64)
    bseq = np.asarray(adv_seq, dtype=np.int64)
    src = np.concatenate([np.repeat(nodes, width), bsrc])
    seq = np.concatenate(
        [np.tile(np.arange(width, dtype=np.int64), nodes.size), bseq]
    )
    dst = np.concatenate([
        _keyed_view_entries(config, state, Purpose.PUSH_TARGET, round_no,
                            nodes, width).ravel(),
        np.asarray(adv_dst, dtype=np.int64),
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
    # the callee only honours it if the confirm registered.
    swapping = pulling & both_trusted
    if swapping.any():
        swap_arrived = swapping & ~lost(_LEG_SWAP_FWD)
        callee_effect = swap_arrived & conf_ok
        caller_swap = callee_effect & ~lost(_LEG_SWAP_REP)
        requests += count(swapping)
        replies += count(caller_swap)
        losses += (count(swapping) - count(swap_arrived)
                   + count(callee_effect) - count(caller_swap))
        frames += count(callee_effect) + count(caller_swap)
        if config.encrypt:
            src_len = np.broadcast_to(state.view_len[nodes][:, None], shape)
            payload_ids += int(src_len[callee_effect].sum())
            payload_ids += int(state.view_len[dst[caller_swap]].sum())

    plan.sess_arrays = SessionArrays(
        nodes, dst, answered, answered & both_trusted, caller_swap, callee_effect
    )
    plan.sess_requests = requests
    plan.sess_replies = replies
    plan.sess_losses = losses
    if config.encrypt:
        plan.sess_bytes = _FRAME_BYTES * frames + _ID_BYTES * payload_ids


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
    #: numpy backend: full canonical (src, dst, seq, ok) push arrays ...
    push_canonical: Optional[Tuple] = None
    #: ... and the delivered subset re-sorted by (dst, src, seq), with the
    #: destination column first — the apply phase's delivery index.
    push_by_dst: Optional[Tuple] = None
    #: numpy backend: every session of the round, sources ascending.
    sess_arrays: Optional[SessionArrays] = None
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

    Pushes are merged and stably sorted by ``(round, src, dst, seq)``
    (round is constant inside a barrier); pull sessions carry the unique
    per-source slot ``seq = k``, so their construction order — sources
    ascending across partitions, slots ascending within a source — already
    *is* the ``(round, src, seq)`` order and needs no re-sort.  Every
    downstream consumer (stats, traces, per-destination delivery) iterates
    these canonical orders, so nothing can depend on how the plans were
    partitioned or scheduled.
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
        # One packed (src, dst, seq) key per push; (src, seq) names a push,
        # so keys are unique and any sort yields the one canonical order.
        span = int(dst.max(initial=0)) + 1
        width = int(seq.max(initial=0)) + 1
        order = np.argsort((src * span + dst) * width + seq)
        src, seq, dst, ok = src[order], seq[order], dst[order], ok[order]
        barrier.push_canonical = (src, dst, seq, ok)
        # The delivered subset is still (src, dst, seq)-ordered: a stable
        # sort by dst alone makes it (dst, src, seq).  Narrowed because
        # numpy's stable sort is a radix sort on keys of 16 bits or fewer.
        dsrc, ddst = src[ok], dst[ok]
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


# -- apply phase --------------------------------------------------------------


@dataclass
class PartitionDelta:
    """State changes computed by one partition's apply pass.

    The pure backend fills the per-node lists; the numpy backend the
    ``*_arrays`` and ``known_bits``, which ``_integrate`` writes once each.
    """

    lo: int
    hi: int
    new_views: List[Tuple[int, Sequence[int]]] = field(default_factory=list)
    #: Per node: (node, sampler index sequence, packed value sequence).
    samp_updates: List[Tuple[int, Sequence[int], Sequence[int]]] = field(
        default_factory=list
    )
    known_additions: List[Tuple[int, Sequence[int]]] = field(default_factory=list)
    #: numpy: (nodes[r], rows[r, l1] padded with -1, lens[r]).
    view_arrays: Optional[Tuple] = None
    #: numpy: flat (node, sampler index, packed value) triples.
    samp_arrays: Optional[Tuple] = None
    #: numpy: the fresh ids of owners ``[max(lo, n_byzantine), hi)``, one
    #: packed row each (uint8, the layout of ``ShardState.known``).
    known_bits: Optional[np.ndarray] = None
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
            config.eviction_kind != "none"
            and config.is_trusted(node)
            and untrusted_ids
        ):
            share = trusted_contacts / contacts if contacts else 0.0
            rate = config.eviction_rate(share)
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


#: Element budget for the segment kernel's per-block temporaries: owners
#: are processed in blocks whose gathered ``[batches, l1]`` cells plus
#: dense ``[owners, N]`` marks stay under it, so one block covers a whole
#: N = 1,000 partition (250 owners at l1 = 20: ~290 k elements).  On a
#: 2-vCPU Xeon @ 2.1 GHz, 2^18 / 2^19 / 2^20 / 2^21 gave `shard-raptee-1k`
#: `run_s` 0.312 / 0.269 / 0.270 / 0.272 s and `shard-brahms-4k` 1.81 /
#: 1.78 / 1.79 / 1.89 s (medians of six round-robin ledger runs), the
#: latter peaking at 91 / 96 / 104 / 128 MiB; the N = 10,000 apply phase
#: (round 5, shards = 4) took 2.39 / 2.26 / 2.02 / 2.37 s (medians of 12
#: interleaved runs on one frozen state).  Past 2^19 the saved numpy calls
#: stop paying for the spilled cache and round 1's larger fresh blocks.
_BLOCK_ELEMENTS = 1 << 19
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


def _pulled_batches_numpy(sess: SessionArrays, base: int, hi: int):
    """The pulled batches owed to owners in ``[base, hi)``, in stream order.

    Returns parallel per-batch columns ``(owner, peer, slot, trusted)`` —
    ``peer`` is the node whose view the batch carries (a Byzantine peer
    answers with its fake window, keyed by ``slot``) — sorted by owner and,
    per owner, in the order `_apply_nodes_pure` streams them: trusted
    batches first (pull answers by slot with the caller half of a swap
    right behind its answer, then callee-side swap effects in (caller, k)
    order), untrusted answers by slot after them.  Also returns per-owner
    ``contacts`` / ``trusted_contacts`` counts and the number of completed
    caller swaps.
    """
    span = hi - base
    first, last = np.searchsorted(sess.src, (base, hi))
    src, dst = sess.src[first:last], sess.dst[first:last]
    a_row, a_slot = np.nonzero(sess.answered[first:last])
    a_trusted = sess.trusted_batch[first:last][a_row, a_slot]
    c_row, c_slot = np.nonzero(sess.caller_swap[first:last])
    e_row, e_slot = np.nonzero(
        sess.callee_effect & (sess.dst >= base) & (sess.dst < hi)
    )
    e_owner = sess.dst[e_row, e_slot]
    owner = np.concatenate([src[a_row], src[c_row], e_owner])
    peer = np.concatenate([dst[a_row, a_slot], dst[c_row, c_slot], sess.src[e_row]])
    slot = np.concatenate([a_slot, c_slot, e_slot])
    trusted = np.concatenate([
        a_trusted, np.ones(c_row.size + e_row.size, dtype=bool),
    ])
    group = np.concatenate([
        np.where(a_trusted, 0, 2), np.zeros(c_row.size, dtype=np.int64),
        np.ones(e_row.size, dtype=np.int64),
    ])
    within = np.concatenate([
        2 * a_slot, 2 * c_slot + 1, np.arange(e_row.size, dtype=np.int64),
    ])
    order = np.lexsort((within, group, owner))
    a_local = src[a_row] - base
    callee_swaps = np.bincount(e_owner - base, minlength=span)
    contacts = np.bincount(a_local, minlength=span) + callee_swaps
    trusted_contacts = (
        np.bincount(a_local[a_trusted], minlength=span) + callee_swaps
    )
    return ((owner[order], peer[order], slot[order], trusted[order]),
            contacts, trusted_contacts, int(c_row.size))


def _apply_segments_numpy(config, state, round_no, lo, hi, barrier, delta,
                          validate) -> None:
    """The array form of `_apply_nodes_pure` for the whole partition: every
    per-node list there is a segment of a flat ``(owner, id)`` array here,
    in the same element order, and every keyed draw uses the same
    coordinates.  Dead owners need no filter: nothing is delivered to, and
    no session starts from, a node that was dead at the start of the round.
    """
    base = max(lo, config.n_byzantine)
    if base >= hi:
        return
    batches, contacts, trusted_contacts, delta.trusted_exchanges = (
        _pulled_batches_numpy(barrier.sess_arrays, base, hi)
    )
    batch_end = np.searchsorted(batches[0], np.arange(base, hi) + 1)
    batch_count = np.diff(batch_end, prepend=0)
    cost = batch_count * config.view_size + config.n_nodes
    views, samples, known = [], [], []
    for a, b in _owner_blocks(cost, _BLOCK_ELEMENTS):
        first = int(batch_end[a - 1]) if a else 0
        block = tuple(column[first:int(batch_end[b - 1])] for column in batches)
        renewed, bits, fresh = _apply_block_numpy(
            config, state, round_no, base + a, base + b, barrier.push_by_dst,
            block, contacts[a:b], trusted_contacts[a:b], delta,
        )
        if renewed is not None:
            views.append(renewed)
        known.append(bits)
        if fresh[1].size:
            samples.append(_sampler_feed_numpy(state, base + a, base + b, *fresh))
        if validate:
            _validate_block_numpy(config, state, round_no, base + a, base + b,
                                  fresh, delta)
    delta.view_arrays = _concat_columns(views)
    delta.samp_arrays = _concat_columns(samples)
    delta.known_bits = np.concatenate(known)


def _concat_columns(blocks: List[Tuple]) -> Optional[Tuple]:
    """Per-block tuples of parallel arrays → one tuple (None if no block
    produced any)."""
    if len(blocks) <= 1:
        return blocks[0] if blocks else None
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _apply_block_numpy(config, state, round_no, node_a, node_b, push_by_dst,
                       batches, contacts, trusted_contacts, delta):
    """One owner block ``[node_a, node_b)`` of the segment kernel: counts
    go to ``delta``; returns the block's ``(nodes, rows, lens)`` renewed
    views (None when there are none), its fresh ids as packed rows and as
    ``(owner, id)`` pairs, owner-sorted with ids ascending per owner."""
    seed = config.seed
    n_byz = config.n_byzantine
    owners = node_b - node_a

    # Delivered pushes, (owner, src, seq)-ordered, minus self-pushes.
    ddst, dsrc = push_by_dst
    first, last = np.searchsorted(ddst, (node_a, node_b))
    p_owner, p_src = ddst[first:last], dsrc[first:last]
    not_self = p_src != p_owner
    p_owner, p_src = p_owner[not_self], p_src[not_self]
    push_len = np.bincount(p_owner - node_a, minlength=owners)

    # Pulled ids: one [batches, l1] gather (rows are -1 padded; Byzantine
    # rows are all padding until the fake window is written in), flattened
    # row-major so the stream order of the batches carries over to ids.
    b_owner, b_peer, b_slot, b_trusted = batches
    ids = state.view[b_peer]
    fake = np.flatnonzero(b_peer < n_byz)
    if fake.size:
        start = key_array(
            seed, Purpose.FAKE_VIEW, round_no,
            b_owner[fake].astype(np.uint64), b_slot[fake].astype(np.uint64),
        ) % np.uint64(n_byz)
        window = np.arange(min(config.view_size, n_byz), dtype=np.int64)
        ids[fake, : window.size] = (
            start.astype(np.int64)[:, None] + window[None, :]
        ) % n_byz
    valid = (ids >= 0) & (ids != b_owner[:, None])
    # Each id becomes its flat cell ``(owner − node_a) · N + id`` of the
    # block's ``[owners, N]`` marks, in place, and one compress leaves the
    # pulled stream as one column.  Cells ascend by owner (not by id inside
    # an owner), so ``cell < o · N`` holds on a prefix and one searchsorted
    # finds every owner's segment.  The gather is the block's largest
    # temporary: it goes as soon as the cells exist.
    n = config.n_nodes
    ids += ((b_owner - node_a) * n)[:, None]
    cells = ids[valid]
    del ids

    # Byzantine eviction (§IV-C): trusted owners drop a keyed share of
    # their untrusted ids.  Trusted ids ``[n_byz, n_byz + n_trusted)`` are
    # the lowest correct ids and a block starts at or above ``n_byz``, so
    # their batches and their cells are prefixes of the block's.
    t_owners = min(n_byz + config.n_trusted, node_b) - node_a
    if config.eviction_kind != "none" and t_owners > 0:
        t_batches = int(np.searchsorted(b_owner, node_a + t_owners))
        at_risk = np.flatnonzero(np.repeat(
            ~b_trusted[:t_batches], valid[:t_batches].sum(axis=1),
        ))
        if at_risk.size:
            r_local = cells[at_risk] // n
            index, total = _segment_index(r_local, t_owners)
            share = np.divide(trusted_contacts[:t_owners], contacts[:t_owners],
                              out=np.zeros(t_owners),
                              where=contacts[:t_owners] > 0)
            keep = total - np.rint(
                config.eviction_rates(share) * total
            ).astype(np.int64)
            delta.evicted += int((total - np.maximum(keep, 0)).sum())
            cells = np.delete(cells, at_risk[~_keyed_keep_numpy(
                config, round_no, Purpose.EVICT_KEEP, r_local + node_a, index,
                keep[r_local],
            )])
    pull_bounds = np.searchsorted(cells, np.arange(owners + 1) * n)
    pull_len = np.diff(pull_bounds)

    # Novelty + per-owner sorted unique in one pass: mark every observed
    # (owner, id), clear what the owner already knew (for bools ``>`` is
    # "and not", with no ``~known`` temporary), scan.  Flat indices: the
    # 1-D scatter and scan are several times faster than their 2-D forms.
    marks = np.zeros(owners * n, dtype=bool)
    marks[(p_owner - node_a) * n + p_src] = True
    marks[cells] = True
    known = np.unpackbits(state.known[node_a:node_b], axis=1, count=n)
    np.greater(marks, known.view(bool).reshape(-1), out=marks)
    hit = np.flatnonzero(marks)
    f_local = hit // n
    f_id = hit - f_local * n

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

        # β: keyed picks from the owner's pulled segment, cells back to ids.
        node_col = r_nodes.astype(np.uint64)[:, None]
        beta_keys = key_array(
            seed, Purpose.RENEW_PULL, round_no, node_col,
            np.arange(config.beta_count, dtype=np.uint64)[None, :],
        )
        picks = (beta_keys % pull_len[r_local].astype(np.uint64)[:, None])
        beta_cols = alpha_len[:, None] + np.arange(config.beta_count)[None, :]
        row_col = np.arange(r_local.size)[:, None]
        rows[row_col, beta_cols] = (
            cells[pull_bounds[r_local][:, None] + picks.astype(np.int64)]
            - (r_local * n)[:, None]
        )
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
    bits = np.packbits(marks.reshape(owners, n), axis=1)
    return renewed, bits, (f_local + node_a, f_id)


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

    ``shards`` controls partitioning, ``workers`` how many threads run the
    partition phases over the shared state (``1`` → inline; see
    :mod:`repro.shard.pool`).  Both are *performance* knobs: the barrier
    makes every output byte-identical across any combination — that is the
    property the shard differential suite pins.
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
        self._bounds = partition_bounds(config.n_nodes, shards)
        # What the paper's metrics are read from, per correct node: each
        # round's Byzantine view shares (NaN while the node is down) and
        # the round it discovered the system.
        self._view_shares: List = []
        self._discovered_at = np.full(config.n_nodes - config.n_byzantine, -1,
                                      dtype=np.int64)

    # -- faults ---------------------------------------------------------------

    def _apply_crash_schedule(self) -> None:
        for node, at_round, down_rounds in self.config.crashes:
            if self.round_number == at_round:
                self.state.alive[node] = False
                self._emit("shard.crash", node=node)
                self._count("faults.crashes", 1)
            elif self.round_number == at_round + down_rounds:
                self.state.alive[node] = True
                self._emit("shard.restart", node=node)

    def _effective_loss(self) -> float:
        keep = 1.0 - self.config.loss_rate
        for first, last, rate in self.config.loss_bursts:
            if first <= self.round_number <= last:
                keep *= 1.0 - rate
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
        plans = self._run_plans(round_no, eff_loss)
        barrier = merge_plans(plans, self.state.use_numpy)
        self._record_barrier(round_no, barrier)
        deltas = self._run_applies(round_no, barrier)
        self._integrate(deltas)
        self._close_round(round_no, barrier, deltas)

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
            if delta.view_arrays is not None:
                nodes, rows, lens = delta.view_arrays
                state.view[nodes] = rows
                state.view_len[nodes] = lens
            if delta.samp_arrays is not None:
                nodes, slots, packed = delta.samp_arrays
                state.samp_best[nodes, slots] = packed
            if delta.known_bits is not None:
                bits = delta.known_bits
                state.known[delta.hi - len(bits):delta.hi] |= bits
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
        stats.per_round_pushes[round_no] += barrier.pushes_sent
        stats.per_round_requests[round_no] += barrier.requests_sent
        stats.per_round_losses[round_no] += barrier.messages_lost
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
        if barrier.push_canonical is not None:
            psrc, pdst, _pseq, pok = barrier.push_canonical
            for i in range(psrc.size):
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
        self._view_shares.append(np.where(alive, shares, np.nan))
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
            # Byzantine ids (its top n_byz % 8 bits).
            head, rem = divmod(n_byz, 8)
            rows = state.known[n_byz:, head:]
            counts = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
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
    # it: with ``telemetry`` and ``stats``, the members a ``SimulationBundle``
    # has under the same names.  Records are built here, when read.

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
    def view_records(self) -> List[RoundRecord]:
        """What :class:`~repro.sim.observers.ViewTraceObserver` records on
        the per-node engines: per round, the Byzantine share of every alive
        correct view, also grouped by node kind.  (A record's mean is the
        mean of *shares*, the paper's metric; ``trace_records`` holds the
        share of *entries* — equal only while all views have one length.)"""
        config = self.config
        nodes = range(config.n_byzantine, config.n_nodes)
        kinds = [
            NodeKind.for_banded_id(node, config.n_byzantine, config.n_trusted)
            for node in nodes
        ]
        records = []
        for round_no, shares in enumerate(self._view_shares, start=1):
            record = RoundRecord(round_no)
            for node, kind, share in zip(nodes, kinds, shares.tolist()):
                if share == share:  # not NaN: the node was up
                    record.byzantine_fraction[node] = share
                    record.by_kind.setdefault(kind, []).append(share)
            records.append(record)
        return records

    @property
    def discovery_round(self) -> int:
        """Round by which every correct node now alive had observed
        :data:`~repro.analysis.metrics.DISCOVERY_THRESHOLD` of the correct
        ids; -1 if some node has not."""
        reached = self._discovered_at[
            np.asarray(self.state.alive[self.config.n_byzantine:], dtype=bool)
        ]
        return int(reached.max()) if reached.size and reached.min() >= 0 else -1
