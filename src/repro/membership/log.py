"""Signed, monotonically ordered membership log, and per-node views of it.

Revocation must *propagate*: every trusted node has to learn, in the same
order, which devices joined, left, or were revoked, and which group-key
epoch is in force — otherwise two nodes can disagree about whether a peer
is still a member.  Proteus's append-only ledger motivates the shape: a
hash chain of records, each HMAC-signed by the provisioning service, with
strictly monotone sequence numbers.  A node's :class:`NodeMembershipView`
applies records in order and can therefore never skip or reorder a
revocation; anti-entropy between two views is "replay the suffix the peer
has already verified".

Digest and signature comparisons go through ``constant_time_equal`` —
the same discipline the auth protocol uses (and that the
``crypto-digest-compare`` rule of ``tests/test_source_invariants.py``
enforces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro.crypto.hashing import constant_time_equal, hmac_sha256, sha256

__all__ = [
    "ACTIONS",
    "MembershipRecord",
    "MembershipLog",
    "NodeMembershipView",
]

#: The four record kinds, in no particular order of precedence.
ACTIONS = ("join", "leave", "revoke", "rotate")

#: ``node_id`` used by records that concern no single node (rotations).
NO_NODE = -1

_GENESIS_DIGEST = b"\x00" * 32


def _encode_payload(
    seq: int, round_number: int, action: str, node_id: int, epoch: int,
    prev_digest: bytes,
) -> bytes:
    """Canonical byte encoding of a record's signed fields."""
    return b"|".join(
        (
            b"membership-record",
            seq.to_bytes(8, "big"),
            round_number.to_bytes(8, "big"),
            action.encode("ascii"),
            node_id.to_bytes(8, "big", signed=True),
            epoch.to_bytes(8, "big"),
            prev_digest,
        )
    )


@dataclass(frozen=True)
class MembershipRecord:
    """One entry of the membership log.

    Attributes:
        seq: 1-based, strictly monotone position in the log.
        round_number: simulation round the record was appended.
        action: one of :data:`ACTIONS`.
        node_id: the subject node, or :data:`NO_NODE` for rotations.
        epoch: the group-key epoch in force *after* this record.
        prev_digest: digest of the preceding record (hash chain).
        digest: SHA-256 over the canonical payload.
        signature: HMAC-SHA-256 of the digest under the service's log key.
    """

    seq: int
    round_number: int
    action: str
    node_id: int
    epoch: int
    prev_digest: bytes
    digest: bytes
    signature: bytes

    def payload(self) -> bytes:
        return _encode_payload(
            self.seq, self.round_number, self.action, self.node_id,
            self.epoch, self.prev_digest,
        )


class MembershipLog:
    """Append-only, hash-chained, HMAC-signed record sequence."""

    def __init__(self, signing_key: bytes):
        if len(signing_key) < 16:
            raise ValueError("log signing key must be at least 16 bytes")
        self._key = signing_key
        self._records: List[MembershipRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    @property
    def latest_seq(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Tuple[MembershipRecord, ...]:
        return tuple(self._records)

    def append(
        self, action: str, node_id: int, epoch: int, round_number: int
    ) -> MembershipRecord:
        if action not in ACTIONS:
            raise ValueError(f"unknown membership action {action!r}")
        seq = len(self._records) + 1
        prev_digest = (
            self._records[-1].digest if self._records else _GENESIS_DIGEST
        )
        digest = sha256(
            _encode_payload(seq, round_number, action, node_id, epoch, prev_digest)
        )
        record = MembershipRecord(
            seq=seq,
            round_number=round_number,
            action=action,
            node_id=node_id,
            epoch=epoch,
            prev_digest=prev_digest,
            digest=digest,
            signature=hmac_sha256(self._key, digest),
        )
        self._records.append(record)
        return record

    def verify(self, record: MembershipRecord) -> bool:
        """Check a record's digest and signature (not its chain position)."""
        if not constant_time_equal(sha256(record.payload()), record.digest):
            return False
        return constant_time_equal(
            hmac_sha256(self._key, record.digest), record.signature
        )

    def records_since(
        self, after_seq: int, upto_seq: Optional[int] = None
    ) -> Tuple[MembershipRecord, ...]:
        """Records with ``after_seq < seq <= upto_seq`` (log end if None)."""
        end = len(self._records) if upto_seq is None else upto_seq
        return tuple(self._records[after_seq:end])


class NodeMembershipView:
    """One node's verified, in-order replica of the membership log.

    A view only advances by applying the next record in sequence, after
    re-verifying its signature and chain linkage — so every view that has
    reached sequence *s* agrees exactly on members, revocations, and the
    current epoch as of *s*.
    """

    def __init__(self, node_id: int, log: MembershipLog):
        self.node_id = node_id
        self._log = log
        self.applied_seq = 0
        self.current_epoch = 0
        self._members: Set[int] = set()
        self._revoked: Set[int] = set()
        self._prev_digest = _GENESIS_DIGEST

    def bootstrap(self, members: Iterable[int]) -> None:
        """Pre-load the bootstrap roster (no log records exist for it)."""
        self._members.update(members)

    @property
    def members(self) -> Tuple[int, ...]:
        return tuple(sorted(self._members))

    @property
    def revoked(self) -> Tuple[int, ...]:
        return tuple(sorted(self._revoked))

    def is_member(self, node_id: int) -> bool:
        return node_id in self._members

    def is_revoked(self, node_id: int) -> bool:
        return node_id in self._revoked

    def apply(self, record: MembershipRecord) -> None:
        """Verify and apply the next record; raises on any gap or forgery."""
        if record.seq != self.applied_seq + 1:
            raise ValueError(
                f"out-of-order record {record.seq} "
                f"(view at {self.applied_seq})"
            )
        if not constant_time_equal(record.prev_digest, self._prev_digest):
            raise ValueError(f"record {record.seq} breaks the hash chain")
        if not self._log.verify(record):
            raise ValueError(f"record {record.seq} fails verification")
        if record.action == "join":
            self._members.add(record.node_id)
        elif record.action == "leave":
            self._members.discard(record.node_id)
        elif record.action == "revoke":
            self._members.discard(record.node_id)
            self._revoked.add(record.node_id)
        # "rotate" only moves the epoch, which every action updates below.
        self.current_epoch = record.epoch
        self.applied_seq = record.seq
        self._prev_digest = record.digest

    def catch_up(self, upto_seq: Optional[int] = None) -> int:
        """Apply every verified record up to ``upto_seq``; returns count."""
        applied = 0
        for record in self._log.records_since(self.applied_seq, upto_seq):
            self.apply(record)
            applied += 1
        return applied

    def sync_with(self, peer: "NodeMembershipView") -> int:
        """Anti-entropy pull: catch up to a peer that is further ahead.

        The records themselves come from the shared log object (the wire
        payload in a real deployment); the peer only contributes *how far*
        it has verified, so a lagging peer can never roll this view back.
        """
        if peer.applied_seq <= self.applied_seq:
            return 0
        return self.catch_up(peer.applied_seq)

    def permits(self, node_id: int, epoch: int) -> bool:
        """Gate for trusted exchanges: member, not revoked, current epoch."""
        return (
            node_id in self._members
            and node_id not in self._revoked
            and epoch == self.current_epoch
        )
