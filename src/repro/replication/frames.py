"""The primary->backup replication wire protocol.

These frames extend the AppVisor RPC inventory
(:mod:`repro.core.appvisor.rpc`) with a second, controller-to-controller
conversation carried over the same byte codec and
:class:`~repro.core.appvisor.channel.UdpChannel` plumbing, so shipping
a NetLog record has a real, measurable wire cost just like delivering
an event to an app.

Frame inventory (direction):

=============  ===============  ==========================================
Frame          Direction        Purpose
=============  ===============  ==========================================
RecordShip     primary->backup  one WAL append (message + its inverses)
TxnResolve     primary->backup  a transaction *with records* resolved
ReplHeartbeat  primary->backup  lease renewal + log position + app deltas
ReplAck        backup->primary  cumulative ack of the applied log prefix
ResyncRequest  backup->primary  ranged replay request after partition heal
=============  ===============  ==========================================

Records ship on WAL *apply* but backups fold them into their shadow
flow tables only at commit-resolve, using the shipped ``applied_at``
timestamp -- so a backup's shadow is byte-for-byte the state the
primary's NetLog committed, never a half-applied transaction.  Records
of transactions still open when the primary dies are the *orphans* the
promoted backup rolls back from their shipped inverses.  What is
replicated is the WAL: a transaction that appended nothing to it (a
PacketOut-only event) ships no record and therefore no resolve --
``ReplicaSet.resolves_elided`` counts those.

Every frame ends in an ``auth`` stamp: a truncated HMAC over the
encoding of the fields before it, keyed per replica pair
(:class:`~repro.replication.byzantine.ReplicaKeyring`).  It must stay
the *last* field: the keyring stamps and verifies the encoded bytes,
and finds the stamp at their end.  Heartbeats and
acks additionally carry a ``digest`` -- the sender's committed record
stream chain digest at its advertised resolve floor -- which is the
vote the Byzantine mode's 2f+1 acceptance counts.  Both are trailing
defaulted fields, so the packed codec's schema-evolution rule keeps
old captures decodable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.openflow.serialization import register_dataclass


@register_dataclass
@dataclass(frozen=True)
class AppDelta:
    """Per-app progress snapshot piggybacked on heartbeats.

    This is the "app-checkpoint delta": enough for a promoted backup to
    know how far each hosted app had progressed (the stub itself keeps
    the actual checkpoints -- stubs survive controller failover).
    """

    app_name: str
    last_seq: int
    events_completed: int


@register_dataclass
@dataclass(frozen=True)
class RecordShip:
    """One NetLog WAL append, shipped as it happens.

    ``index`` is the primary's monotonically increasing shipping
    sequence (gap detection); ``inverses`` ride along so a backup can
    roll back *orphaned* transactions on the real switches without
    re-deriving the inversion (whose pre-state it may not have seen).
    """

    epoch: int
    index: int
    txn_id: int
    app_name: str
    dpid: int
    message: object
    inverses: Tuple[object, ...]
    applied_at: float
    #: Causal identity of the control-loop event whose transaction
    #: produced this record (0 = untraced); lets the shipping channel's
    #: delivery/retransmission spans attach to the event's causal tree.
    trace_id: int = 0
    #: Pair-keyed HMAC over the encoding of every field before it.
    auth: bytes = b""


@register_dataclass
@dataclass(frozen=True)
class TxnResolve:
    """A shipped transaction's fate: ``outcome`` is "commit" or "abort".

    Sent iff at least one :class:`RecordShip` of the transaction was
    shipped in this epoch.  On commit the backup folds the
    transaction's records into its shadow tables; on abort it just
    discards them (the primary already sent the inverses to the
    switches itself).
    """

    epoch: int
    txn_id: int
    outcome: str
    log_index: int
    #: Set-level resolve sequence (1-based, monotonic across
    #: failovers -- unlike ``txn_id``, which restarts with each
    #: promoted primary's fresh TransactionManager).  Backups dedup
    #: and gap-detect resolves on this, never on ``txn_id``.
    resolve_seq: int = 0
    #: Causal identity of the resolved transaction's event (0 =
    #: untraced), mirroring :attr:`RecordShip.trace_id`.
    trace_id: int = 0
    #: The primary's leaf digest of this resolve's committed content
    #: (:func:`~repro.replication.byzantine.resolve_leaf`).  A backup
    #: whose own computation disagrees abstains from voting the resolve
    #: until a resync heals it -- so a gap can stall its vote but never
    #: poison its chain digest.
    leaf: int = 0
    #: Pair-keyed HMAC over the encoding of every field before it.
    auth: bytes = b""


@register_dataclass
@dataclass(frozen=True)
class ReplHeartbeat:
    """Lease renewal from the primary.

    ``log_index`` is the highest shipping sequence sent so far, so a
    backup can detect that it missed records even across an otherwise
    quiet period.  ``sent_at`` is the primary's sim-clock send time.
    """

    epoch: int
    log_index: int
    sent_at: float
    app_deltas: Tuple[AppDelta, ...] = ()
    #: Total transaction resolves shipped so far (record-bearing
    #: transactions only: the others ship none) -- the second lag
    #: axis: a backup can be caught up on records yet missing the
    #: resolve that folds them (partition sliced mid-transaction).
    resolve_count: int = 0
    #: The primary's committed-stream chain digest at ``resolve_count``
    #: -- its own vote, which backups compare against their ledgers.
    digest: int = 0
    #: Pair-keyed HMAC over the encoding of every field before it.
    auth: bytes = b""


@register_dataclass
@dataclass(frozen=True)
class ReplAck:
    """Backup's cumulative acknowledgement.

    Flow-control/telemetry in async mode; in quorum mode the primary
    counts these toward majority before declaring a commit durable.
    """

    replica_id: str
    epoch: int
    log_index: int
    #: How many resolves this backup has processed (quorum mode counts
    #: a commit as acked once the backup's resolve count passes it).
    resolve_count: int = 0
    #: The backup's vote: its chain digest at ``digest_floor``.
    #: Matching the primary's digest at the same floor means
    #: byte-identical committed histories up to it.  ``digest_floor``
    #: can lag ``resolve_count`` when the backup is abstaining from a
    #: resolve whose records it has not yet fully received.
    digest: int = 0
    digest_floor: int = 0
    #: Pair-keyed HMAC over the encoding of every field before it.
    auth: bytes = b""


@register_dataclass
@dataclass(frozen=True)
class ResyncRequest:
    """A healed backup asking for a *ranged* NetLog replay.

    Sent when a heartbeat advertises ``log_index``/``resolve_count``
    ahead of what the backup contiguously holds -- the signature of a
    partition window in which the shipping channel's retry budgets
    were exhausted.  ``from_index`` is the backup's contiguous high
    -water mark: the primary replays only records with index >
    ``from_index`` (and the resolves folding them), never the full
    log.
    """

    replica_id: str
    epoch: int
    from_index: int
    to_index: int
    #: Contiguous resolve high-water mark: the primary replays
    #: resolves with ``resolve_seq`` past this too (a partition can
    #: slice between a transaction's records and its resolve).
    from_resolve: int = 0
    #: Pair-keyed HMAC over the encoding of every field before it.
    auth: bytes = b""
