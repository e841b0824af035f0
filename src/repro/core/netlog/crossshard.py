"""The cross-shard transaction envelope: NetLog's two-phase unit.

A sharded control plane (:mod:`repro.shard`) still has to install
multi-switch state atomically even when the switches live on different
shards -- a routing app's path may cross a shard boundary.  The
envelope records one such logical transaction: which shards
participate, which local NetLog transaction carries each shard's
branch, and how far through the two-phase protocol the whole thing
got.

The protocol (:class:`~repro.shard.crosstxn.CrossShardTxnManager`) is
**presumed abort** over the existing NetLog machinery:

- *prepare*: open a local transaction on every participant shard's
  primary and apply that shard's writes through it.  Records ship to
  the shard's backups as they always do, so each branch is exactly as
  durable as any single-shard transaction;
- *decide*: commit every branch, or abort every branch (NetLog
  inversion undoes the prepared writes on shadow and switches alike);
- *recover*: a coordinator that dies between prepare and decide left
  only OPEN local transactions behind -- each shard's own failover
  orphan-rollback (or the deadline scheduled at prepare time) inverts
  them, so silence means abort and no shard ever blocks waiting on a
  dead coordinator;
- *compensate*: if a participant's primary dies mid-commit -- after
  some branches committed but before its own did -- the dead shard's
  promoted backup rolls the un-resolved branch back as an orphan,
  and the coordinator re-applies the *inverses* of the already
  committed branches as fresh compensation transactions, restoring
  every shard to the pre-envelope state.

Epoch fencing keeps all of this safe against zombies: any write a
superseded primary still manages to emit carries a stale epoch and is
rejected at the switch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class CrossTxnState(enum.Enum):
    PREPARING = "preparing"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"
    #: Aborted *after* some branches had committed: the committed
    #: branches were undone with compensation transactions.
    COMPENSATED = "compensated"


@dataclass
class CrossTxnParticipant:
    """One shard's branch of a cross-shard transaction."""

    shard_id: int
    #: The local NetLog transaction carrying this branch (held so the
    #: decision phase can tell whether the branch is still OPEN on a
    #: still-current manager, or was orphaned by a failover).
    txn: object
    #: The TransactionManager the branch was begun on.  Compared
    #: against the shard's *current* manager at decision time -- a
    #: mismatch means the shard failed over in between and the branch
    #: is gone (rolled back as an orphan by the promotion).
    manager: object
    #: The writes, kept for reporting: (dpid, message) pairs.
    writes: Tuple = ()
    committed: bool = False
    compensated: bool = False


@dataclass
class CrossTxnEnvelope:
    """One cross-shard transaction, from prepare to terminal state."""

    cross_id: int
    app_name: str
    opened_at: float
    state: CrossTxnState = CrossTxnState.PREPARING
    participants: List[CrossTxnParticipant] = field(default_factory=list)
    #: Why the envelope aborted (empty for committed envelopes).
    abort_reason: str = ""
    decided_at: Optional[float] = None
    trace_id: Optional[int] = None

    @property
    def shard_ids(self) -> List[int]:
        return [p.shard_id for p in self.participants]

    def participant(self, shard_id: int) -> Optional[CrossTxnParticipant]:
        for part in self.participants:
            if part.shard_id == shard_id:
                return part
        return None
