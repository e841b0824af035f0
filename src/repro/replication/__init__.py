"""Controller replication: primary-backup HA via NetLog shipping.

LegoSDN removes the SDN-App <-> controller fate-sharing; this package
removes the controller itself as a single point of failure, in the
SMaRtLight style (a small primary-backup replicated control plane with
a lease-based failure detector and fencing).  AppVisor stubs survive a
failover and re-attach to the promoted backup's proxy with their state
and checkpoints intact; Crash-Pad keeps handling *app* failures
unchanged on whichever replica is primary.

A :class:`~repro.replication.replicaset.ReplicaSet` is the composition
root over four parts, each owning one decision and the state only it
writes:

- :mod:`~repro.replication.shipping` -- the ship rule: every NetLog
  write travels as a record, every transaction that wrote as a resolve
  (:mod:`~repro.replication.frames`); heartbeats, acks, the ranged
  resync that heals a partition, and the gates quorum commit and
  output voting wait in;
- :mod:`~repro.replication.voting` -- the vote and quarantine policy:
  chain digests folded leaf by leaf, 2f+1 matching votes in BYZANTINE
  mode, liars quarantined, every suspicion escalating the adaptive
  mode policy (:mod:`~repro.replication.byzantine` holds the keys,
  digests and policy machine);
- :mod:`~repro.replication.membership` -- the lease and election: the
  replica records, the lowest-id live backup elected once the primary
  goes silent, and the epoch that fences a superseded primary out of
  every switch (:class:`~repro.replication.fence.EpochFence`);
- :mod:`~repro.replication.promotion` -- the failover steps: switch
  takeover, tail replay, orphan rollback from shipped inverses, stub
  adoption.

The root answers freshness-bounded quorum reads and measures
divergence.
"""

from repro.replication.byzantine import (
    AuthFault,
    DigestLedger,
    ModeSwitch,
    ReplicaKeyring,
    ReplicationMode,
    ReplicationModePolicy,
    chain_digest,
    resolve_leaf,
    tolerable_f,
    vote_threshold,
)
from repro.replication.fence import EpochFence
from repro.replication.frames import (
    AppDelta,
    RecordShip,
    ReplAck,
    ReplHeartbeat,
    TxnResolve,
)
from repro.replication.membership import ControllerReplica, ReplicaRole
from repro.replication.promotion import FailoverRecord
from repro.replication.replicaset import ReplicaSet

__all__ = [
    "AppDelta",
    "AuthFault",
    "ControllerReplica",
    "DigestLedger",
    "EpochFence",
    "FailoverRecord",
    "ModeSwitch",
    "RecordShip",
    "ReplAck",
    "ReplHeartbeat",
    "ReplicaKeyring",
    "ReplicaRole",
    "ReplicaSet",
    "ReplicationMode",
    "ReplicationModePolicy",
    "TxnResolve",
    "chain_digest",
    "resolve_leaf",
    "tolerable_f",
    "vote_threshold",
]
