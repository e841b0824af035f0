"""Quorum reads over the sharded control plane.

Backups are not just failover insurance: each one holds a replicated
shadow of its shard's committed flow state, kept warm by NetLog
shipping.  The gateway lets operators and apps read that state
*without touching any primary*, under an explicit freshness contract:

- a backup may answer only if it provably reflects everything its
  primary resolved up to ``now - freshness`` (heartbeat high-water
  marks decide eligibility -- see :meth:`~repro.replication.replicaset.
  ReplicaSet.read_eligible`);
- when loss or partition leaves no backup eligible, the read falls
  back to the primary (staleness 0) rather than serving silently
  stale data -- chaos degrades *where the answer comes from*, never
  the bound itself;
- ``quorum_met`` reports whether a majority-sized live cohort stood
  behind the answer.
"""

from __future__ import annotations

from typing import Optional

from repro.replication.replicaset import QuorumReadResult


class ShardReadGateway:
    """Routes freshness-bounded reads to the owning shard's replicas."""

    def __init__(self, coordinator, freshness: float = 0.5):
        self.coordinator = coordinator
        #: Default staleness bound (seconds of sim time) for reads that
        #: do not pass their own.
        self.freshness = freshness

    def flow_rules(self, dpid: int,
                   freshness: Optional[float] = None) -> QuorumReadResult:
        """The committed flow rules for one switch, served by the
        freshest eligible backup of the owning shard."""
        bound = self.freshness if freshness is None else freshness
        shard_id = self.coordinator.shard_of_dpid(dpid)
        return self.coordinator.shard(shard_id).replicas.quorum_read(
            dpid, freshness=bound)
