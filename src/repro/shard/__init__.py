"""Sharded multi-primary control plane (the E18 subsystem).

One primary serialises every control-plane event; this package divides
the switch space across K primary shards -- each a full LegoSDN stack
(controller + AppVisor runtime + NetLog + ReplicaSet of warm backups)
serving a disjoint dpid subset -- while keeping the single-controller
guarantees where they matter:

- :class:`~repro.shard.router.ShardRouter` -- deterministic dpid
  placement (rendezvous hashing + pins), fixed for the deployment;
- :class:`~repro.shard.coordinator.ShardCoordinator` -- shard
  lifecycle: spawn, routing, per-shard failover containment, merged
  health;
- :class:`~repro.shard.crosstxn.CrossShardTxnManager` -- two-phase
  NetLog transactions spanning shards, presumed abort, epoch-fenced
  compensation;
- :class:`~repro.shard.reads.ShardReadGateway` -- freshness-bounded
  quorum reads served from warm backups.
"""

from repro.shard.coordinator import ShardCoordinator, ShardHandle
from repro.shard.crosstxn import CrossShardTxnManager
from repro.shard.reads import ShardReadGateway
from repro.shard.router import ShardRouter

__all__ = [
    "CrossShardTxnManager",
    "ShardCoordinator",
    "ShardHandle",
    "ShardReadGateway",
    "ShardRouter",
]
