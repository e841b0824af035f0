"""The shard coordinator: K primary shards over one switch fabric.

A :class:`ShardCoordinator` partitions the network's switches across K
shards (via the :class:`~repro.shard.router.ShardRouter`), gives each
shard its own controller, :class:`~repro.core.runtime.LegoSDNRuntime`,
and :class:`~repro.replication.replicaset.ReplicaSet` of warm backups,
and owns the cross-shard concerns the shards themselves cannot see:

- **spawn**: build the K control stacks, each a controller plus
  :func:`repro.stack.control_plane` (the unsharded stack's too), then
  :meth:`start` connects every switch to its owning shard's primary
  (one call, via ``Network.start(controller_for=...)``);
- **routing**: each shard controller gets a ``shard_router`` hook so
  an event arriving at the wrong shard hops once to its owner's
  dispatch queue;
- **failover**: each shard's ReplicaSet detects and heals its own
  primary's death exactly as the unsharded one does; the coordinator
  merely re-attaches the routing hook to the promoted controller (the
  ``on_promote`` callback) -- shard failure stays *contained*, which
  is the E18 isolation claim;
- **observability**: a per-shard health document whose overall score
  is the *minimum* across shards, and per-shard trace/metric tags via
  each replica set's shard-aware telemetry.

The assignment is fixed once the coordinator is built.  Each shard's
NetLog writes only the switches that shard owns (a write to another
shard's switch is refused and counted); quorum reads layer on top:
:class:`~repro.shard.reads.ShardReadGateway`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.controller.core import Controller
from repro.core.runtime import LegoSDNRuntime, RuntimeConfig
from repro.replication.membership import ControllerReplica
from repro.replication.replicaset import ReplicaSet
from repro.shard.router import ShardRouter
from repro.stack import control_plane
from repro.telemetry import Telemetry
from repro.telemetry.health import HealthWatchdog


class ShardHandle:
    """One shard's control stack, as the coordinator sees it."""

    def __init__(self, shard_id: int, dpids: List[int],
                 replicas: ReplicaSet):
        self.shard_id = shard_id
        self.dpids = list(dpids)
        self.replicas = replicas

    @property
    def primary(self) -> Optional[ControllerReplica]:
        return self.replicas.primary

    @property
    def controller(self) -> Optional[Controller]:
        """The *currently serving* controller (changes at failover)."""
        primary = self.replicas.primary
        if primary is None or not primary.is_live:
            return None
        return primary.controller

    @property
    def runtime(self) -> Optional[LegoSDNRuntime]:
        return self.replicas.runtime

    def events_ingested(self) -> int:
        """Messages fully ingested by any of this shard's replicas
        (survives failovers: counts every incarnation)."""
        return sum(r.controller.events_ingested
                   for r in self.replicas.replicas)

    def __repr__(self) -> str:
        return (f"ShardHandle(shard={self.shard_id}, "
                f"dpids={self.dpids}, "
                f"primary={self.replicas.primary.replica_id if self.replicas.primary else None})")


class ShardCoordinator:
    """Owns shard lifecycle over one :class:`~repro.network.net.Network`.

    Build it *before* ``net.start()``; the coordinator's :meth:`start`
    wires every switch to its owning shard.  The Network's own default
    controller is left unused (inert -- never connected, never
    started).
    """

    def __init__(self, net, shards: int = 2,
                 apps: Sequence[Callable[[], object]] = (),
                 router: Optional[ShardRouter] = None,
                 backups: int = 1,
                 service_time: float = 0.0,
                 telemetry_enabled: bool = False,
                 chaos=None,
                 seed: int = 0,
                 runtime_kwargs: Optional[dict] = None,
                 telemetry_kwargs: Optional[dict] = None,
                 health_window: float = 1.0):
        self.net = net
        self.sim = net.sim
        self.router = router or ShardRouter(shards, seed=seed)
        self.seed = seed
        self.health_window = health_window
        self.shards: Dict[int, ShardHandle] = {}
        # One config value for every shard's runtime (and, through
        # failover, for every replica promoted inside a shard).
        runtime_config = RuntimeConfig(**(runtime_kwargs or {}))
        # Every shard's replicas are telemetry siblings of this one.
        configured = Telemetry(enabled=telemetry_enabled,
                               **dict(telemetry_kwargs or {}))
        assignment = self.router.partition(net.switches)
        for shard_id in sorted(assignment):
            dpids = assignment[shard_id]
            controller = Controller(
                self.sim,
                discovery_interval=net.controller.discovery.interval,
                telemetry=configured.sibling("r0", shard_id),
                service_time=service_time,
            )
            _, replicas = control_plane(
                net, controller, runtime_config, apps,
                dict(dpids=dpids, shard_id=shard_id, backups=backups,
                     chaos=chaos, seed=seed + shard_id))
            handle = ShardHandle(shard_id, dpids, replicas)
            self.shards[shard_id] = handle
            self._attach_routing(controller, shard_id)
            replicas.on_promote.append(
                lambda replica, shard_id=shard_id:
                self._attach_routing(replica.controller, shard_id))
        self._started = False

    # -- routing -----------------------------------------------------------

    def _attach_routing(self, controller: Controller,
                        shard_id: int) -> None:
        controller.shard_id = shard_id
        controller.shard_router = self.owner_controller

    def shard(self, shard_id: int) -> ShardHandle:
        return self.shards[shard_id]

    def shard_of_dpid(self, dpid: int) -> int:
        return self.router.shard_of(dpid)

    def owner_controller(self, dpid: int) -> Optional[Controller]:
        """The controller currently serving ``dpid``'s shard (None
        while that shard is between primaries)."""
        return self.shards[self.router.shard_of(dpid)].controller

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Connect every switch to its owning shard and start them."""
        if self._started:
            return
        self._started = True
        self.net.start(controller_for=self.owner_controller)

    def crash_shard_primary(self, shard_id: int,
                            reason: str = "injected shard fault") -> None:
        """Kill one shard's serving primary (the E18 isolation fault)."""
        self.shards[shard_id].replicas.crash_primary(reason)

    # -- observability -----------------------------------------------------

    def shard_health(self) -> Dict[str, object]:
        """Per-shard health, folded with *min* -- one sick shard is the
        deployment's health, never averaged away."""
        now = self.sim.now
        shards: Dict[str, dict] = {}
        overall = 1.0
        for shard_id, handle in sorted(self.shards.items()):
            rs = handle.replicas
            issues: List[str] = []
            score = 1.0
            primary = rs.primary
            if primary is None or not primary.is_live:
                score = 0.0
                issues.append("no live primary")
            else:
                if not rs.live_backups():
                    score -= 0.4
                    issues.append("no failover headroom")
                if rs.quorum_degraded:
                    score -= 0.3
                    issues.append("quorum degraded")
                if rs.failovers and \
                        now - rs.failovers[-1].at <= self.health_window:
                    score -= 0.25
                    issues.append("recent failover")
            score = max(0.0, score)
            overall = min(overall, score)
            shards[str(shard_id)] = {
                "score": round(score, 4),
                "status": HealthWatchdog.status_of(score),
                "primary": primary.replica_id if primary else None,
                "epoch": rs.epoch,
                "failovers": len(rs.failovers),
                "dpids": len(handle.dpids),
                "issues": issues,
            }
        return {
            "score": round(overall, 4),
            "status": HealthWatchdog.status_of(overall),
            "shards": shards,
        }

    def total_events_ingested(self) -> int:
        return sum(h.events_ingested() for h in self.shards.values())
