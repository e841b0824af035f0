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
  an event arriving at the wrong shard (rebalance in flight, operator
  repin) hops once to its owner's dispatch lanes;
- **failover**: each shard's ReplicaSet detects and heals its own
  primary's death exactly as the unsharded one does; the coordinator
  merely re-attaches the routing hook to the promoted controller (the
  ``on_promote`` callback) -- shard failure stays *contained*, which
  is the E18 isolation claim;
- **membership**: :meth:`rebalance` moves dpids to their new owners
  after a router change, reconnecting only the switches whose owner
  actually changed (rendezvous hashing keeps that set minimal);
- **observability**: merged per-shard Prometheus exposition
  (``shard`` labels), a per-shard health document whose overall score
  is the *minimum* across shards, and per-shard trace/metric tags via
  each replica set's shard-aware telemetry.

Cross-shard transactions and quorum reads layer on top:
:class:`~repro.shard.crosstxn.CrossShardTxnManager` and
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
from repro.telemetry.export import prometheus_text
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

    @property
    def telemetry(self) -> Optional[Telemetry]:
        primary = self.replicas.primary
        return primary.telemetry if primary is not None else None

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
        #: Coordinator-level telemetry: cross-shard transaction spans
        #: and coordinator counters live here, not on any one shard.
        self.telemetry = Telemetry(enabled=telemetry_enabled,
                                   replica_id="coord")
        self.telemetry.bind_clock(lambda: self.sim.now)
        self.shards: Dict[int, ShardHandle] = {}
        self.rebalances = 0
        self.dpids_moved = 0
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

    def rebalance(self) -> List[int]:
        """Re-derive ownership from the router and move what changed.

        Call after mutating the router (add/remove/pin).  Only dpids
        whose owner actually changed are touched: each is disconnected
        from its old shard's controller (a dispatch-visible
        SwitchLeave there) and connected to the new owner (SwitchJoin).
        The moved switch's fence is re-pointed at the new shard's
        epoch fence; replication state for it follows on the new
        shard's next stats poll and subsequent NetLog traffic.
        Returns the moved dpids.
        """
        assignment = self.router.partition(self.net.switches)
        moved: List[int] = []
        for shard_id, dpids in sorted(assignment.items()):
            handle = self.shards.get(shard_id)
            if handle is None:
                raise ValueError(
                    f"router names shard {shard_id} but the coordinator "
                    "never spawned it")
            for dpid in dpids:
                if dpid in handle.dpids:
                    continue
                old = next(h for h in self.shards.values()
                           if dpid in h.dpids)
                switch = self.net.switches[dpid]
                old_controller = old.controller
                if (old_controller is not None
                        and dpid in old_controller.channels):
                    old_controller.channels.pop(dpid)
                    old_controller.switch_disconnected(dpid)
                old.dpids.remove(dpid)
                old.replicas.dpids.remove(dpid)
                handle.dpids.append(dpid)
                handle.replicas.dpids.append(dpid)
                handle.replicas.dpids.sort()
                handle.dpids.sort()
                switch.fence = handle.replicas.fence
                new_controller = handle.controller
                if self._started and new_controller is not None:
                    new_controller.connect_switch(switch)
                moved.append(dpid)
        if moved:
            self.rebalances += 1
            self.dpids_moved += len(moved)
            if self.telemetry.enabled:
                self.telemetry.tracer.event(
                    "shard.rebalance", moved=len(moved))
        return moved

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

    def prometheus_text(self, prefix: str = "repro") -> str:
        """Merged exposition: every shard's collector rendered with a
        ``shard`` label, plus coordinator-level per-shard gauges
        (election count, epoch, quorum commits, resyncs).  Duplicate
        ``# TYPE`` headers from the per-shard renders are folded."""
        parts: List[str] = []
        for shard_id, handle in sorted(self.shards.items()):
            telemetry = handle.telemetry
            if telemetry is None:
                continue
            parts.append(prometheus_text(
                telemetry.metrics, prefix=prefix,
                labels={"shard": str(shard_id)}))
        lines: List[str] = []
        seen_types = set()
        for part in parts:
            for line in part.splitlines():
                if line.startswith("# TYPE"):
                    if line in seen_types:
                        continue
                    seen_types.add(line)
                lines.append(line)
        gauges = [
            ("shard_elections_total", lambda rs, h: len(rs.failovers)),
            ("shard_epoch", lambda rs, h: rs.epoch),
            ("shard_quorum_commits_total", lambda rs, h: rs.quorum_commits),
            ("shard_resyncs_total", lambda rs, h: rs.resyncs_served),
            ("shard_quorum_reads_total", lambda rs, h: rs.quorum_reads),
            ("shard_events_ingested_total",
             lambda rs, h: h.events_ingested()),
            ("shard_events_forwarded_total",
             lambda rs, h: sum(r.controller.events_forwarded
                               for r in rs.replicas)),
        ]
        for name, value_of in gauges:
            metric = f"{prefix}_{name}"
            kind = "counter" if name.endswith("_total") else "gauge"
            lines.append(f"# TYPE {metric} {kind}")
            for shard_id, handle in sorted(self.shards.items()):
                value = value_of(handle.replicas, handle)
                lines.append(f'{metric}{{shard="{shard_id}"}} {value}')
        return "\n".join(lines) + "\n"

    def total_events_ingested(self) -> int:
        return sum(h.events_ingested() for h in self.shards.values())

    def stats(self) -> Dict[str, object]:
        return {
            "shards": {
                shard_id: handle.replicas.stats()
                for shard_id, handle in sorted(self.shards.items())
            },
            "assignment": {
                shard_id: list(handle.dpids)
                for shard_id, handle in sorted(self.shards.items())
            },
            "rebalances": self.rebalances,
            "dpids_moved": self.dpids_moved,
            "events_ingested": self.total_events_ingested(),
            # Byzantine-tolerance rollup: each shard's set escalates
            # independently (suspicion in one shard does not tax the
            # others with voting), so the mode is reported per shard.
            "modes": {
                shard_id: handle.replicas.mode.value
                for shard_id, handle in sorted(self.shards.items())
            },
            "sig_rejected": sum(h.replicas.sig_rejected
                                for h in self.shards.values()),
            "vote_conflicts": sum(h.replicas.vote_conflicts
                                  for h in self.shards.values()),
            "quarantines": sum(h.replicas.quarantines
                               for h in self.shards.values()),
            "mode_switches": sum(h.replicas.mode_policy.mode_switches
                                 for h in self.shards.values()),
        }
