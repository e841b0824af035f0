"""One way to build a deployment: a :class:`StackSpec` and :func:`build_stack`.

:func:`build_stack` composes every deployment in one order: the
``Network``; per control plane (the network's controller, or each
shard's) :func:`control_plane` -- the runtime, the apps launched into
it, then the ReplicaSet around it; last the ``HealthWatchdog``.  The
stack comes back unstarted.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.controller.monolithic import MonolithicRuntime
from repro.core.runtime import LegoSDNRuntime, RuntimeConfig
from repro.faults.netfaults import ChaosProfile
from repro.invariants.graph import NetSnapshot
from repro.network.net import Network
from repro.network.topology import Topology
from repro.replication.replicaset import ReplicaSet
from repro.telemetry import HealthWatchdog, Telemetry


@dataclass(frozen=True)
class StackSpec:
    """Everything that configures a deployment, as one value.

    ``seed`` is the one seed: the simulator, the runtime's channels, the
    chaos profile, the ReplicaSet (a shard's at ``seed + shard id``) and
    the shard router take it; it and the chaos profile replace
    ``runtime``'s own ``seed`` and ``chaos``.
    """

    topology: Topology
    seed: int = 0
    #: What ``launch_app`` takes: apps, or zero-arg factories (which also
    #: give Crash-Pad its STS replicas; the monolithic baseline restarts
    #: from them, so takes only factories).  Factories build many stacks.
    apps: Tuple = ()
    #: None: the monolithic baseline.
    runtime: Optional[RuntimeConfig] = RuntimeConfig()
    #: Warm backups per control plane (unsharded, 0: no ReplicaSet), and
    #: the unsharded ReplicaSet's other keywords.
    backups: int = 0
    replica_options: Mapping = field(default_factory=dict)
    #: 0: one control plane, on the network's controller.
    shards: int = 0
    service_time: float = 0.0
    #: ``Telemetry`` keywords; None leaves telemetry off.
    telemetry: Optional[Mapping] = None
    #: ``ChaosProfile`` keywords for every app channel: each build makes
    #: a fresh profile, so every stack rolls the same dice.
    chaos: Optional[Mapping] = None
    watchdog: bool = False


@dataclass
class Stack:
    """One built deployment."""

    net: Network
    #: None when sharded: each shard's ReplicaSet holds its own.
    runtime: object = None
    replicas: Optional[ReplicaSet] = None
    coordinator: object = None
    telemetry: Optional[Telemetry] = None
    watchdog: Optional[HealthWatchdog] = None
    chaos: Optional[ChaosProfile] = None
    #: The ``LoadGenerator`` a ``load`` step started.
    load: object = None

    def start(self) -> None:
        """Connect every switch (to its shard's primary, when sharded)."""
        (self.coordinator or self.net).start()


def control_plane(net, controller, config: RuntimeConfig, apps,
                  replica_options: Optional[Mapping] = None):
    """A LegoSDN runtime on ``controller`` with ``apps`` launched, then
    -- given ``replica_options`` -- the ReplicaSet around it.  Returns
    ``(runtime, replicas or None)``."""
    runtime = LegoSDNRuntime(controller, config)
    for app in apps:
        runtime.launch_app(app)
    replicas = None
    if replica_options is not None:
        replicas = ReplicaSet(net, runtime, controller=controller,
                              **replica_options)
    return runtime, replicas


def build_stack(spec: StackSpec) -> Stack:
    """The deployment ``spec`` describes, unstarted."""
    telemetry = None
    if spec.telemetry is not None and not spec.shards:
        telemetry = Telemetry(enabled=True, **spec.telemetry)
    net = Network(spec.topology, seed=spec.seed, telemetry=telemetry)
    net.controller.service_time = spec.service_time
    stack = Stack(net=net, telemetry=telemetry)
    if spec.chaos is not None:
        stack.chaos = ChaosProfile(seed=spec.seed, **spec.chaos)
    config = None if spec.runtime is None else dataclasses.replace(
        spec.runtime, seed=spec.seed, chaos=stack.chaos)
    if config is None:
        stack.runtime = MonolithicRuntime(net.controller, auto_restart=True)
        for app in spec.apps:
            stack.runtime.launch_app(app)
    elif spec.shards:
        # Imported here: the coordinator imports control_plane from here.
        from repro.shard.coordinator import ShardCoordinator

        stack.coordinator = ShardCoordinator(
            net, shards=spec.shards, apps=spec.apps, backups=spec.backups,
            service_time=spec.service_time,
            telemetry_enabled=spec.telemetry is not None, seed=spec.seed,
            runtime_kwargs=vars(config), telemetry_kwargs=spec.telemetry)
    else:
        replica_options = None
        if spec.backups:
            replica_options = dict(spec.replica_options,
                                   backups=spec.backups, seed=spec.seed)
        stack.runtime, stack.replicas = control_plane(
            net, net.controller, config, spec.apps, replica_options)
    if spec.watchdog:
        stack.watchdog = HealthWatchdog(
            telemetry, net.sim,
            snapshot_provider=lambda: NetSnapshot.from_network(net))
    return stack
