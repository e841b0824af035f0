"""The LegoSDN runtime: AppVisor + NetLog + Crash-Pad, composed.

This is the drop-in replacement for
:class:`~repro.controller.monolithic.MonolithicRuntime`: same
``launch_app`` surface, opposite failure behaviour.  Each launched app
gets its own sandboxed stub, UDP channel, checkpoint store, and
heartbeat stream; the proxy wires them into the controller and routes
failures through Crash-Pad.

"LegoSDN does not require any modifications to the SDN controller or
the SDN-Apps" -- apps written for the monolithic runtime run here
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.base import SDNApp
from repro.core.appvisor.channel import UdpChannel
from repro.core.appvisor.isolation import ResourceLimits
from repro.core.appvisor.proxy import AppVisorProxy
from repro.core.appvisor.stub import AppVisorStub
from repro.core.crashpad.policy_lang import PolicyTable
from repro.core.crashpad.recovery import CrashPad
from repro.core.crashpad.ticket import TicketStore


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything that configures a :class:`LegoSDNRuntime`, as one value.

    A promoted replica is configured by handing it the failed primary's
    config object, so a field added here reaches failover, shards and
    replay without further plumbing.
    """

    mode: str = "netlog"
    policy_table: Optional[PolicyTable] = None
    byzantine_check: bool = False
    shutdown_on_critical: bool = False
    #: Events between checkpoints (1 = the paper's per-event mode).
    checkpoint_interval: int = 1
    heartbeat_interval: float = 0.1
    #: Batched RPC: coalesce same-instant proxy<->stub frames into one
    #: datagram per tick (one base_delay, one chaos roll).  Off = the
    #: per-frame streaming the consistency-window ablation measures.
    channel_batch: bool = True
    channel_retry_budget: int = 8
    #: Optional chaos injection: a ChaosProfile applied to every app
    #: channel, or a callable ``app_name -> profile-or-None`` for
    #: per-app profiles.
    chaos: object = None
    parallel_lanes: bool = False
    seed: int = 0


class LegoSDNRuntime:
    """Hosts SDN-Apps in isolated, recoverable sandboxes.

    Configure with a :class:`RuntimeConfig`, or with its fields as
    keywords (``LegoSDNRuntime(controller, checkpoint_interval=8)``).
    """

    def __init__(self, controller, config: Optional[RuntimeConfig] = None,
                 **fields):
        if config is None:
            config = RuntimeConfig(**fields)
        elif fields:
            raise TypeError("pass either config= or RuntimeConfig fields "
                            f"as keywords, not both (got {sorted(fields)})")
        self.controller = controller
        self.sim = controller.sim
        self.config = config
        self.crashpad = CrashPad(policy_table=config.policy_table,
                                 tickets=TicketStore())
        self.proxy = AppVisorProxy(
            controller,
            mode=config.mode,
            crashpad=self.crashpad,
            byzantine_check=config.byzantine_check,
            shutdown_on_critical=config.shutdown_on_critical,
            parallel_lanes=config.parallel_lanes,
        )
        self.stubs: Dict[str, AppVisorStub] = {}
        self.channels: Dict[str, UdpChannel] = {}
        # The proxy lives in the controller process: when that process
        # dies, its unflushed batched frames die with it (the stub side
        # survives and keeps its own pending tail).
        controller.crash_callbacks.append(self._on_controller_crash)

    def _on_controller_crash(self, exc, culprit) -> None:
        for channel in self.channels.values():
            channel.drop_pending("proxy")

    def restart(self) -> None:
        """Reboot a crashed controller.  The apps live in their stubs'
        processes, so they keep their state (§3.4)."""
        if self.controller.crashed:
            self.controller.reboot()

    # -- app lifecycle ----------------------------------------------------

    def launch_app(self, app_or_factory,
                   limits: Optional[ResourceLimits] = None,
                   replica_factory=None) -> AppVisorStub:
        """Host an app (instance or zero-arg factory) in its own sandbox.

        Unlike the monolithic runtime, no factory is *needed* --
        LegoSDN recovers apps by checkpoint restore, never by
        re-instantiation -- but factories are accepted so experiment
        code can drive both runtimes identically.  When a factory is
        given (or ``replica_factory`` explicitly), the stub also gains
        STS-style minimisation of cumulative multi-event bugs (§5),
        which needs scratch replicas of the app.
        """
        if isinstance(app_or_factory, SDNApp):
            app = app_or_factory
        else:
            app = app_or_factory()
            if replica_factory is None:
                replica_factory = app_or_factory
        if app.name in self.stubs:
            raise ValueError(f"app {app.name!r} already launched")
        config = self.config
        stub = AppVisorStub(
            self.sim, app,
            checkpoint_interval=config.checkpoint_interval,
            heartbeat_interval=config.heartbeat_interval,
            limits=limits,
            replica_factory=replica_factory,
            telemetry=self.controller.telemetry,
        )
        chaos = config.chaos
        if callable(chaos):
            chaos = chaos(app.name)
        channel = UdpChannel(
            self.sim,
            seed=config.seed + len(self.stubs),
            batch=config.channel_batch,
            retry_budget=config.channel_retry_budget,
            chaos=chaos,
            telemetry=self.controller.telemetry,
        )
        self._route_faults(app.name, channel)
        self.proxy.attach_stub(stub, channel)
        self.stubs[app.name] = stub
        self.channels[app.name] = channel
        return stub

    def _route_faults(self, app_name: str, channel: UdpChannel) -> None:
        """Retry-budget exhaustion is a *link* verdict: route it to this
        runtime's proxy, so Crash-Pad blames the channel, not the app
        (and the proxy re-sends what the stub may have missed)."""
        channel.on_fault.append(
            lambda fault: self.proxy.note_channel_fault(app_name, fault))

    def adopt_apps(self, other: "LegoSDNRuntime") -> None:
        """Adopt ``other``'s already-running stubs after a controller
        failover.

        The app inside each stub keeps its state and checkpoint
        history, and the stub keeps its channel; only the proxy side is
        new.  Used by :class:`repro.replication.ReplicaSet` when a
        promoted backup's runtime takes over the old primary's apps.
        """
        for name, stub in other.stubs.items():
            if name in self.stubs:
                raise ValueError(f"app {name!r} already hosted here")
            channel = other.channels[name]
            self._route_faults(name, channel)
            self.proxy.adopt_stub(stub, channel)
            self.stubs[name] = stub
            self.channels[name] = channel

    # -- accessors ------------------------------------------------------------

    def app(self, name: str) -> SDNApp:
        """The live app instance (for test/experiment inspection)."""
        return self.stubs[name].app

    def stub(self, name: str) -> AppVisorStub:
        return self.stubs[name]

    def record(self, name: str):
        """The proxy's bookkeeping record for an app."""
        return self.proxy.record(name)

    @property
    def is_up(self) -> bool:
        """Controller liveness -- stays True through app crashes."""
        return not self.controller.crashed

    @property
    def telemetry(self):
        """The deployment's telemetry (tracer/flight recorder/metrics).

        Owned by the controller so that every layer -- dispatch, proxy,
        NetLog, Crash-Pad -- reports into the same trace.
        """
        return self.controller.telemetry

    def live_apps(self) -> List[str]:
        return self.proxy.live_apps()

    @property
    def tickets(self) -> TicketStore:
        return self.crashpad.tickets

    def stats(self) -> Dict[str, Dict[str, int]]:
        return self.proxy.stats()

    def total_crashes(self) -> int:
        return sum(s["crashes"] for s in self.stats().values())

    def total_recoveries(self) -> int:
        return sum(s["recoveries"] for s in self.stats().values())
