"""The controller core.

Implements the dispatch contract shared by both runtimes: SDN-Apps (or
the AppVisor proxy) register listeners for event type names; the
controller delivers each switch message / controller event to the
subscribed listeners in registration order; a listener may stop the
chain (FloodLight's ``Command.STOP``).

Fate-sharing is modelled exactly as the paper describes it: an
exception escaping a listener is an *unhandled exception in the
controller process*, so :meth:`Controller.crash` takes the whole
control plane down.  The monolithic runtime registers raw app handlers
(so app bugs kill the controller); the AppVisor proxy never lets an
exception escape (so they don't).
"""

from __future__ import annotations

import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Tuple

from repro.controller.api import Command
from repro.controller.channel import ControlChannel
from repro.controller.events import SwitchJoin, SwitchLeave
from repro.controller.services import (
    CounterStore,
    DeviceManager,
    LinkDiscoveryService,
    TopologyService,
)
from repro.openflow.messages import PacketIn, PortStatus
from repro.telemetry import Telemetry


@dataclass
class ListenerReg:
    """One registered listener: a name, its subscriptions, a callback."""

    name: str
    types: FrozenSet[str]
    callback: Callable


@dataclass
class CrashRecord:
    """One controller crash, for the availability accounting and tickets."""

    time: float
    culprit: str
    exception: str
    traceback_text: str = ""
    #: Flight-recorder dump at the moment of the crash: the last N
    #: trace events, so the failure ships with its immediate history
    #: (empty when telemetry is disabled).
    flight_records: List[dict] = field(default_factory=list)


class Controller:
    """A FloodLight-style SDN controller."""

    def __init__(self, sim, discovery_interval: float = 0.5,
                 telemetry: Optional[Telemetry] = None,
                 service_time: float = 0.0):
        if service_time < 0:
            raise ValueError("service_time must be >= 0")
        self.sim = sim
        self.telemetry = telemetry or Telemetry()
        self.telemetry.bind_clock(lambda: self.sim.now)
        #: Replication epoch this controller believes it is serving in.
        #: Single-controller deployments stay at 0 forever; a ReplicaSet
        #: bumps it on every failover, and switches fence out writes
        #: carrying a stale epoch (no split brain).
        self.epoch = 0
        self.channels: Dict[int, ControlChannel] = {}
        self.listeners: List[ListenerReg] = []
        #: type name -> listeners subscribed to it, in registration
        #: order.  Rebuilt only when the registration set changes, so
        #: dispatch never copies or scans the full listener list per
        #: event.
        self._listener_index: Dict[str, Tuple[ListenerReg, ...]] = {}
        #: Dispatch queue: ``(event, trace_id)`` pairs delivered FIFO,
        #: re-entrant dispatches included (see :meth:`dispatch`).
        self._queue: Deque = deque()
        self._draining = False
        self.crashed = False
        self.crash_records: List[CrashRecord] = []
        self.reboot_times: List[float] = []
        self.crash_callbacks: List[Callable] = []
        self.started = False
        self.messages_received = 0
        self.messages_sent = 0
        #: Ingestion capacity model: CPU seconds of controller work per
        #: switch message.  Zero (the default) ingests instantly -- the
        #: pre-sharding behaviour, and the cost the latency benchmarks
        #: see.  Positive values serialise ingestion through a single
        #: logical core, which is precisely the bottleneck a sharded
        #: control plane divides by K (E18 measures this).
        self.service_time = service_time
        self._ingest_free_at = 0.0
        #: Incremented on crash so ingestion work queued by a previous
        #: incarnation of the process dies with it (a rebooted
        #: controller must not replay a dead process's backlog).
        self._ingest_gen = 0
        self.events_ingested = 0
        #: Sharded deployments: this controller's shard id, and a
        #: callable ``dpid -> Controller`` resolving the current owner
        #: of a dpid.  A message arriving for a dpid another shard owns
        #: (a switch connected to the wrong shard's controller) is
        #: forwarded rather than dropped.  Both stay None when unsharded
        #: -- the hot path then pays one attribute check.
        self.shard_id: Optional[int] = None
        self.shard_router: Optional[Callable[[int], "Controller"]] = None
        self.events_forwarded = 0
        #: Ingestion taps: callables ``(time, dpid, msg, trace_id)``
        #: invoked for every switch message that survives the LLDP
        #: filter, just before dispatch.  The record/replay harness
        #: (:mod:`repro.debug`) registers here to capture the exact
        #: event sequence the controller acted on.  Empty list = one
        #: truthiness check on the hot path.
        self.ingest_taps: List[Callable] = []
        # services
        self.topology = TopologyService(self)
        self.devices = DeviceManager(self)
        self.counters = CounterStore()
        self.discovery = LinkDiscoveryService(self, interval=discovery_interval)

    # -- switch lifecycle --------------------------------------------------

    def connect_switch(self, switch) -> ControlChannel:
        """Attach a switch (the OpenFlow handshake, condensed)."""
        if switch.dpid in self.channels:
            raise ValueError(f"dpid {switch.dpid} already connected")
        channel = ControlChannel(self.sim, self, switch)
        self.channels[switch.dpid] = channel
        self.topology.switch_joined(switch.dpid)
        if self.started:
            self.dispatch(SwitchJoin(switch.dpid))
        return channel

    def connected_dpids(self) -> List[int]:
        return sorted(
            dpid for dpid, ch in self.channels.items()
            if ch.connected and ch.switch.up
        )

    def switch_disconnected(self, dpid: int) -> None:
        """Channel teardown observed: the "switch down" event."""
        if self.crashed:
            return
        self.topology.switch_left(dpid)
        self.dispatch(SwitchLeave(dpid))

    def switch_reconnected(self, dpid: int) -> None:
        if self.crashed:
            return
        self.topology.switch_joined(dpid)
        self.dispatch(SwitchJoin(dpid))

    # -- startup -------------------------------------------------------------

    def start(self) -> None:
        """Begin operation: announce switches, start link discovery."""
        if self.started:
            return
        self.started = True
        self.discovery.start()
        for dpid in self.connected_dpids():
            self.dispatch(SwitchJoin(dpid))

    # -- message plumbing ------------------------------------------------------

    def handle_switch_message(self, dpid: int, msg) -> None:
        """Entry point for switch->controller messages.

        Sharded deployments route here: a message for a dpid this shard
        does not own is handed to the owning shard's controller (at
        most one hop -- the router answers from the current ring, so
        the owner never re-forwards).  Ingestion then runs through the
        capacity model: with ``service_time`` set, messages serialise
        through one logical core and queue behind each other, which is
        the single-primary bottleneck sharding exists to divide.
        """
        if self.crashed:
            return
        if self.shard_router is not None:
            owner = self.shard_router(dpid)
            if owner is not None and owner is not self:
                self.events_forwarded += 1
                owner.handle_switch_message(dpid, msg)
                return
        self.messages_received += 1
        if self.service_time > 0:
            start = max(self.sim.now, self._ingest_free_at)
            done = start + self.service_time
            self._ingest_free_at = done
            self.sim.schedule_at(done, self._ingest, dpid, msg,
                                 self.sim.now, self._ingest_gen)
            return
        self._ingest(dpid, msg, self.sim.now, self._ingest_gen)

    def _ingest(self, dpid: int, msg, arrived_at: float, gen: int) -> None:
        """Ingestion proper, after any modelled service delay."""
        if self.crashed or gen != self._ingest_gen:
            return  # backlog of a dead process incarnation
        self.events_ingested += 1
        tracer = self.telemetry.tracer
        if tracer.enabled and self.service_time > 0:
            tracer.record_span("controller.ingest", start=arrived_at,
                               dpid=dpid, event=msg.type_name)
        if isinstance(msg, PacketIn) and msg.packet is not None:
            if msg.packet.is_lldp():
                # Discovery consumes LLDP; apps never see probe frames.
                self.discovery.handle_lldp(dpid, msg)
                return
            self.devices.learn(dpid, msg)
        if isinstance(msg, PortStatus):
            self.topology.handle_port_status(msg)
        if self.ingest_taps:
            # The tap must see the trace id dispatch will use, so the
            # mint is hoisted here and pinned as the ambient context
            # (dispatch prefers the ambient id over minting its own).
            trace_id = 0
            if tracer.enabled:
                trace_id = tracer.current_trace or tracer.mint_trace()
            for tap in self.ingest_taps:
                tap(self.sim.now, dpid, msg, trace_id)
            if trace_id and tracer.current_trace is None:
                tracer.current_trace = trace_id
                try:
                    self.dispatch(msg)
                finally:
                    tracer.current_trace = None
                return
        self.dispatch(msg)

    def dispatch(self, event) -> None:
        """Deliver ``event`` to subscribed listeners, in order.

        Events drain through one FIFO queue: a re-entrant dispatch
        from inside a listener, whatever its dpid, enqueues behind the
        event being delivered rather than preempting it.

        An exception from a listener is an unhandled exception in the
        controller process: the controller crashes (the fate-sharing
        relationship this paper exists to remove).

        This is also where trace context is minted: each event entering
        dispatch gets a fresh ``trace_id`` -- unless one is already
        ambient (a re-entrant dispatch from inside a traced handler,
        e.g. the AppCrashed event Crash-Pad raises while recovering a
        traced failure), which the new event inherits so the causal
        chain stays connected.  The id rides the queue beside the
        event (events are frozen dataclasses) and every downstream
        layer propagates it instead of minting again.
        """
        if self.crashed:
            return
        tracer = self.telemetry.tracer
        trace_id = 0
        if tracer.enabled:
            trace_id = tracer.current_trace or tracer.mint_trace()
        queue = self._queue
        queue.append((event, trace_id))
        if self._draining:
            return  # the active drain below delivers it, FIFO
        self._draining = True
        try:
            while queue:
                if self.crashed:
                    queue.clear()
                    return
                queued, queued_trace = queue.popleft()
                self._dispatch_one(queued, queued_trace)
        finally:
            self._draining = False

    def _dispatch_one(self, event, trace_id: int) -> None:
        type_name = event.type_name
        tracer = self.telemetry.tracer
        if tracer.enabled:
            with tracer.span("controller.dispatch",
                             trace_id=trace_id or None, event=type_name,
                             epoch=self.epoch):
                self._deliver(event, type_name)
        else:
            self._deliver(event, type_name)

    def _deliver(self, event, type_name: str) -> None:
        for reg in self._listener_index.get(type_name, ()):
            try:
                cmd = reg.callback(event)
            except Exception as exc:  # noqa: BLE001 - modelling fate-sharing
                self.crash(exc, culprit=reg.name)
                return
            if cmd is Command.STOP:
                break

    def send_to_switch(self, dpid: int, msg) -> bool:
        """Send a message to a switch over its control channel."""
        if self.crashed:
            return False
        channel = self.channels.get(dpid)
        if channel is None:
            return False
        if channel.to_switch(msg):
            self.messages_sent += 1
            return True
        return False

    # -- listeners ----------------------------------------------------------

    def register_listener(self, name: str, types, callback) -> None:
        """Subscribe ``callback`` to the given event type names."""
        if any(reg.name == name for reg in self.listeners):
            raise ValueError(f"listener {name!r} already registered")
        self.listeners.append(
            ListenerReg(name=name, types=frozenset(types), callback=callback)
        )
        self._rebuild_listener_index()

    def unregister_listener(self, name: str) -> bool:
        before = len(self.listeners)
        self.listeners = [reg for reg in self.listeners if reg.name != name]
        if len(self.listeners) == before:
            return False
        self._rebuild_listener_index()
        return True

    def _rebuild_listener_index(self) -> None:
        """Recompute the type->listeners map (registration order kept).

        Runs only when the registration set changes; the tuples it
        produces are immutable snapshots, so a listener unregistering
        mid-delivery does not disturb the in-flight iteration (same
        semantics as the per-event list copy this index replaced).
        """
        index: Dict[str, List[ListenerReg]] = {}
        for reg in self.listeners:
            for type_name in reg.types:
                index.setdefault(type_name, []).append(reg)
        self._listener_index = {
            type_name: tuple(regs) for type_name, regs in index.items()
        }

    # -- crash / reboot ---------------------------------------------------------

    def crash(self, exc: Exception, culprit: str = "controller") -> None:
        """The controller process dies: channels freeze, dispatch stops."""
        if self.crashed:
            return
        self.crashed = True
        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.event("controller.crash", culprit=culprit,
                         exception=f"{type(exc).__name__}: {exc}",
                         epoch=self.epoch)
        self.crash_records.append(
            CrashRecord(
                time=self.sim.now,
                culprit=culprit,
                exception=f"{type(exc).__name__}: {exc}",
                traceback_text="".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                ),
                flight_records=self.telemetry.flight_dump(),
            )
        )
        self._queue.clear()  # queued events die with the process
        # The ingestion backlog dies too: scheduled service completions
        # from this incarnation no-op on the generation check.
        self._ingest_gen += 1
        self._ingest_free_at = 0.0
        for channel in self.channels.values():
            channel.connected = False  # sessions drop silently; process is gone
        for callback in list(self.crash_callbacks):
            callback(exc, culprit)

    def reboot(self) -> None:
        """Restart the controller process.

        Services relearn their state from scratch (discovery rounds,
        PacketIns); whoever reboots us is responsible for re-registering
        listeners -- a monolithic reboot re-instantiates apps with
        fresh state, which is exactly the state-loss problem LegoSDN's
        isolation avoids (§3.4, "Controller Upgrades").
        """
        self.crashed = False
        self.reboot_times.append(self.sim.now)
        self.topology.reset()
        self.devices.reset()
        self.counters.reset()
        for dpid, channel in self.channels.items():
            if channel.switch.up:
                channel.connected = True
                self.topology.switch_joined(dpid)
        for dpid in self.connected_dpids():
            self.dispatch(SwitchJoin(dpid))
