"""LoadBalancer: a FlowScale-style traffic-engineering app.

FlowScale (Table 2, third-party) divides flows arriving at a switch
across a set of uplink ports.  Our analogue hashes the 5-tuple onto
the live uplinks and installs an exact-match rule per flow, keeping
per-port assignment counts as app state.  The paper's bug study is
drawn from FlowScale's public bug tracker, so the fault-injection
corpus (:mod:`repro.faults.bugs`) targets this app in E1.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.apps.base import SDNApp
from repro.openflow.actions import Flood, Output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, PacketOut


class LoadBalancer(SDNApp):
    """Spread flows at one switch across its uplink ports."""

    name = "load_balancer"
    subscriptions = ("PacketIn", "PortStatus")

    PRIORITY = 300
    IDLE_TIMEOUT = 10.0

    def __init__(self, dpid: int = 1, uplinks: Tuple[int, ...] = (1, 2),
                 name=None):
        super().__init__(name)
        self.dpid = dpid
        self.uplinks = tuple(uplinks)
        self.down_ports = set()
        # port -> number of flows assigned
        self.assignments: Dict[int, int] = {p: 0 for p in self.uplinks}
        self.flows_balanced = 0
        self.enable_dirty_tracking()

    # -- balancing ------------------------------------------------------

    def live_uplinks(self) -> Tuple[int, ...]:
        return tuple(p for p in self.uplinks if p not in self.down_ports)

    def _pick_port(self, packet, in_port: Optional[int] = None) -> Optional[int]:
        live = self.live_uplinks()
        # Never hash a flow back out its ingress port -- that would
        # bounce traffic between this switch and its neighbour.
        candidates = tuple(p for p in live if p != in_port) or live
        if not candidates:
            return None
        live = candidates
        key = (packet.ip_src, packet.ip_dst, packet.ip_proto,
               packet.tp_src, packet.tp_dst)
        # Stable deterministic hash (Python's hash() is salted per run).
        digest = 0
        for part in key:
            digest = (digest * 31 + hash_stable(part)) & 0x7FFFFFFF
        return live[digest % len(live)]

    def on_packet_in(self, event):
        if event.dpid != self.dpid:
            return  # only balance at the configured switch
        packet = event.packet
        destination = self.api.host_location(packet.eth_dst)
        if destination is not None and destination.dpid == self.dpid:
            # Locally attached destination: not transit traffic, so it
            # is not ours to balance -- leave it to the switching app.
            return
        port = self._pick_port(packet, event.in_port)
        if port is None:
            # No live uplinks: fall back to flooding.
            self.api.emit(event.dpid,
                          self.packet_out_for(event, (Flood(),)))
            return
        self.flows_balanced += 1
        self.mark_dirty("flows_balanced")
        self.assignments[port] = self.assignments.get(port, 0) + 1
        self.mark_dirty("assignments")
        match = Match.from_packet(packet, in_port=event.in_port)
        self.api.emit(
            event.dpid,
            FlowMod(match=match, command=FlowModCommand.ADD,
                    priority=self.PRIORITY, actions=(Output(port),),
                    idle_timeout=self.IDLE_TIMEOUT),
        )
        self.api.emit(event.dpid,
                      self.packet_out_for(event, (Output(port),)))

    # -- uplink liveness -----------------------------------------------------

    def on_port_status(self, event):
        if event.dpid != self.dpid or event.port not in self.uplinks:
            return
        if event.link_up:
            if event.port in self.down_ports:
                self.down_ports.discard(event.port)
                self.mark_dirty("down_ports")
        else:
            self.down_ports.add(event.port)
            self.mark_dirty("down_ports")
            # Remove flows pinned to the dead uplink so they re-balance.
            self.api.emit(
                event.dpid,
                FlowMod(match=Match(), command=FlowModCommand.DELETE,
                        out_port=event.port),
            )


def hash_stable(value) -> int:
    """Deterministic, process-independent hash for balancing keys."""
    if value is None:
        return 0
    text = str(value)
    digest = 5381
    for ch in text:
        digest = ((digest << 5) + digest + ord(ch)) & 0x7FFFFFFF
    return digest
