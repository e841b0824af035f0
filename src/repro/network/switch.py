"""OpenFlow switch datapath.

Implements the switch side of the control loop: flow-table lookup and
action execution for data packets, table-miss punts to the controller,
and the controller-message handlers (FlowMod, PacketOut, barriers,
stats).  Flow expiry runs on a periodic sweep scheduled by the network.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.network.links import Link
from repro.openflow.actions import (
    Drop,
    Enqueue,
    Flood,
    Output,
    ToController,
)
from repro.openflow.flowtable import FlowTable
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FlowMod,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    PacketIn,
    PacketInReason,
    PacketOut,
    PortStatsEntry,
    PortStatsReply,
    PortStatsRequest,
    PortStatus,
    PortStatusReason,
)
from repro.record import replace


class PortCounters:
    """Per-port RX/TX packet and byte counters."""

    __slots__ = ("rx_packets", "tx_packets", "rx_bytes", "tx_bytes",
                 "rx_dropped", "tx_dropped")

    def __init__(self):
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.rx_dropped = 0
        self.tx_dropped = 0


class Switch:
    """A single OpenFlow switch."""

    #: How many punted packets the switch buffers (OFP-style buffer_id
    #: slots).  Oldest entries are evicted first.
    PACKET_BUFFER_SLOTS = 64

    def __init__(self, dpid: int, sim, buffer_packets: bool = True):
        self.dpid = dpid
        self.sim = sim
        self.flow_table = FlowTable()
        self.ports: Dict[int, Link] = {}
        self.port_counters: Dict[int, PortCounters] = {}
        self.up = True
        self.channel = None  # set by the controller on connect
        #: Optional epoch fence (repro.replication.fence.EpochFence).
        #: When installed, controller writes carrying a stale epoch are
        #: rejected -- the split-brain guard for replicated control
        #: planes.  None (the default) accepts every write.
        self.fence = None
        self.fenced_writes = 0
        self.packet_ins_sent = 0
        self.messages_handled = 0
        self.buffer_packets = buffer_packets
        self._packet_buffer: Dict[int, tuple] = {}  # id -> (packet, in_port)
        self._next_buffer_id = 1
        self.buffer_hits = 0
        self.buffer_misses = 0

    @property
    def label(self) -> str:
        return f"s{self.dpid}"

    # -- wiring ----------------------------------------------------------

    def attach_link(self, port: int, link: Link) -> None:
        if port in self.ports:
            raise ValueError(f"{self.label}: port {port} already attached")
        self.ports[port] = link
        self.port_counters[port] = PortCounters()

    def live_ports(self):
        """Ports whose link is currently up."""
        return {p for p, link in self.ports.items() if link.up}

    # -- dataplane ---------------------------------------------------------

    def _link_deliver(self, packet, in_port: int) -> None:
        """Entry point for packets arriving from a link."""
        if not self.up:
            return
        counters = self.port_counters[in_port]
        counters.rx_packets += 1
        counters.rx_bytes += packet.size
        self.receive_packet(packet, in_port)

    def receive_packet(self, packet, in_port: int) -> None:
        """Run the pipeline: LLDP punt, TTL check, table lookup, actions."""
        if packet.ttl <= 0:
            # TTL exhausted: the packet has looped. Drop it so that a
            # forwarding loop (a byzantine failure the invariant
            # checker must catch) cannot wedge the simulation.
            return
        packet = replace(packet, ttl=packet.ttl - 1)
        if packet.is_lldp():
            # Link-discovery frames always go to the controller.
            self._packet_in(packet, in_port, PacketInReason.ACTION)
            return
        entry = self.flow_table.lookup(packet, in_port)
        if entry is None:
            self._packet_in(packet, in_port, PacketInReason.NO_MATCH)
            return
        entry.hit(packet, self.sim.now)
        self.apply_actions(entry.actions, packet, in_port)

    def apply_actions(self, actions, packet, in_port: Optional[int]) -> None:
        """Execute an action list: rewrites take effect for later outputs."""
        for action in actions:
            if isinstance(action, (Output, Enqueue)):
                self.send_out(packet, action.port)
            elif isinstance(action, Flood):
                for port in sorted(self.live_ports()):
                    if port != in_port:
                        self.send_out(packet, port)
            elif isinstance(action, ToController):
                self._packet_in(packet, in_port or 0, PacketInReason.ACTION)
            elif isinstance(action, Drop):
                return
            else:
                packet = action.apply(packet)

    def send_out(self, packet, port: int) -> None:
        link = self.ports.get(port)
        counters = self.port_counters.get(port)
        if link is None or not link.up:
            if counters:
                counters.tx_dropped += 1
            return
        counters.tx_packets += 1
        counters.tx_bytes += packet.size
        link.transmit(packet, self)

    def _packet_in(self, packet, in_port: int, reason) -> None:
        self.packet_ins_sent += 1
        buffer_id = None
        if self.buffer_packets and not packet.is_lldp():
            buffer_id = self._next_buffer_id
            self._next_buffer_id += 1
            self._packet_buffer[buffer_id] = (packet, in_port)
            if len(self._packet_buffer) > self.PACKET_BUFFER_SLOTS:
                oldest = next(iter(self._packet_buffer))
                del self._packet_buffer[oldest]
        self.send_to_controller(
            PacketIn(dpid=self.dpid, in_port=in_port, packet=packet,
                     reason=reason, buffer_id=buffer_id)
        )

    # -- control plane -----------------------------------------------------

    def handle_message(self, msg, epoch=None) -> None:
        """Process one controller->switch message.

        ``epoch`` is the sending controller's replication epoch (None
        for unreplicated deployments and direct test calls).  A fenced
        switch silently discards writes from a superseded epoch: the
        old primary's session token is no longer honoured, so a stale
        primary cannot mutate switch state after a failover.
        """
        if not self.up:
            return
        if self.fence is not None and not self.fence.permits(epoch):
            self.fenced_writes += 1
            self.fence.note_rejected(self.dpid, msg, epoch)
            return
        self.messages_handled += 1
        if isinstance(msg, FlowMod):
            self.flow_table.apply_flow_mod(msg, self.sim.now)
        elif isinstance(msg, PacketOut):
            self._handle_packet_out(msg)
        elif isinstance(msg, BarrierRequest):
            self.send_to_controller(BarrierReply(xid=msg.xid))
        elif isinstance(msg, FlowStatsRequest):
            self.send_to_controller(self._flow_stats(msg))
        elif isinstance(msg, PortStatsRequest):
            self.send_to_controller(self._port_stats(msg))
        elif isinstance(msg, EchoRequest):
            self.send_to_controller(EchoReply(payload=msg.payload, xid=msg.xid))
        else:
            self.send_to_controller(
                ErrorMsg(reason=f"unsupported message {msg.type_name}", xid=msg.xid)
            )

    def _handle_packet_out(self, msg: PacketOut) -> None:
        """Release a buffered packet or inject an inline one.

        A buffer_id is consumed on first use (as in OpenFlow); a stale
        or already-consumed id yields an ErrorMsg unless the sender
        also attached the packet inline as a fallback.
        """
        packet, in_port = msg.packet, msg.in_port
        if msg.buffer_id is not None:
            buffered = self._packet_buffer.pop(msg.buffer_id, None)
            if buffered is not None:
                self.buffer_hits += 1
                packet, buffered_port = buffered
                if in_port is None:
                    in_port = buffered_port
            else:
                self.buffer_misses += 1
                if packet is None:
                    self.send_to_controller(ErrorMsg(
                        reason=f"unknown buffer_id {msg.buffer_id}",
                        xid=msg.xid))
                    return
        if packet is not None:
            self.apply_actions(msg.actions, packet, in_port)

    def _flow_stats(self, req: FlowStatsRequest) -> FlowStatsReply:
        entries = [
            FlowStatsEntry(
                match=e.match,
                priority=e.priority,
                actions=e.actions,
                packet_count=e.packet_count,
                byte_count=e.byte_count,
                duration=self.sim.now - e.installed_at,
                idle_timeout=e.idle_timeout,
                hard_timeout=e.hard_timeout,
                cookie=e.cookie,
            )
            for e in self.flow_table
            if e.match.is_subset_of(req.match)
        ]
        return FlowStatsReply(dpid=self.dpid, entries=entries, xid=req.xid)

    def _port_stats(self, req: PortStatsRequest) -> PortStatsReply:
        ports = [req.port] if req.port is not None else sorted(self.ports)
        entries = []
        for port in ports:
            c = self.port_counters.get(port)
            if c is None:
                continue
            entries.append(
                PortStatsEntry(
                    port=port,
                    rx_packets=c.rx_packets,
                    tx_packets=c.tx_packets,
                    rx_bytes=c.rx_bytes,
                    tx_bytes=c.tx_bytes,
                    rx_dropped=c.rx_dropped,
                    tx_dropped=c.tx_dropped,
                )
            )
        return PortStatsReply(dpid=self.dpid, entries=entries, xid=req.xid)

    def send_to_controller(self, msg) -> None:
        if self.channel is not None and self.up:
            self.channel.to_controller(msg)

    # -- liveness ------------------------------------------------------------

    def _link_status(self, port: int, up: bool) -> None:
        """A local link changed state; notify the controller."""
        if not self.up:
            return
        self.send_to_controller(
            PortStatus(
                dpid=self.dpid,
                port=port,
                reason=PortStatusReason.MODIFY,
                link_up=up,
            )
        )

    def sweep_flows(self) -> None:
        """Expire timed-out flows; emit FlowRemoved where requested."""
        if not self.up:
            return
        for msg in self.flow_table.expire(self.sim.now, dpid=self.dpid):
            self.send_to_controller(msg)

    def set_up(self, up: bool) -> None:
        """Power the switch on/off.  Off drops the control channel."""
        if self.up == up:
            return
        self.up = up
        if not up:
            self.flow_table = FlowTable()
            if self.channel is not None:
                self.channel.disconnect()
        else:
            if self.channel is not None:
                self.channel.reconnect()

    def __repr__(self) -> str:
        return (f"Switch(dpid={self.dpid}, ports={sorted(self.ports)}, "
                f"flows={len(self.flow_table)}, up={self.up})")
