"""End hosts: traffic sources and sinks.

Hosts attach to one switch port.  They record every delivered packet
(with timestamps) so experiments can compute reachability and latency,
and they answer pings so round-trip measurements work out of the box.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.network.packet import (
    IPPROTO_ICMP,
    IPPROTO_TCP,
    Packet,
    icmp_packet,
    tcp_packet,
)


class Host:
    """A simulated end host with one NIC."""

    def __init__(self, name: str, mac: str, ip: str, sim):
        self.name = name
        self.mac = mac
        self.ip = ip
        self.sim = sim
        self.link = None
        self.received: List[Tuple[float, Packet]] = []
        self.sent = 0
        self.auto_reply_pings = True
        #: When True the host echoes TCP payloads back (a trivial
        #: server), used by gateway/NAT experiments that need
        #: round-trip traffic.
        self.tcp_echo = False
        self._ping_seq = 0
        self._pending_pings: Dict[int, float] = {}
        self.ping_rtts: Dict[int, float] = {}

    @property
    def label(self) -> str:
        return self.name

    # -- wiring ----------------------------------------------------------

    def attach_link(self, link) -> None:
        if self.link is not None:
            raise ValueError(f"{self.name}: already attached")
        self.link = link

    # -- send/receive -------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Put a packet on the wire; False if the NIC/link is down."""
        if self.link is None:
            return False
        self.sent += 1
        return self.link.transmit(packet, self)

    def send_tcp(self, dst: "Host", dst_port: int = 80, src_port: int = 10000,
                 size: int = 1500, payload: str = "") -> bool:
        """Convenience: send one TCP packet to another host."""
        return self.send(
            tcp_packet(self.mac, dst.mac, self.ip, dst.ip,
                       src_port=src_port, dst_port=dst_port,
                       size=size, payload=payload)
        )

    def _link_deliver(self, packet: Packet, port: int) -> None:
        """Packets arriving from the attached link."""
        # A host NIC filters frames not addressed to it (or broadcast).
        if packet.eth_dst not in (self.mac, "ff:ff:ff:ff:ff:ff"):
            return
        self.received.append((self.sim.now, packet))
        if packet.ip_proto == IPPROTO_ICMP:
            self._handle_icmp(packet)
        elif self.tcp_echo and packet.ip_proto == IPPROTO_TCP:
            self.send(packet.reply(payload=f"echo:{packet.payload}"))

    def _handle_icmp(self, packet: Packet) -> None:
        payload = packet.payload or ""
        if payload.startswith("ping:") and self.auto_reply_pings:
            seq = payload.split(":", 1)[1]
            self.send(packet.reply(payload=f"pong:{seq}"))
        elif payload.startswith("pong:"):
            try:
                seq = int(payload.split(":", 1)[1])
            except ValueError:
                return
            sent_at = self._pending_pings.pop(seq, None)
            if sent_at is not None:
                self.ping_rtts[seq] = self.sim.now - sent_at

    # -- measurement ---------------------------------------------------------

    def ping(self, dst: "Host") -> int:
        """Send one echo request to ``dst``; returns the sequence number.

        The RTT (if the pong arrives) appears in :attr:`ping_rtts`
        under that sequence number.
        """
        self._ping_seq += 1
        seq = self._ping_seq
        self._pending_pings[seq] = self.sim.now
        self.send(
            icmp_packet(self.mac, dst.mac, self.ip, dst.ip, payload=f"ping:{seq}")
        )
        return seq

    def clear_history(self) -> None:
        self.received.clear()
        self.ping_rtts.clear()
        self._pending_pings.clear()
        self.sent = 0

    def __repr__(self) -> str:
        return f"Host({self.name}, mac={self.mac}, ip={self.ip})"
