"""Packet model.

Packets are immutable dataclasses carrying the header fields the match
structure understands plus a symbolic payload.  Immutability keeps the
simulator honest: header rewrites (SetField actions) produce new packet
objects, so a packet buffered in one switch is never mutated by another.
"""

from __future__ import annotations

import itertools
from dataclasses import field
from typing import Optional

from repro.openflow.serialization import register_dataclass
from repro.record import record, replace

#: EtherTypes used by the simulator.
ETH_TYPE_IP = 0x0800
ETH_TYPE_ARP = 0x0806
ETH_TYPE_LLDP = 0x88CC

#: IP protocol numbers.
IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17

#: Broadcast MAC address.
BROADCAST = "ff:ff:ff:ff:ff:ff"

_packet_ids = itertools.count(1)


def _next_packet_id() -> int:
    return next(_packet_ids)


def reset_packet_ids() -> None:
    """Restart packet id allocation at 1 (reproducible-byte harness
    runs only; see ``repro.openflow.messages.reset_xid_counter``)."""
    global _packet_ids
    _packet_ids = itertools.count(1)


@register_dataclass
@record
class Packet:
    """An Ethernet/IPv4 packet with symbolic addresses.

    ``pkt_id`` survives header rewrites (``replace`` copies it), letting
    experiments trace one packet across the dataplane.
    """

    eth_src: str = "00:00:00:00:00:00"
    eth_dst: str = BROADCAST
    eth_type: int = ETH_TYPE_IP
    vlan_id: Optional[int] = None
    ip_src: Optional[str] = None
    ip_dst: Optional[str] = None
    ip_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None
    size: int = 1500
    payload: str = ""
    ttl: int = 32
    pkt_id: int = field(default_factory=_next_packet_id)

    def is_broadcast(self) -> bool:
        return self.eth_dst == BROADCAST

    def is_lldp(self) -> bool:
        return self.eth_type == ETH_TYPE_LLDP

    def reply(self, payload: str = "", size: Optional[int] = None) -> "Packet":
        """Build the reverse-direction packet (swap L2/L3/L4 endpoints)."""
        return replace(
            self,
            eth_src=self.eth_dst,
            eth_dst=self.eth_src,
            ip_src=self.ip_dst,
            ip_dst=self.ip_src,
            tp_src=self.tp_dst,
            tp_dst=self.tp_src,
            payload=payload,
            size=self.size if size is None else size,
            pkt_id=_next_packet_id(),
        )


def tcp_packet(src_mac, dst_mac, src_ip, dst_ip, src_port=10000, dst_port=80,
               size=1500, payload=""):
    """Convenience constructor for a TCP packet."""
    return Packet(
        eth_src=src_mac,
        eth_dst=dst_mac,
        eth_type=ETH_TYPE_IP,
        ip_src=src_ip,
        ip_dst=dst_ip,
        ip_proto=IPPROTO_TCP,
        tp_src=src_port,
        tp_dst=dst_port,
        size=size,
        payload=payload,
    )


def udp_packet(src_mac, dst_mac, src_ip, dst_ip, src_port=10000, dst_port=53,
               size=512, payload=""):
    """Convenience constructor for a UDP packet."""
    return Packet(
        eth_src=src_mac,
        eth_dst=dst_mac,
        eth_type=ETH_TYPE_IP,
        ip_src=src_ip,
        ip_dst=dst_ip,
        ip_proto=IPPROTO_UDP,
        tp_src=src_port,
        tp_dst=dst_port,
        size=size,
        payload=payload,
    )


def icmp_packet(src_mac, dst_mac, src_ip, dst_ip, payload="ping", size=64):
    """Convenience constructor for an ICMP (ping) packet."""
    return Packet(
        eth_src=src_mac,
        eth_dst=dst_mac,
        eth_type=ETH_TYPE_IP,
        ip_src=src_ip,
        ip_dst=dst_ip,
        ip_proto=IPPROTO_ICMP,
        size=size,
        payload=payload,
    )
