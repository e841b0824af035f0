"""FlowMonitor: a stateful monitoring app (Stratos-flavoured).

Accumulates per-host-pair flow and byte statistics from PacketIns and
FlowRemoved notifications.  Its monotonically growing state makes it
the canary for state-loss experiments: after a monolithic restart its
tallies reset to zero; after a Crash-Pad recovery they survive.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.apps.base import SDNApp


class FlowMonitor(SDNApp):
    """Passive observer: counts flows and bytes per (src, dst) MAC pair."""

    name = "monitor"
    subscriptions = ("PacketIn", "FlowRemoved")

    def __init__(self, name=None):
        super().__init__(name)
        # (src_mac, dst_mac) -> packets observed at the controller
        self.pair_packets: Dict[Tuple[str, str], int] = {}
        # dpid -> bytes reported by FlowRemoved
        self.bytes_by_switch: Dict[int, int] = {}
        self.flow_removed_seen = 0
        self.enable_dirty_tracking()

    def on_packet_in(self, event):
        packet = event.packet
        key = (packet.eth_src, packet.eth_dst)
        self.pair_packets[key] = self.pair_packets.get(key, 0) + 1
        self.mark_dirty("pair_packets")

    def on_flow_removed(self, event):
        self.flow_removed_seen += 1
        self.mark_dirty("flow_removed_seen")
        self.bytes_by_switch[event.dpid] = (
            self.bytes_by_switch.get(event.dpid, 0) + event.byte_count
        )
        self.mark_dirty("bytes_by_switch")

    def total_observations(self) -> int:
        return sum(self.pair_packets.values())
