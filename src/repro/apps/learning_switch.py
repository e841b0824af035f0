"""LearningSwitch: classic reactive L2 learning.

The canonical stateful SDN-App (and one of the three the paper's
prototype ported).  Its MAC table is exactly the kind of state a
reboot-based recovery loses and Crash-Pad's checkpoints preserve.
"""

from __future__ import annotations

from typing import Dict

from repro.apps.base import SDNApp
from repro.openflow.actions import Flood, Output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, PacketOut


class LearningSwitch(SDNApp):
    """Learn source MACs; install exact-match rules for known pairs."""

    name = "learning_switch"
    subscriptions = ("PacketIn", "SwitchLeave")

    #: Idle timeout (seconds) on installed rules, FloodLight's default
    #: scaled to simulation time.
    IDLE_TIMEOUT = 5.0
    PRIORITY = 100

    def __init__(self, name=None):
        super().__init__(name)
        # dpid -> {mac -> port}
        self.mac_tables: Dict[int, Dict[str, int]] = {}
        self.flows_installed = 0
        self.floods = 0
        self.enable_dirty_tracking()

    def _learn(self, event):
        """Learn the source MAC; return the port the destination was
        learned on, or None (unknown or stale: flood).  Each MAC set or
        dropped is marked as that entry of the switch's table."""
        packet = event.packet
        table = self.mac_tables.setdefault(event.dpid, {})
        if table.get(packet.eth_src) != event.in_port:
            table[packet.eth_src] = event.in_port
            self.mark_dirty(("macs", event.dpid), packet.eth_src)
        out_port = table.get(packet.eth_dst)
        if out_port == event.in_port:
            # Never forward a frame back out its ingress port: the
            # entry is stale (the host moved, or transitional flooding
            # taught us nonsense).  Drop it and fall back to flooding,
            # which relearns the truth.
            del table[packet.eth_dst]
            self.mark_dirty(("macs", event.dpid), packet.eth_dst)
            return None
        return out_port

    def on_packet_in(self, event):
        packet = event.packet
        out_port = self._learn(event)
        if out_port is None or packet.is_broadcast():
            self.floods += 1
            self.mark_dirty("floods")
            self.api.emit(event.dpid,
                          self.packet_out_for(event, (Flood(),)))
            return
        # Known destination: install a flow and forward this packet.
        self.flows_installed += 1
        self.mark_dirty("flows_installed")
        self.api.emit(
            event.dpid,
            FlowMod(
                match=Match(in_port=event.in_port,
                            eth_src=packet.eth_src,
                            eth_dst=packet.eth_dst),
                command=FlowModCommand.ADD,
                priority=self.PRIORITY,
                actions=(Output(out_port),),
                idle_timeout=self.IDLE_TIMEOUT,
            ),
        )
        self.api.emit(event.dpid,
                      self.packet_out_for(event, (Output(out_port),)))

    def on_switch_leave(self, event):
        """Forget everything learned on a dead switch.  The table's
        entries go unnamed, so the mark is for all of it: a table
        re-learned before the next take must not be checkpointed as a
        patch over the dead one."""
        if self.mac_tables.pop(event.dpid, None) is not None:
            self.mark_dirty(("macs", event.dpid))

    # -- checkpoint state layout ----------------------------------------
    #
    # The incremental checkpoint store diffs state per top-level key, so
    # the MAC tables snapshot as one key *per switch* rather than one
    # monolithic dict: learning a MAC on s3 re-encodes only s3's table,
    # not every table in the deployment.  At bench scale (10^5-10^6
    # hosts) this is the difference between O(switch) and O(network)
    # bytes per checkpoint delta.  Within a switch's key the unit is the
    # MAC (``mark_dirty(key, mac)``), and the tables are handed over
    # live: learning one MAC checkpoints one entry and copies nothing.

    def get_state(self) -> dict:
        state = super().get_state()
        del state["mac_tables"]
        for dpid, table in self.mac_tables.items():
            state[("macs", dpid)] = table
        return state

    def set_state(self, state: dict) -> None:
        tables = {}
        rest = {}
        for key, value in state.items():
            if isinstance(key, tuple) and key and key[0] == "macs":
                tables[key[1]] = dict(value)
            else:
                rest[key] = value
        super().set_state(rest)
        self.mac_tables = tables
