"""Controller services: topology, link discovery, devices, counters.

These are the FloodLight services the paper's prototype had to comment
out of its ported apps ("we had to comment out use of services, viz.,
counter-store").  We implement them fully so apps on both runtimes can
use them -- the AppVisor pushes read-only mirrors of the topology and
device tables to stubs, and counter increments travel with RPC replies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.controller.api import HostEntry, TopoView
from repro.controller.events import LinkDiscovered, LinkRemoved
from repro.network.packet import ETH_TYPE_LLDP, Packet
from repro.openflow.actions import Output
from repro.openflow.messages import PacketIn, PacketOut, PortStatus

Canonical = Tuple[int, int, int, int]


def _canonical(dpid_a: int, port_a: int, dpid_b: int, port_b: int) -> Canonical:
    if (dpid_a, port_a) <= (dpid_b, port_b):
        return (dpid_a, port_a, dpid_b, port_b)
    return (dpid_b, port_b, dpid_a, port_a)


class TopologyService:
    """Tracks live switches and discovered inter-switch links."""

    def __init__(self, controller):
        self.controller = controller
        self._switches = set()
        self._links: Dict[Canonical, float] = {}  # canonical -> last_seen
        #: Every (dpid, port) that has EVER carried a discovered link.
        #: Sticky across link flaps: a trunk port briefly down must not
        #: be mistaken for an edge port (transit frames flooded onto it
        #: mid-flap would be mislearned as host locations, and apps
        #: would route traffic to a switch the host is not on).  Only a
        #: full :meth:`reset` reclassifies ports.
        self._internal_ports: set = set()
        self.version = 0
        # Recently removed links, newest last.  Crash-Pad's equivalence
        # transformation needs the topology as it was *before* a
        # failure event (the dead switch's links are already gone from
        # the live view by the time the SwitchLeave reaches any app).
        self._removed_history: List[Tuple[float, Canonical]] = []
        self._removed_history_max = 256

    # -- updates ---------------------------------------------------------

    def switch_joined(self, dpid: int) -> None:
        if dpid not in self._switches:
            self._switches.add(dpid)
            self.version += 1

    def switch_left(self, dpid: int) -> None:
        if dpid in self._switches:
            self._switches.discard(dpid)
            self.version += 1
        for link in [l for l in self._links if dpid in (l[0], l[2])]:
            self._remove_link(link)

    def record_link(self, dpid_a: int, port_a: int, dpid_b: int, port_b: int,
                    now: float) -> None:
        link = _canonical(dpid_a, port_a, dpid_b, port_b)
        is_new = link not in self._links
        self._links[link] = now
        self._internal_ports.add((link[0], link[1]))
        self._internal_ports.add((link[2], link[3]))
        if is_new:
            self.version += 1
            self.controller.dispatch(LinkDiscovered(*link))

    def handle_port_status(self, msg: PortStatus) -> None:
        if msg.link_up:
            return  # re-discovery will re-add the link
        for link in [
            l for l in self._links
            if (l[0], l[1]) == (msg.dpid, msg.port) or (l[2], l[3]) == (msg.dpid, msg.port)
        ]:
            self._remove_link(link)

    def expire_links(self, now: float, max_age: float) -> None:
        for link, last_seen in [
            (l, t) for l, t in self._links.items() if now - t > max_age
        ]:
            self._remove_link(link)

    def _remove_link(self, link: Canonical) -> None:
        if self._links.pop(link, None) is not None:
            self.version += 1
            self._removed_history.append((self.controller.sim.now, link))
            if len(self._removed_history) > self._removed_history_max:
                del self._removed_history[
                    : len(self._removed_history) - self._removed_history_max
                ]
            self.controller.dispatch(LinkRemoved(*link))

    def removed_links_since(self, since: float) -> List[Canonical]:
        """Links removed at or after ``since`` (pre-failure topology
        reconstruction for event transformations)."""
        return [link for t, link in self._removed_history if t >= since]

    def reset(self) -> None:
        """Drop all learned state (controller reboot)."""
        self._switches.clear()
        self._links.clear()
        self._internal_ports.clear()
        self.version += 1

    # -- queries -----------------------------------------------------------

    def view(self) -> TopoView:
        return TopoView(
            switches=tuple(sorted(self._switches)),
            links=tuple(sorted(self._links)),
            version=self.version,
        )

    def is_interswitch_port(self, dpid: int, port: int) -> bool:
        return (dpid, port) in self._internal_ports


class LinkDiscoveryService:
    """LLDP-based link discovery (FloodLight's LinkDiscoveryManager).

    Every ``interval`` seconds the service floods an LLDP probe out of
    every live port of every connected switch; the neighbouring switch
    punts the probe back to the controller, revealing the link.  Links
    not re-observed within ``max_age`` expire.
    """

    def __init__(self, controller, interval: float = 0.5):
        self.controller = controller
        self.interval = interval
        self.max_age = interval * 3
        self.probes_sent = 0
        self._stop = None

    def start(self) -> None:
        if self._stop is not None:
            return
        self.controller.sim.schedule(0.0, self._round)
        self._stop = self.controller.sim.every(self.interval, self._round)

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    def _round(self) -> None:
        controller = self.controller
        if controller.crashed:
            return
        now = controller.sim.now
        for dpid in controller.connected_dpids():
            switch = controller.channels[dpid].switch
            for port in sorted(switch.live_ports()):
                probe = Packet(
                    eth_src=f"lldp:{dpid}",
                    eth_type=ETH_TYPE_LLDP,
                    payload=f"lldp:{dpid}:{port}",
                    size=64,
                )
                self.probes_sent += 1
                controller.send_to_switch(
                    dpid, PacketOut(packet=probe, actions=(Output(port),))
                )
        controller.topology.expire_links(now, self.max_age)

    def handle_lldp(self, dpid: int, msg: PacketIn) -> None:
        """An LLDP probe arrived at ``dpid``: record the link it reveals."""
        payload = msg.packet.payload or ""
        parts = payload.split(":")
        if len(parts) != 3 or parts[0] != "lldp":
            return
        try:
            src_dpid, src_port = int(parts[1]), int(parts[2])
        except ValueError:
            return
        self.controller.topology.record_link(
            src_dpid, src_port, dpid, msg.in_port, self.controller.sim.now
        )


class DeviceManager:
    """Learns host locations from PacketIns (FloodLight's DeviceManager).

    Hosts are only learned on edge ports; packets entering on a known
    inter-switch port are transit traffic, not evidence of a host.

    ``version`` counts changes, and the manager remembers at which
    version each MAC last changed, so a mirror holding the table as of
    version ``v`` can be brought up to date with
    :meth:`changes_since` instead of a copy of everything.
    """

    def __init__(self, controller):
        self.controller = controller
        self._hosts: Dict[str, HostEntry] = {}
        self.version = 0
        #: mac -> version of its last change, oldest change first.  One
        #: slot per MAC: a host that flaps moves its slot to the end, so
        #: the log is bounded by the table, not by time.
        self._changed_at: Dict[str, int] = {}
        #: Version of the last :meth:`reset`; entries vanished there,
        #: which no list of changed entries can say.
        self._reset_at = 0

    def learn(self, dpid: int, msg: PacketIn) -> None:
        packet = msg.packet
        if packet is None or packet.is_lldp():
            return
        if self.controller.topology.is_interswitch_port(dpid, msg.in_port):
            return
        entry = HostEntry(mac=packet.eth_src, ip=packet.ip_src,
                          dpid=dpid, port=msg.in_port)
        if self._hosts.get(packet.eth_src) != entry:
            self._hosts[packet.eth_src] = entry
            self.version += 1
            self._changed_at.pop(entry.mac, None)
            self._changed_at[entry.mac] = self.version

    def location(self, mac: str) -> Optional[HostEntry]:
        return self._hosts.get(mac)

    def all(self) -> Dict[str, HostEntry]:
        return dict(self._hosts)

    def entries(self) -> Tuple[HostEntry, ...]:
        """Every learned host (what a full mirror refresh carries)."""
        return tuple(self._hosts.values())

    def changes_since(self, version: int) -> Optional[Tuple[HostEntry, ...]]:
        """The current entry of every MAC that changed after
        ``version``, oldest change first -- empty when nothing did.
        None when the table was :meth:`reset` since (or ``version`` is
        none this manager ever had): only :meth:`entries` will do."""
        if version < self._reset_at or version > self.version:
            return None
        changed = []
        for mac, at in reversed(self._changed_at.items()):
            if at <= version:
                break
            changed.append(self._hosts[mac])
        changed.reverse()
        return tuple(changed)

    def reset(self) -> None:
        self._hosts.clear()
        self._changed_at.clear()
        self.version += 1
        self._reset_at = self.version


class CounterStore:
    """Named monotonic counters (FloodLight's ICounterStoreService)."""

    def __init__(self):
        self._counters: Dict[str, int] = {}

    def inc(self, name: str, delta: int = 1) -> int:
        self._counters[name] = self._counters.get(name, 0) + delta
        return self._counters[name]

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        return dict(self._counters)

    def reset(self) -> None:
        self._counters.clear()
