"""The Network facade: materialise a topology into a live simulation.

``Network`` builds the simulator, controller, switches, hosts, and
links from a :class:`~repro.network.topology.Topology`, wires the
control channels, and exposes the operations experiments need: run the
clock, fail links/switches, send pings, and measure reachability.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.network.host import Host
from repro.network.links import Link
from repro.network.simulator import Simulator
from repro.network.switch import Switch
from repro.network.topology import Topology


#: One-way propagation delay of every data-plane link.
LINK_DELAY = 0.001
#: How often the switches expire timed-out flow entries.
FLOW_SWEEP_INTERVAL = 0.05


class Network:
    """A running SDN deployment: dataplane + controller."""

    def __init__(self, topology: Topology, seed: int = 0,
                 discovery_interval: float = 0.5,
                 buffer_packets: bool = True,
                 telemetry=None):
        # Imported here, not at module top: repro.controller.services
        # imports the packet model from this package, so a module-level
        # import would be circular.
        from repro.controller.core import Controller

        topology.validate()
        self.topology = topology
        self.sim = Simulator(seed=seed)
        self.controller = Controller(
            self.sim,
            discovery_interval=discovery_interval,
            telemetry=telemetry,
        )
        self.switches: Dict[int, Switch] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: List[Link] = []
        self._switch_links: Dict[Tuple[int, int], Link] = {}
        self._host_links: Dict[str, Link] = {}
        self._next_port: Dict[int, int] = {}
        self.buffer_packets = buffer_packets
        self._build()
        self._started = False

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        for dpid in self.topology.switches:
            self.switches[dpid] = Switch(dpid, self.sim,
                                         buffer_packets=self.buffer_packets)
            self._next_port[dpid] = 1
        for dpid_a, dpid_b in self.topology.switch_links:
            port_a = self._alloc_port(dpid_a)
            port_b = self._alloc_port(dpid_b)
            link = Link(self.sim, self.switches[dpid_a], port_a,
                        self.switches[dpid_b], port_b, delay=LINK_DELAY)
            self.switches[dpid_a].attach_link(port_a, link)
            self.switches[dpid_b].attach_link(port_b, link)
            self.links.append(link)
            self._switch_links[(min(dpid_a, dpid_b), max(dpid_a, dpid_b))] = link
        for spec in self.topology.hosts:
            host = Host(spec.name, spec.mac, spec.ip, self.sim)
            port = self._alloc_port(spec.dpid)
            link = Link(self.sim, self.switches[spec.dpid], port, host, 0,
                        delay=LINK_DELAY)
            self.switches[spec.dpid].attach_link(port, link)
            host.attach_link(link)
            self.hosts[spec.name] = host
            self.links.append(link)
            self._host_links[spec.name] = link

    def _alloc_port(self, dpid: int) -> int:
        port = self._next_port[dpid]
        self._next_port[dpid] = port + 1
        return port

    # -- lifecycle -----------------------------------------------------------

    def start(self, controller_for=None) -> None:
        """Connect switches to the controller and start services.

        ``controller_for`` (optional, ``dpid -> Controller``) wires each
        switch to a specific controller instead of ``self.controller``
        -- the seam a sharded deployment (:mod:`repro.shard`) uses to
        give every shard its own switch subset.  Every distinct
        controller returned is started exactly once.
        """
        if self._started:
            return
        self._started = True
        started = []
        for dpid in sorted(self.switches):
            controller = (controller_for(dpid) if controller_for is not None
                          else self.controller)
            controller.connect_switch(self.switches[dpid])
            if controller not in started:
                started.append(controller)
        for controller in started:
            controller.start()
        self.sim.every(FLOW_SWEEP_INTERVAL, self._sweep_flows)

    def _sweep_flows(self) -> None:
        for switch in self.switches.values():
            switch.sweep_flows()

    def run_for(self, duration: float) -> int:
        return self.sim.run_for(duration)

    def run_until(self, when: float) -> int:
        return self.sim.run_until(when)

    @property
    def now(self) -> float:
        return self.sim.now

    # -- lookups -----------------------------------------------------------------

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def switch(self, dpid: int) -> Switch:
        return self.switches[dpid]

    def link_between(self, dpid_a: int, dpid_b: int) -> Link:
        key = (min(dpid_a, dpid_b), max(dpid_a, dpid_b))
        return self._switch_links[key]

    def host_link(self, name: str) -> Link:
        return self._host_links[name]

    # -- failures ------------------------------------------------------------------

    def link_down(self, dpid_a: int, dpid_b: int) -> None:
        """Fail the inter-switch link; both switches emit PortStatus."""
        self.link_between(dpid_a, dpid_b).set_up(False)

    def link_up(self, dpid_a: int, dpid_b: int) -> None:
        self.link_between(dpid_a, dpid_b).set_up(True)

    def switch_down(self, dpid: int) -> None:
        """Power off a switch: its links fail, its channel drops."""
        switch = self.switches[dpid]
        for port in sorted(switch.ports):
            switch.ports[port].set_up(False)
        switch.set_up(False)

    def switch_up(self, dpid: int) -> None:
        switch = self.switches[dpid]
        switch.set_up(True)
        for port in sorted(switch.ports):
            link = switch.ports[port]
            other, _ = link.other_end(switch)
            # Only raise links whose far end is also alive.
            if getattr(other, "up", True):
                link.set_up(True)

    # -- measurement -----------------------------------------------------------------

    def ping(self, src_name: str, dst_name: str, wait: float = 0.5) -> Optional[float]:
        """Ping ``dst`` from ``src``; return the RTT or None if lost."""
        src, dst = self.hosts[src_name], self.hosts[dst_name]
        seq = src.ping(dst)
        self.run_for(wait)
        return src.ping_rtts.get(seq)

    def reachability(self, pairs: Optional[List[Tuple[str, str]]] = None,
                     wait: float = 0.5) -> float:
        """Fraction of (src, dst) pings that complete round trips.

        Defaults to all ordered host pairs.  Pings are launched
        together and the simulation runs once for ``wait`` seconds, so
        the cost is one settle window regardless of pair count.
        """
        if pairs is None:
            names = [spec.name for spec in self.topology.hosts]
            pairs = [(a, b) for a in names for b in names if a != b]
        if not pairs:
            return 1.0
        launched = []
        for src_name, dst_name in pairs:
            src = self.hosts[src_name]
            seq = src.ping(self.hosts[dst_name])
            launched.append((src, seq))
        self.run_for(wait)
        ok = sum(1 for src, seq in launched if seq in src.ping_rtts)
        return ok / len(launched)

    def total_flow_entries(self) -> int:
        return sum(len(s.flow_table) for s in self.switches.values())

    def __repr__(self) -> str:
        return (f"Network({self.topology.name}: {len(self.switches)} switches, "
                f"{len(self.hosts)} hosts, {len(self.links)} links)")
