"""SpanningTreeSwitch: loop-free L2 switching on redundant topologies.

The chaos experiments surface the classic problem with plain learning
switches on rings: a blind ``Flood`` plus stale MAC entries can chain
into forwarding loops.  Real L2 networks solve this with a spanning
tree; this app does the SDN version -- it computes a spanning tree
from the controller's discovered topology and floods *only* along tree
ports (plus host ports), so broadcast storms and flood loops are
impossible by construction even on meshes and rings.

Unicast behaviour is inherited from :class:`LearningSwitch`; only the
flooding path changes.  The tree tracks the topology view: when links
fail or recover, the next flood uses the recomputed tree.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import networkx as nx

from repro.apps.learning_switch import LearningSwitch
from repro.openflow.actions import Output
from repro.openflow.messages import PacketOut


class SpanningTreeSwitch(LearningSwitch):
    """LearningSwitch with spanning-tree-constrained flooding."""

    name = "stp_switch"
    subscriptions = ("PacketIn", "SwitchLeave", "LinkRemoved",
                     "LinkDiscovered")

    def __init__(self, name=None):
        super().__init__(name)
        self._tree_version: int = -1
        # dpid -> set of inter-switch ports on the spanning tree
        self._tree_ports: Dict[int, FrozenSet[int]] = {}
        self.tree_recomputations = 0
        # Every unicast rule we installed, for the 802.1D-style flush
        # on topology change: (dpid, match) pairs.
        self._installed_rules: List[Tuple[int, object]] = []

    # -- tree maintenance ---------------------------------------------------

    def _tree_for(self, dpid: int) -> Optional[FrozenSet[int]]:
        """Tree ports of ``dpid``, recomputed when the topology moved."""
        topo = self.api.topology()
        if topo.version != self._tree_version:
            self._recompute_tree(topo)
        return self._tree_ports.get(dpid)

    def _recompute_tree(self, topo) -> None:
        self._tree_version = topo.version
        self.mark_dirty("_tree_version")
        self._tree_ports = {}
        self.mark_dirty("_tree_ports")
        self.tree_recomputations += 1
        self.mark_dirty("tree_recomputations")
        graph = topo.graph()
        if not graph.nodes:
            return
        # A deterministic spanning forest: minimum spanning edges with
        # stable ordering (edge data carries the port numbers).
        forest = nx.minimum_spanning_edges(graph, data=True, keys=False) \
            if graph.is_multigraph() else \
            nx.minimum_spanning_edges(graph, data=True)
        ports: Dict[int, Set[int]] = {dpid: set() for dpid in graph.nodes}
        for edge in forest:
            a, b, data = edge
            dpid_a, port_a, dpid_b, port_b = data["endpoints"]
            ports[dpid_a].add(port_a)
            ports[dpid_b].add(port_b)
        self._tree_ports = {dpid: frozenset(p) for dpid, p in ports.items()}

    def _interswitch_ports(self, dpid: int, topo) -> Set[int]:
        out = set()
        for dpid_a, port_a, dpid_b, port_b in topo.links:
            if dpid_a == dpid:
                out.add(port_a)
            if dpid_b == dpid:
                out.add(port_b)
        return out

    # -- flooding ---------------------------------------------------------------

    def on_packet_in(self, event):
        packet = event.packet
        out_port = self._learn(event)
        if out_port is not None and not packet.is_broadcast():
            # Unicast install (tracked so a topology change can flush it).
            from repro.openflow.match import Match
            from repro.openflow.messages import FlowMod, FlowModCommand

            self.flows_installed += 1
            self.mark_dirty("flows_installed")
            match = Match(in_port=event.in_port,
                          eth_src=packet.eth_src,
                          eth_dst=packet.eth_dst)
            self._installed_rules.append((event.dpid, match))
            self.mark_dirty("_installed_rules")
            self.api.emit(event.dpid, FlowMod(
                match=match, command=FlowModCommand.ADD,
                priority=self.PRIORITY, actions=(Output(out_port),),
                idle_timeout=self.IDLE_TIMEOUT,
            ))
            self.api.emit(event.dpid,
                          self.packet_out_for(event, (Output(out_port),)))
            return
        # Constrained flood: tree ports + host-facing ports, never the
        # ingress.  Host ports = everything that is not inter-switch.
        self.floods += 1
        self.mark_dirty("floods")
        topo = self.api.topology()
        tree_ports = self._tree_for(event.dpid)
        interswitch = self._interswitch_ports(event.dpid, topo)
        if tree_ports is None:
            # Unknown switch (discovery lag): only host ports are safe.
            tree_ports = frozenset()
        hosts = self.api.hosts()
        host_ports = {
            entry.port for entry in hosts.values()
            if entry.dpid == event.dpid
        }
        # Ports we cannot classify yet (no host learned, not a known
        # inter-switch link) are included -- a silent host may sit
        # there, and an unclassified port cannot form a loop once every
        # discovered inter-switch port outside the tree is excluded.
        candidate_ports = (set(tree_ports) | host_ports |
                           self._unclassified_ports(event.dpid, topo,
                                                    interswitch,
                                                    host_ports))
        actions = tuple(Output(port) for port in sorted(candidate_ports)
                        if port != event.in_port)
        if not actions:
            return
        self.api.emit(event.dpid, self.packet_out_for(event, actions))

    def _unclassified_ports(self, dpid: int, topo, interswitch: Set[int],
                            host_ports: Set[int]) -> Set[int]:
        """Ports with no known role.

        The controller only knows port numbers it has seen evidence
        for; a freshly started network has unlearned host ports.  We
        infer the full port set from discovered links + learned hosts
        and err on the side of delivering to quiet ports, which is safe
        because every non-tree inter-switch port is excluded
        explicitly.
        """
        known = interswitch | host_ports
        # Flood to low-numbered ports we have no evidence about: the
        # topology builders allocate host ports after trunk ports, so
        # the port space is dense starting at 1.
        highest = max(known, default=0) + 1
        return {p for p in range(1, highest + 1) if p not in known} - \
            interswitch

    # -- failure handling ---------------------------------------------------

    def on_link_removed(self, event):
        self._topology_change_flush()

    def on_link_discovered(self, event):
        # A recovered link also changes the tree; stale paths that
        # avoid it are only suboptimal, but entries pointing the OLD
        # way can shadow the new tree -- flush here too (802.1D floods
        # a TCN for both directions of change).
        self._topology_change_flush()

    def on_switch_leave(self, event):
        super().on_switch_leave(event)
        self._topology_change_flush()

    def _topology_change_flush(self) -> None:
        """The 802.1D topology-change reaction: flush the forwarding
        database.  Every unicast rule this app installed is deleted
        (strict, so other apps\' rules are untouched) and all MAC
        tables are cleared; traffic re-floods along the fresh tree and
        relearns true locations."""
        from repro.openflow.messages import FlowMod, FlowModCommand

        for dpid, match in self._installed_rules:
            self.api.emit(dpid, FlowMod(
                match=match, command=FlowModCommand.DELETE_STRICT,
                priority=self.PRIORITY,
            ))
        self._installed_rules = []
        self.mark_dirty("_installed_rules")
        # Cleared tables vanish from the state's key set (the per-switch
        # ("macs", dpid) keys); each is marked whole so that one
        # re-learned before the next take is not patched over its past.
        for dpid in self.mac_tables:
            self.mark_dirty(("macs", dpid))
        self.mac_tables.clear()

    # get_state is inherited unchanged: the frozensets of ints this app
    # keeps are values the state codec has a tag for.
