"""The SDN-App programming interface.

Apps never touch the controller object directly; they receive an
:class:`AppAPI` at startup and use it to emit OpenFlow messages and
read controller services.  The same interface is implemented twice:

- :class:`repro.controller.monolithic.MonolithicAPI` -- direct,
  in-process calls (the FloodLight baseline).
- :class:`repro.core.appvisor.stub.StubAPI` -- calls are buffered and
  shipped over the serialised RPC channel (LegoSDN).

Keeping the interface identical is how LegoSDN runs unmodified apps
("Neither the controller nor the SDN-App require any code change").
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.openflow.serialization import register_dataclass
from repro.record import record


class Command(enum.Enum):
    """Listener chain control (FloodLight's ``Command``)."""

    CONTINUE = "continue"
    STOP = "stop"


@register_dataclass
@record
class HostEntry:
    """A learned host location (device-manager row)."""

    mac: str
    ip: Optional[str]
    dpid: int
    port: int


Link = Tuple[int, int, int, int]


@register_dataclass
@record
class TopoView:
    """An immutable snapshot of the discovered topology.

    ``links`` holds canonical ``(dpid_a, port_a, dpid_b, port_b)``
    tuples with ``(dpid_a, port_a) <= (dpid_b, port_b)``.  The snapshot
    is a registered dataclass so the AppVisor proxy can push it to
    stubs whenever the version changes.
    """

    switches: Tuple[int, ...] = ()
    links: Tuple[Tuple[int, int, int, int], ...] = ()
    version: int = 0

    def _adjacency(self) -> Dict[int, Dict[int, Link]]:
        """dpid -> {neighbour dpid: the link's endpoints}.

        Nodes enter in ``networkx.Graph`` insertion order (``switches``,
        then link endpoints as they appear); a repeated pair keeps its
        first position and the last link's endpoints.
        """
        adjacency: Dict[int, Dict[int, Link]] = {
            dpid: {} for dpid in self.switches}
        for link in self.links:
            dpid_a, _, dpid_b, _ = link
            adjacency.setdefault(dpid_a, {})[dpid_b] = link
            adjacency.setdefault(dpid_b, {})[dpid_a] = link
        return adjacency

    def shortest_path(self, src: int, dst: int) -> Optional[list]:
        """Dpid path from src to dst, or None if unreachable.

        networkx's bidirectional BFS and path assembly, step for step,
        so ties break (and paths come out) as they did there.
        """
        adjacency = self._adjacency()
        if src not in adjacency or dst not in adjacency:
            return None
        met = _bidirectional_pred_succ(adjacency, src, dst)
        if met is None:
            return None
        pred, succ, w = met
        path = []
        while w is not None:
            path.append(w)
            w = pred[w]
        path.reverse()
        w = succ[path[-1]]
        while w is not None:
            path.append(w)
            w = succ[w]
        return path

    def tree_ports(self) -> Dict[int, FrozenSet[int]]:
        """Each dpid's ports on a spanning forest of this view.

        Kruskal at unit weight: links in ``networkx.Graph.edges`` order
        (which its stable sort keeps), each taken when it joins two
        trees.  Every node is a key, an isolated one with no ports.
        """
        adjacency = self._adjacency()
        ports = {dpid: set() for dpid in adjacency}
        for dpid_a, port_a, dpid_b, port_b in _spanning_links(adjacency):
            ports[dpid_a].add(port_a)
            ports[dpid_b].add(port_b)
        return {dpid: frozenset(p) for dpid, p in ports.items()}

    def egress_port(self, dpid_from: int, dpid_to: int) -> Optional[int]:
        """The port on ``dpid_from`` facing its neighbour ``dpid_to``."""
        for a, pa, b, pb in self.links:
            if (a, b) == (dpid_from, dpid_to):
                return pa
            if (b, a) == (dpid_from, dpid_to):
                return pb
        return None


def _bidirectional_pred_succ(adjacency, source, target):
    """Meet-in-the-middle BFS: ``(pred, succ, w)``, or None.

    ``networkx.algorithms.shortest_paths.unweighted.
    _bidirectional_pred_succ`` (3.6) on an undirected adjacency map:
    the smaller fringe expands, neighbours in adjacency order.
    """
    if target == source:
        return ({target: None}, {source: None}, source)
    pred = {source: None}
    succ = {target: None}
    forward_fringe = [source]
    reverse_fringe = [target]
    while forward_fringe and reverse_fringe:
        if len(forward_fringe) <= len(reverse_fringe):
            this_level = forward_fringe
            forward_fringe = []
            for v in this_level:
                for w in adjacency[v]:
                    if w not in pred:
                        forward_fringe.append(w)
                        pred[w] = v
                    if w in succ:
                        return pred, succ, w
        else:
            this_level = reverse_fringe
            reverse_fringe = []
            for v in this_level:
                for w in adjacency[v]:
                    if w not in succ:
                        succ[w] = v
                        reverse_fringe.append(w)
                    if w in pred:
                        return pred, succ, w
    return None


def _spanning_links(adjacency) -> List[Link]:
    """The links a unit-weight Kruskal takes, in the order it takes them.

    Edges are walked once each, as ``networkx.Graph.edges`` yields
    them: node by node, a neighbour not yet visited as a node.
    """
    parent = {dpid: dpid for dpid in adjacency}

    def root(dpid):
        while parent[dpid] != dpid:
            parent[dpid] = parent[parent[dpid]]
            dpid = parent[dpid]
        return dpid

    taken: List[Link] = []
    visited = set()
    for u, neighbours in adjacency.items():
        for v, link in neighbours.items():
            if v in visited:
                continue
            root_u, root_v = root(u), root(v)
            if root_u != root_v:
                parent[root_u] = root_v
                taken.append(link)
        visited.add(u)
    return taken


class AppAPI:
    """Abstract controller interface handed to every SDN-App.

    Subclasses must implement everything; the base class exists to
    document the contract both runtimes honour.
    """

    def now(self) -> float:
        """Current (simulated) time."""
        raise NotImplementedError

    def emit(self, dpid: int, msg) -> None:
        """Send an OpenFlow message (FlowMod/PacketOut/...) to a switch.

        Under LegoSDN the emission joins the current NetLog transaction
        and may be rolled back if the app crashes while handling the
        triggering event.
        """
        raise NotImplementedError

    def topology(self) -> TopoView:
        """Latest discovered topology snapshot."""
        raise NotImplementedError

    def host_location(self, mac: str) -> Optional[HostEntry]:
        """Where a host was last seen, or None."""
        raise NotImplementedError

    def hosts(self) -> Dict[str, HostEntry]:
        """All learned hosts, keyed by MAC."""
        raise NotImplementedError

    def switches(self) -> Tuple[int, ...]:
        """Currently connected switch dpids."""
        raise NotImplementedError

    def log(self, text: str) -> None:
        """Append to the app's log (collected into problem tickets)."""
        raise NotImplementedError

    def counter_inc(self, name: str, delta: int = 1) -> None:
        """Increment a named counter in the counter-store service."""
        raise NotImplementedError
