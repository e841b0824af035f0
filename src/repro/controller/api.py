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
from typing import Dict, Optional, Tuple

import networkx as nx

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

    def graph(self) -> "nx.Graph":
        """Build a networkx graph (nodes=dpids, edges carry port attrs)."""
        g = nx.Graph()
        g.add_nodes_from(self.switches)
        for dpid_a, port_a, dpid_b, port_b in self.links:
            g.add_edge(dpid_a, dpid_b, port_a=port_a, port_b=port_b,
                       endpoints=(dpid_a, port_a, dpid_b, port_b))
        return g

    def shortest_path(self, src: int, dst: int) -> Optional[list]:
        """Dpid path from src to dst, or None if unreachable."""
        g = self.graph()
        if src not in g or dst not in g:
            return None
        try:
            return nx.shortest_path(g, src, dst)
        except nx.NetworkXNoPath:
            return None

    def egress_port(self, dpid_from: int, dpid_to: int) -> Optional[int]:
        """The port on ``dpid_from`` facing its neighbour ``dpid_to``."""
        for a, pa, b, pb in self.links:
            if (a, b) == (dpid_from, dpid_to):
                return pa
            if (b, a) == (dpid_from, dpid_to):
                return pb
        return None


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
