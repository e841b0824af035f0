"""OpenFlow actions.

Actions are immutable dataclasses applied by a switch datapath to a
matched packet, in list order.  Header-rewriting actions return a new
packet (packets are immutable in the simulator); forwarding actions are
interpreted by the datapath (:mod:`repro.network.switch`).
"""

from __future__ import annotations

from repro.record import record, replace


@record
class Action:
    """Base class for all actions."""

    def apply(self, packet):
        """Header-rewrite hook; forwarding actions return the packet unchanged."""
        return packet


@record
class Output(Action):
    """Forward the packet out of a specific port."""

    port: int


@record
class Flood(Action):
    """Forward out of every port except the ingress port."""


@record
class ToController(Action):
    """Punt the packet to the controller as a PacketIn."""


@record
class Drop(Action):
    """Explicitly drop the packet.

    OpenFlow encodes drop as an empty action list; the simulator keeps
    an explicit action so that flow dumps and problem tickets are
    unambiguous.
    """


@record
class Enqueue(Action):
    """Forward out of ``port`` via queue ``queue_id`` (QoS modelling)."""

    port: int
    queue_id: int = 0


@record
class SetEthSrc(Action):
    """Rewrite the Ethernet source address."""

    eth_src: str

    def apply(self, packet):
        return replace(packet, eth_src=self.eth_src)


@record
class SetEthDst(Action):
    """Rewrite the Ethernet destination address."""

    eth_dst: str

    def apply(self, packet):
        return replace(packet, eth_dst=self.eth_dst)


@record
class SetIpSrc(Action):
    """Rewrite the IPv4 source address (load balancers, NAT)."""

    ip_src: str

    def apply(self, packet):
        return replace(packet, ip_src=self.ip_src)


@record
class SetIpDst(Action):
    """Rewrite the IPv4 destination address (load balancers, NAT)."""

    ip_dst: str

    def apply(self, packet):
        return replace(packet, ip_dst=self.ip_dst)
