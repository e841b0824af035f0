"""VirtualIPGateway: a NAT-style virtual-IP load balancer.

Clients address a *virtual* service endpoint (VIP + virtual MAC); the
gateway DNATs each new flow to one of the real backend servers and
SNATs the return traffic, so clients only ever see the VIP.  This is
the app that exercises OpenFlow's header-rewrite actions end-to-end
(SetEthDst/SetIpDst on the forward path, SetEthSrc/SetIpSrc on the
reverse path) -- a different class of "network policy spanning
multiple devices" than routing installs.

Each admitted flow becomes a NetLog-visible two-rule policy (forward
rewrite at the client's ingress switch, reverse rewrite at the
backend's switch), so a crash mid-admission is a genuine partial-policy
hazard the transaction layer must clean up.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.apps.base import SDNApp
from repro.openflow.actions import (
    Output,
    SetEthDst,
    SetEthSrc,
    SetIpDst,
    SetIpSrc,
    ToController,
)
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, PacketOut


class VirtualIPGateway(SDNApp):
    """DNAT/SNAT gateway for one virtual IP."""

    name = "gateway"
    subscriptions = ("PacketIn", "SwitchJoin")

    PRIORITY = 500
    #: Priority of the proactive "punt VIP traffic to me" rule --
    #: above any L2 switching rule (which would otherwise shortcut new
    #: flows toward wherever the virtual MAC was last seen), below the
    #: per-flow NAT rules.
    PUNT_PRIORITY = 400
    IDLE_TIMEOUT = 15.0

    def __init__(self, vip: str = "10.0.99.1",
                 vmac: str = "0a:0a:0a:0a:0a:0a",
                 backend_macs: Tuple[str, ...] = (),
                 name=None):
        super().__init__(name)
        self.vip = vip
        self.vmac = vmac
        self.backend_macs = tuple(backend_macs)
        self._next_backend = 0
        # (client_ip, client_port) -> backend mac
        self.flow_assignments: Dict[Tuple[str, int], str] = {}
        self.flows_admitted = 0
        self.admission_failures = 0
        self.enable_dirty_tracking()

    # -- service ownership -------------------------------------------------

    def on_switch_join(self, event):
        """Claim the VIP on every switch: un-admitted service traffic
        always punts to the gateway, whatever L2 rules exist."""
        self.api.emit(event.dpid, FlowMod(
            match=Match(ip_dst=self.vip),
            command=FlowModCommand.ADD,
            priority=self.PUNT_PRIORITY,
            actions=(ToController(),),
        ))

    # -- flow admission ---------------------------------------------------

    def on_packet_in(self, event):
        packet = event.packet
        if packet.ip_dst != self.vip and packet.eth_dst != self.vmac:
            return  # not service traffic; other apps handle it
        # Admit only at the client's attachment switch: flooded copies
        # of the same packet punt at other switches too, and must not
        # each become an admission.
        client = self.api.host_location(packet.eth_src)
        if client is None or client.dpid != event.dpid:
            return
        backend = self._assign_backend(packet)
        if backend is None:
            self.admission_failures += 1
            self.mark_dirty("admission_failures")
            return
        if not self._install_nat_rules(event, backend):
            self.admission_failures += 1
            self.mark_dirty("admission_failures")
            return
        self.flows_admitted += 1
        self.mark_dirty("flows_admitted")
        # Forward the triggering packet itself, rewritten.  Inline (not
        # via buffer_id): a co-resident switching app may flood the
        # same PacketIn and consume the shared buffer first.
        self.api.emit(event.dpid, PacketOut(
            packet=packet, in_port=event.in_port,
            actions=self._forward_actions(event.dpid, backend),
        ))

    def _assign_backend(self, packet):
        """Sticky round-robin: one backend per client flow."""
        key = (packet.ip_src, packet.tp_src or 0)
        assigned = self.flow_assignments.get(key)
        if assigned is not None:
            return self.api.host_location(assigned)
        live = [mac for mac in self.backend_macs
                if self.api.host_location(mac) is not None]
        if not live:
            return None
        mac = live[self._next_backend % len(live)]
        self._next_backend += 1
        self.mark_dirty("_next_backend")
        self.flow_assignments[key] = mac
        self.mark_dirty("flow_assignments")
        return self.api.host_location(mac)

    def _forward_actions(self, at_dpid: int, backend):
        """Rewrite-and-forward action list toward ``backend``."""
        port = self._egress_toward(at_dpid, backend.dpid, backend.port)
        return (SetEthDst(eth_dst=backend.mac),
                SetIpDst(ip_dst=backend.ip),
                Output(port))

    def _egress_toward(self, here: int, dst_dpid: int,
                       dst_port: int) -> Optional[int]:
        if here == dst_dpid:
            return dst_port
        topo = self.api.topology()
        path = topo.shortest_path(here, dst_dpid)
        if path is None or len(path) < 2:
            return None
        return topo.egress_port(path[0], path[1])

    def _install_nat_rules(self, event, backend) -> bool:
        """Forward DNAT at the ingress switch, reverse SNAT at the
        backend's switch.  Two rules, two switches: one transaction."""
        packet = event.packet
        client = self.api.host_location(packet.eth_src)
        if client is None:
            return False
        forward_port = self._egress_toward(event.dpid, backend.dpid,
                                           backend.port)
        reverse_port = self._egress_toward(backend.dpid, client.dpid,
                                           client.port)
        if forward_port is None or reverse_port is None:
            return False
        # DNAT: client -> VIP becomes client -> backend.
        self.api.emit(event.dpid, FlowMod(
            match=Match(ip_src=packet.ip_src, ip_dst=self.vip,
                        tp_src=packet.tp_src),
            command=FlowModCommand.ADD,
            priority=self.PRIORITY,
            actions=(SetEthDst(eth_dst=backend.mac),
                     SetIpDst(ip_dst=backend.ip),
                     Output(forward_port)),
            idle_timeout=self.IDLE_TIMEOUT,
        ))
        # SNAT: backend -> client becomes VIP -> client.
        self.api.emit(backend.dpid, FlowMod(
            match=Match(ip_src=backend.ip, ip_dst=packet.ip_src,
                        tp_dst=packet.tp_src),
            command=FlowModCommand.ADD,
            priority=self.PRIORITY,
            actions=(SetEthSrc(eth_src=self.vmac),
                     SetIpSrc(ip_src=self.vip),
                     SetEthDst(eth_dst=client.mac),
                     Output(reverse_port)),
            idle_timeout=self.IDLE_TIMEOUT,
        ))
        return True

    def backend_share(self) -> Dict[str, int]:
        """Flows per backend (load-spread inspection)."""
        share: Dict[str, int] = {}
        for mac in self.flow_assignments.values():
            share[mac] = share.get(mac, 0) + 1
        return share
