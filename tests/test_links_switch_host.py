"""Unit tests for links, the switch datapath, and hosts."""

import pytest

from repro.network.host import Host
from repro.network.links import Link
from repro.network.packet import Packet, icmp_packet, tcp_packet
from repro.network.simulator import Simulator
from repro.network.switch import Switch
from repro.openflow.actions import Drop, Flood, Output, SetEthDst, ToController
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoRequest,
    FlowMod,
    FlowModCommand,
    FlowStatsRequest,
    PacketIn,
    PacketOut,
    PortStatsRequest,
    PortStatus,
)


class FakeChannel:
    """Captures switch->controller traffic."""

    def __init__(self):
        self.messages = []
        self.disconnected = False

    def to_controller(self, msg):
        self.messages.append(msg)

    def disconnect(self):
        self.disconnected = True

    def reconnect(self):
        self.disconnected = False

    def of_type(self, cls):
        return [m for m in self.messages if isinstance(m, cls)]


@pytest.fixture
def rig():
    """Two switches joined by a link, a host on each switch."""
    sim = Simulator()
    s1, s2 = Switch(1, sim), Switch(2, sim)
    h1 = Host("h1", "00:00:00:00:00:01", "10.0.0.1", sim)
    h2 = Host("h2", "00:00:00:00:00:02", "10.0.0.2", sim)
    trunk = Link(sim, s1, 1, s2, 1, delay=0.001)
    l1 = Link(sim, s1, 2, h1, 0, delay=0.001)
    l2 = Link(sim, s2, 2, h2, 0, delay=0.001)
    s1.attach_link(1, trunk); s1.attach_link(2, l1)
    s2.attach_link(1, trunk); s2.attach_link(2, l2)
    h1.attach_link(l1); h2.attach_link(l2)
    c1, c2 = FakeChannel(), FakeChannel()
    s1.channel, s2.channel = c1, c2
    return sim, s1, s2, h1, h2, trunk, c1, c2


class TestLink:
    def test_other_end(self, rig):
        sim, s1, s2, *_rest = rig
        trunk = s1.ports[1]
        assert trunk.other_end(s1) == (s2, 1)
        assert trunk.other_end(s2) == (s1, 1)
        with pytest.raises(ValueError):
            trunk.other_end(object())

    def test_down_link_drops_at_send(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        trunk.up = False
        assert not trunk.transmit(Packet(), s1)
        assert trunk.dropped == 1

    def test_packet_in_flight_dropped_when_link_fails(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        trunk.transmit(Packet(), s1)
        trunk.up = False  # fails before delivery
        sim.run()
        assert trunk.dropped == 1
        assert trunk.transmitted == 0

    def test_set_up_notifies_switch_ports(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        trunk.set_up(False)
        assert len(c1.of_type(PortStatus)) == 1
        assert len(c2.of_type(PortStatus)) == 1
        assert not c1.of_type(PortStatus)[0].link_up

    def test_set_up_idempotent(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        trunk.set_up(False)
        trunk.set_up(False)
        assert len(c1.of_type(PortStatus)) == 1


class TestSwitchDataplane:
    def test_table_miss_punts_packet_in(self, rig):
        sim, s1, *_ = rig
        c1 = s1.channel
        s1.receive_packet(tcp_packet("a", "b", "1", "2"), in_port=2)
        pins = c1.of_type(PacketIn)
        assert len(pins) == 1
        assert pins[0].in_port == 2
        assert pins[0].dpid == 1

    def test_matching_rule_forwards(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        s1.flow_table.apply_flow_mod(
            FlowMod(match=Match(), actions=(Output(1),)), 0.0)
        s1.receive_packet(tcp_packet(h1.mac, h2.mac, h1.ip, h2.ip), in_port=2)
        sim.run()
        # s2 punts (no rules there)
        assert len(c2.of_type(PacketIn)) == 1
        assert c1.of_type(PacketIn) == []

    def test_flood_excludes_ingress(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        s1.flow_table.apply_flow_mod(
            FlowMod(match=Match(), actions=(Flood(),)), 0.0)
        s1.receive_packet(tcp_packet(h1.mac, h2.mac, h1.ip, h2.ip), in_port=2)
        sim.run()
        assert len(c2.of_type(PacketIn)) == 1  # went out trunk
        assert h1.received == []               # not back out ingress

    def test_rewrite_then_output(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        s1.flow_table.apply_flow_mod(
            FlowMod(match=Match(),
                    actions=(SetEthDst(eth_dst=h1.mac), Output(2))), 0.0)
        s1.receive_packet(tcp_packet("x", "y", "1", "2"), in_port=1)
        sim.run()
        assert len(h1.received) == 1
        assert h1.received[0][1].eth_dst == h1.mac

    def test_drop_action(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        s1.flow_table.apply_flow_mod(
            FlowMod(match=Match(), actions=(Drop(),)), 0.0)
        s1.receive_packet(tcp_packet(h1.mac, h2.mac, "1", "2"), in_port=2)
        sim.run()
        assert c1.messages == [] and h2.received == []

    def test_to_controller_action(self, rig):
        sim, s1, *_ = rig
        s1.flow_table.apply_flow_mod(
            FlowMod(match=Match(), actions=(ToController(),)), 0.0)
        s1.receive_packet(tcp_packet("a", "b", "1", "2"), in_port=2)
        pins = s1.channel.of_type(PacketIn)
        assert len(pins) == 1
        assert pins[0].reason.name == "ACTION"

    def test_ttl_exhaustion_drops(self, rig):
        sim, s1, *_ = rig
        s1.receive_packet(Packet(ttl=0), in_port=2)
        assert s1.channel.messages == []

    def test_lldp_always_punted(self, rig):
        sim, s1, *_ = rig
        from repro.network.packet import ETH_TYPE_LLDP

        s1.flow_table.apply_flow_mod(
            FlowMod(match=Match(), actions=(Drop(),)), 0.0)
        s1.receive_packet(Packet(eth_type=ETH_TYPE_LLDP, payload="lldp:9:1"),
                          in_port=1)
        assert len(s1.channel.of_type(PacketIn)) == 1

    def test_dead_switch_ignores_everything(self, rig):
        sim, s1, *_ = rig
        s1.up = False
        s1._link_deliver(Packet(), 2)
        s1.handle_message(FlowMod(match=Match()))
        assert s1.channel.messages == []
        assert len(s1.flow_table) == 0

    def test_counters_updated(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        s1.flow_table.apply_flow_mod(
            FlowMod(match=Match(), actions=(Output(1),)), 0.0)
        s1._link_deliver(tcp_packet(h1.mac, h2.mac, "1", "2", size=100), 2)
        assert s1.port_counters[2].rx_packets == 1
        assert s1.port_counters[2].rx_bytes == 100
        assert s1.port_counters[1].tx_packets == 1


class TestSwitchControlPlane:
    def test_barrier_reply_echoes_xid(self, rig):
        sim, s1, *_ = rig
        s1.handle_message(BarrierRequest(xid=77))
        replies = s1.channel.of_type(BarrierReply)
        assert len(replies) == 1 and replies[0].xid == 77

    def test_echo(self, rig):
        sim, s1, *_ = rig
        s1.handle_message(EchoRequest(payload=b"hi", xid=5))
        assert s1.channel.messages[-1].payload == b"hi"

    def test_flow_stats(self, rig):
        sim, s1, *_ = rig
        s1.handle_message(FlowMod(match=Match(eth_dst="d"), actions=(Output(1),)))
        s1.handle_message(FlowStatsRequest(match=Match()))
        reply = s1.channel.messages[-1]
        assert reply.dpid == 1
        assert len(reply.entries) == 1
        assert reply.entries[0].match == Match(eth_dst="d")

    def test_port_stats(self, rig):
        sim, s1, *_ = rig
        s1.handle_message(PortStatsRequest())
        reply = s1.channel.messages[-1]
        assert {e.port for e in reply.entries} == {1, 2}

    def test_packet_out_executes_actions(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        s1.handle_message(PacketOut(packet=tcp_packet("a", h1.mac, "1", "2"),
                                    actions=(Output(2),)))
        sim.run()
        assert len(h1.received) == 1

    def test_flow_mod_install(self, rig):
        sim, s1, *_ = rig
        s1.handle_message(FlowMod(match=Match(eth_dst="d"),
                                  command=FlowModCommand.ADD,
                                  actions=(Output(1),)))
        assert len(s1.flow_table) == 1

    def test_sweep_emits_flow_removed(self, rig):
        sim, s1, *_ = rig
        s1.handle_message(FlowMod(match=Match(eth_dst="d"), hard_timeout=0.5,
                                  send_flow_removed=True, actions=(Output(1),)))
        sim.run_for(1.0)
        s1.sweep_flows()
        from repro.openflow.messages import FlowRemoved

        assert len(s1.channel.of_type(FlowRemoved)) == 1

    def test_set_up_false_clears_tables_and_disconnects(self, rig):
        sim, s1, *_ = rig
        s1.handle_message(FlowMod(match=Match(), actions=(Output(1),)))
        s1.set_up(False)
        assert len(s1.flow_table) == 0
        assert s1.channel.disconnected


class TestHost:
    def test_nic_filters_foreign_unicast(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        h1._link_deliver(tcp_packet("x", "not-h1", "1", "2"), 0)
        assert h1.received == []
        h1._link_deliver(tcp_packet("x", h1.mac, "1", "2"), 0)
        assert len(h1.received) == 1

    def test_broadcast_accepted(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        h1._link_deliver(Packet(eth_src="x"), 0)  # default dst broadcast
        assert len(h1.received) == 1

    def test_ping_pong_rtt(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        # wire a direct host path: flood rules both switches
        for sw in (s1, s2):
            sw.flow_table.apply_flow_mod(
                FlowMod(match=Match(), actions=(Flood(),)), 0.0)
        seq = h1.ping(h2)
        sim.run()
        assert seq in h1.ping_rtts
        assert h1.ping_rtts[seq] > 0

    def test_packets_from(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        h1._link_deliver(tcp_packet(h2.mac, h1.mac, "2", "1"), 0)
        assert [p.eth_src for _, p in h1.received] == [h2.mac]

    def test_clear_history(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        h1._link_deliver(tcp_packet("x", h1.mac, "1", "2"), 0)
        h1.clear_history()
        assert h1.received == [] and h1.sent == 0

    def test_double_attach_rejected(self, rig):
        sim, s1, s2, h1, h2, trunk, c1, c2 = rig
        with pytest.raises(ValueError):
            h1.attach_link(trunk)
