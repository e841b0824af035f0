"""Unit tests for OpenFlow actions."""

from repro.network.packet import Packet
from repro.network.simulator import Simulator
from repro.network.switch import Switch
from repro.openflow.actions import (
    Drop,
    Enqueue,
    Flood,
    Output,
    SetEthDst,
    SetEthSrc,
    SetIpDst,
    SetIpSrc,
)


def test_rewrite_actions_return_new_packet():
    pkt = Packet(eth_src="a", eth_dst="b", ip_src="1.1.1.1", ip_dst="2.2.2.2")
    out = SetEthDst(eth_dst="c").apply(pkt)
    assert out.eth_dst == "c"
    assert pkt.eth_dst == "b"  # original untouched
    assert out.pkt_id == pkt.pkt_id  # identity preserved across rewrites


def test_all_rewrites():
    pkt = Packet(eth_src="a", eth_dst="b", ip_src="1.1.1.1", ip_dst="2.2.2.2")
    assert SetEthSrc(eth_src="x").apply(pkt).eth_src == "x"
    assert SetIpSrc(ip_src="9.9.9.9").apply(pkt).ip_src == "9.9.9.9"
    assert SetIpDst(ip_dst="8.8.8.8").apply(pkt).ip_dst == "8.8.8.8"


def test_forwarding_actions_do_not_rewrite():
    pkt = Packet()
    for action in (Output(1), Flood(), Drop(), Enqueue(2, 1)):
        assert action.apply(pkt) is pkt


class TestOutputPorts:
    """Where :meth:`Switch.apply_actions` sends a packet."""

    ALL = {1, 2, 3}

    def egress(self, actions, in_port):
        switch = Switch(1, Simulator())
        sent = []
        switch.live_ports = lambda: self.ALL
        switch.send_out = lambda packet, port: sent.append(port)
        switch.apply_actions(actions, Packet(), in_port)
        return set(sent)

    def test_single_output(self):
        assert self.egress([Output(2)], in_port=1) == {2}

    def test_enqueue_counts_as_output(self):
        assert self.egress([Enqueue(3, 0)], 1) == {3}

    def test_flood_excludes_ingress(self):
        assert self.egress([Flood()], in_port=2) == {1, 3}

    def test_drop_wins(self):
        # A Drop ends the list: nothing after it is sent.
        assert self.egress([Drop(), Output(2)], 1) == set()

    def test_multiple_outputs_accumulate(self):
        assert self.egress([Output(2), Output(3)], 1) == {2, 3}

    def test_empty_action_list_is_drop(self):
        assert self.egress([], 1) == set()

    def test_actions_are_hashable(self):
        assert Output(1) == Output(1)
        assert len({Output(1), Output(1), Flood()}) == 2
