"""Tests for routing, load balancer, firewall, and monitor apps."""

import pytest

from repro.apps import (
    DenyRule,
    Firewall,
    FlowMonitor,
    LearningSwitch,
    LoadBalancer,
    ShortestPathRouting,
)
from repro.apps.load_balancer import hash_stable
from repro.controller.monolithic import MonolithicRuntime
from repro.network.net import Network
from repro.network.packet import IPPROTO_TCP, tcp_packet
from repro.network.topology import linear_topology, ring_topology


class TestRouting:
    @pytest.fixture
    def rig(self):
        net = Network(ring_topology(4, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        routing = runtime.launch_app(ShortestPathRouting)
        net.start()
        net.run_for(1.5)
        return net, runtime, routing

    def test_connectivity(self, rig):
        net, runtime, routing = rig
        assert net.reachability() == 1.0

    def test_installs_multiswitch_paths(self, rig):
        net, runtime, routing = rig
        net.reachability()
        assert routing.paths_installed > 0
        # a route spans every switch on the path
        some_route = next(iter(routing.installed_routes.values()))
        assert len(some_route) >= 1

    def test_link_failure_invalidates_routes(self, rig):
        net, runtime, routing = rig
        net.reachability()
        routes_before = len(routing.installed_routes)
        assert routes_before > 0
        net.link_down(1, 2)
        net.run_for(0.5)
        assert len(routing.installed_routes) < routes_before

    def test_reroutes_after_failure_on_ring(self, rig):
        net, runtime, routing = rig
        assert net.reachability() == 1.0
        net.link_down(1, 2)
        net.run_for(1.0)
        # ring redundancy: full connectivity via the other arc
        assert net.reachability(wait=1.0) == 1.0

    def test_floods_before_host_known(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        routing = runtime.launch_app(ShortestPathRouting)
        net.start()
        net.run_for(1.0)
        net.ping("h1", "h2")
        assert routing.floods > 0


class TestLoadBalancer:
    def test_hash_stable_is_deterministic(self):
        assert hash_stable("10.0.0.1") == hash_stable("10.0.0.1")
        assert hash_stable(None) == 0
        assert hash_stable("a") != hash_stable("b")

    @pytest.fixture
    def rig(self):
        # h1 at s1; uplinks are s1's two trunks in a ring
        net = Network(ring_topology(3, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        lb = runtime.launch_app(lambda: LoadBalancer(dpid=1, uplinks=(1, 2)))
        runtime.launch_app(LearningSwitch)
        net.start()
        net.run_for(1.5)
        return net, runtime, lb

    def test_flows_spread_across_uplinks(self, rig):
        net, runtime, lb = rig
        h1, h2 = net.host("h1"), net.host("h2")
        for port in range(20000, 20024):
            h1.send(tcp_packet(h1.mac, h2.mac, h1.ip, h2.ip,
                               src_port=port, dst_port=80))
            net.run_for(0.05)
        assert lb.flows_balanced >= 24
        counts = [c for c in lb.assignments.values() if c > 0]
        assert len(counts) == 2
        assert max(counts) / min(counts) < 4.0

    def test_uplink_failure_redirects(self, rig):
        net, runtime, lb = rig
        net.link_down(1, 2)  # one of s1's uplinks
        net.run_for(0.5)
        assert len(lb.live_uplinks()) == 1
        h1, h2 = net.host("h1"), net.host("h2")
        for port in range(21000, 21008):
            h1.send(tcp_packet(h1.mac, h2.mac, h1.ip, h2.ip, src_port=port))
            net.run_for(0.05)
        # all new flows pinned to the surviving uplink
        survivors = lb.live_uplinks()
        dead = [p for p in lb.uplinks if p not in survivors]
        assert all(
            not any(a.port in dead for a in e.actions
                    if hasattr(a, "port"))
            for e in net.switch(1).flow_table
        )

    def test_ignores_other_switches(self, rig):
        net, runtime, lb = rig
        from repro.openflow.messages import PacketIn

        before = lb.flows_balanced
        event = PacketIn(dpid=2, in_port=3,
                         packet=tcp_packet("a", "b", "1.1.1.1", "2.2.2.2"))
        lb.handle(event)
        assert lb.flows_balanced == before


class TestFirewall:
    def test_deny_rules_installed_on_all_switches(self):
        deny = DenyRule(ip_dst="10.0.0.2", ip_proto=IPPROTO_TCP, tp_dst=23)
        net = Network(linear_topology(3, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        fw = runtime.launch_app(lambda: Firewall(deny_rules=(deny,)))
        runtime.launch_app(LearningSwitch)
        net.start()
        net.run_for(1.0)
        assert fw.rules_installed == 3
        assert sorted(fw.protected_switches) == [1, 2, 3]

    def test_denied_traffic_dropped_allowed_flows(self):
        deny = DenyRule(ip_dst="10.0.0.2", ip_proto=IPPROTO_TCP, tp_dst=23)
        net = Network(linear_topology(2, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        runtime.launch_app(lambda: Firewall(deny_rules=(deny,)))
        runtime.launch_app(LearningSwitch)
        net.start()
        net.run_for(1.0)
        h1, h2 = net.host("h1"), net.host("h2")
        # allowed: ping still works
        assert net.ping("h1", "h2") is not None
        # denied: telnet to h2 never arrives
        h2.clear_history()
        h1.send(tcp_packet(h1.mac, h2.mac, h1.ip, h2.ip, dst_port=23))
        net.run_for(0.5)
        # Only LLDP discovery floods may arrive, never the denied flow.
        assert [p for _, p in h2.received if not p.is_lldp()] == []


class TestFlowMonitor:
    def test_counts_pairs_and_flow_removed(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        monitor = runtime.launch_app(FlowMonitor)
        runtime.launch_app(LearningSwitch)
        net.start()
        net.run_for(1.0)
        net.ping("h1", "h2")
        assert monitor.total_observations() > 0
        assert ("00:00:00:00:00:01", "00:00:00:00:00:02") in \
            monitor.pair_packets

    def test_flow_removed_bytes_accumulate(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        monitor = runtime.launch_app(FlowMonitor)
        runtime.launch_app(LearningSwitch)
        net.start()
        net.run_for(1.0)
        net.ping("h1", "h2")
        net.run_for(LearningSwitch.IDLE_TIMEOUT + 1.0)
        # LearningSwitch rules lack send_flow_removed, so none arrive --
        # install one explicitly to exercise the path.
        from repro.openflow.match import Match
        from repro.openflow.messages import FlowMod
        from repro.openflow.actions import Output

        net.controller.send_to_switch(1, FlowMod(
            match=Match(eth_dst="zz"), actions=(Output(1),),
            hard_timeout=0.5, send_flow_removed=True))
        net.run_for(2.0)
        assert monitor.flow_removed_seen == 1
