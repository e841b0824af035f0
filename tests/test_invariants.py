"""Tests for the invariant checker: traces, loops, black-holes."""

import pytest

from repro.apps import LearningSwitch
from repro.controller.monolithic import MonolithicRuntime
from repro.invariants import (
    InvariantChecker,
    NetSnapshot,
    Probe,
    build_host_probes,
    trace,
)
from repro.invariants.graph import HostAttachment
from repro.network.net import Network
from repro.network.packet import tcp_packet
from repro.network.topology import linear_topology, ring_topology
from repro.openflow.actions import Drop, Flood, Output, ToController
from repro.openflow.flowtable import FlowTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod


def snapshot_2sw(rules1=(), rules2=()):
    """Two switches: trunk on port 1; host on port 2 of each."""
    tables = {1: FlowTable(), 2: FlowTable()}
    for mod in rules1:
        tables[1].apply_flow_mod(mod, 0.0)
    for mod in rules2:
        tables[2].apply_flow_mod(mod, 0.0)
    return NetSnapshot(
        tables=tables,
        adjacency={(1, 1): (2, 1), (2, 1): (1, 1)},
        hosts={
            "hA": HostAttachment("hA", "10.0.0.1", 1, 2),
            "hB": HostAttachment("hB", "10.0.0.2", 2, 2),
        },
    )


def probe_packet():
    return tcp_packet("hA", "hB", "10.0.0.1", "10.0.0.2")


class TestTrace:
    def test_delivery_along_installed_path(self):
        snap = snapshot_2sw(
            rules1=[FlowMod(match=Match(eth_dst="hB"), actions=(Output(1),))],
            rules2=[FlowMod(match=Match(eth_dst="hB"), actions=(Output(2),))],
        )
        result = trace(snap, 1, 2, probe_packet())
        assert result.delivered
        assert result.delivered_macs == {"hB"}
        assert result.switches_visited == {1, 2}

    def test_table_miss_is_controller_punt(self):
        snap = snapshot_2sw()
        result = trace(snap, 1, 2, probe_packet())
        assert result.controller_punts == 1
        assert not result.delivered
        assert not result.blackholed

    def test_drop_rule_is_blackhole(self):
        snap = snapshot_2sw(
            rules1=[FlowMod(match=Match(), actions=(Drop(),))])
        result = trace(snap, 1, 2, probe_packet())
        assert result.drops == 1
        assert result.blackholed

    def test_egress_to_dead_port_is_drop(self):
        snap = snapshot_2sw(
            rules1=[FlowMod(match=Match(), actions=(Output(9),))])
        result = trace(snap, 1, 2, probe_packet())
        assert result.drops == 1
        assert result.blackholed

    def test_two_switch_loop_detected(self):
        snap = snapshot_2sw(
            rules1=[FlowMod(match=Match(), actions=(Output(1),))],
            rules2=[FlowMod(match=Match(), actions=(Output(1),))],
        )
        result = trace(snap, 1, 2, probe_packet())
        assert result.looped
        assert not result.blackholed

    def test_flood_reaches_host_and_neighbor(self):
        snap = snapshot_2sw(
            rules1=[FlowMod(match=Match(), actions=(Flood(),))],
            rules2=[FlowMod(match=Match(), actions=(Output(2),))],
        )
        result = trace(snap, 1, 2, probe_packet())
        assert result.delivered_macs == {"hB"}

    def test_two_switch_flood_does_not_loop(self):
        """Flood excludes the ingress port, so two switches cannot
        flood-loop -- the probe is simply delivered."""
        snap = snapshot_2sw(
            rules1=[FlowMod(match=Match(), actions=(Flood(),))],
            rules2=[FlowMod(match=Match(), actions=(Flood(),))],
        )
        result = trace(snap, 1, 2, probe_packet())
        assert not result.looped
        assert result.delivered_macs == {"hB"}

    def test_ring_flood_loop_detected(self):
        """Three flooding switches in a cycle: the classic broadcast storm."""
        tables = {d: FlowTable() for d in (1, 2, 3)}
        for table in tables.values():
            table.apply_flow_mod(
                FlowMod(match=Match(), actions=(Flood(),)), 0.0)
        snap = NetSnapshot(
            tables=tables,
            adjacency={
                (1, 1): (2, 1), (2, 1): (1, 1),
                (2, 2): (3, 1), (3, 1): (2, 2),
                (3, 2): (1, 2), (1, 2): (3, 2),
            },
            hosts={"hA": HostAttachment("hA", "10.0.0.1", 1, 3)},
        )
        result = trace(snap, 1, 3, probe_packet())
        assert result.looped

    def test_to_controller_action_counts_punt(self):
        snap = snapshot_2sw(
            rules1=[FlowMod(match=Match(), actions=(ToController(),))])
        result = trace(snap, 1, 2, probe_packet())
        assert result.controller_punts == 1

    def test_rewrite_affects_downstream_matching(self):
        from repro.openflow.actions import SetEthDst

        snap = snapshot_2sw(
            rules1=[FlowMod(match=Match(),
                            actions=(SetEthDst(eth_dst="hB"), Output(1)))],
            rules2=[FlowMod(match=Match(eth_dst="hB"), actions=(Output(2),))],
        )
        pkt = tcp_packet("hA", "somewhere-else", "10.0.0.1", "10.0.0.9")
        result = trace(snap, 1, 2, pkt)
        assert result.delivered_macs == {"hB"}

    def test_missing_table_is_drop(self):
        snap = snapshot_2sw()
        del snap.tables[2]
        snap.tables[1].apply_flow_mod(
            FlowMod(match=Match(), actions=(Output(1),)), 0.0)
        result = trace(snap, 1, 2, probe_packet())
        assert result.drops == 1


class TestSnapshotBuilders:
    def test_from_network_matches_ground_truth(self):
        net = Network(linear_topology(3, 1), seed=0)
        net.start()
        net.run_for(1.0)
        snap = NetSnapshot.from_network(net)
        assert set(snap.tables) == {1, 2, 3}
        assert len(snap.hosts) == 3
        assert (1, 1) in snap.adjacency

    def test_from_network_excludes_down_links(self):
        net = Network(linear_topology(3, 1), seed=0)
        net.start()
        net.run_for(1.0)
        net.link_down(1, 2)
        snap = NetSnapshot.from_network(net)
        assert (1, 1) not in snap.adjacency

    def test_from_tables_uses_controller_view(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        runtime.launch_app(LearningSwitch)
        net.start()
        net.run_for(1.5)
        net.ping("h1", "h2")
        snap = NetSnapshot.from_tables(
            {d: s.flow_table for d, s in net.switches.items()},
            net.controller.topology.view(),
            net.controller.devices.all(),
        )
        assert len(snap.hosts) == 2
        assert (1, 1) in snap.adjacency


class TestChecker:
    def test_clean_network_no_violations(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        runtime.launch_app(LearningSwitch)
        net.start()
        net.run_for(1.0)
        net.reachability()
        snap = NetSnapshot.from_network(net)
        checker = InvariantChecker(snap)
        assert checker.check_all() == []

    def test_loop_violation_reported_critical(self):
        snap = snapshot_2sw(
            rules1=[FlowMod(match=Match(), actions=(Output(1),))],
            rules2=[FlowMod(match=Match(), actions=(Output(1),))],
        )
        checker = InvariantChecker(snap, critical_kinds=("loop",))
        violations = checker.check_all()
        loops = [v for v in violations if v.kind == "loop"]
        assert loops and all(v.critical for v in loops)

    def test_blackhole_violation(self):
        snap = snapshot_2sw(
            rules1=[FlowMod(match=Match(), actions=(Drop(),))])
        checker = InvariantChecker(snap)
        violations = checker.check_blackholes(build_host_probes(snap))
        assert violations
        assert violations[0].kind == "blackhole"
        assert not violations[0].critical

    def test_reachability_not_violated_by_punts(self):
        snap = snapshot_2sw()  # empty tables: everything punts
        checker = InvariantChecker(snap)
        assert checker.check_reachability(build_host_probes(snap)) == []

    def test_waypoint_violation(self):
        # direct path 1->host on same switch, never visits waypoint 2
        snap = snapshot_2sw(
            rules1=[FlowMod(match=Match(), actions=(Output(1),))],
            rules2=[FlowMod(match=Match(), actions=(Output(2),))],
        )
        probes = build_host_probes(snap, pairs=[("hA", "hB")])
        checker = InvariantChecker(snap)
        assert checker.check_waypoint(probes[0], waypoint_dpid=2) == []
        # now a waypoint that is NOT on the path
        snap2 = NetSnapshot(
            tables={1: FlowTable()},
            adjacency={},
            hosts={
                "hA": HostAttachment("hA", "1", 1, 1),
                "hB": HostAttachment("hB", "2", 1, 2),
            },
        )
        snap2.tables[1].apply_flow_mod(
            FlowMod(match=Match(), actions=(Output(2),)), 0.0)
        probes2 = build_host_probes(snap2, pairs=[("hA", "hB")])
        checker2 = InvariantChecker(snap2)
        assert checker2.check_waypoint(probes2[0], waypoint_dpid=99)

    def test_probe_building_skips_unknown_hosts(self):
        snap = snapshot_2sw()
        probes = build_host_probes(snap, pairs=[("hA", "ghost")])
        assert probes == []

    def test_violation_str(self):
        from repro.invariants import Violation

        v = Violation(kind="loop", detail="d", critical=True)
        assert "CRITICAL" in str(v)
