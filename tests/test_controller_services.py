"""Unit tests for controller services: topology, discovery, devices, counters."""

import pytest

from repro.apps import LearningSwitch
from repro.controller.events import LinkDiscovered, LinkRemoved
from repro.controller.monolithic import MonolithicRuntime
from repro.controller.services import CounterStore
from repro.network.net import Network
from repro.network.topology import linear_topology, ring_topology


@pytest.fixture
def net():
    net = Network(linear_topology(3, 1), seed=0)
    net.start()
    net.run_for(1.5)
    return net


class TestTopologyService:
    def test_view_is_canonical_and_sorted(self, net):
        view = net.controller.topology.view()
        assert view.switches == (1, 2, 3)
        for a, pa, b, pb in view.links:
            assert (a, pa) <= (b, pb)
        assert list(view.links) == sorted(view.links)

    def test_version_bumps_on_change(self, net):
        v = net.controller.topology.version
        net.link_down(1, 2)
        net.run_for(0.2)
        assert net.controller.topology.version > v

    def test_link_events_dispatched(self, net):
        removed = []
        net.controller.register_listener("probe", ("LinkRemoved",),
                                         lambda e: removed.append(e))
        net.link_down(2, 3)
        net.run_for(0.2)
        assert len(removed) == 1
        assert isinstance(removed[0], LinkRemoved)

    def test_removed_links_since(self, net):
        t0 = net.now
        net.link_down(1, 2)
        net.run_for(0.2)
        recent = net.controller.topology.removed_links_since(t0)
        assert len(recent) == 1

    def test_is_interswitch_port(self, net):
        topo = net.controller.topology
        assert topo.is_interswitch_port(1, 1)   # trunk
        assert not topo.is_interswitch_port(1, 2)  # host port

    def test_stale_links_expire_without_probes(self, net):
        # Stop discovery; links should age out.
        net.controller.discovery.stop()
        net.run_for(5.0)
        net.controller.topology.expire_links(net.now,
                                             net.controller.discovery.max_age)
        assert net.controller.topology.view().links == ()


class TestTopoView:
    def test_graph_and_paths(self, net):
        view = net.controller.topology.view()
        assert view.shortest_path(1, 3) == [1, 2, 3]
        assert view.shortest_path(1, 99) is None

    def test_egress_port(self, net):
        view = net.controller.topology.view()
        port = view.egress_port(1, 2)
        assert port == 1
        assert view.egress_port(1, 3) is None  # not adjacent

    def test_neighbors(self, net):
        view = net.controller.topology.view()
        assert sorted(b if a == 2 else a for a, _, b, _ in view.links
                      if 2 in (a, b)) == [1, 3]

    def test_no_path_after_partition(self, net):
        net.link_down(1, 2)
        net.run_for(0.2)
        view = net.controller.topology.view()
        assert view.shortest_path(1, 3) is None


class TestDeviceManager:
    def test_hosts_learned_from_packet_ins(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        runtime.launch_app(LearningSwitch)
        net.start()
        net.run_for(1.5)
        net.ping("h1", "h2")
        devices = net.controller.devices
        h1 = net.host("h1")
        entry = devices.location(h1.mac)
        assert entry is not None
        assert entry.dpid == 1
        assert entry.ip == h1.ip

    def test_transit_ports_not_learned_as_hosts(self):
        net = Network(linear_topology(3, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        runtime.launch_app(LearningSwitch)
        net.start()
        net.run_for(1.5)
        net.ping("h1", "h3")
        net.run_for(0.5)
        # h1 must be located at s1, never at s2/s3 transit ports
        entry = net.controller.devices.location(net.host("h1").mac)
        assert entry.dpid == 1

    def test_reset(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        runtime.launch_app(LearningSwitch)
        net.start()
        net.run_for(1.0)
        net.ping("h1", "h2")
        net.controller.devices.reset()
        assert net.controller.devices.all() == {}


class TestLinkDiscovery:
    def test_probe_counting(self, net):
        assert net.controller.discovery.probes_sent > 0

    def test_ring_discovered_fully(self):
        net = Network(ring_topology(5, 0), seed=0)
        net.start()
        net.run_for(2.0)
        assert len(net.controller.topology.view().links) == 5

    def test_malformed_lldp_ignored(self, net):
        from repro.openflow.messages import PacketIn
        from repro.network.packet import Packet, ETH_TYPE_LLDP

        before = net.controller.topology.version
        bad = PacketIn(dpid=1, in_port=1,
                       packet=Packet(eth_type=ETH_TYPE_LLDP, payload="garbage"))
        net.controller.discovery.handle_lldp(1, bad)
        assert net.controller.topology.version == before


class TestCounterStore:
    def test_inc_get(self):
        store = CounterStore()
        assert store.inc("a") == 1
        assert store.inc("a", 4) == 5
        assert store.snapshot() == {"a": 5}

    def test_snapshot_is_copy(self):
        store = CounterStore()
        store.inc("a")
        snap = store.snapshot()
        store.inc("a")
        assert snap == {"a": 1}

    def test_reset(self):
        store = CounterStore()
        store.inc("a")
        store.reset()
        assert store.snapshot() == {}
