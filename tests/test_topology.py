"""Unit tests for topology descriptions and builders."""

import pytest

from repro.network.topology import (
    Topology,
    fat_tree_topology,
    linear_topology,
    mesh_topology,
    ring_topology,
    tree_topology,
)


class TestTopologyAPI:
    def test_add_switch_auto_dpid(self):
        topo = Topology()
        assert topo.add_switch() == 1
        assert topo.add_switch() == 2

    def test_duplicate_dpid_rejected(self):
        topo = Topology()
        topo.add_switch(5)
        with pytest.raises(ValueError):
            topo.add_switch(5)

    def test_host_gets_unique_mac_ip(self):
        topo = Topology()
        topo.add_switch(1)
        a = topo.add_host(1)
        b = topo.add_host(1)
        assert a.mac != b.mac and a.ip != b.ip

    def test_host_on_unknown_switch_rejected(self):
        topo = Topology()
        with pytest.raises(ValueError):
            topo.add_host(9)

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_switch(1)
        with pytest.raises(ValueError):
            topo.add_link(1, 1)

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_switch(1)
        topo.add_switch(2)
        topo.add_link(1, 2)
        with pytest.raises(ValueError):
            topo.add_link(2, 1)

    def test_validate_catches_dangling_link(self):
        topo = Topology(switches=[1, 2], switch_links=[(1, 3)])
        with pytest.raises(ValueError):
            topo.validate()

    def test_degree(self):
        topo = linear_topology(3, 1)

        def degree(dpid):
            return (sum(dpid in link for link in topo.switch_links)
                    + sum(h.dpid == dpid for h in topo.hosts))

        assert degree(2) == 3  # two trunks + one host
        assert degree(1) == 2


class TestBuilders:
    def test_linear(self):
        topo = linear_topology(4, 2)
        assert len(topo.switches) == 4
        assert len(topo.switch_links) == 3
        assert len(topo.hosts) == 8
        topo.validate()

    def test_ring_closes_cycle(self):
        topo = ring_topology(5, 1)
        assert len(topo.switch_links) == 5
        assert (1, 5) in topo.switch_links
        topo.validate()

    def test_ring_minimum_size(self):
        with pytest.raises(ValueError):
            ring_topology(2)

    def test_tree_counts(self):
        topo = tree_topology(depth=2, fanout=2, hosts_per_leaf=1)
        assert len(topo.switches) == 1 + 2 + 4
        assert len(topo.switch_links) == 6
        assert len(topo.hosts) == 4
        topo.validate()

    def test_fat_tree_k4(self):
        topo = fat_tree_topology(4)
        # k=4: 4 core, 8 agg, 8 edge, 16 hosts
        assert len(topo.switches) == 4 + 8 + 8
        assert len(topo.hosts) == 16
        topo.validate()

    def test_fat_tree_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree_topology(3)

    def test_mesh_full_connectivity(self):
        topo = mesh_topology(4, 1)
        assert len(topo.switch_links) == 6
        topo.validate()
