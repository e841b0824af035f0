"""Topology descriptions and builders.

A :class:`Topology` is a pure description -- switches, hosts, and the
links between them -- that :class:`repro.network.net.Network`
materialises into live simulator objects.  Builders cover the shapes
used by the benchmark harness: linear, ring, tree, fat-tree, full mesh,
and seeded random graphs (always connected).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class HostSpec:
    """One host and the switch it attaches to."""

    name: str
    mac: str
    ip: str
    dpid: int


@dataclass
class Topology:
    """Switches, hosts, and switch-to-switch adjacency."""

    name: str = "topology"
    switches: List[int] = field(default_factory=list)
    hosts: List[HostSpec] = field(default_factory=list)
    switch_links: List[Tuple[int, int]] = field(default_factory=list)

    def add_switch(self, dpid: Optional[int] = None) -> int:
        dpid = dpid if dpid is not None else (max(self.switches, default=0) + 1)
        if dpid in self.switches:
            raise ValueError(f"duplicate dpid {dpid}")
        self.switches.append(dpid)
        return dpid

    def add_host(self, dpid: int, name: Optional[str] = None) -> HostSpec:
        if dpid not in self.switches:
            raise ValueError(f"no such switch: {dpid}")
        n = len(self.hosts) + 1
        spec = HostSpec(
            name=name or f"h{n}",
            mac=f"00:00:00:00:{(n >> 8) & 0xFF:02x}:{n & 0xFF:02x}",
            ip=f"10.0.{(n >> 8) & 0xFF}.{n & 0xFF}",
            dpid=dpid,
        )
        self.hosts.append(spec)
        return spec

    def add_link(self, dpid_a: int, dpid_b: int) -> None:
        if dpid_a == dpid_b:
            raise ValueError("self-links are not allowed")
        for dpid in (dpid_a, dpid_b):
            if dpid not in self.switches:
                raise ValueError(f"no such switch: {dpid}")
        pair = (min(dpid_a, dpid_b), max(dpid_a, dpid_b))
        if pair in self.switch_links:
            raise ValueError(f"duplicate link {pair}")
        self.switch_links.append(pair)

    def validate(self) -> None:
        """Raise ValueError on dangling references or duplicates."""
        if len(set(self.switches)) != len(self.switches):
            raise ValueError("duplicate switch dpids")
        for spec in self.hosts:
            if spec.dpid not in self.switches:
                raise ValueError(f"host {spec.name} on unknown switch {spec.dpid}")
        seen = set()
        for a, b in self.switch_links:
            if a not in self.switches or b not in self.switches:
                raise ValueError(f"link ({a},{b}) references unknown switch")
            pair = (min(a, b), max(a, b))
            if pair in seen:
                raise ValueError(f"duplicate link {pair}")
            seen.add(pair)

    def degree(self, dpid: int) -> int:
        return sum(1 for a, b in self.switch_links if dpid in (a, b)) + sum(
            1 for h in self.hosts if h.dpid == dpid
        )


def linear_topology(num_switches: int = 3, hosts_per_switch: int = 1) -> Topology:
    """s1 - s2 - ... - sN, each with ``hosts_per_switch`` hosts."""
    topo = Topology(name=f"linear-{num_switches}")
    for i in range(num_switches):
        topo.add_switch(i + 1)
    for i in range(1, num_switches):
        topo.add_link(i, i + 1)
    for dpid in list(topo.switches):
        for _ in range(hosts_per_switch):
            topo.add_host(dpid)
    return topo


def ring_topology(num_switches: int = 4, hosts_per_switch: int = 1) -> Topology:
    """A cycle of switches -- redundant paths for the equivalence
    experiment (E6) and loop-detection tests."""
    if num_switches < 3:
        raise ValueError("a ring needs at least 3 switches")
    topo = Topology(name=f"ring-{num_switches}")
    for i in range(num_switches):
        topo.add_switch(i + 1)
    for i in range(1, num_switches):
        topo.add_link(i, i + 1)
    topo.add_link(num_switches, 1)
    for dpid in list(topo.switches):
        for _ in range(hosts_per_switch):
            topo.add_host(dpid)
    return topo


def tree_topology(depth: int = 2, fanout: int = 2,
                  hosts_per_leaf: int = 1) -> Topology:
    """A ``fanout``-ary tree of switches, hosts on the leaves."""
    topo = Topology(name=f"tree-d{depth}-f{fanout}")
    root = topo.add_switch()
    frontier = [root]
    for _ in range(depth):
        next_frontier = []
        for parent in frontier:
            for _ in range(fanout):
                child = topo.add_switch()
                topo.add_link(parent, child)
                next_frontier.append(child)
        frontier = next_frontier
    for leaf in frontier:
        for _ in range(hosts_per_leaf):
            topo.add_host(leaf)
    return topo


def fat_tree_topology(k: int = 4) -> Topology:
    """A k-ary fat-tree (k even): (k/2)^2 core, k pods of k switches,
    one host per edge-switch port."""
    if k % 2:
        raise ValueError("fat-tree k must be even")
    topo = Topology(name=f"fattree-{k}")
    half = k // 2
    cores = [topo.add_switch() for _ in range(half * half)]
    for pod in range(k):
        aggs = [topo.add_switch() for _ in range(half)]
        edges = [topo.add_switch() for _ in range(half)]
        for i, agg in enumerate(aggs):
            for j in range(half):
                topo.add_link(agg, cores[i * half + j])
            for edge in edges:
                topo.add_link(agg, edge)
        for edge in edges:
            for _ in range(half):
                topo.add_host(edge)
    return topo


def mesh_topology(num_switches: int = 4, hosts_per_switch: int = 1) -> Topology:
    """Full mesh between switches (maximum path redundancy)."""
    topo = Topology(name=f"mesh-{num_switches}")
    for i in range(num_switches):
        topo.add_switch(i + 1)
    for a in range(1, num_switches + 1):
        for b in range(a + 1, num_switches + 1):
            topo.add_link(a, b)
    for dpid in list(topo.switches):
        for _ in range(hosts_per_switch):
            topo.add_host(dpid)
    return topo


def random_topology(num_switches: int = 8, extra_link_prob: float = 0.2,
                    hosts_per_switch: int = 1, seed: int = 0) -> Topology:
    """A connected random graph: random spanning tree + extra edges.

    Deterministic for a given seed; used by property-based tests and
    scale sweeps.
    """
    rng = random.Random(seed)
    topo = Topology(name=f"random-{num_switches}-s{seed}")
    for i in range(num_switches):
        topo.add_switch(i + 1)
    # Random spanning tree guarantees connectivity.
    nodes = list(topo.switches)
    rng.shuffle(nodes)
    for i in range(1, len(nodes)):
        topo.add_link(nodes[i], rng.choice(nodes[:i]))
    # Sprinkle extra edges.
    existing = {tuple(sorted(l)) for l in topo.switch_links}
    for a in range(1, num_switches + 1):
        for b in range(a + 1, num_switches + 1):
            if (a, b) not in existing and rng.random() < extra_link_prob:
                topo.add_link(a, b)
                existing.add((a, b))
    for dpid in list(topo.switches):
        for _ in range(hosts_per_switch):
            topo.add_host(dpid)
    return topo


#: The shapes :func:`build_topology` knows by name.
TOPOLOGIES = ("linear", "ring", "tree", "mesh", "fattree")


def build_topology(name: str, size: int) -> Topology:
    """One of ``TOPOLOGIES`` from a single ``size`` knob (the CLI's
    ``--topology/--size``, a replay config's ``topology``/``size``),
    rounded up to the shape's minimum."""
    if name == "linear":
        return linear_topology(size, 1)
    if name == "ring":
        return ring_topology(max(size, 3), 1)
    if name == "tree":
        return tree_topology(depth=2, fanout=max(size // 2, 2),
                             hosts_per_leaf=1)
    if name == "mesh":
        return mesh_topology(size, 1)
    if name == "fattree":
        return fat_tree_topology(size if size % 2 == 0 else size + 1)
    raise ValueError(f"unknown topology {name!r}")
