"""Deterministic discrete-event network simulator (Mininet substitute).

Provides OpenFlow switches with real flow tables, hosts, links with
delay and failure, and a seeded event loop so every experiment in the
benchmark harness is reproducible bit-for-bit.
"""

from repro.network.net import Network
from repro.network.packet import Packet
from repro.network.simulator import Simulator
from repro.network.topology import (
    Topology,
    fat_tree_topology,
    linear_topology,
    mesh_topology,
    ring_topology,
    tree_topology,
)

__all__ = [
    "Network",
    "Packet",
    "Simulator",
    "Topology",
    "fat_tree_topology",
    "linear_topology",
    "mesh_topology",
    "ring_topology",
    "tree_topology",
]
