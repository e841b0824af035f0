"""Deterministic dpid -> shard placement via rendezvous hashing.

The router is the one piece of the sharded control plane everything
else must agree on: the coordinator uses it to partition the switch
space, each shard's controller uses it to forward mis-routed events,
and the read gateway uses it to find the replica set that owns a dpid.

Rendezvous (highest-random-weight) hashing: for every dpid each shard
gets a pseudo-random weight from a seeded crc32 of ``(seed, shard,
dpid)`` and the highest weight wins, so placement is a pure function
of the seed, the shard count and the dpid.  The membership is fixed
for the router's life.

``pins`` override the hash for individual dpids (operator placement:
keep a pod's switches on one shard); E18 pins contiguous blocks.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional


class ShardRouter:
    """Maps dpids onto a set of shard ids, deterministically."""

    def __init__(self, shards: int, seed: int = 0,
                 pins: Optional[Dict[int, int]] = None):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.seed = seed
        #: Shard ids, 0..shards-1.
        self.active: List[int] = list(range(shards))
        self.pins: Dict[int, int] = dict(pins or {})
        for dpid, shard in self.pins.items():
            if shard not in self.active:
                raise ValueError(f"pin {dpid}->{shard}: no such shard")
        #: dpid -> owning shard, pins first and each hashed dpid once
        #: (``active`` and ``pins`` are fixed for the router's life).
        self._owners: Dict[int, int] = dict(self.pins)

    # -- the hash ----------------------------------------------------------

    def shard_of(self, dpid: int) -> int:
        """The shard owning ``dpid``."""
        owner = self._owners.get(dpid)
        if owner is None:
            # Highest weight wins; ties (crc32 collisions) break towards
            # the lower shard id so the answer stays total-ordered.
            owner = self._owners[dpid] = max(
                self.active,
                key=lambda shard: (zlib.crc32(
                    f"{self.seed}:{shard}:{dpid}".encode("utf-8")), -shard))
        return owner

    def partition(self, dpids: Iterable[int]) -> Dict[int, List[int]]:
        """Split ``dpids`` into per-shard sorted lists (every active
        shard appears, possibly empty)."""
        out: Dict[int, List[int]] = {shard: [] for shard in self.active}
        for dpid in sorted(dpids):
            out[self.shard_of(dpid)].append(dpid)
        return out
