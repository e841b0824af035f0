"""Synthetic million-host universes and traffic matrices.

The harness must *model* O(10^5-10^6) hosts without materialising
them: a :class:`HostUniverse` computes any host's MAC, IP, attachment
switch, and port from its index alone (O(1) memory regardless of
universe size), and a :class:`TrafficMix` samples (src, dst) pairs
from it under the classic traffic-matrix shapes:

- **gravity**: both endpoints drawn switch-mass-weighted (a Zipf-ish
  mass per switch), so p(s, d) ~ m_s * m_d -- big sites talk more;
- **hotspot**: a fixed small set of destination hosts absorbs a
  configurable fraction of all flows (the CDN / DNS / LB pattern that
  concentrates learning-switch state);
- **churn**: hosts "move" at a configured rate -- a churned slot gets
  a new generation and therefore a fresh MAC, so the control plane
  keeps seeing unknown sources and can never fully converge.

Everything is driven by one seeded ``random.Random``: the same seed
produces the same flows, byte-for-byte.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Sequence, Tuple

from repro.record import record


@record
class HostRef:
    """One synthetic host, fully determined by (index, generation)."""

    idx: int
    generation: int
    mac: str
    ip: str
    dpid: int
    port: int


#: The switch-mass Zipf exponent (the gravity model's skew).
SKEW = 1.0


class HostUniverse:
    """``hosts`` synthetic hosts spread over ``dpids`` by Zipf mass.

    Switch *masses* follow 1/rank^SKEW over a seed-shuffled rank order;
    each switch owns a contiguous index range sized proportionally to
    its mass, so ``dpid_of`` is a bisect and mass-weighted sampling is
    one uniform draw + a bisect.
    """

    def __init__(self, hosts: int, dpids: Sequence[int], seed: int = 0):
        if hosts < 1 or not dpids:
            raise ValueError("need at least one host and one switch")
        self.hosts = hosts
        self.dpids: List[int] = list(dpids)
        rng = random.Random(seed)
        rng.shuffle(self.dpids)
        masses = [1.0 / (rank + 1) ** SKEW
                  for rank in range(len(self.dpids))]
        total = sum(masses)
        #: Cumulative mass per switch, in shuffled order (for sampling).
        self._cum_mass: List[float] = []
        acc = 0.0
        for m in masses:
            acc += m / total
            self._cum_mass.append(acc)
        self._cum_mass[-1] = 1.0
        #: Start index of each switch's host range (for dpid_of).
        self._range_starts: List[int] = []
        start = 0
        for i, m in enumerate(masses):
            self._range_starts.append(start)
            share = int(hosts * m / total)
            start += max(1, share)
        #: Give the final switch whatever the rounding left over.
        self._range_starts.append(max(start, hosts))

    def dpid_of(self, idx: int) -> int:
        pos = bisect.bisect_right(self._range_starts, idx) - 1
        pos = min(max(pos, 0), len(self.dpids) - 1)
        return self.dpids[pos]

    def sample_idx(self, rng: random.Random) -> int:
        """Mass-weighted host draw: pick a switch by mass, then a host
        uniformly within its range (the gravity-model marginal)."""
        pos = bisect.bisect_left(self._cum_mass, rng.random())
        pos = min(pos, len(self.dpids) - 1)
        lo = self._range_starts[pos]
        hi = max(self._range_starts[pos + 1], lo + 1)
        return min(rng.randrange(lo, hi), self.hosts - 1)

    def host(self, idx: int, generation: int = 0) -> HostRef:
        """Materialise one host on demand (nothing is stored)."""
        mac = (f"02:{generation & 0xFF:02x}"
               f":{(idx >> 24) & 0xFF:02x}:{(idx >> 16) & 0xFF:02x}"
               f":{(idx >> 8) & 0xFF:02x}:{idx & 0xFF:02x}")
        ip = (f"10.{(idx >> 16) & 0xFF}"
              f".{(idx >> 8) & 0xFF}.{idx & 0xFF}")
        # A synthetic edge port: stable per host, deliberately above
        # the fabric's real port numbers (directed outputs to it are
        # counted as tx_dropped by the switch, which is fine -- the
        # control-plane work is what the harness measures).
        return HostRef(idx=idx, generation=generation, mac=mac, ip=ip,
                       dpid=self.dpid_of(idx), port=64 + idx % 448)


class TrafficMix:
    """Gravity + hotspot + churn sampling over a :class:`HostUniverse`.

    ``hot_fraction`` of flows aim at one of ``hot_set`` fixed
    destination hosts; ``churn_per_sec`` hosts (in expectation) bump
    their generation each simulated second.  Only churned slots are
    remembered (a dict), so memory grows with churn events, not
    universe size.
    """

    def __init__(self, universe: HostUniverse, seed: int = 0,
                 hot_fraction: float = 0.1, hot_set: int = 32,
                 churn_per_sec: float = 0.0):
        self.universe = universe
        self.rng = random.Random(seed)
        self.hot_fraction = hot_fraction
        self.churn_per_sec = churn_per_sec
        self._hot: List[int] = [universe.sample_idx(self.rng)
                                for _ in range(max(0, hot_set))]
        self._generations: Dict[int, int] = {}
        self._churn_credit = 0.0
        self.churned = 0

    def advance(self, dt: float) -> None:
        """Advance churn by ``dt`` simulated seconds."""
        if self.churn_per_sec <= 0:
            return
        self._churn_credit += self.churn_per_sec * dt
        while self._churn_credit >= 1.0:
            self._churn_credit -= 1.0
            idx = self.universe.sample_idx(self.rng)
            self._generations[idx] = self._generations.get(idx, 0) + 1
            self.churned += 1

    def _ref(self, idx: int) -> HostRef:
        return self.universe.host(idx, self._generations.get(idx, 0))

    def sample(self) -> Tuple[HostRef, HostRef]:
        """One (src, dst) flow draw."""
        src = self.universe.sample_idx(self.rng)
        if self._hot and self.rng.random() < self.hot_fraction:
            dst = self._hot[self.rng.randrange(len(self._hot))]
        else:
            dst = self.universe.sample_idx(self.rng)
        if dst == src:
            dst = (src + 1) % self.universe.hosts
        return self._ref(src), self._ref(dst)
