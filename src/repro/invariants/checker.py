"""The invariant checker proper.

Runs probe packets through a :class:`~repro.invariants.graph.NetSnapshot`
and reports :class:`Violation` records for:

- **loops** -- a probe revisits a (switch, port, header) state;
- **black-holes** -- a probe is dropped by forwarding state without
  reaching any host or the controller;
- **reachability** -- a host pair expected to communicate cannot;
- **waypoints** -- traffic required to traverse a middlebox switch
  does not.

Crash-Pad consults :meth:`InvariantChecker.check_all` after an app's
transaction to decide whether the output was byzantine (§3.3), and the
"No-Compromise invariants" of §5 are expressed as the ``critical``
flag on violations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.invariants.graph import NetSnapshot, TraceResult, trace
from repro.network.packet import IPPROTO_TCP, Packet
from repro.record import record


@record
class Probe:
    """One probe: a packet injected at a host's attachment point."""

    src_mac: str
    dst_mac: str
    packet: Packet
    expect_delivery: bool = True

    @property
    def pair(self) -> Tuple[str, str]:
        return (self.src_mac, self.dst_mac)


@record
class Violation:
    """One detected invariant violation."""

    kind: str  # "loop" | "blackhole" | "reachability" | "waypoint"
    detail: str
    probe: Optional[Probe] = None
    critical: bool = False

    def __str__(self) -> str:
        flag = " [CRITICAL]" if self.critical else ""
        return f"{self.kind}{flag}: {self.detail}"


def build_host_probes(snapshot: NetSnapshot,
                      pairs: Optional[Iterable[Tuple[str, str]]] = None,
                      dst_port: int = 80) -> List[Probe]:
    """TCP probes for host pairs (default: all ordered pairs)."""
    macs = sorted(snapshot.hosts)
    if pairs is None:
        pairs = [(a, b) for a in macs for b in macs if a != b]
    probes = []
    for src_mac, dst_mac in pairs:
        src = snapshot.hosts.get(src_mac)
        dst = snapshot.hosts.get(dst_mac)
        if src is None or dst is None:
            continue
        probes.append(
            Probe(
                src_mac=src_mac,
                dst_mac=dst_mac,
                packet=Packet(
                    eth_src=src_mac, eth_dst=dst_mac,
                    ip_src=src.ip, ip_dst=dst.ip,
                    ip_proto=IPPROTO_TCP, tp_src=10000, tp_dst=dst_port,
                    size=64,
                ),
            )
        )
    return probes


class InvariantChecker:
    """Checks a snapshot against the configured invariants."""

    def __init__(self, snapshot: NetSnapshot,
                 critical_kinds: Sequence[str] = ("loop",)):
        self.snapshot = snapshot
        self.critical_kinds = frozenset(critical_kinds)
        self._trace_cache: Dict[Tuple[str, str, int], TraceResult] = {}

    # -- tracing -----------------------------------------------------------

    def trace_probe(self, probe: Probe) -> TraceResult:
        src = self.snapshot.hosts[probe.src_mac]
        key = (probe.src_mac, probe.dst_mac, probe.packet.tp_dst or 0)
        if key not in self._trace_cache:
            self._trace_cache[key] = trace(
                self.snapshot, src.dpid, src.port, probe.packet
            )
        return self._trace_cache[key]

    # -- individual invariants ---------------------------------------------------

    def check_loops(self, probes: Iterable[Probe]) -> List[Violation]:
        violations = []
        for probe in probes:
            result = self.trace_probe(probe)
            if result.looped:
                where = ", ".join(f"s{d}:{p}" for d, p in result.loops[:3])
                violations.append(self._mk(
                    "loop",
                    f"probe {probe.src_mac}->{probe.dst_mac} loops at {where}",
                    probe,
                ))
        return violations

    def check_blackholes(self, probes: Iterable[Probe]) -> List[Violation]:
        violations = []
        for probe in probes:
            result = self.trace_probe(probe)
            if result.blackholed:
                violations.append(self._mk(
                    "blackhole",
                    f"probe {probe.src_mac}->{probe.dst_mac} dropped by "
                    f"forwarding state (visited {sorted(result.switches_visited)})",
                    probe,
                ))
        return violations

    def check_reachability(self, probes: Iterable[Probe]) -> List[Violation]:
        """Probes that expect delivery must reach their destination MAC.

        A controller punt is NOT a violation: reactive apps install
        paths on demand, so an un-set-up pair is merely pending.
        """
        violations = []
        for probe in probes:
            if not probe.expect_delivery:
                continue
            result = self.trace_probe(probe)
            if result.looped or result.delivered or result.controller_punts:
                continue
            violations.append(self._mk(
                "reachability",
                f"{probe.src_mac} cannot reach {probe.dst_mac}",
                probe,
            ))
        return violations

    def check_waypoint(self, probe: Probe, waypoint_dpid: int) -> List[Violation]:
        """Traffic for ``probe`` must traverse ``waypoint_dpid``."""
        result = self.trace_probe(probe)
        if result.delivered and waypoint_dpid not in result.switches_visited:
            return [self._mk(
                "waypoint",
                f"{probe.src_mac}->{probe.dst_mac} delivered without "
                f"traversing s{waypoint_dpid}",
                probe,
            )]
        return []

    # -- the full sweep ----------------------------------------------------------

    def check_all(self, probes: Optional[Iterable[Probe]] = None) -> List[Violation]:
        """Loops + black-holes + reachability over ``probes``."""
        if probes is None:
            probes = build_host_probes(self.snapshot)
        probes = list(probes)
        violations = []
        violations.extend(self.check_loops(probes))
        violations.extend(self.check_blackholes(probes))
        violations.extend(self.check_reachability(probes))
        return violations

    def _mk(self, kind: str, detail: str, probe: Optional[Probe]) -> Violation:
        return Violation(kind=kind, detail=detail, probe=probe,
                         critical=kind in self.critical_kinds)
