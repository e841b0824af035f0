"""Network invariant checking (VeriFlow substitute).

Crash-Pad classifies a failure as *byzantine* when "the output of the
SDN-App violates network invariants, which can be detected using policy
checkers [20]" (§3.3).  This package is that policy checker: it builds
a forwarding trace over a snapshot of flow tables and checks loops,
black-holes, reachability, and waypoints -- plus one control-plane
property of a sharded deployment, that no shard shadows a switch it
does not own.
"""

from repro.invariants.graph import NetSnapshot, TraceResult, trace
from repro.invariants.checker import (
    InvariantChecker,
    Probe,
    Violation,
    build_host_probes,
    check_shadow_ownership,
)

__all__ = [
    "InvariantChecker",
    "NetSnapshot",
    "Probe",
    "TraceResult",
    "Violation",
    "build_host_probes",
    "check_shadow_ownership",
    "trace",
]
