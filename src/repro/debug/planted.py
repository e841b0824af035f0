"""The planted 3-event-dependent failure the debug loop certifies on.

State is set by events A and B (arming markers), and the crash fires
on C (the trigger) -- with noise packets interleaved so the minimizer
has something real to delete.  Run under configurable chaos on the
proxy<->stub channel, the minimal causal sequence is exactly
{A, B, C}; ``repro minimize`` and the E21 benchmark assert that.
"""

from __future__ import annotations

from repro.debug.replay import FLIGHT_CAPACITY, ReplayHarness
from repro.network.topology import linear_topology
from repro.scenario import Step
from repro.stack import StackSpec

ARM_MARKERS = ("ARM-A", "ARM-B")
TRIGGER_MARKER = "TRIGGER-C"


def planted_armed_harness(seed: int = 0, loss: float = 0.2) -> ReplayHarness:
    from repro.faults import arm_crash_on

    return ReplayHarness(StackSpec(
        topology=linear_topology(3, 1), seed=seed,
        apps=(lambda: arm_crash_on(arm_markers=ARM_MARKERS,
                                   trigger_marker=TRIGGER_MARKER),),
        telemetry={"flight_capacity": FLIGHT_CAPACITY},
        chaos={"loss": loss} if loss > 0 else None))


def planted_armed_recording(seed: int = 0, loss: float = 0.2,
                            noise: int = 4):
    """Record the planted scenario; returns ``(harness, recording)``.

    The steps inject ARM-A, ``noise`` irrelevant packets spread around
    the arming events, ARM-B, and finally TRIGGER-C, 0.15 s apart -- so
    the capture holds ``noise + 3`` events of which exactly three are
    causal.
    """
    harness = planted_armed_harness(seed=seed, loss=loss)
    hosts = sorted(host.name for host in harness.spec.topology.hosts)
    pairs = [(hosts[i % len(hosts)], hosts[(i + 1) % len(hosts)])
             for i in range(max(noise, 1))]
    markers = [ARM_MARKERS[0]]
    markers += [f"NOISE-{i}" for i in range(noise // 2)]
    markers += [ARM_MARKERS[1]]
    markers += [f"NOISE-{i}" for i in range(noise // 2, noise)]
    markers += [TRIGGER_MARKER]
    steps, at = [], harness.base
    for i, marker in enumerate(markers):
        src, dst = pairs[i % len(pairs)]
        steps.append(Step(at, "marker_packet",
                          {"src": src, "dst": dst, "marker": marker}))
        at += 0.15
    return harness, harness.record(steps, until=at)
