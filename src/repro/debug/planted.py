"""The planted 3-event-dependent failure the debug loop certifies on.

State is set by events A and B (arming markers), and the crash fires
on C (the trigger) -- with noise packets interleaved so the minimizer
has something real to delete.  Run under configurable chaos on the
proxy<->stub channel, the minimal causal sequence is exactly
{A, B, C}; ``repro minimize`` and the E21 benchmark assert that.
"""

from __future__ import annotations

from repro.debug.replay import Recording, ReplayHarness

ARM_MARKERS = ("ARM-A", "ARM-B")
TRIGGER_MARKER = "TRIGGER-C"


def planted_armed_harness(seed: int = 0, loss: float = 0.2,
                          **harness_kwargs) -> ReplayHarness:
    from repro.faults import arm_crash_on

    chaos = {"loss": loss} if loss > 0 else None
    return ReplayHarness(
        topology="linear", size=3, seed=seed, chaos=chaos,
        apps=[lambda: arm_crash_on(arm_markers=ARM_MARKERS,
                                   trigger_marker=TRIGGER_MARKER)],
        **harness_kwargs,
    )


def planted_armed_recording(seed: int = 0, loss: float = 0.2,
                            noise: int = 4,
                            **harness_kwargs):
    """Record the planted scenario; returns ``(harness, recording)``.

    The drive injects ARM-A, ``noise`` irrelevant packets spread
    around the arming events, ARM-B, and finally TRIGGER-C -- so the
    capture holds ``noise + 3`` events of which exactly three are
    causal.
    """
    from repro.workloads.traffic import inject_marker_packet

    harness = planted_armed_harness(seed=seed, loss=loss, **harness_kwargs)

    def drive(net, runtime):
        hosts = sorted(net.hosts)
        pairs = [(hosts[i % len(hosts)], hosts[(i + 1) % len(hosts)])
                 for i in range(max(noise, 1))]
        markers = [ARM_MARKERS[0]]
        markers += [f"NOISE-{i}" for i in range(noise // 2)]
        markers += [ARM_MARKERS[1]]
        markers += [f"NOISE-{i}" for i in range(noise // 2, noise)]
        markers += [TRIGGER_MARKER]
        for i, marker in enumerate(markers):
            src, dst = pairs[i % len(pairs)]
            inject_marker_packet(net, src, dst, marker)
            net.run_for(0.15)

    return harness, harness.record(drive)
