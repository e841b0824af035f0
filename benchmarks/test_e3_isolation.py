"""E3: crash containment and availability (§3.1).

"In the context of fault-tolerance AppVisor ensures, beyond any doubt,
that failures in any SDN-App do not affect other SDN-Apps, or the
controller."

A crash storm hits k of n hosted apps over a 10-second window (each
faulty app crashes deterministically on its own marker, markers are
injected once a second).  We integrate per-component availability over
the window for both runtimes.

Expected shape: monolithic controller availability collapses with the
first crash (restart-based recovery keeps losing ground as crashes
repeat); LegoSDN keeps the controller and all healthy apps at 100%,
with only the faulty apps briefly degraded during recovery.
"""

from repro.apps import FlowMonitor, LearningSwitch
from repro.faults import crash_on
from repro.metrics import AvailabilityTracker
from repro.network.topology import linear_topology
from repro.scenario import Step, play
from repro.stack import Stack

from benchmarks.harness import build_legosdn, build_monolithic, print_table, run_once

WINDOW = 10.0
CRASHY_APPS = 2


def _play_storm(net):
    """The storm's markers, from 1.0 s, then the rest of the window."""
    steps = []
    t = 1.0
    while t < WINDOW - 1.0:
        for i in range(CRASHY_APPS):
            steps.append(Step(t + 0.1 * i, "marker_packet", {
                "src": "h1", "dst": "h3", "marker": f"BOOM-{i}"}))
        t += 2.0
    play(Stack(net=net), steps, until=net.now + WINDOW)


def _crashy(i):
    return crash_on(LearningSwitch(name=f"crashy-{i}"),
                    payload_marker=f"BOOM-{i}")


def _run_monolithic():
    net, runtime = build_monolithic(
        linear_topology(3, 1),
        [FlowMonitor, LearningSwitch]
        + [(lambda i=i: _crashy(i)) for i in range(CRASHY_APPS)],
        auto_restart=True, restart_delay=0.5,
    )
    start = net.now
    tracker = AvailabilityTracker()
    net.controller.crash_callbacks.append(
        lambda exc, culprit: tracker.mark_down("controller", net.now))

    def watch_reboot():
        if not net.controller.crashed:
            tracker.mark_up("controller", net.now)

    net.sim.every(0.05, watch_reboot)
    _play_storm(net)
    return {
        "controller": tracker.fraction_up("controller", start, net.now),
        "crashes": runtime.crash_count,
        "healthy_app_uptime": tracker.fraction_up("controller", start,
                                                  net.now),  # fate-shared
    }


def _run_legosdn():
    net, runtime = build_legosdn(
        linear_topology(3, 1),
        [FlowMonitor(), LearningSwitch()]
        + [_crashy(i) for i in range(CRASHY_APPS)],
    )
    start = net.now
    tracker = AvailabilityTracker()

    def watch():
        tracker.set_up("controller", not net.controller.crashed, net.now)
        live = set(runtime.live_apps())
        for name in runtime.stubs:
            tracker.set_up(f"app:{name}", name in live, net.now)

    net.sim.every(0.01, watch)
    _play_storm(net)
    return {
        "controller": tracker.fraction_up("controller", start, net.now),
        "crashes": runtime.total_crashes(),
        "healthy_app_uptime": min(
            tracker.fraction_up("app:monitor", start, net.now),
            tracker.fraction_up("app:learning_switch", start, net.now),
        ),
        "faulty_app_uptime": min(
            tracker.fraction_up(f"app:crashy-{i}", start, net.now)
            for i in range(CRASHY_APPS)
        ),
    }


def test_e3_isolation_availability(benchmark):
    def experiment():
        return {"monolithic": _run_monolithic(), "legosdn": _run_legosdn()}

    r = run_once(benchmark, experiment)
    mono, lego = r["monolithic"], r["legosdn"]
    print_table(
        f"E3: availability under a {WINDOW:.0f}s crash storm "
        f"({CRASHY_APPS} buggy apps, repeated deterministic crashes)",
        ["metric", "monolithic", "legosdn"],
        [
            ["controller availability",
             f"{mono['controller']:.2%}", f"{lego['controller']:.2%}"],
            ["healthy apps availability",
             f"{mono['healthy_app_uptime']:.2%}",
             f"{lego['healthy_app_uptime']:.2%}"],
            ["faulty apps availability", "(fate-shared)",
             f"{lego['faulty_app_uptime']:.2%}"],
            ["crashes handled", mono["crashes"], lego["crashes"]],
        ],
    )
    benchmark.extra_info["results"] = r

    # The paper's claim, quantified: LegoSDN keeps the controller and
    # healthy apps at 100%; the monolithic stack loses real uptime.
    assert lego["controller"] == 1.0
    assert lego["healthy_app_uptime"] == 1.0
    assert mono["controller"] < 0.95
    assert mono["crashes"] >= 2
    assert lego["crashes"] >= 2  # the storm really hit LegoSDN too
    # Faulty apps recover quickly: they are down only during restores.
    assert lego["faulty_app_uptime"] > 0.8
