#!/usr/bin/env python3
"""Side-by-side: monolithic FloodLight-style stack vs LegoSDN.

Runs the identical deployment (learning switch + traffic monitor + one
buggy app) and the identical fault workload on both runtimes, then
prints the comparison the paper's Figure 1 implies: same behaviour
when healthy, opposite fates when the bug fires.

Also demonstrates the §3.4 "Controller Upgrades" use case on both.

Run:  python examples/runtime_comparison.py
"""

from repro.apps import FlowMonitor, LearningSwitch
from repro.core.runtime import RuntimeConfig
from repro.faults import crash_on
from repro.network.topology import linear_topology
from repro.scenario import Step, play
from repro.stack import StackSpec, build_stack
from repro.workloads.traffic import inject_marker_packet


def buggy_switch():
    return crash_on(LearningSwitch(name="buggy"), payload_marker="BOOM")


def build(runtime):
    """The same three apps on either runtime (``None``: the monolithic
    baseline, which restarts an app from its factory, so the apps are
    given as factories)."""
    stack = build_stack(StackSpec(
        topology=linear_topology(3, 1), seed=3, runtime=runtime,
        apps=(LearningSwitch, FlowMonitor, buggy_switch)))
    stack.start()
    stack.net.run_for(1.5)
    return stack


def drill(stack, label):
    net, runtime = stack.net, stack.runtime
    print(f"\n--- {label} ---")
    print(f"healthy reachability: {net.reachability(wait=1.5):.0%}")
    monitor = runtime.app("monitor")
    observations_before = monitor.total_observations()
    print(f"monitor has observed {observations_before} packets")

    # Let reactive flows idle out so the poison packet punts, then fire.
    net.run_for(LearningSwitch.IDLE_TIMEOUT + 1.0)
    inject_marker_packet(net, "h1", "h3", "BOOM")
    net.run_for(2.0)
    controller_crashes = len(net.controller.crash_records)
    print(f"after the bug fired: controller crashed "
          f"{controller_crashes} time(s); currently up = "
          f"{not net.controller.crashed}; live apps = "
          f"{runtime.live_apps()}")
    net.run_for(1.0)
    monitor = runtime.app("monitor")  # may be a fresh instance (mono)
    print(f"monitor observations now: {monitor.total_observations()} "
          f"(was {observations_before})")
    print(f"reachability after recovery: {net.reachability(wait=1.0):.0%}")

    # A scheduled controller upgrade (1 second).
    before = runtime.app("monitor").total_observations()
    seen = play(stack, [Step(net.now, "controller_down"),
                        Step(net.now + 1.0, "controller_up")])
    after = runtime.app("monitor").total_observations()
    outage = seen["controller_up"][0] - seen["controller_down"][0]
    verdict = "retained" if before == after else "LOST"
    print(f"upgrade: outage {outage:.2f}s, app state {verdict} "
          f"({before} -> {after})")


def main():
    mono = build(None)
    drill(mono, "monolithic (FloodLight-style)")
    lego = build(RuntimeConfig())
    drill(lego, "LegoSDN")
    mono_net, mono_rt = mono.net, mono.runtime
    lego_net, lego_rt = lego.net, lego.runtime

    print("\n--- summary ---")
    mono_bug_crashes = sum(1 for r in mono_net.controller.crash_records
                           if r.culprit != "operator")
    lego_bug_crashes = sum(1 for r in lego_net.controller.crash_records
                           if r.culprit != "operator")
    print(f"monolithic: {mono_bug_crashes} controller crash(es) from app "
          f"bugs, {mono_rt.restart_count} full restart(s), all app state "
          "lost each time")
    print(f"legosdn:    {lego_rt.total_crashes()} app crash(es) contained, "
          f"{lego_rt.total_recoveries()} recovery(ies), controller crashed "
          f"{lego_bug_crashes} time(s) from app bugs")


if __name__ == "__main__":
    main()
