#!/usr/bin/env python3
"""Quickstart: run an SDN app under LegoSDN and survive its crash.

Builds a 3-switch line with one host per switch, hosts a LearningSwitch
inside a LegoSDN sandbox, verifies connectivity, then injects a
deterministic bug and watches Crash-Pad recover the app while the
controller keeps running -- the paper's headline behaviour in ~60
lines.

Run:  python examples/quickstart.py
"""

from repro.apps import LearningSwitch
from repro.faults import crash_on
from repro.network.topology import linear_topology
from repro.stack import StackSpec, build_stack
from repro.workloads.traffic import inject_marker_packet


def main():
    # 1. The deployment, as one value: three switches in a line with
    #    one host each, and a LegoSDN runtime (the default) hosting a
    #    LearningSwitch that has a deterministic crash bug: it dies
    #    whenever it processes a packet whose payload contains "BOOM".
    spec = StackSpec(
        topology=linear_topology(num_switches=3, hosts_per_switch=1),
        seed=42,
        apps=(crash_on(LearningSwitch(), payload_marker="BOOM"),))

    # 2. Build it: the network, the runtime, the app in its sandbox.
    stack = build_stack(spec)
    net, runtime = stack.net, stack.runtime

    # 3. Start everything and let link discovery converge.
    stack.start()
    net.run_for(1.5)
    print(f"[{net.now:5.2f}s] topology discovered: "
          f"{len(net.controller.topology.view().links)} links")

    # 4. Normal operation: full any-to-any connectivity.
    reach = net.reachability()
    print(f"[{net.now:5.2f}s] reachability before failure: {reach:.0%}")

    # 5. Let the reactive flows idle out so the next packet punts to
    #    the controller again (and therefore reaches the app).
    net.run_for(LearningSwitch.IDLE_TIMEOUT + 1.0)

    #    The failure: one crafted packet crashes the app... in its
    #    sandbox.  The controller never notices.
    inject_marker_packet(net, "h1", "h3", "BOOM")
    net.run_for(2.0)
    stats = runtime.stats()["learning_switch"]
    print(f"[{net.now:5.2f}s] app crashed {stats['crashes']} time(s), "
          f"recovered {stats['recoveries']} time(s), "
          f"skipped {stats['skipped']} offending event(s)")
    print(f"[{net.now:5.2f}s] controller up: {runtime.is_up}, "
          f"live apps: {runtime.live_apps()}")

    # 6. Service continues -- the deterministic bug was subverted by
    #    ignoring the offending event (Absolute Compromise).
    reach = net.reachability(wait=1.0)
    print(f"[{net.now:5.2f}s] reachability after recovery: {reach:.0%}")

    # 7. Crash-Pad filed a problem ticket for the developers.
    ticket = runtime.tickets.all()[0]
    print("\nProblem ticket generated for the developers:")
    print(ticket.render())


if __name__ == "__main__":
    main()
