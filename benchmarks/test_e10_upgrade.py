"""E10: controller upgrades (§3.4).

"Upgrades to the controller codebase must be followed by a controller
reboot.  Such events also cause the SDN-App to unnecessarily reboot
and lose state ... this state recreation process can result in network
outages lasting as long as 10 seconds [32].  The isolation provided by
LegoSDN shields the SDN-Apps from such controller reboots."

Both runtimes take a 1-second controller upgrade: a ``controller_down``
step and a ``controller_up`` step one second later.  Measured: app
state across the upgrade (the monitor app's observation tally), the
control outage between the two steps, and the time for the network to
regain full reachability.

Expected shape: LegoSDN retains app state bit-for-bit, monolithic
resets to zero; both suffer the upgrade outage itself, but monolithic
additionally pays the state-recreation period.
"""

from repro.apps import FlowMonitor, LearningSwitch
from repro.core.runtime import RuntimeConfig
from repro.network.topology import linear_topology
from repro.scenario import Step, play
from repro.stack import StackSpec, build_stack

from benchmarks.harness import print_table, run_once

UPGRADE_DURATION = 1.0


def _monitor_state(runtime):
    return runtime.app("monitor").total_observations()


def _time_to_full_reach(net, limit=10.0, step=0.5):
    start = net.now
    while net.now - start < limit:
        if net.reachability(wait=step) == 1.0:
            return net.now - start
    return float("inf")


def _upgrade(runtime, apps, settle):
    """Warm up, upgrade, wait for reach: ``(state before, state after,
    outage, reach recovery)``."""
    stack = build_stack(StackSpec(topology=linear_topology(2, 1),
                                  runtime=runtime, apps=apps))
    stack.start()
    net = stack.net
    play(stack, [], until=1.0)
    net.ping("h1", "h2")
    if settle:
        play(stack, [], until=net.now + settle)
    before = _monitor_state(stack.runtime)
    seen = play(stack, [Step(net.now, "controller_down"),
                        Step(net.now + UPGRADE_DURATION, "controller_up")])
    outage = seen["controller_up"][0] - seen["controller_down"][0]
    return (before, _monitor_state(stack.runtime), outage,
            _time_to_full_reach(net))


def test_e10_controller_upgrade(benchmark):
    def experiment():
        return {
            "monolithic": _upgrade(None, (FlowMonitor, LearningSwitch),
                                   settle=0.0),
            "legosdn": _upgrade(RuntimeConfig(),
                                (FlowMonitor(), LearningSwitch()),
                                settle=0.5),
        }

    r = run_once(benchmark, experiment)
    rows = []
    for kind in ("monolithic", "legosdn"):
        before, after, outage, recover = r[kind]
        rows.append([
            kind,
            before,
            after,
            "retained" if before == after else "LOST",
            f"{outage:.2f}s",
            f"{recover:.2f}s",
        ])
    print_table(
        f"E10: {UPGRADE_DURATION:.0f}s controller upgrade",
        ["runtime", "app state before", "after", "verdict",
         "control outage", "reach recovery"],
        rows,
    )
    benchmark.extra_info["rows"] = [[str(c) for c in row] for row in rows]

    mono_before, mono_after, _, _ = r["monolithic"]
    lego_before, lego_after, _, lego_recover = r["legosdn"]
    assert mono_after == 0 != mono_before
    assert lego_before == lego_after > 0
    # both recover service eventually
    assert lego_recover < 10.0
