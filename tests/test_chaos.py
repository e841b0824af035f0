"""Chaos testing: random fault storms against the full stack.

These are the "does the whole thing hold together" tests: seeded
random mixes of link flaps, switch flaps, and bug triggers, with the
invariants that matter asserted at the end -- controller alive, apps
recovered, forwarding state loop-free, and NetLog's shadow still in
sync with reality.
"""

import pytest

from repro.apps import FlowMonitor, LearningSwitch, ShortestPathRouting
from repro.core.netlog.rollback import tables_equal
from repro.core.runtime import LegoSDNRuntime
from repro.faults import crash_on
from repro.invariants import InvariantChecker, NetSnapshot, build_host_probes
from repro.network.net import Network
from repro.network.topology import ring_topology
from repro.scenario import Step, play, random_faults
from repro.stack import Stack

DURATION = 8.0


def run_chaos(seed):
    net = Network(ring_topology(5, 1), seed=seed)
    runtime = LegoSDNRuntime(net.controller)
    runtime.launch_app(LearningSwitch())
    runtime.launch_app(FlowMonitor())
    runtime.launch_app(crash_on(ShortestPathRouting(name="frag"),
                                payload_marker="CHAOS"))
    net.start()
    traffic = Step(1.5, "traffic", {"duration": DURATION * 0.8, "rate": 30,
                                    "selection": "random", "seed": seed})
    storm = random_faults(net.topology, 1.5, DURATION, rate=1.5,
                          markers=["CHAOS"], seed=seed)
    play(Stack(net=net, runtime=runtime), [traffic, *storm],
         until=1.5 + (DURATION + 3.0))
    return net, runtime


class TestChaosStorm:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_control_plane_survives(self, seed):
        net, runtime = run_chaos(seed)
        assert runtime.is_up
        # every faulty-app crash was recovered (no app left dead)
        assert set(runtime.live_apps()) == {"frag", "learning_switch",
                                            "monitor"}
        stats = runtime.stats()
        for name in stats:
            assert stats[name]["recoveries"] == stats[name]["crashes"], name

    @pytest.mark.parametrize("seed", [1, 2])
    def test_shadow_tables_still_consistent(self, seed):
        net, runtime = run_chaos(seed)
        net.run_for(1.0)  # drain in-flight control traffic
        manager = runtime.proxy.manager
        for dpid, switch in net.switches.items():
            if not switch.up:
                continue
            assert tables_equal(
                {dpid: manager.shadow_table(dpid)},
                {dpid: switch.flow_table},
            ), f"shadow diverged on s{dpid} (seed {seed})"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_persistent_forwarding_loops(self, seed):
        """Transient loops can form while MAC tables are stale during a
        storm (the classic L2-on-a-ring hazard -- real networks need
        STP for exactly this); what must NOT happen is a loop outliving
        the idle timeout once the storm and its traffic stop."""
        net, runtime = run_chaos(seed)
        net.run_for(LearningSwitch.IDLE_TIMEOUT
                    + ShortestPathRouting.IDLE_TIMEOUT + 1.0)
        snap = NetSnapshot.from_network(net)
        checker = InvariantChecker(snap)
        assert checker.check_loops(build_host_probes(snap)) == []

    def test_service_recovers_after_the_storm(self):
        net, runtime = run_chaos(seed=4)
        live_hosts = [
            spec.name for spec in net.topology.hosts
            if net.switches[spec.dpid].up and net.host_link(spec.name).up
        ]
        pairs = [(a, b) for a in live_hosts for b in live_hosts if a != b]
        assert net.reachability(pairs=pairs, wait=2.0) >= 0.9
