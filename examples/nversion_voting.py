#!/usr/bin/env python3
"""N-version programming for SDN apps (§3.4 "Software and Data Diversity").

Three independently "developed" versions of the same learning switch
run side by side; LegoSDN feeds each one every event and emits only the
majority output.  One version ships with a crash bug -- the vote masks
it completely: no crash reaches the proxy, no event is lost, and the
network never notices.

Run:  python examples/nversion_voting.py
"""

from repro.apps import LearningSwitch
from repro.core.diversity import NVersionApp
from repro.faults import crash_on
from repro.network.topology import linear_topology
from repro.stack import StackSpec, build_stack
from repro.workloads.traffic import TrafficWorkload, inject_marker_packet


def main():
    # "Team B" shipped a bug that crashes on a specific payload.
    team_a = LearningSwitch()
    team_b = crash_on(LearningSwitch(), payload_marker="POISON")
    team_c = LearningSwitch()
    voter = NVersionApp([team_a, team_b, team_c], name="ls-3version")
    stack = build_stack(StackSpec(topology=linear_topology(2, 2), seed=11,
                                  apps=(voter,)))
    net, runtime = stack.net, stack.runtime
    stack.start()
    net.run_for(1.5)

    # Background traffic plus the poison packet.
    TrafficWorkload(net, rate=30).start(2.0)
    inject_marker_packet(net, "h1", "h3", "POISON")
    net.run_for(4.0)

    print(f"votes taken:          {voter.votes_taken}")
    print(f"disagreements:        {voter.disagreements}")
    print(f"version crashes:      {dict(voter.version_crashes)}")
    print(f"wrapper app crashes:  {runtime.stats()['ls-3version']['crashes']}")
    print(f"reachability:         {net.reachability(wait=1.0):.0%}")
    print()
    if voter.version_crashes and not runtime.stats()["ls-3version"]["crashes"]:
        print("=> team B's bug was outvoted: the failure never left the "
              "voting layer, and the network ran at full service.")


if __name__ == "__main__":
    main()
