#!/usr/bin/env python3
"""Datacenter fault drill: a realistic multi-app deployment under fire.

The scenario the paper's introduction motivates: a production network
running third-party apps of mixed quality -- shortest-path routing
(RouteFlow), a security firewall (BigTap), a traffic monitor (Stratos)
-- plus one buggy app.  The operator writes a compromise-policy file:
the firewall must never compromise correctness; topology events may be
transformed; everything else can be skipped.

A scripted fault timeline then hits the deployment: bug-triggering
packets, a link failure, and a full switch failure.  The drill reports
availability, recoveries, and the tickets filed.

Run:  python examples/datacenter_fault_drill.py
"""

from repro.apps import DenyRule, Firewall, FlowMonitor, ShortestPathRouting
from repro.core.crashpad.policy_lang import PolicyTable
from repro.core.runtime import RuntimeConfig
from repro.faults import crash_on
from repro.network.packet import IPPROTO_TCP
from repro.network.topology import ring_topology
from repro.scenario import Step, play
from repro.stack import StackSpec, build_stack

OPERATOR_POLICY = """
# Security first: never trade the firewall's correctness for uptime.
app=firewall  event=*            policy=no-compromise
# Topology events carry routing-critical information: transform them.
app=*         event=SwitchLeave  policy=equivalence
app=*         event=LinkRemoved  policy=equivalence
# Everything else: stay up, skip the poison event.
app=*         event=*            policy=absolute
"""


def main():
    # A 5-switch ring gives every host a redundant path.  The app mix:
    # routing with a deterministic switch-down bug, a firewall blocking
    # telnet to h2, and a monitor.
    stack = build_stack(StackSpec(
        topology=ring_topology(5, 1), seed=7,
        runtime=RuntimeConfig(policy_table=PolicyTable.parse(OPERATOR_POLICY)),
        apps=(crash_on(ShortestPathRouting(), event_type="SwitchLeave"),
              Firewall(deny_rules=(
                  DenyRule(ip_dst="10.0.0.2", ip_proto=IPPROTO_TCP,
                           tp_dst=23),
              )),
              FlowMonitor()),
    ))
    net, runtime = stack.net, stack.runtime
    stack.start()
    net.run_for(2.0)
    print(f"[{net.now:5.2f}s] deployment up, "
          f"reachability {net.reachability(wait=1.5):.0%}")

    # The fault timeline, played for the next 12 s: a cable gets pulled
    # and replugged, then a whole ToR dies (and the bug fires).
    cable = {"dpid_a": 1, "dpid_b": 2}
    play(stack, [Step(5.0, "link_down", cable),
                 Step(8.0, "link_up", cable),
                 Step(10.0, "switch_down", {"dpid": 4})],
         until=net.now + 12.0)

    # Aftermath.
    survivors = [(a, b) for a in ("h1", "h2", "h3", "h5")
                 for b in ("h1", "h2", "h3", "h5") if a != b]
    reach = net.reachability(pairs=survivors, wait=2.0)
    print(f"[{net.now:5.2f}s] drill complete")
    print(f"  controller up:             {runtime.is_up}")
    print(f"  live apps:                 {runtime.live_apps()}")
    print(f"  survivor reachability:     {reach:.0%}")
    for name, stats in sorted(runtime.stats().items()):
        print(f"  {name:>16}: crashes={stats['crashes']} "
              f"recoveries={stats['recoveries']} "
              f"transformed={stats['transformed']} "
              f"skipped={stats['skipped']}")
    print(f"  tickets filed:             {len(runtime.tickets)}")
    for ticket in runtime.tickets.all():
        print(f"    #{ticket.ticket_id} {ticket.app_name}: "
              f"{ticket.failure_kind} -> {ticket.recovery_policy} "
              f"({ticket.recovery_note})")

    # The firewall still enforces its deny rule after all that.
    h1, h2 = net.host("h1"), net.host("h2")
    h2.clear_history()
    h1.send_tcp(h2, dst_port=23)
    net.run_for(1.0)
    telnet_blocked = not [p for _, p in h2.received
                          if not p.is_lldp() and p.tp_dst == 23]
    print(f"  telnet to h2 still denied: {telnet_blocked}")


if __name__ == "__main__":
    main()
