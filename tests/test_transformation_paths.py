"""Integration tests for the remaining event-transformation paths.

The E6 bench covers SwitchLeave -> LinkRemoved; these tests cover the
other §3.3 equivalences end-to-end: PortStatus(down) -> LinkRemoved,
and the escalation direction LinkRemoved -> SwitchLeave.
"""

import pytest

from repro.apps import ShortestPathRouting
from repro.controller.events import LinkRemoved, SwitchLeave
from repro.controller.services import _canonical
from repro.core.appvisor.proxy import AppStatus
from repro.core.crashpad.policy_lang import PolicyTable
from repro.core.crashpad.transformer import EventTransformer
from repro.core.runtime import LegoSDNRuntime
from repro.faults import crash_on
from repro.network.net import Network
from repro.network.topology import ring_topology


class PortWatcherRouting(ShortestPathRouting):
    """Routing that reacts to raw PortStatus instead of LinkRemoved.

    Some FloodLight apps subscribe to the low-level port events; they
    are the consumers of the PortStatus -> LinkRemoved equivalence.
    """

    subscriptions = ("PacketIn", "PortStatus")

    def __init__(self, name=None):
        super().__init__(name)
        self.port_events = []
        self.link_removed_events = []

    def on_port_status(self, event):
        self.port_events.append(event)

    def on_link_removed(self, event):
        self.link_removed_events.append(event)
        return super().on_link_removed(event)


class TestPortStatusEquivalence:
    def test_port_down_crash_transformed_to_link_removed(self):
        net = Network(ring_topology(4, 1), seed=0)
        runtime = LegoSDNRuntime(
            net.controller,
            policy_table=PolicyTable.parse(
                "app=* event=* policy=equivalence"),
        )
        app = crash_on(PortWatcherRouting(), event_type="PortStatus")
        runtime.launch_app(app)
        net.start()
        net.run_for(1.5)
        net.reachability(wait=1.0)
        net.link_down(1, 2)
        net.run_for(3.0)
        stats = runtime.stats()["routing"]
        assert stats["crashes"] >= 1
        assert stats["transformed"] >= 1
        # the replacement LinkRemoved reached the inner app
        inner = runtime.app("routing").inner
        assert inner.link_removed_events
        assert runtime.record("routing").status is AppStatus.UP
        # ring redundancy: service recovers
        assert net.reachability(wait=1.5) == 1.0

    def test_transformed_port_event_matches_failed_link(self):
        net = Network(ring_topology(4, 1), seed=0)
        runtime = LegoSDNRuntime(
            net.controller,
            policy_table=PolicyTable.parse(
                "app=* event=* policy=equivalence"),
        )
        runtime.launch_app(crash_on(PortWatcherRouting(),
                                    event_type="PortStatus"))
        net.start()
        net.run_for(1.5)
        net.link_down(2, 3)
        net.run_for(3.0)
        inner = runtime.app("routing").inner
        removed = inner.link_removed_events[0]
        assert _canonical(removed.dpid_a, removed.port_a, removed.dpid_b,
                          removed.port_b)[0::2] == (2, 3)


class TestLinkEscalation:
    def test_escalation_direction_unit(self):
        """LinkRemoved -> SwitchLeave when the operator enables it."""
        from repro.controller.api import TopoView

        topo = TopoView(switches=(1, 2), links=((1, 1, 2, 1),), version=1)
        transformer = EventTransformer(escalate_link_to_switch=True)
        result = transformer.transform(LinkRemoved(1, 1, 2, 1), topo)
        assert result == [SwitchLeave(dpid=1)]

    def test_escalation_end_to_end(self):
        """An app that crashes on LinkRemoved gets the SwitchLeave
        escalation when the runtime's transformer is configured so."""
        net = Network(ring_topology(4, 1), seed=0)
        runtime = LegoSDNRuntime(
            net.controller,
            policy_table=PolicyTable.parse(
                "app=* event=* policy=equivalence"),
        )
        runtime.crashpad.transformer.escalate_link_to_switch = True

        class LeaveWatcher(ShortestPathRouting):
            subscriptions = ("PacketIn", "LinkRemoved")

            def __init__(self, name=None):
                super().__init__(name)
                self.leaves = []

            def on_switch_leave(self, event):
                self.leaves.append(event)
                return super().on_switch_leave(event)

        app = crash_on(LeaveWatcher(), event_type="LinkRemoved")
        runtime.launch_app(app)
        net.start()
        net.run_for(1.5)
        net.link_down(1, 2)
        net.run_for(3.0)
        stats = runtime.stats()["routing"]
        assert stats["crashes"] >= 1
        assert stats["transformed"] >= 1
        inner = runtime.app("routing").inner
        assert inner.leaves  # the escalated SwitchLeave arrived
        assert inner.leaves[0].dpid in (1, 2)
