"""Indexed, queued controller dispatch.

The O(listeners) scan and per-event list copy in ``_deliver`` are
replaced by a type->listener index rebuilt only on (un)registration,
and events drain through one FIFO queue that re-entrant dispatches,
whatever their dpid, join at the back.
"""

import pytest

from repro.controller.api import Command
from repro.controller.core import Controller
from repro.network.simulator import Simulator


class Event:
    type_name = "Ev"

    def __init__(self, dpid=None, tag=None):
        if dpid is not None:
            self.dpid = dpid
        self.tag = tag


class Other:
    type_name = "Other"

    def __init__(self, dpid=None):
        if dpid is not None:
            self.dpid = dpid


@pytest.fixture
def controller():
    return Controller(Simulator(seed=0))


class TestListenerIndex:
    def test_index_routes_by_type(self, controller):
        seen = []
        controller.register_listener("a", ["Ev"],
                                     lambda e: seen.append("a"))
        controller.register_listener("b", ["Other"],
                                     lambda e: seen.append("b"))
        controller.register_listener("c", ["Ev", "Other"],
                                     lambda e: seen.append("c"))
        controller.dispatch(Event())
        assert seen == ["a", "c"]
        seen.clear()
        controller.dispatch(Other())
        assert seen == ["b", "c"]

    def test_unregister_keeps_index_consistent(self, controller):
        seen = []
        controller.register_listener("a", ["Ev"], lambda e: seen.append("a"))
        controller.register_listener("b", ["Ev"], lambda e: seen.append("b"))
        controller.unregister_listener("a")
        controller.dispatch(Event())
        assert seen == ["b"]

    def test_registration_order_preserved_and_stop_honoured(self, controller):
        seen = []

        def stopper(e):
            seen.append("first")
            return Command.STOP

        controller.register_listener("first", ["Ev"], stopper)
        controller.register_listener("second", ["Ev"],
                                     lambda e: seen.append("second"))
        controller.dispatch(Event())
        assert seen == ["first"]


class TestShardedLanes:
    """The dispatch queue (once one FIFO lane per dpid residue)."""

    def test_reentrant_dispatch_same_lane_is_fifo(self, controller):
        seen = []

        def listener(event):
            seen.append(event.tag)
            if event.tag == "outer":
                # Re-entrant dispatch for the same dpid: must queue
                # behind the in-flight event, not preempt it.
                controller.dispatch(Event(dpid=1, tag="inner"))
                seen.append("outer-done")

        controller.register_listener("a", ["Ev"], listener)
        controller.dispatch(Event(dpid=1, tag="outer"))
        assert seen == ["outer", "outer-done", "inner"]

    def test_reentrant_dispatch_other_dpid_is_fifo(self, controller):
        seen = []

        def listener(event):
            seen.append(event.tag)
            if event.tag == "outer":
                # Another switch's event queues behind the in-flight
                # one too: there is one queue, not one per dpid.
                controller.dispatch(Event(dpid=2, tag="inner"))
                seen.append("outer-done")

        controller.register_listener("a", ["Ev"], listener)
        controller.dispatch(Event(dpid=1, tag="outer"))
        assert seen == ["outer", "outer-done", "inner"]

    def test_crash_clears_queued_events(self, controller):
        delivered = []

        def boom(event):
            if event.tag == "outer":
                controller.dispatch(Event(dpid=1, tag="queued"))
                raise RuntimeError("bug")
            delivered.append(event.tag)

        controller.register_listener("a", ["Ev"], boom)
        controller.dispatch(Event(dpid=1, tag="outer"))
        assert controller.crashed
        assert delivered == []  # the queued event died with the process
