"""Unit tests for the controller core: dispatch, crash, reboot."""

import pytest

from repro.controller.api import Command
from repro.controller.core import Controller
from repro.controller.events import SwitchJoin, SwitchLeave
from repro.network.net import Network
from repro.network.simulator import Simulator
from repro.network.topology import linear_topology
from repro.openflow.messages import Hello, PacketIn


class Recorder:
    """A listener that records what it sees."""

    def __init__(self, command=None, raises=None):
        self.seen = []
        self.command = command
        self.raises = raises

    def __call__(self, event):
        self.seen.append(event)
        if self.raises is not None:
            raise self.raises
        return self.command


@pytest.fixture
def controller():
    return Controller(Simulator(), discovery_interval=1000)  # discovery off


class TestListeners:
    def test_dispatch_by_type_name(self, controller):
        wants_hello = Recorder()
        wants_join = Recorder()
        controller.register_listener("a", ("Hello",), wants_hello)
        controller.register_listener("b", ("SwitchJoin",), wants_join)
        controller.dispatch(Hello())
        assert len(wants_hello.seen) == 1
        assert wants_join.seen == []

    def test_registration_order_preserved(self, controller):
        order = []
        controller.register_listener("first", ("Hello",),
                                     lambda e: order.append("first"))
        controller.register_listener("second", ("Hello",),
                                     lambda e: order.append("second"))
        controller.dispatch(Hello())
        assert order == ["first", "second"]

    def test_stop_halts_chain(self, controller):
        stopper = Recorder(command=Command.STOP)
        after = Recorder()
        controller.register_listener("stopper", ("Hello",), stopper)
        controller.register_listener("after", ("Hello",), after)
        controller.dispatch(Hello())
        assert after.seen == []

    def test_duplicate_name_rejected(self, controller):
        controller.register_listener("x", ("Hello",), lambda e: None)
        with pytest.raises(ValueError):
            controller.register_listener("x", ("Hello",), lambda e: None)

    def test_unregister(self, controller):
        r = Recorder()
        controller.register_listener("x", ("Hello",), r)
        assert controller.unregister_listener("x")
        assert not controller.unregister_listener("x")
        controller.dispatch(Hello())
        assert r.seen == []


class TestFateSharing:
    """The crash semantics the paper attacks: listener exception kills all."""

    def test_listener_exception_crashes_controller(self, controller):
        controller.register_listener("buggy", ("Hello",),
                                     Recorder(raises=RuntimeError("boom")))
        controller.dispatch(Hello())
        assert controller.crashed
        assert controller.crash_records[0].culprit == "buggy"
        assert "boom" in controller.crash_records[0].exception

    def test_crash_stops_dispatch_to_later_listeners(self, controller):
        after = Recorder()
        controller.register_listener("buggy", ("Hello",),
                                     Recorder(raises=RuntimeError("x")))
        controller.register_listener("after", ("Hello",), after)
        controller.dispatch(Hello())
        assert after.seen == []

    def test_crashed_controller_ignores_messages(self, controller):
        r = Recorder()
        controller.register_listener("r", ("Hello",), r)
        controller.crash(RuntimeError("dead"), culprit="test")
        controller.dispatch(Hello())
        controller.handle_switch_message(1, Hello())
        assert r.seen == []
        assert not controller.send_to_switch(1, Hello())

    def test_crash_callbacks_invoked(self, controller):
        calls = []
        controller.crash_callbacks.append(lambda exc, culprit: calls.append(culprit))
        controller.crash(RuntimeError("x"), culprit="app-z")
        assert calls == ["app-z"]

    def test_crash_idempotent(self, controller):
        controller.crash(RuntimeError("1"), culprit="a")
        controller.crash(RuntimeError("2"), culprit="b")
        assert len(controller.crash_records) == 1

    def test_traceback_captured(self, controller):
        def boom(event):
            raise ValueError("specific detail")

        controller.register_listener("b", ("Hello",), boom)
        controller.dispatch(Hello())
        assert "specific detail" in controller.crash_records[0].traceback_text


class TestRebootAndUptime:
    def test_reboot_restores_dispatch(self):
        net = Network(linear_topology(2, 1), seed=0)
        net.start()
        net.run_for(1.0)
        r = Recorder()
        net.controller.register_listener("r", ("SwitchJoin",), r)
        net.controller.crash(RuntimeError("x"), culprit="t")
        net.run_for(0.5)
        net.controller.reboot()
        # reboot re-announces connected switches
        assert len([e for e in r.seen if isinstance(e, SwitchJoin)]) == 2


class TestSwitchLifecycle:
    def test_switch_leave_event_on_disconnect(self):
        net = Network(linear_topology(2, 1), seed=0)
        r = Recorder()
        net.controller.register_listener("r", ("SwitchLeave",), r)
        net.start()
        net.run_for(0.5)
        net.switch_down(1)
        assert any(isinstance(e, SwitchLeave) and e.dpid == 1 for e in r.seen)

    def test_duplicate_dpid_rejected(self):
        net = Network(linear_topology(2, 1), seed=0)
        net.start()
        with pytest.raises(ValueError):
            net.controller.connect_switch(net.switch(1))
