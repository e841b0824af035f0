"""Tests for Hub, Flooder, LearningSwitch, and the SDNApp base contract."""

import pytest

from repro.apps import Flooder, Hub, LearningSwitch, make_app, APP_REGISTRY
from repro.apps import base
from repro.apps.base import SDNApp, _snake
from repro.controller.monolithic import MonolithicRuntime
from repro.network.net import Network
from repro.network.topology import linear_topology


def build(factory, switches=2):
    net = Network(linear_topology(switches, 1), seed=0)
    runtime = MonolithicRuntime(net.controller)
    app = runtime.launch_app(factory)
    net.start()
    net.run_for(1.0)
    return net, runtime, app


class TestBaseContract:
    def test_snake_case_routing(self):
        assert _snake("PacketIn") == "packet_in"
        assert _snake("SwitchLeave") == "switch_leave"
        assert _snake("LinkRemoved") == "link_removed"

    def test_unknown_event_type_is_noop(self):
        app = SDNApp(name="bare")

        class Weird:
            type_name = "NeverHeardOfIt"

        assert app.handle(Weird()) is None
        assert app.events_handled == 1

    def test_hook_names_are_looked_up_once_and_resolve_per_class(self):
        """The ``on_<snake>`` name is cached per event type; which method
        it finds is still each instance's own."""
        class Event:
            type_name = "PortStatus"

        class Base(SDNApp):
            def on_port_status(self, event):
                return "base"

        class Override(Base):
            def on_port_status(self, event):
                return "override"

        class Missing(SDNApp):
            pass

        first = [Base().handle(Event()), Override().handle(Event()),
                 Missing().handle(Event())]
        assert base._HOOKS["PortStatus"] == "on_port_status"
        again = [Base().handle(Event()), Override().handle(Event()),
                 Missing().handle(Event())]
        assert first == again == ["base", "override", None]

    def test_state_roundtrip_excludes_api(self):
        app = LearningSwitch()
        app.api = object()
        app.mac_tables[1] = {"m": 2}
        state = app.get_state()
        assert "api" not in state
        fresh = LearningSwitch()
        fresh.api = "the-api"
        fresh.set_state(state)
        assert fresh.mac_tables == {1: {"m": 2}}
        assert fresh.api == "the-api"

    def test_registry_constructs_each_app(self):
        for name in APP_REGISTRY:
            app = make_app(name)
            assert isinstance(app, SDNApp)
            assert app.name == name

    def test_registry_unknown_name(self):
        with pytest.raises(ValueError):
            make_app("nonexistent")


class TestHub:
    def test_hub_floods_everything(self):
        net, runtime, hub = build(Hub)
        assert net.reachability() == 1.0
        assert hub.packets_flooded > 0

    def test_hub_installs_no_rules(self):
        net, runtime, hub = build(Hub)
        net.ping("h1", "h2")
        assert net.total_flow_entries() == 0

    def test_every_packet_hits_controller(self):
        net, runtime, hub = build(Hub)
        before = hub.packets_flooded
        net.ping("h1", "h2")
        net.ping("h1", "h2")
        # ping+pong per ping, each punted at both switches
        assert hub.packets_flooded >= before + 4


class TestFlooder:
    def test_one_rule_per_switch(self):
        net, runtime, flooder = build(Flooder, switches=3)
        assert flooder.rules_installed == 3
        assert net.total_flow_entries() == 3

    def test_dataplane_forwarding_without_controller(self):
        net, runtime, flooder = build(Flooder, switches=3)
        pins_before = net.controller.messages_received
        assert net.reachability() == 1.0
        # flood rules mean no PacketIns for data traffic (only LLDP)
        data_pins = sum(
            1 for _ in range(0))  # placeholder to keep structure clear
        assert net.switch(1).flow_table.entries[0].packet_count > 0


class TestLearningSwitch:
    def test_learns_and_installs_exact_flows(self):
        net, runtime, app = build(LearningSwitch)
        net.ping("h1", "h2")
        net.run_for(0.5)
        assert app.flows_installed > 0
        macs = app.mac_tables[1]
        assert net.host("h1").mac in macs

    def test_floods_unknown_destinations(self):
        net, runtime, app = build(LearningSwitch)
        assert app.floods == 0
        net.ping("h1", "h2")
        assert app.floods > 0

    def test_forgets_dead_switch(self):
        net, runtime, app = build(LearningSwitch, switches=3)
        net.ping("h1", "h2")
        assert app.mac_tables.get(1)
        net.switch_down(1)
        net.run_for(0.5)
        assert 1 not in app.mac_tables

    def test_installed_flows_idle_out(self):
        net, runtime, app = build(LearningSwitch)
        net.ping("h1", "h2")
        net.run_for(0.5)
        assert net.total_flow_entries() > 0
        net.run_for(LearningSwitch.IDLE_TIMEOUT + 1.0)
        assert net.total_flow_entries() == 0
