"""Integration tests for the stub+proxy pair inside the LegoSDN runtime."""

import pytest

from repro.apps import Flooder, FlowMonitor, Hub, LearningSwitch
from repro.apps.base import SDNApp
from repro.core.appvisor.isolation import ResourceLimits
from repro.core.appvisor.proxy import AppStatus
from repro.core.crashpad.policy_lang import PolicyTable
from repro.core.runtime import LegoSDNRuntime
from repro.faults import BugKind, crash_on
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.workloads.traffic import inject_marker_packet


def build(apps=(), runtime_kwargs=None, run=1.0, switches=3):
    net = Network(linear_topology(switches, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller, **(runtime_kwargs or {}))
    for app in apps:
        runtime.launch_app(app)
    net.start()
    net.run_for(run)
    return net, runtime


class TestDispatchPath:
    def test_app_serves_network_through_rpc(self):
        net, runtime = build([LearningSwitch()])
        assert net.reachability() == 1.0
        record = runtime.record("learning_switch")
        assert record.events_dispatched > 0
        assert record.events_dispatched == record.events_completed

    def test_message_order_preserved_per_app(self):
        """§4.1: processing order identical to the monolithic pipeline.

        A large checkpoint interval keeps the whole journal around so
        the delivered order can be read back.
        """
        net, runtime = build([FlowMonitor()],
                             runtime_kwargs={"checkpoint_interval": 1000})
        inject_marker_packet(net, "h1", "h2", "one")
        inject_marker_packet(net, "h1", "h2", "two")
        net.run_for(1.0)
        stub = runtime.stub("monitor")
        payloads = [e.event.packet.payload
                    for e in stub.journal.events_between(0, 10**9)
                    if e.event.type_name == "PacketIn"]
        assert payloads.index("one") < payloads.index("two")

    def test_subscription_filtering(self):
        net, runtime = build([Flooder()])
        record = runtime.record("flooder")
        # Flooder only wants SwitchJoin: 3 switches -> 3 events, no PacketIns
        net.reachability()
        assert record.events_dispatched == 3

    def test_late_app_receives_synthesized_switch_joins(self):
        net, runtime = build([])
        net.run_for(1.0)
        runtime.launch_app(Flooder())
        net.run_for(1.0)
        assert runtime.app("flooder").rules_installed == 3

    def test_counter_deltas_reach_counter_store(self):
        class CountingApp(LearningSwitch):
            name = "counting"

            def on_packet_in(self, event):
                self.api.counter_inc("seen")
                return super().on_packet_in(event)

        net, runtime = build([CountingApp()])
        net.ping("h1", "h2")
        net.run_for(0.5)
        assert net.controller.counters.get("counting.seen") > 0

    def test_context_pushed_on_topology_change(self):
        net, runtime = build([LearningSwitch()])
        stub = runtime.stub("learning_switch")
        version_before = stub.topo_cache.version
        net.link_down(1, 2)
        net.run_for(0.5)
        assert stub.topo_cache.version > version_before
        assert len(stub.topo_cache.links) == 1


class TestCrashContainment:
    def test_crash_never_reaches_controller(self):
        net, runtime = build([
            LearningSwitch(),
            crash_on(LearningSwitch(name="bad"), payload_marker="BOOM"),
        ])
        inject_marker_packet(net, "h1", "h3", "BOOM")
        net.run_for(2.0)
        assert runtime.is_up
        assert net.controller.crash_records == []
        assert "learning_switch" in runtime.live_apps()

    def test_other_apps_keep_processing_during_recovery(self):
        net, runtime = build([
            FlowMonitor(),
            crash_on(LearningSwitch(name="bad"), payload_marker="BOOM"),
        ])
        monitor = runtime.app("monitor")
        inject_marker_packet(net, "h1", "h3", "BOOM")
        net.run_for(0.1)
        before = monitor.total_observations()
        inject_marker_packet(net, "h2", "h3", "clean")
        net.run_for(1.0)
        assert monitor.total_observations() > before

    def test_recovery_restores_pre_event_state(self):
        net, runtime = build([
            LearningSwitch(),
            crash_on(FlowMonitor(name="fragile"), payload_marker="BOOM"),
        ])
        inject_marker_packet(net, "h1", "h2", "warmup")
        net.run_for(1.0)
        fragile = runtime.app("fragile")
        observations = fragile.inner.total_observations()
        assert observations > 0
        inject_marker_packet(net, "h1", "h2", "BOOM")
        net.run_for(2.0)
        # state from before the offending event survives
        assert fragile.inner.total_observations() >= observations
        assert runtime.record("fragile").status is AppStatus.UP

    def test_ticket_contains_offending_event_and_policy(self):
        net, runtime = build([
            crash_on(LearningSwitch(name="bad"), payload_marker="BOOM"),
        ])
        inject_marker_packet(net, "h1", "h2", "BOOM")
        net.run_for(2.0)
        tickets = runtime.tickets.for_app("bad")
        assert tickets
        assert "BOOM" in tickets[0].offending_event
        assert tickets[0].recovery_policy == "absolute"
        assert "InjectedBugError" in tickets[0].exception

    def test_hang_detected_by_heartbeat(self):
        net, runtime = build([
            crash_on(LearningSwitch(name="hanger"), payload_marker="H",
                     kind=BugKind.HANG),
        ])
        inject_marker_packet(net, "h1", "h2", "H")
        net.run_for(3.0)
        record = runtime.record("hanger")
        assert record.crash_count >= 1
        assert record.status is AppStatus.UP  # recovered
        kinds = {t.failure_kind for t in runtime.tickets.for_app("hanger")}
        assert "hang" in kinds

    def test_no_compromise_leaves_app_dead(self):
        policy = PolicyTable.parse("app=bad event=* policy=no-compromise")
        net, runtime = build(
            [LearningSwitch(),
             crash_on(LearningSwitch(name="bad"), payload_marker="BOOM")],
            runtime_kwargs={"policy_table": policy},
        )
        inject_marker_packet(net, "h1", "h2", "BOOM")
        net.run_for(2.0)
        assert runtime.record("bad").status is AppStatus.DEAD
        assert "bad" not in runtime.live_apps()
        assert runtime.is_up  # controller still fine
        assert "learning_switch" in runtime.live_apps()

    def test_dead_app_gets_no_more_events(self):
        policy = PolicyTable.parse("app=bad event=* policy=no-compromise")
        net, runtime = build(
            [crash_on(LearningSwitch(name="bad"), payload_marker="BOOM")],
            runtime_kwargs={"policy_table": policy},
        )
        inject_marker_packet(net, "h1", "h2", "BOOM")
        net.run_for(2.0)
        dispatched = runtime.record("bad").events_dispatched
        inject_marker_packet(net, "h1", "h2", "more")
        net.run_for(1.0)
        assert runtime.record("bad").events_dispatched == dispatched


class _Tally(SDNApp):
    """Counts PacketIns, with dirty tracking (so takes can defer)."""

    subscriptions = ("PacketIn",)

    def __init__(self):
        super().__init__()
        self.seen = 0
        self.enable_dirty_tracking()

    def on_packet_in(self, event):
        self.seen += 1
        self.mark_dirty("seen")


class RaisingGetState(_Tally):
    name = "raising_get_state"

    def get_state(self):
        if self.seen >= 3:
            raise RuntimeError("state went missing")
        return super().get_state()


class ComplexInState(_Tally):
    name = "complex_in_state"

    def on_packet_in(self, event):
        super().on_packet_in(event)
        if self.seen == 3:
            self.weights = {"w": complex(1, 2)}    # no wire tag
            self.mark_dirty("weights")


class TestStateFaults:
    """A state that cannot be checkpointed is the app's failure: it
    must end in a ticket, not in an exception out of the simulator."""

    @pytest.mark.parametrize("limits", [
        # A state-size cap (never reached) is measured on the exact
        # image, so every take encodes synchronously.
        ResourceLimits(max_state_bytes=1 << 30),
        None,   # deferred encoding: the stub's heartbeat drains it
    ], ids=["take", "drain"])
    @pytest.mark.parametrize("bad,names", [
        (RaisingGetState, ("raising_get_state", "state went missing")),
        (ComplexInState, ("complex_in_state", "'weights'", "dict",
                          "complex")),
    ], ids=["raises", "unencodable"])
    def test_ticketed(self, bad, names, limits):
        net, runtime = build([LearningSwitch()], run=0.0)
        stub = runtime.launch_app(bad(), limits=limits)
        net.run_for(1.0)
        healthy = runtime.record("learning_switch")
        for round_ in range(4):
            inject_marker_packet(net, "h1", "h3", f"round-{round_}")
            net.run_for(0.5)
        assert runtime.total_crashes() > 0
        assert runtime.record(bad.name).crash_count > 0
        before = healthy.events_completed
        inject_marker_packet(net, "h2", "h3", "after")
        net.run_for(1.0)
        assert runtime.is_up and net.controller.crash_records == []
        assert healthy.events_completed > before
        assert healthy.crash_count == 0
        ticket = runtime.tickets.for_app(bad.name)[0]
        for name in names:
            assert name in ticket.exception
        # Each arm took the path its id names.
        deferred = stub.checkpoints.stats()["deferred_takes"]
        assert (deferred == 0) if limits is not None else (deferred > 0)


    def test_pending_capture_at_failover_is_ticketed(self):
        """The capture that cannot be encoded is still pending when the
        stub re-attaches to a promoted backup: the forced flush there
        reports a crash to the new proxy instead of raising out of the
        failover."""
        from repro.replication import ReplicaSet

        net = Network(linear_topology(3, 1), seed=0)
        runtime = LegoSDNRuntime(net.controller)
        # Failover well inside one stub heartbeat (0.1 s), so no drain
        # gets to the bad capture first.
        replicas = ReplicaSet(net, runtime, backups=1,
                              heartbeat_interval=0.01, lease_timeout=0.03,
                              check_interval=0.005)
        runtime.launch_app(LearningSwitch())
        runtime.launch_app(ComplexInState())
        net.start()
        net.run_for(1.0)            # a stub heartbeat has just fired
        stub = runtime.stub("complex_in_state")
        inject_marker_packet(net, "h1", "h3", "three PacketIns")
        net.run_for(0.02)
        assert stub.app.seen == 3   # the state now holds a complex
        inject_marker_packet(net, "h2", "h3", "the next take captures it")
        while stub.app.seen < 4:
            net.run_for(0.001)
        assert stub.checkpoints.pending_count > 0
        beats = stub.heartbeats_sent
        replicas.crash_primary()
        net.run_for(0.05)
        assert len(replicas.failovers) == 1
        assert stub.heartbeats_sent == beats    # inside the window
        promoted = replicas.runtime
        net.run_for(1.0)
        ticket = promoted.tickets.for_app("complex_in_state")[0]
        assert "complex" in ticket.exception
        assert promoted.record("complex_in_state").recoveries > 0
        healthy = promoted.record("learning_switch")
        before = healthy.events_completed
        inject_marker_packet(net, "h1", "h2", "after")
        net.run_for(1.0)
        assert healthy.events_completed > before
        assert healthy.crash_count == 0
        assert not replicas.primary.controller.crashed

    def test_pending_capture_at_shutdown_is_reported(self):
        net, runtime = build([LearningSwitch(), ComplexInState()])
        stub = runtime.stub("complex_in_state")
        net.run_for(0.005)          # just past a stub heartbeat
        inject_marker_packet(net, "h1", "h3", "three PacketIns")
        net.run_for(0.02)
        inject_marker_packet(net, "h2", "h3", "the next take captures it")
        while stub.app.seen < 4:
            net.run_for(0.001)
        assert stub.checkpoints.pending_count > 0
        stub.shutdown()             # must not raise CheckpointError
        net.run_for(0.5)
        ticket = runtime.tickets.for_app("complex_in_state")[0]
        assert "complex" in ticket.exception


class TestResourceLimits:
    def test_max_events_kills_and_recovers(self):
        net, runtime = build([])
        runtime.launch_app(Hub(), limits=ResourceLimits(max_events=5))
        net.run_for(0.5)
        for i in range(12):
            inject_marker_packet(net, "h1", "h2", f"p{i}")
            net.run_for(0.2)
        net.run_for(2.0)
        record = runtime.record("hub")
        assert record.crash_count >= 1  # limit tripped
        assert runtime.is_up


class TestRuntimeSurface:
    def test_duplicate_launch_rejected(self):
        net, runtime = build([LearningSwitch()])
        with pytest.raises(ValueError):
            runtime.launch_app(LearningSwitch())

    def test_factory_launch(self):
        net, runtime = build([])
        runtime.launch_app(LearningSwitch)
        net.run_for(0.5)
        assert "learning_switch" in runtime.live_apps()

    def test_invalid_mode_rejected(self):
        net = Network(linear_topology(2, 1), seed=0)
        with pytest.raises(ValueError):
            LegoSDNRuntime(net.controller, mode="bogus")

    def test_stats_shape(self):
        net, runtime = build([LearningSwitch()])
        stats = runtime.stats()["learning_switch"]
        assert set(stats) == {"dispatched", "completed", "crashes",
                              "recoveries", "skipped", "transformed",
                              "byzantine", "deep_restores",
                              "channel_suspicions"}
        assert runtime.total_crashes() == 0
        assert runtime.total_recoveries() == 0
