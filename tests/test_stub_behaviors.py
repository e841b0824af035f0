"""Focused tests on AppVisor stub mechanics: checkpoint cadence,
replay-on-restore, output suppression, context caches, lossy channels,
and the counter-cache patching path through the proxy."""

import pytest

from repro.apps import FlowMonitor, Hub, LearningSwitch
from repro.core.appvisor.proxy import AppStatus
from repro.core.crashpad.checkpoint import CheckpointStore
from repro.core.runtime import LegoSDNRuntime
from repro.faults import crash_on
from repro.faults.netfaults import ChaosProfile
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    FlowStatsEntry,
    FlowStatsReply,
)
from repro.workloads.traffic import inject_marker_packet


def build(apps, **kwargs):
    net = Network(linear_topology(2, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller, **kwargs)
    for app in apps:
        runtime.launch_app(app)
    net.start()
    net.run_for(1.0)
    return net, runtime


class TestCheckpointCadence:
    def test_interval_one_checkpoints_every_event(self):
        net, runtime = build([FlowMonitor()], checkpoint_interval=1)
        stub = runtime.stub("monitor")
        for i in range(5):
            inject_marker_packet(net, "h1", "h2", f"p{i}")
            net.run_for(0.3)
        assert stub.checkpoints.taken_count == stub.events_processed

    def test_interval_k_checkpoints_sparsely(self):
        net, runtime = build([FlowMonitor()], checkpoint_interval=5)
        stub = runtime.stub("monitor")
        for i in range(10):
            inject_marker_packet(net, "h1", "h2", f"p{i}")
            net.run_for(0.3)
        assert stub.checkpoints.taken_count <= stub.events_processed // 5 + 1

    def test_invalid_interval_rejected(self):
        net = Network(linear_topology(2, 1), seed=0)
        from repro.core.appvisor.stub import AppVisorStub

        with pytest.raises(ValueError):
            AppVisorStub(net.sim, FlowMonitor(), checkpoint_interval=0)

    def test_checkpoint_cost_delays_processing(self):
        """Bigger state -> bigger checkpoint -> later app handling."""
        big = FlowMonitor(name="big")
        big.pair_packets = {(f"s{i}", f"d{i}"): i for i in range(3000)}
        taken = {}
        for app in (big, FlowMonitor(name="small")):
            net, runtime = build([app])
            stub = runtime.stub(app.name)
            inject_marker_packet(net, "h1", "h2", "x")
            net.run_for(2.0)
            store = stub.checkpoints
            taken[app.name] = (store.latest(), store.cost_of(store.latest()))
        (big_cp, big_cost), (small_cp, small_cost) = (
            taken["big"], taken["small"])
        # Both paid the fixed freeze; the big one also paid for its bytes.
        assert small_cost >= CheckpointStore.base_cost
        extra_bytes = big_cp.state_size - small_cp.state_size
        assert extra_bytes > 50_000
        assert (big_cost - small_cost
                >= extra_bytes * CheckpointStore.per_byte_cost)

    def test_replay_rebuilds_state_with_interval_k(self):
        """Crash with k=8: restore + journal replay reproduces the
        observations made since the last checkpoint."""
        net, runtime = build(
            [crash_on(FlowMonitor(name="app"), payload_marker="BOOM")],
            checkpoint_interval=8,
        )
        for i in range(5):
            inject_marker_packet(net, "h1", "h2", f"p{i}")
            net.run_for(0.3)
        app = runtime.app("app")
        observations = app.inner.total_observations()
        assert observations >= 5
        inject_marker_packet(net, "h1", "h2", "BOOM")
        net.run_for(2.0)
        # replay (minus the BOOM event) restored every prior observation
        assert app.inner.total_observations() == observations
        assert runtime.record("app").status is AppStatus.UP

    def test_replay_suppresses_outputs(self):
        """Replayed events must not re-emit (their rules already
        committed): switch tables hold no duplicates after recovery."""
        net, runtime = build(
            [crash_on(LearningSwitch(name="app"), payload_marker="BOOM")],
            checkpoint_interval=8,
        )
        net.ping("h1", "h2")
        net.run_for(0.5)
        sent_before = net.controller.messages_sent
        inject_marker_packet(net, "h1", "h2", "BOOM")
        net.run_for(2.0)
        stub = runtime.stub("app")
        assert stub.restores_done == 1
        # Recovery traffic is bounded: no flood of replayed FlowMods.
        # (the only messages after the crash are LLDP probes)
        data_msgs = net.controller.messages_sent - sent_before
        lldp_budget = 40  # discovery rounds during the 2s window
        assert data_msgs <= lldp_budget


class TestContextCaches:
    def test_stub_sees_hosts_after_learning(self):
        net, runtime = build([LearningSwitch()])
        net.ping("h1", "h2")
        net.run_for(0.5)
        stub = runtime.stub("learning_switch")
        h1 = net.host("h1")
        assert h1.mac in stub.host_cache
        assert stub.host_cache[h1.mac].dpid == 1

    def test_api_views_match_controller(self):
        net, runtime = build([LearningSwitch()])
        net.ping("h1", "h2")
        net.run_for(0.5)
        api = runtime.app("learning_switch").api
        assert api.switches() == tuple(net.controller.connected_dpids())
        assert api.topology().links == net.controller.topology.view().links
        assert set(api.hosts()) == set(net.controller.devices.all())


class TestLossyChannel:
    def test_heartbeats_tolerate_loss(self):
        """Moderate datagram loss must not produce false crash verdicts
        (responses count as liveness proof too)."""
        net, runtime = build([LearningSwitch()],
                             chaos=ChaosProfile(seed=0, loss=0.05))
        net.reachability(wait=1.0)
        net.run_for(3.0)
        record = runtime.record("learning_switch")
        # some crashes may be suspected and recovered from; the app
        # must end up alive either way
        assert record.status is AppStatus.UP
        assert runtime.is_up

    def test_total_loss_detected_as_failure(self):
        """A fully dead channel looks exactly like a dead app."""
        net, runtime = build([LearningSwitch()])
        channel = runtime.channels["learning_switch"]
        channel.chaos = ChaosProfile(loss=1.0)  # the link dies after startup
        net.run_for(2.0)
        record = runtime.record("learning_switch")
        # detector fired; recovery can't complete (restore cmd lost too)
        assert record.crash_count >= 1
        assert runtime.is_up  # the controller is indifferent


class TestStatsPatchingThroughProxy:
    def test_flow_stats_reply_patched_before_delivery(self):
        class StatsApp(LearningSwitch):
            name = "stats"
            subscriptions = ("FlowStatsReply",)

            def __init__(self):
                super().__init__(name="stats")
                self.replies = []

            def on_flow_stats_reply(self, event):
                self.replies.append(event)

        net, runtime = build([StatsApp()])
        manager = runtime.proxy.manager
        from repro.openflow.inversion import CounterRecord

        manager.counter_cache.store(CounterRecord(
            dpid=1, match=Match(eth_dst="d"), priority=7,
            packet_count=1000, byte_count=100000,
            original_installed_at=0.0, idle_timeout=0, hard_timeout=0))
        # install the rule and ask the switch for stats
        net.controller.send_to_switch(1, FlowMod(
            match=Match(eth_dst="d"), priority=7, actions=(Output(1),)))
        net.run_for(0.2)
        from repro.openflow.messages import FlowStatsRequest

        net.controller.send_to_switch(1, FlowStatsRequest())
        net.run_for(1.0)
        app = runtime.app("stats")
        assert app.replies, "stats reply never reached the app"
        entry = app.replies[-1].entries[0]
        # raw switch counters are 0; the app observed cache-corrected ones
        assert entry.packet_count == 1000
        assert entry.byte_count == 100000
