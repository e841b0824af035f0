"""Tests for metrics collectors and workload generators."""

import math

import pytest

from repro.apps import LearningSwitch
from repro.controller.monolithic import MonolithicRuntime
from repro.metrics import AvailabilityTracker, LatencyRecorder, MetricsCollector
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.scenario import Step, play
from repro.stack import Stack
from repro.workloads import TrafficWorkload, inject_marker_packet


class TestLatencyRecorder:
    def test_empty_stats_are_nan(self):
        recorder = LatencyRecorder()
        assert math.isnan(recorder.mean)
        assert math.isnan(recorder.percentile(50))

    def test_basic_stats(self):
        recorder = LatencyRecorder()
        for v in (1.0, 2.0, 3.0, 4.0):
            recorder.record(v)
        assert recorder.mean == 2.5
        assert recorder.minimum == 1.0
        assert recorder.maximum == 4.0
        assert recorder.percentile(50) == 2.0
        assert recorder.percentile(100) == 4.0

    def test_percentile_bounds(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(101)

    def test_summary_keys(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        assert set(recorder.summary()) == {"count", "mean", "p50", "p95",
                                           "p99", "min", "max"}


class TestMetricsCollector:
    def test_counters_and_timers(self):
        collector = MetricsCollector()
        collector.inc("x")
        collector.inc("x", 4)
        collector.observe("lat", 0.1)
        collector.observe("lat", 0.3)
        snap = collector.snapshot()
        assert snap["counters"]["x"] == 5
        assert snap["timers"]["lat"]["count"] == 2
        assert "missing" not in collector.recorders


class TestAvailabilityTracker:
    def test_unknown_entity_fully_up(self):
        tracker = AvailabilityTracker()
        assert tracker.fraction_up("ghost", 0, 10) == 1.0

    def test_down_interval_integrated(self):
        tracker = AvailabilityTracker()
        tracker.mark_down("app", 2.0)
        tracker.mark_up("app", 4.0)
        assert tracker.fraction_up("app", 0.0, 10.0) == pytest.approx(0.8)

    def test_still_down_extends_to_window_end(self):
        tracker = AvailabilityTracker()
        tracker.mark_down("app", 5.0)
        assert tracker.fraction_up("app", 0.0, 10.0) == pytest.approx(0.5)

    def test_repeated_same_state_idempotent(self):
        tracker = AvailabilityTracker()
        tracker.mark_down("app", 2.0)
        tracker.mark_down("app", 3.0)
        tracker.mark_up("app", 4.0)
        assert tracker.fraction_up("app", 0.0, 10.0) == pytest.approx(0.8)

    def test_degenerate_window(self):
        tracker = AvailabilityTracker()
        tracker.mark_down("a", 1.0)
        assert tracker.fraction_up("a", 5.0, 5.0) == 1.0


class TestTrafficWorkload:
    @pytest.fixture
    def net(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        runtime.launch_app(LearningSwitch)
        net.start()
        net.run_for(1.0)
        return net

    def test_rate_times_duration_packets(self, net):
        workload = TrafficWorkload(net, rate=50)
        count = workload.start(duration=1.0)
        net.run_for(2.0)
        assert count == 50
        assert workload.sent == 50

    def test_round_robin_covers_pairs(self, net):
        workload = TrafficWorkload(net, rate=10,
                                   pairs=[("h1", "h2"), ("h2", "h1")])
        workload.start(1.0)
        net.run_for(2.0)
        h1, h2 = net.host("h1"), net.host("h2")
        assert h1.packets_from(h2) and h2.packets_from(h1)

    def test_random_selection_seeded(self, net):
        a = TrafficWorkload(net, rate=10, selection="random", seed=3)
        b = TrafficWorkload(net, rate=10, selection="random", seed=3)
        assert [a._pick_pair() for _ in range(5)] == \
            [b._pick_pair() for _ in range(5)]

    def test_invalid_params(self, net):
        with pytest.raises(ValueError):
            TrafficWorkload(net, rate=0)
        with pytest.raises(ValueError):
            TrafficWorkload(net, selection="chaotic")

    def test_marker_packet_carries_payload(self, net):
        inject_marker_packet(net, "h1", "h2", "MARK")
        net.run_for(0.5)
        payloads = [p.payload for _, p in net.host("h2").received
                    if not p.is_lldp()]
        assert "MARK" in payloads


class TestFailureSchedule:
    """Timed faults are scenario steps, played by ``repro.scenario.play``."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Step(1.0, "meteor-strike")

    def test_schedule_applies_in_order(self):
        net = Network(linear_topology(3, 1), seed=0)
        net.start()
        net.run_for(1.0)
        link = {"dpid_a": 1, "dpid_b": 2}
        stack = Stack(net=net)
        play(stack, [Step(2.0, "link_down", link)], until=2.5)
        assert not net.link_between(1, 2).up
        # Given out of order, played in ``at`` order: down, then up.
        play(stack, [Step(3.5, "link_up", link), Step(3.0, "link_down", link)])
        assert net.link_between(1, 2).up and net.now == 3.5
        play(stack, [Step(4.0, "switch_down", {"dpid": 3})], until=4.5)
        assert not net.switch(3).up and net.now == 4.5

    def test_marker_packet_event(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = MonolithicRuntime(net.controller)
        runtime.launch_app(LearningSwitch)
        net.start()
        net.run_for(1.0)
        play(Stack(net=net), [Step(1.5, "marker_packet", {
            "src": "h1", "dst": "h2", "marker": "X"})], until=2.0)
        payloads = [p.payload for _, p in net.host("h2").received
                    if not p.is_lldp()]
        assert "X" in payloads
