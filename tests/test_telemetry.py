"""Tests for the telemetry subsystem: tracer, flight recorder, export,
and the cross-stack instrumentation seams."""

import json
import math

import pytest

from repro.apps import LearningSwitch
from repro.core.crashpad.ticket import TicketStore
from repro.core.runtime import LegoSDNRuntime
from repro.faults import crash_on
from repro.metrics.collector import LatencyRecorder
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.telemetry import Telemetry
from repro.telemetry.export import prometheus_text, trace_json
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.workloads.traffic import inject_marker_packet


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTracer:
    def test_span_records_interval_and_tags(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work", app="fw") as span:
            clock.now = 2.5
            span.set_tag("extra", 1)
        (record,) = tracer.spans
        assert record.name == "work"
        assert record.start == 0.0 and record.end == 2.5
        assert record.duration == 2.5
        assert record.tags == {"app": "fw", "extra": 1}
        assert record.status == "ok"
        assert record.parent_id is None

    def test_spans_nest_via_parent_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans  # inner finishes first
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_exception_marks_span_error_and_propagates(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (record,) = tracer.spans
        assert record.status == "error"
        assert "ValueError: nope" in record.tags["error"]

    def test_record_span_uses_explicit_start(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.now = 5.0
        record = tracer.record_span("async.work", start=1.0, app="lb")
        assert record.start == 1.0 and record.end == 5.0
        assert record.parent_id is None

    def test_max_spans_bound_counts_drops(self):
        tracer = Tracer(clock=FakeClock(), max_spans=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", app="x") as span:
            span.set_tag("k", "v")
        NULL_TRACER.event("e", foo=1)
        NULL_TRACER.record_span("s", start=0.0)
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.to_dicts() == []


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(10):
            recorder.record(float(i), "event", f"e{i}")
        assert len(recorder) == 3
        assert recorder.total_recorded == 10
        # A truncated ring announces the eviction instead of silently
        # presenting e7 as the start of history.
        dump = recorder.dump()
        assert [e["name"] for e in dump] == [
            "flight.truncated", "e7", "e8", "e9"]
        assert dump[0]["tags"] == {"truncated": 7}

    def test_untruncated_dump_has_no_marker(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(4):
            recorder.record(float(i), "event", f"e{i}")
        assert [e["name"] for e in recorder.dump()] == [
            "e0", "e1", "e2", "e3"]

    def test_dump_is_frozen_copy(self):
        recorder = FlightRecorder(capacity=2)
        recorder.record(1.0, "event", "first", {"k": "v"})
        dump = recorder.dump()
        recorder.record(2.0, "event", "second")
        recorder.record(3.0, "event", "third")
        assert [e["name"] for e in dump] == ["first"]
        dump[0]["tags"]["k"] = "mutated"
        assert recorder.dump()[-1]["tags"] == {}

    def test_dump_json_round_trips(self):
        recorder = FlightRecorder()
        recorder.record(0.5, "span", "x", {"obj": object()})
        parsed = json.loads(json.dumps(recorder.dump()))
        assert parsed[0]["kind"] == "span"
        assert isinstance(parsed[0]["tags"]["obj"], str)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestLatencyRecorderCache:
    def test_percentiles_correct_across_interleaved_records(self):
        recorder = LatencyRecorder()
        for v in (5.0, 1.0, 3.0):
            recorder.record(v)
        assert recorder.percentile(50) == 3.0
        # A new sample must invalidate the cached ordering.
        recorder.record(0.5)
        assert recorder.percentile(25) == 0.5
        assert recorder.percentile(100) == 5.0
        assert recorder.summary()["p50"] == 1.0

    def test_sorted_cache_reused_between_reads(self):
        recorder = LatencyRecorder()
        for v in (2.0, 1.0):
            recorder.record(v)
        recorder.percentile(50)
        assert recorder._sorted == [1.0, 2.0]
        ordered = recorder._sorted
        recorder.percentile(95)
        assert recorder._sorted is ordered  # no re-sort
        recorder.record(0.0)
        assert recorder._sorted is None  # invalidated

    def test_sum_tracks_total(self):
        recorder = LatencyRecorder()
        for v in (1.0, 2.0, 4.0):
            recorder.record(v)
        assert recorder.sum == 7.0
        assert recorder.mean == pytest.approx(7.0 / 3)

    def test_histogram_cumulative_with_inf_tail(self):
        recorder = LatencyRecorder()
        for v in (0.001, 0.004, 0.02, 0.5):
            recorder.record(v)
        hist = recorder.histogram((0.001, 0.005, 0.1))
        assert hist == [(0.001, 1), (0.005, 2), (0.1, 3), (math.inf, 4)]


class TestExport:
    def test_prometheus_text_counters_and_summaries(self):
        telemetry = Telemetry(enabled=True)
        telemetry.metrics.inc("rpc.send.EventDeliver", 3)
        for v in (0.001, 0.002, 0.003):
            telemetry.metrics.observe("app.fw.event_latency", v)
        text = prometheus_text(telemetry.metrics)
        assert "# TYPE repro_rpc_send_EventDeliver_total counter" in text
        assert "repro_rpc_send_EventDeliver_total 3" in text
        assert ('repro_app_fw_event_latency_seconds{quantile="0.5"} 0.002'
                in text)
        assert "repro_app_fw_event_latency_seconds_count 3" in text
        assert 'repro_app_fw_event_latency_seconds_hist_bucket{le="+Inf"} 3' \
            in text

    def test_trace_json_round_trips(self):
        telemetry = Telemetry(enabled=True)
        with telemetry.tracer.span("seam", dpid=1):
            pass
        parsed = json.loads(trace_json(telemetry))
        assert parsed["enabled"] is True
        assert parsed["spans"][0]["name"] == "seam"
        assert parsed["flight_recorder"][0]["kind"] == "span"

    def test_disabled_telemetry_exports_empty(self):
        telemetry = Telemetry()
        parsed = json.loads(trace_json(telemetry))
        assert parsed == {"enabled": False, "spans": [],
                          "flight_recorder": [],
                          "metrics": {"counters": {}, "timers": {}}}


def _run_crash_scenario(telemetry=None, size=3):
    """Quickstart-style run: healthy traffic, then a contained crash."""
    net = Network(linear_topology(size, 1), seed=0, telemetry=telemetry)
    runtime = LegoSDNRuntime(net.controller)
    runtime.launch_app(crash_on(LearningSwitch(), payload_marker="BOOM"))
    net.start()
    net.run_for(1.5)
    net.reachability()
    net.run_for(LearningSwitch.IDLE_TIMEOUT + 1.0)
    hosts = sorted(net.hosts)
    inject_marker_packet(net, hosts[0], hosts[-1], "BOOM")
    net.run_for(2.0)
    return net, runtime


class TestInstrumentationSeams:
    def test_all_four_seams_traced(self):
        telemetry = Telemetry(enabled=True)
        _, runtime = _run_crash_scenario(telemetry)
        assert runtime.total_recoveries() == 1
        names = {s.name for s in telemetry.tracer.spans}
        assert {"controller.dispatch", "appvisor.event", "netlog.txn",
                "crashpad.recovery"} <= names

    def test_netlog_spans_cover_commit_and_rollback(self):
        telemetry = Telemetry(enabled=True)
        _run_crash_scenario(telemetry)
        outcomes = {s.tags["outcome"] for s in telemetry.tracer.spans
                    if s.name == "netlog.txn"}
        assert outcomes == {"commit", "rollback"}

    def test_span_timings_use_simulated_clock(self):
        telemetry = Telemetry(enabled=True)
        net, _ = _run_crash_scenario(telemetry)
        recovery, = [s for s in telemetry.tracer.spans
                     if s.name == "crashpad.recovery"]
        assert 0.0 < recovery.duration < 1.0
        assert recovery.end <= net.now

    def test_per_app_latency_recorded(self):
        telemetry = Telemetry(enabled=True)
        _run_crash_scenario(telemetry)
        recorders = telemetry.metrics.recorders
        assert recorders["app.learning_switch.event_latency"].count > 0
        assert recorders["app.learning_switch.recovery_time"].count == 1

    def test_disabled_by_default_records_nothing(self):
        net, runtime = _run_crash_scenario()
        telemetry = runtime.controller.telemetry
        assert telemetry.enabled is False
        assert telemetry.tracer.to_dicts() == []
        assert len(telemetry.recorder) == 0
        assert runtime.tickets.all()[0].flight_records == []

    def test_controller_crash_carries_flight_dump(self):
        telemetry = Telemetry(enabled=True)
        net = Network(linear_topology(2, 1), seed=0, telemetry=telemetry)
        net.start()
        net.run_for(1.0)

        def bad_listener(event):
            raise RuntimeError("app bug")

        net.controller.register_listener("buggy", ("SwitchJoin",),
                                         bad_listener)
        net.controller.switch_reconnected(1)
        record = net.controller.crash_records[0]
        assert record.flight_records
        assert record.flight_records[-1]["name"] == "controller.crash"
        assert record.flight_records[-1]["tags"]["culprit"] == "buggy"


class TestTicketsWithFlightRecorder:
    def test_ticket_carries_bounded_flight_dump(self):
        telemetry = Telemetry(enabled=True, flight_capacity=16)
        _, runtime = _run_crash_scenario(telemetry)
        ticket, = runtime.tickets.all()
        # capacity events at most, +1 for the flight.truncated marker.
        assert 0 < len(ticket.flight_records) <= 17
        # The dump ends at the failure: the crashpad.failure event is in
        # the tail (recovery spans happen after the ticket is filed).
        names = [e["name"] for e in ticket.flight_records]
        assert "crashpad.failure" in names

    def test_ticket_render_includes_flight_recorder(self):
        telemetry = Telemetry(enabled=True)
        _, runtime = _run_crash_scenario(telemetry)
        text = runtime.tickets.all()[0].render()
        assert "--- flight recorder" in text
        assert "crashpad.failure" in text

    def test_store_create_assigns_ids_and_indexes_by_app(self):
        store = TicketStore()
        first = store.create(app_name="fw", time=1.0, failure_kind="hang",
                             offending_event="PacketIn()")
        second = store.create(app_name="lb", time=2.0,
                              failure_kind="fail-stop",
                              offending_event="SwitchLeave()",
                              flight_records=[{"time": 1.9, "kind": "event",
                                               "name": "x", "tags": {}}])
        assert (first.ticket_id, second.ticket_id) == (1, 2)
        assert len(store) == 2
        assert store.for_app("lb") == [second]
        assert store.for_app("nope") == []
        assert store.all() == [first, second]

    def test_render_without_flight_records_omits_section(self):
        store = TicketStore()
        ticket = store.create(app_name="fw", time=0.0, failure_kind="hang",
                              offending_event="PacketIn()")
        assert "flight recorder" not in ticket.render()


class TestTraceCli:
    def test_trace_command_covers_four_seams(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "trace.json"
        assert main(["trace", "--size", "2", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        for seam in ("controller.dispatch", "appvisor.event", "netlog.txn",
                     "crashpad.recovery"):
            assert seam in out
        assert "flight recorder attached" in out
        parsed = json.loads(out_path.read_text())
        names = {s["name"] for s in parsed["spans"]}
        assert {"controller.dispatch", "appvisor.event", "netlog.txn",
                "crashpad.recovery"} <= names

    def test_trace_prometheus_output(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "metrics.prom"
        assert main(["trace", "--size", "2", "--no-crash", "--format",
                     "prom", "--out", str(out_path)]) == 0
        text = out_path.read_text()
        assert "# TYPE" in text
        assert "repro_span_controller_dispatch_seconds_count" in text


class TestCheckpointLagGauge:
    def test_the_heartbeat_exports_each_apps_checkpoint_lag(self):
        telemetry = Telemetry(enabled=True)
        net = Network(linear_topology(3, 1), seed=0, telemetry=telemetry)
        runtime = LegoSDNRuntime(net.controller, checkpoint_interval=1000)
        stub = runtime.launch_app(LearningSwitch())
        net.start()
        net.run_for(1.0)
        for i in range(3):
            inject_marker_packet(net, "h1", "h3", f"probe-{i}")
            net.run_for(0.3)
        lag = stub.checkpoints.checkpoint_lag()
        assert lag > 0
        assert telemetry.metrics.gauges["checkpoint.lag.learning_switch"] == lag
