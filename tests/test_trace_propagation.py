"""Trace-context propagation, causal analysis, and the health watchdog.

The observability contract (PR 5): every control-loop event gets one
trace id at controller ingestion and that id -- never a fresh one --
rides the RPC frames, NetLog transactions, retransmissions, and
recovery spans the event causes.  These tests attack the contract the
same way E17 attacks delivery: a 30% loss / 10% dup / 10% reorder
chaos profile on the proxy<->stub channel, then an audit that the
span stream still tells one coherent causal story per event.
"""

import pytest

from repro.apps import LearningSwitch
from repro.core.runtime import LegoSDNRuntime
from repro.faults import crash_on
from repro.faults.netfaults import ChaosProfile
from repro.network.net import Network
from repro.network.simulator import Simulator
from repro.network.topology import linear_topology
from repro.telemetry import HealthWatchdog, Telemetry
from repro.telemetry.causal import (
    analyze,
    build_trace_tree,
    critical_path,
    group_by_trace,
    trace_summaries,
)
from repro.workloads import TrafficWorkload
from repro.workloads.traffic import inject_marker_packet

LOSS = 0.3
DUPLICATE = 0.1
REORDER = 0.1
RETRY_BUDGET = 12


def _chaotic_deployment(seed=0, loss=LOSS, duration=4.0):
    """E17-style adverse-network run with tracing on."""
    telemetry = Telemetry(enabled=True)
    profile = ChaosProfile(seed=seed, loss=loss, duplicate=DUPLICATE,
                           reorder=REORDER, jitter=0.0005)
    net = Network(linear_topology(4, 1), seed=seed, telemetry=telemetry)
    runtime = LegoSDNRuntime(net.controller,
                             channel_retry_budget=RETRY_BUDGET,
                             chaos=lambda name: profile)
    runtime.launch_app(LearningSwitch())
    net.start()
    net.run_for(1.0)
    TrafficWorkload(net, rate=50.0, seed=seed,
                    selection="random").start(duration * 0.7)
    net.run_for(duration)
    return telemetry, net, runtime


class TestChaosPropagation:
    """The satellite contract: one trace id per delivered event, and
    retransmits reuse the cause's id rather than minting fresh ones."""

    @pytest.fixture(scope="class")
    def chaotic(self):
        return _chaotic_deployment()

    def test_chaos_actually_exercised_retransmit_path(self, chaotic):
        telemetry, _, _ = chaotic
        assert telemetry.metrics.counters.get("channel.retransmits", 0) > 0
        retx = list(telemetry.tracer.spans_named("appvisor.rpc.retransmit"))
        assert retx, "30% loss must produce retransmit spans"

    def test_every_delivered_event_has_exactly_one_trace_id(self, chaotic):
        telemetry, _, _ = chaotic
        events = list(telemetry.tracer.spans_named("appvisor.event"))
        assert events
        by_key = {}
        for span in events:
            assert span.trace_id, "delivered event span missing trace id"
            key = (span.tags["app"], span.tags["seq"])
            by_key.setdefault(key, set()).add(span.trace_id)
        for key, ids in by_key.items():
            assert len(ids) == 1, (
                f"event {key} carries {len(ids)} trace ids: {ids}")

    #: Frame types that carry an event's trace context (control frames
    #: like Register/Hello legitimately have none).
    EVENT_FRAMES = {"EventDeliver", "EventComplete", "AppOutput",
                    "CrashReport", "RestoreCommand", "DeepRestoreCommand",
                    "RestoreAck"}

    def test_retransmits_never_mint_fresh_trace_ids(self, chaotic):
        telemetry, _, _ = chaotic
        # The ids legitimately in circulation: controller ingestion
        # (controller.dispatch) plus proxy-minted register joins, both
        # of which surface on the event/txn spans they cause.
        minted = set()
        for name in ("controller.dispatch", "appvisor.event", "netlog.txn"):
            for span in telemetry.tracer.spans_named(name):
                if span.trace_id:
                    minted.add(span.trace_id)
        retx = list(telemetry.tracer.spans_named("appvisor.rpc.retransmit"))
        assert retx
        traced = 0
        for span in retx:
            kinds = set(span.tags["frames"].split(","))
            if kinds & self.EVENT_FRAMES:
                assert span.trace_id, (
                    f"retransmitted {kinds} lost its trace context")
            if span.trace_id:
                traced += 1
                assert span.trace_id in minted, (
                    f"retransmit minted fresh trace id {span.trace_id}")
        assert traced > 0, "no event-bearing retransmits observed"

    def test_duplicates_do_not_split_traces(self, chaotic):
        """Dup delivery (10%) must not fork an event into two traces:
        every netlog.txn shares its trace id with some event span."""
        telemetry, _, _ = chaotic
        event_ids = {s.trace_id
                     for s in telemetry.tracer.spans_named("appvisor.event")}
        txns = [s for s in telemetry.tracer.spans_named("netlog.txn")
                if s.trace_id]
        assert txns
        foreign = [s.trace_id for s in txns if s.trace_id not in event_ids]
        assert not foreign, f"txn trace ids with no causing event: {foreign}"

    def test_checkpoint_spans_inherit_event_trace(self, chaotic):
        telemetry, _, _ = chaotic
        event_ids = {s.trace_id
                     for s in telemetry.tracer.spans_named("appvisor.event")}
        ckpts = [s for s in telemetry.tracer.spans_named("appvisor.checkpoint")
                 if s.trace_id]
        assert ckpts
        assert all(s.trace_id in event_ids for s in ckpts)


class TestRecoveryTracePropagation:
    def test_recovery_chain_shares_offending_events_trace(self):
        telemetry = Telemetry(enabled=True)
        net = Network(linear_topology(3, 1), seed=0, telemetry=telemetry)
        runtime = LegoSDNRuntime(net.controller)
        runtime.launch_app(crash_on(LearningSwitch(),
                                    payload_marker="BOOM"))
        net.start()
        net.run_for(1.5)
        net.reachability()
        net.run_for(LearningSwitch.IDLE_TIMEOUT + 1.0)
        hosts = sorted(net.hosts)
        inject_marker_packet(net, hosts[0], hosts[-1], "BOOM")
        net.run_for(2.0)
        assert runtime.total_recoveries() == 1
        recovery, = telemetry.tracer.spans_named("crashpad.recovery")
        assert recovery.trace_id, "recovery span must carry a trace id"
        rollbacks = [s for s in telemetry.tracer.spans_named("netlog.txn")
                     if s.tags.get("outcome") == "rollback"]
        assert rollbacks
        # The recovery is attributed to the event whose transaction
        # rolled back -- same trace id end to end.
        assert recovery.trace_id in {s.trace_id for s in rollbacks}


class TestCausalTree:
    def _span(self, sid, name, start, end, parent=None, trace=7, **tags):
        return {"span_id": sid, "name": name, "start": start, "end": end,
                "duration": end - start, "parent_id": parent,
                "trace_id": trace, "status": "ok", "tags": tags}

    def test_explicit_parent_links_win(self):
        spans = [
            self._span(1, "root", 0.0, 10.0),
            self._span(2, "child", 1.0, 4.0, parent=1),
        ]
        roots = build_trace_tree(spans)
        assert len(roots) == 1
        assert roots[0].name == "root"
        assert [c.name for c in roots[0].children] == ["child"]

    def test_containment_picks_smallest_enclosing_interval(self):
        spans = [
            self._span(1, "root", 0.0, 10.0),
            self._span(2, "mid", 2.0, 8.0),
            self._span(3, "leaf", 3.0, 4.0),
        ]
        roots = build_trace_tree(spans)
        root, = roots
        mid, = root.children
        assert mid.name == "mid"
        assert [c.name for c in mid.children] == ["leaf"]

    def test_critical_path_self_times_partition_root_duration(self):
        spans = [
            self._span(1, "root", 0.0, 10.0),
            self._span(2, "a", 1.0, 4.0, parent=1),
            self._span(3, "b", 5.0, 9.0, parent=1),
            self._span(4, "gc", 6.0, 8.0, parent=3),
        ]
        root, = build_trace_tree(spans)
        attributed = critical_path(root)
        self_times = {}
        for node, self_time in attributed:
            self_times[node.name] = self_times.get(node.name, 0.0) + self_time
        assert sum(self_times.values()) == pytest.approx(10.0)
        assert self_times["root"] == pytest.approx(3.0)  # 3 uncovered gaps
        assert self_times["a"] == pytest.approx(3.0)
        assert self_times["b"] == pytest.approx(2.0)
        assert self_times["gc"] == pytest.approx(2.0)

    def test_analyze_fractions_sum_to_one(self):
        spans = [
            self._span(1, "root", 0.0, 10.0),
            self._span(2, "a", 1.0, 4.0, parent=1),
            # A second, independent trace.
            self._span(3, "root", 0.0, 2.0, trace=8),
        ]
        analysis = analyze(spans)
        assert analysis.trace_count == 2
        assert analysis.total_time == pytest.approx(12.0)
        total_fraction = sum(entry["fraction"]
                             for _, entry in analysis.top(10))
        assert total_fraction == pytest.approx(1.0)
        assert analysis.fraction_of("a") == pytest.approx(3.0 / 12.0)

    def test_group_and_summaries_skip_untraced_spans(self):
        spans = [
            self._span(1, "root", 0.0, 1.0, trace=5),
            self._span(2, "orphan", 0.0, 1.0, trace=None),
        ]
        groups = group_by_trace(spans)
        assert set(groups) == {5}
        rows = trace_summaries(spans)
        assert [row["trace_id"] for row in rows] == [5]

    def test_real_run_builds_trees_with_dispatch_roots(self):
        telemetry, _, _ = _chaotic_deployment(loss=0.0, duration=2.0)
        spans = [s.to_dict() for s in telemetry.tracer.spans]
        groups = group_by_trace(spans)
        assert groups
        analysis = analyze(spans)
        assert analysis.total_time > 0
        names = {name for name, _ in analysis.top(10)}
        assert "appvisor.checkpoint" in names


class TestHealthWatchdog:
    def _sim_telemetry(self):
        sim = Simulator()
        telemetry = Telemetry(enabled=True, clock=lambda: sim.now)
        return sim, telemetry

    def test_clean_run_scores_healthy_with_zero_anomalies(self):
        telemetry = Telemetry(enabled=True)
        net = Network(linear_topology(3, 1), seed=0, telemetry=telemetry)
        runtime = LegoSDNRuntime(net.controller)
        runtime.launch_app(LearningSwitch())
        watchdog = HealthWatchdog(telemetry, net.sim)
        net.start()
        net.run_for(1.0)
        TrafficWorkload(net, rate=30.0, seed=0,
                        selection="random").start(2.0)
        net.run_for(3.0)
        assert watchdog.sweeps > 0
        assert not watchdog.anomalies
        assert watchdog.health_score() == 1.0
        assert watchdog.status_of(watchdog.health_score()) == "healthy"

    def test_chaos_run_flags_retransmit_storm(self):
        telemetry = Telemetry(enabled=True)
        profile = ChaosProfile(seed=0, loss=LOSS, duplicate=DUPLICATE,
                               reorder=REORDER, jitter=0.0005)
        net = Network(linear_topology(4, 1), seed=0, telemetry=telemetry)
        runtime = LegoSDNRuntime(net.controller,
                                 channel_retry_budget=RETRY_BUDGET,
                                 chaos=lambda name: profile)
        runtime.launch_app(LearningSwitch())
        watchdog = HealthWatchdog(telemetry, net.sim)
        net.start()
        net.run_for(1.0)
        TrafficWorkload(net, rate=50.0, seed=0,
                        selection="random").start(3.0)
        net.run_for(4.0)
        counts = watchdog.anomaly_counts()
        assert counts.get("retransmit-storm", 0) > 0
        assert watchdog.health_score() < 0.9

    def test_recovery_slo_burn_flagged(self):
        telemetry = Telemetry(enabled=True)
        net = Network(linear_topology(3, 1), seed=0, telemetry=telemetry)
        runtime = LegoSDNRuntime(net.controller)
        runtime.launch_app(crash_on(LearningSwitch(),
                                    payload_marker="BOOM"))
        # Any real recovery busts a 1 microsecond SLO.
        watchdog = HealthWatchdog(telemetry, net.sim, recovery_slo=1e-6)
        net.start()
        net.run_for(1.5)
        net.reachability()
        net.run_for(LearningSwitch.IDLE_TIMEOUT + 1.0)
        hosts = sorted(net.hosts)
        inject_marker_packet(net, hosts[0], hosts[-1], "BOOM")
        net.run_for(2.0)
        assert runtime.total_recoveries() == 1
        burns = [a for a in watchdog.anomalies
                 if a.kind == "recovery-slo-burn"]
        assert len(burns) == 1
        assert burns[0].tags["app"] == "learning_switch"

    def test_latency_regression_against_rolling_baseline(self):
        sim, telemetry = self._sim_telemetry()
        watchdog = HealthWatchdog(telemetry, sim, min_samples=4)

        def emit(duration):
            telemetry.tracer.record_span(
                "probe", start=sim.now - duration, trace_id=1)

        # Establish a ~1ms baseline over several sweeps...
        stop = sim.every(0.05, emit, 0.001)
        sim.run_for(1.5)
        stop()
        assert not watchdog.anomalies
        # ...then blow p95 up by 100x.
        stop = sim.every(0.05, emit, 0.1)
        sim.run_for(1.0)
        stop()
        kinds = [a.kind for a in watchdog.anomalies]
        assert "latency-regression" in kinds
        # One anomaly per episode, not one per sweep.
        assert kinds.count("latency-regression") == 1

    def test_anomalies_land_in_flight_recorder_and_metrics(self):
        sim, telemetry = self._sim_telemetry()
        watchdog = HealthWatchdog(telemetry, sim,
                                  retransmit_rate_threshold=1.0)
        sim.run_for(0.3)  # first sweep sets the counter baseline
        telemetry.metrics.inc("channel.retransmits", 500)
        sim.run_for(0.5)
        assert watchdog.anomaly_counts().get("retransmit-storm", 0) >= 1
        assert telemetry.metrics.counters["watchdog.anomalies"] >= 1
        kinds = {r.get("name") for r in telemetry.recorder.dump()}
        assert "watchdog.retransmit-storm" in kinds

    def test_score_decays_back_toward_healthy(self):
        sim, telemetry = self._sim_telemetry()
        watchdog = HealthWatchdog(telemetry, sim,
                                  retransmit_rate_threshold=1.0)
        sim.run_for(0.3)
        telemetry.metrics.inc("channel.retransmits", 500)
        sim.run_for(0.5)
        watchdog.stop()
        hurt = watchdog.health_score()
        assert hurt < 1.0
        healed = watchdog.health_score(now=sim.now + 60.0)
        assert healed > hurt
        assert healed > 0.99

    def test_healthz_payload_shape(self):
        sim, telemetry = self._sim_telemetry()
        watchdog = HealthWatchdog(telemetry, sim)
        telemetry.tracer.record_span("probe", start=sim.now)
        sim.run_for(0.6)
        payload = watchdog.healthz_payload()
        assert payload["status"] == "healthy"
        assert payload["score"] == 1.0
        assert payload["sweeps"] >= 2
        assert payload["anomaly_total"] == 0
        assert "probe" in payload["rolling"]
        assert set(payload["rolling"]["probe"]) == {
            "count", "p50", "p95", "p99"}
