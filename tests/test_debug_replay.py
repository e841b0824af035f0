"""Deterministic record/replay (repro.debug.capture / .replay).

The contract under test: the ReplayHarness owns every nondeterminism
source, so the same captured sequence under the same config replays to
the *byte-identical* failure signature, every time -- and a subsequence
that omits a causal prerequisite does not reproduce.
"""

import dataclasses
import json

import pytest

from repro.apps import LearningSwitch
from repro.core.crashpad.ticket import ProblemTicket
from repro.core.runtime import RuntimeConfig
from repro.debug import (
    EventCapture,
    FailureSignature,
    ReplayHarness,
    planted_armed_recording,
)
from repro.debug.planted import ARM_MARKERS, TRIGGER_MARKER
from repro.network.topology import linear_topology, ring_topology
from repro.scenario import Step
from repro.stack import StackSpec, build_stack
from repro.workloads.traffic import inject_marker_packet

SWITCHING = StackSpec(topology=linear_topology(3, 1), apps=(LearningSwitch,))


def payloads(events):
    out = []
    for captured in events:
        packet = getattr(captured.event, "packet", None)
        out.append(getattr(packet, "payload", "") or "")
    return out


@pytest.fixture(scope="module")
def planted():
    """One recorded planted-crash run under 20% loss, shared read-only."""
    harness, recording = planted_armed_recording(seed=0, loss=0.2)
    return harness, recording


class TestCapture:
    def test_capture_preserves_order_and_indexes(self, planted):
        _, recording = planted
        seen = payloads(recording.events)
        markers = [p for p in seen if p in ARM_MARKERS + (TRIGGER_MARKER,)]
        assert markers == ["ARM-A", "ARM-B", "TRIGGER-C"]
        assert [e.index for e in recording.events] == \
            list(range(len(recording.events)))

    def test_capture_assigns_distinct_trace_ids(self, planted):
        _, recording = planted
        ids = [e.trace_id for e in recording.events]
        assert all(tid > 0 for tid in ids)
        assert len(set(ids)) == len(ids)

    def test_capture_deep_copies_messages(self):
        stack = build_stack(SWITCHING)
        capture = EventCapture().attach(stack.net.controller)
        raw = []
        stack.net.controller.ingest_taps.append(
            lambda t, dpid, msg, tid: raw.append(msg))
        stack.net.start()
        stack.net.run_for(0.5)
        inject_marker_packet(stack.net, "h1", "h2", "COPY-CHECK")
        stack.net.run_for(0.5)
        assert raw and len(capture.events) == len(raw)
        for captured, msg in zip(capture.events, raw):
            assert captured.event is not msg          # frozen snapshot
            assert captured.event.packet == msg.packet  # same content


class TestRecord:
    def test_signature_identifies_planted_crash(self, planted):
        _, recording = planted
        sig = recording.signature
        assert sig.failed
        assert sig.kind == "app-failure"
        assert sig.app == "armed_crash"
        assert sig.failure_kind == "fail-stop"
        assert "armed crash" in sig.exception

    def test_recording_carries_ticket_and_config(self, planted):
        _, recording = planted
        assert recording.ticket is not None
        assert recording.ticket.trace_id > 0
        # The config documents the repro and must be JSON-clean.
        assert json.loads(json.dumps(recording.config)) == recording.config
        assert recording.config["apps"] == ["armed_crash"]
        assert recording.config["chaos"]["loss"] == 0.2


    def test_runtime_opts_are_validated_at_construction(self):
        with pytest.raises(TypeError):
            RuntimeConfig(checkpoint_intervall=4)
        # The spec's seed and chaos replace the runtime's own: the
        # config documents what the runtime sets besides them.
        harness = ReplayHarness(StackSpec(
            topology=linear_topology(3, 1), seed=5,
            runtime=RuntimeConfig(seed=3, checkpoint_interval=4,
                                  byzantine_check=True)))
        assert harness.config_dict()["runtime"] == {
            "byzantine_check": True, "checkpoint_interval": 4}
        config = harness.replay([]).stack.runtime.config
        assert (config.checkpoint_interval, config.seed) == (4, 5)


BARE = StackSpec(topology=linear_topology(3, 1))
#: StackSpec field -> a non-default value, and how the replay config
#: documents it.
SPEC_ROWS = {
    "topology": (ring_topology(3, 1), "ring-3"),
    "seed": (7, 7),
    "apps": ((LearningSwitch,), ["learning_switch"]),
    "runtime": (RuntimeConfig(checkpoint_interval=4),
                {"checkpoint_interval": 4}),
    "backups": (2, 2),
    "replica_options": ({"lease_timeout": 0.4}, {"lease_timeout": 0.4}),
    "shards": (2, 2),
    "service_time": (0.001, 0.001),
    "telemetry": ({"flight_capacity": 64}, {"flight_capacity": 64}),
    "chaos": ({"loss": 0.1}, {"loss": 0.1}),
    "watchdog": (True, True),
}


class TestConfig:
    def test_every_spec_field_has_a_row(self):
        assert {f.name for f in dataclasses.fields(StackSpec)} == \
            set(SPEC_ROWS)

    @pytest.mark.parametrize("name", sorted(SPEC_ROWS))
    def test_no_spec_field_is_lost(self, name):
        value, documented = SPEC_ROWS[name]
        harness = ReplayHarness(dataclasses.replace(BARE, **{name: value}))
        if name == "apps":      # named by the stack a run built
            harness.replay([])
        config = harness.config_dict()
        assert config[name] == documented
        assert ReplayHarness(BARE).config_dict()[name] != documented
        assert json.loads(json.dumps(config)) == config


class TestSignature:
    @pytest.mark.parametrize("kind, reason", [
        ("hang", "heartbeat-loss"), ("fail-stop-silent", "event-timeout")])
    def test_a_silent_failures_signature_is_time_free(self, kind, reason):
        recorded, replayed = (
            FailureSignature.from_ticket(ProblemTicket(
                ticket_id=1, app_name="learning_switch", time=time,
                failure_kind=kind, offending_event="",
                exception=f"{reason} (silent for {silent} ms)"))
            for time, silent in ((3.1, 363), (9.7, 250)))
        assert recorded == replayed
        assert recorded.exception == ""

    def test_a_raised_exception_stays_in_the_signature(self):
        ticket = ProblemTicket(ticket_id=1, app_name="app", time=1.0,
                               failure_kind="fail-stop", offending_event="",
                               exception="KeyError: 'x'")
        assert FailureSignature.from_ticket(ticket).exception == \
            "KeyError: 'x'"


class TestReplay:
    def test_full_sequence_replays_byte_identical_3x(self, planted):
        harness, recording = planted
        docs = []
        for _ in range(3):
            result = harness.replay(recording.events)
            assert result.reproduces(recording.signature)
            docs.append(json.dumps(result.signature.to_dict(),
                                   sort_keys=True))
        assert docs[0] == docs[1] == docs[2]
        assert json.loads(docs[0]) == recording.signature.to_dict()

    def test_subset_missing_arm_does_not_reproduce(self, planted):
        harness, recording = planted
        trigger_only = [e for e in recording.events
                        if payloads([e]) == [TRIGGER_MARKER]]
        assert len(trigger_only) == 1
        result = harness.replay(trigger_only)
        assert not result.reproduces(recording.signature)
        assert not result.signature.failed

    def test_empty_replay_is_clean(self, planted):
        harness, _ = planted
        result = harness.replay([])
        assert result.signature == FailureSignature.none()

    def test_replay_with_capture_reports_replay_trace_ids(self, planted):
        harness, recording = planted
        result = harness.replay(recording.events, capture=True)
        assert result.capture is not None
        assert len(result.capture.events) == len(recording.events)
        assert all(e.trace_id > 0 for e in result.capture.events)


class TestLearnHosts:
    def test_learning_traffic_is_config_not_events(self):
        harness = ReplayHarness(SWITCHING, learn_hosts=True)
        recording = harness.record([Step(harness.base, "marker_packet", {
            "src": "h1", "dst": "h2", "marker": "AFTER-LEARN"})],
            until=harness.base + 0.3)
        # All-pairs pings ran during warmup, but only the step's own
        # injection is in the recording -- learning is regenerated by
        # the replay stack from the same config.
        assert recording.config["learn_hosts"] is True
        assert payloads(recording.events).count("AFTER-LEARN") >= 1
        assert all(p == "AFTER-LEARN" for p in payloads(recording.events))
        net = recording.stack.net
        assert len(net.controller.devices.all()) == len(net.hosts)


def test_debug_package_does_not_import_the_cli():
    """Layering: the CLI sits on top of ``repro.debug``, never under
    it -- building a replay stack included.  A fresh interpreter,
    because this one has the CLI loaded by other tests."""
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; import repro.debug; "
            "from repro.apps import LearningSwitch; "
            "from repro.network.topology import linear_topology; "
            "from repro.stack import StackSpec; "
            "repro.debug.ReplayHarness(StackSpec(linear_topology(3, 1), "
            "apps=(LearningSwitch,))).replay([]); "
            "sys.exit('repro.cli' in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr[-2000:] or "repro.cli imported"
