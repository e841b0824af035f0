"""Unit tests for Crash-Pad components: checkpoints, journal, policies,
policy language, transformer, detector, tickets, decision engine."""

import pytest

from repro.apps import LearningSwitch
from repro.controller.api import TopoView
from repro.controller.events import LinkRemoved, SwitchLeave
from repro.core.crashpad import (
    Checkpoint,
    CheckpointStore,
    CompromisePolicy,
    CrashPad,
    EventJournal,
    EventTransformer,
    FailureDetector,
    PolicyTable,
    ProblemTicket,
    TicketStore,
)
from repro.core.crashpad.policy_lang import (
    PolicyParseError,
    default_policy_table,
)
from repro.openflow.messages import PacketIn, PortStatus


RING_TOPO = TopoView(
    switches=(1, 2, 3, 4),
    links=((1, 1, 2, 1), (1, 2, 4, 2), (2, 2, 3, 1), (3, 2, 4, 1)),
    version=1,
)


class TestCheckpointStore:
    def test_take_restore_roundtrip(self):
        store = CheckpointStore()
        app = LearningSwitch()
        app.mac_tables[1] = {"m": 3}
        checkpoint = store.take(app, before_seq=5, now=1.0)
        app.mac_tables[1]["m"] = 99
        store.restore(app, checkpoint)
        assert app.mac_tables == {1: {"m": 3}}
        assert store.taken_count == 1
        assert store.restored_count == 1

    def test_latest_before(self):
        store = CheckpointStore()
        app = LearningSwitch()
        for seq in (1, 4, 7):
            store.take(app, before_seq=seq, now=0.0)
        assert store.latest_before(5).before_seq == 4
        assert store.latest_before(7).before_seq == 7
        assert store.latest_before(0) is None

    def test_retention_bound(self):
        store = CheckpointStore(keep=3)
        app = LearningSwitch()
        for seq in range(1, 10):
            store.take(app, before_seq=seq, now=0.0)
        assert store.count == 3
        assert store.latest().before_seq == 9

    def test_cost_model_scales_with_size(self):
        small_app = LearningSwitch()
        big_app = LearningSwitch()
        big_app.mac_tables = {i: {f"m{j}": j for j in range(50)}
                              for i in range(50)}
        # A store each: both takes are a first, full image.
        store = CheckpointStore()
        small = store.take(small_app, 1, 0.0)
        big = CheckpointStore().take(big_app, 1, 0.0)
        assert (store.cost_of(big) > store.cost_of(small)
                > CheckpointStore.base_cost)
        assert (store.cost_of(big) - store.cost_of(small)
                >= (big.size - small.size) * CheckpointStore.per_byte_cost)

    def test_restore_isolates_snapshots(self):
        """Mutating the app after restore must not corrupt the checkpoint."""
        store = CheckpointStore()
        app = LearningSwitch()
        app.mac_tables[1] = {"m": 1}
        checkpoint = store.take(app, 1, 0.0)
        store.restore(app, checkpoint)
        app.mac_tables[1]["m"] = 2
        store.restore(app, checkpoint)
        assert app.mac_tables[1]["m"] == 1


class TestEventJournal:
    def test_record_and_window_query(self):
        journal = EventJournal()
        for seq in range(1, 6):
            journal.record(seq, f"e{seq}")
        window = journal.events_between(2, 5)
        assert [e.seq for e in window] == [2, 3, 4]

    def test_remove_offending(self):
        journal = EventJournal()
        journal.record(1, "a")
        journal.record(2, "b")
        journal.remove(1)
        assert [e.seq for e in journal.events_between(0, 10)] == [2]

    def test_truncate_before(self):
        journal = EventJournal()
        for seq in range(1, 6):
            journal.record(seq, seq)
        journal.truncate_before(3)
        assert len(journal.events_between(0, 10)) == 3
        assert journal.last_seq() == 5

    def test_bounded(self):
        journal = EventJournal(max_entries=4)
        for seq in range(20):
            journal.record(seq, seq)
        assert len(journal.events_between(0, 20)) == 4


class TestPolicies:
    def test_parse(self):
        assert CompromisePolicy.parse("absolute") is CompromisePolicy.ABSOLUTE
        assert CompromisePolicy.parse(" No-Compromise ") is \
            CompromisePolicy.NO_COMPROMISE
        with pytest.raises(ValueError):
            CompromisePolicy.parse("wat")

    def test_decision_flags(self):
        from repro.core.crashpad.policies import RecoveryDecision

        dead = RecoveryDecision(policy=CompromisePolicy.NO_COMPROMISE)
        assert dead.lets_app_die
        skip = RecoveryDecision(policy=CompromisePolicy.ABSOLUTE)
        assert not skip.lets_app_die and not skip.replacement_events
        transform = RecoveryDecision(policy=CompromisePolicy.EQUIVALENCE,
                                     replacement_events=[object()])
        assert not transform.lets_app_die and transform.replacement_events


class TestPolicyLanguage:
    def test_parse_and_lookup_first_match_wins(self):
        table = PolicyTable.parse("""
            # comment line
            app=firewall event=* policy=no-compromise
            app=* event=SwitchLeave policy=equivalence
            app=* event=* policy=absolute
        """)
        assert table.lookup("firewall", "PacketIn") is \
            CompromisePolicy.NO_COMPROMISE
        assert table.lookup("routing", "SwitchLeave") is \
            CompromisePolicy.EQUIVALENCE
        assert table.lookup("routing", "PacketIn") is CompromisePolicy.ABSOLUTE

    def test_glob_patterns(self):
        table = PolicyTable.parse("app=fw-* event=Packet* policy=no-compromise")
        assert table.lookup("fw-edge", "PacketIn") is \
            CompromisePolicy.NO_COMPROMISE
        assert table.lookup("fw-edge", "SwitchLeave") is table.default

    def test_default_when_no_rule(self):
        table = PolicyTable(default=CompromisePolicy.EQUIVALENCE)
        assert table.lookup("x", "y") is CompromisePolicy.EQUIVALENCE

    def test_parse_errors(self):
        with pytest.raises(PolicyParseError):
            PolicyTable.parse("app=x event=y")  # missing policy
        with pytest.raises(PolicyParseError):
            PolicyTable.parse("just words")
        with pytest.raises(PolicyParseError):
            PolicyTable.parse("app=x event=y policy=bogus")

    def test_render_roundtrip(self):
        table = default_policy_table()
        text = table.render()
        reparsed = PolicyTable.parse(text)
        assert [r.policy for r in reparsed.rules] == \
            [r.policy for r in table.rules]

    def test_default_table_protects_firewall(self):
        table = default_policy_table()
        assert table.lookup("firewall", "PacketIn") is \
            CompromisePolicy.NO_COMPROMISE


class TestTransformer:
    def test_switch_leave_decomposes_to_link_removals(self):
        transformer = EventTransformer()
        result = transformer.transform(SwitchLeave(dpid=1), RING_TOPO)
        assert result is not None
        assert all(isinstance(e, LinkRemoved) for e in result)
        assert len(result) == 2  # dpid 1 has two links in RING_TOPO
        assert transformer.transform_count == 1

    def test_switch_with_no_links_transforms_to_empty(self):
        transformer = EventTransformer()
        result = transformer.transform(SwitchLeave(dpid=99), RING_TOPO)
        assert result == []

    def test_link_removed_not_transformed_by_default(self):
        transformer = EventTransformer()
        assert transformer.transform(
            LinkRemoved(1, 1, 2, 1), RING_TOPO) is None

    def test_link_removed_escalates_when_enabled(self):
        transformer = EventTransformer(escalate_link_to_switch=True)
        result = transformer.transform(LinkRemoved(1, 1, 2, 1), RING_TOPO)
        assert result == [SwitchLeave(dpid=1)]

    def test_port_down_maps_to_link_removed(self):
        transformer = EventTransformer()
        result = transformer.transform(
            PortStatus(dpid=2, port=1, link_up=False), RING_TOPO)
        assert result == [LinkRemoved(1, 1, 2, 1)]

    def test_port_down_unknown_link_untransformable(self):
        transformer = EventTransformer()
        assert transformer.transform(
            PortStatus(dpid=9, port=9, link_up=False), RING_TOPO) is None

    def test_packet_in_has_no_equivalence(self):
        transformer = EventTransformer()
        assert transformer.transform(PacketIn(), RING_TOPO) is None


class TestDetector:
    def test_event_timeout_suspected(self):
        detector = FailureDetector(event_timeout=0.5)
        detector.register("app", 0.0)
        detector.record_dispatch("app", 1, 0.0)
        assert detector.suspects(0.4) != [] or True  # heartbeat may fire first
        detector.record_heartbeat("app", 0.4)
        suspicions = detector.suspects(0.6)
        assert any(s.reason == "event-timeout" for s in suspicions)

    def test_response_clears_inflight(self):
        detector = FailureDetector(event_timeout=0.5, heartbeat_timeout=10)
        detector.register("app", 0.0)
        detector.record_dispatch("app", 1, 0.0)
        detector.record_response("app", 0.3)
        assert detector.suspects(1.0) == []

    def test_heartbeat_loss_detected(self):
        detector = FailureDetector(heartbeat_timeout=0.3)
        detector.register("app", 0.0)
        detector.record_heartbeat("app", 0.2)
        assert detector.suspects(0.4) == []
        suspicions = detector.suspects(0.6)
        assert [s.reason for s in suspicions] == ["heartbeat-loss"]

    def test_clear_resets_after_recovery(self):
        detector = FailureDetector(heartbeat_timeout=0.3)
        detector.register("app", 0.0)
        detector.suspects(5.0)
        detector.clear("app", 5.0)
        assert detector.suspects(5.2) == []

    def test_forget_removes_app(self):
        detector = FailureDetector()
        detector.register("app", 0.0)
        detector.forget("app")
        assert detector.suspects(100.0) == []


class TestChannelFaultSuspicion:
    """Retransmit-exhausted channels reclassify silence: "channel
    lossy" must not read as "app dead" (no restore over a bad link)."""

    def test_recent_channel_fault_reclassifies_heartbeat_loss(self):
        detector = FailureDetector(heartbeat_timeout=0.3,
                                   channel_fault_window=1.0)
        detector.register("app", 0.0)
        detector.record_channel_fault("app", 0.2)
        suspicions = detector.suspects(0.6)
        assert [s.reason for s in suspicions] == ["channel-fault"]

    def test_recent_channel_fault_reclassifies_event_timeout(self):
        detector = FailureDetector(event_timeout=0.5,
                                   channel_fault_window=1.0)
        detector.register("app", 0.0)
        detector.record_dispatch("app", 1, 0.0)
        detector.record_heartbeat("app", 0.55)
        detector.record_channel_fault("app", 0.55)
        suspicions = detector.suspects(0.6)
        assert [s.reason for s in suspicions] == ["channel-fault"]
        # The offending seq still rides along for diagnostics.
        assert suspicions[0].inflight_seq == 1

    def test_stale_channel_fault_does_not_mask_death(self):
        detector = FailureDetector(heartbeat_timeout=0.3,
                                   channel_fault_window=0.5)
        detector.register("app", 0.0)
        detector.record_channel_fault("app", 0.0)
        # Long past the window: the link healed, the app is still
        # silent -- that IS a dead app.
        suspicions = detector.suspects(2.0)
        assert [s.reason for s in suspicions] == ["heartbeat-loss"]

    def test_healthy_app_never_suspected_for_channel_fault_alone(self):
        detector = FailureDetector(heartbeat_timeout=0.3)
        detector.register("app", 0.0)
        detector.record_channel_fault("app", 0.1)
        detector.record_heartbeat("app", 0.2)
        # Heartbeats still flowing: no suspicion of any kind.
        assert detector.suspects(0.3) == []

    def test_fault_bookkeeping(self):
        detector = FailureDetector()
        detector.register("app", 0.0)
        detector.record_channel_fault("app", 1.0)
        detector.record_channel_fault("app", 2.0)
        health = detector._health["app"]
        assert health.channel_faults == 2
        assert health.channel_fault_at == 2.0
        # Unknown apps are ignored, not crashed on.
        detector.record_channel_fault("ghost", 1.0)

    def test_proxy_skips_restore_on_channel_fault(self):
        """End-to-end: budget exhaustion -> detector -> proxy _tick
        counts a channel suspicion instead of restoring the app."""
        from repro.apps import LearningSwitch
        from repro.controller.core import Controller
        from repro.core.runtime import LegoSDNRuntime
        from repro.faults.netfaults import ChaosProfile
        from repro.network.simulator import Simulator

        sim = Simulator()
        controller = Controller(sim)
        profile = ChaosProfile(seed=0)
        # Long blackout: retry budgets exhaust, heartbeats vanish.
        profile.partition(0.5, 2.0)
        runtime = LegoSDNRuntime(controller, chaos=profile,
                                 channel_retry_budget=3)
        runtime.launch_app(LearningSwitch())
        sim.run_until(2.0)
        record = runtime.record("learning_switch")
        assert record.channel_suspicions > 0
        # The app was never "recovered": no crash ticket, no restore.
        assert record.crash_count == 0
        assert record.status.value == "up"


class TestTickets:
    def test_ids_increment(self):
        store = TicketStore()
        t1 = store.create(app_name="a", time=1.0, failure_kind="fail-stop",
                          offending_event="e")
        t2 = store.create(app_name="b", time=2.0, failure_kind="hang",
                          offending_event="e")
        assert (t1.ticket_id, t2.ticket_id) == (1, 2)
        assert len(store) == 2

    def test_for_app_filter(self):
        store = TicketStore()
        store.create(app_name="a", time=1.0, failure_kind="f",
                     offending_event="e")
        store.create(app_name="b", time=1.0, failure_kind="f",
                     offending_event="e")
        assert len(store.for_app("a")) == 1

    def test_render_contains_diagnostics(self):
        ticket = ProblemTicket(
            ticket_id=7, app_name="app", time=1.5,
            failure_kind="fail-stop", offending_event="PacketIn(...)",
            exception="ValueError: x", traceback_text="Traceback ...",
            app_logs=["log line"], wal_excerpt=["s1: FlowMod"],
            recovery_policy="absolute", recovery_note="skipped")
        text = ticket.render()
        for fragment in ("#7", "app", "fail-stop", "ValueError",
                         "Traceback", "log line", "s1: FlowMod", "absolute"):
            assert fragment in text


class TestCrashPadDecisions:
    def test_no_compromise(self):
        crashpad = CrashPad(policy_table=PolicyTable.parse(
            "app=* event=* policy=no-compromise"))
        decision = crashpad.decide("app", PacketIn(), RING_TOPO)
        assert decision.lets_app_die

    def test_absolute_skips(self):
        crashpad = CrashPad(policy_table=PolicyTable.parse(
            "app=* event=* policy=absolute"))
        decision = crashpad.decide("app", PacketIn(), RING_TOPO)
        assert decision.policy is CompromisePolicy.ABSOLUTE
        assert not decision.replacement_events

    def test_equivalence_transforms_switch_leave(self):
        crashpad = CrashPad(policy_table=PolicyTable.parse(
            "app=* event=* policy=equivalence"))
        decision = crashpad.decide("app", SwitchLeave(dpid=1), RING_TOPO)
        assert decision.policy is CompromisePolicy.EQUIVALENCE
        assert len(decision.replacement_events) == 2

    def test_equivalence_falls_back_for_packet_in(self):
        crashpad = CrashPad(policy_table=PolicyTable.parse(
            "app=* event=* policy=equivalence"))
        decision = crashpad.decide("app", PacketIn(), RING_TOPO)
        assert decision.policy is CompromisePolicy.ABSOLUTE
        assert "fell back" in decision.note

    def test_none_event_restore_only(self):
        crashpad = CrashPad()
        decision = crashpad.decide("app", None, RING_TOPO)
        assert decision.replacement_events == []
        assert "restore only" in decision.note

    def test_decisions_recorded(self):
        crashpad = CrashPad()
        crashpad.decide("app", PacketIn(), RING_TOPO)
        crashpad.decide("app", None, RING_TOPO)
        assert len(crashpad.decisions) == 2
