"""End-to-end tests for the §5 cumulative-bug (STS deep restore) path.

A state-corruption bug poisons the app's state on a marker event; the
crash only fires on *later* events, so every recent checkpoint carries
the poison and plain restore-and-skip loops forever.  The proxy
detects the futile-recovery signature and escalates to the stub's
STS-guided deep restore, which identifies the poisoning event, prunes
it, and rolls back to a clean checkpoint.
"""

import pytest

from repro.apps import LearningSwitch
from repro.core.appvisor.proxy import AppRecord, AppStatus, AppVisorProxy
from repro.core.runtime import LegoSDNRuntime
from repro.faults import BugKind, crash_on
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.workloads.traffic import TrafficWorkload, inject_marker_packet


def corrupting_app():
    return crash_on(LearningSwitch(name="app"), payload_marker="POISON",
                    kind=BugKind.STATE_CORRUPTION)


def build(with_factory=True):
    net = Network(linear_topology(2, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller)
    if with_factory:
        runtime.launch_app(corrupting_app)  # factory => replica for STS
    else:
        runtime.launch_app(corrupting_app())  # instance => no replica
    net.start()
    net.run_for(1.0)
    return net, runtime


def run_cumulative_bug(net, runtime):
    """Poison the app, then keep traffic flowing to detonate it."""
    inject_marker_packet(net, "h1", "h2", "POISON")
    net.run_for(0.5)
    # a steady stream of fresh flows keeps punting PacketIns at the app
    for i in range(12):
        inject_marker_packet(net, "h1", "h2", f"flow-{i}")
        net.run_for(0.3)
    net.run_for(2.0)


class TestDeepRestore:
    def test_sts_prunes_poison_and_app_stays_healthy(self):
        net, runtime = build(with_factory=True)
        run_cumulative_bug(net, runtime)
        record = runtime.record("app")
        stub = runtime.stub("app")
        assert record.deep_restores >= 1
        assert stub.sts_runs >= 1
        assert record.status is AppStatus.UP
        # After the deep restore the poison is pruned: new events stop
        # crashing the app.
        crashes_after_recovery = record.crash_count
        for i in range(4):
            inject_marker_packet(net, "h1", "h2", f"post-{i}")
            net.run_for(0.4)
        assert record.crash_count == crashes_after_recovery
        assert net.reachability(wait=1.0) == 1.0
        # The corrupted flag really is gone from live state.
        assert not runtime.app("app").corrupted

    def test_without_replica_factory_plain_restores_keep_app_limping(self):
        """No factory -> no STS; the app keeps crash/skip-looping but is
        never killed by a failed escalation."""
        net, runtime = build(with_factory=False)
        run_cumulative_bug(net, runtime)
        record = runtime.record("app")
        assert record.deep_restores == 0
        assert runtime.stub("app").sts_runs == 0
        assert record.status is AppStatus.UP  # alive, if useless
        assert record.crash_count >= 3        # the futile loop happened
        assert runtime.is_up

    def test_deep_restore_journal_pruned(self):
        net, runtime = build(with_factory=True)
        run_cumulative_bug(net, runtime)
        stub = runtime.stub("app")
        payloads = [
            getattr(getattr(e.event, "packet", None), "payload", "")
            for e in stub.journal.events_between(0, 10**9)
        ]
        assert all("POISON" not in p for p in payloads)

    def test_ticket_trail_shows_escalation(self):
        net, runtime = build(with_factory=True)
        run_cumulative_bug(net, runtime)
        tickets = runtime.tickets.for_app("app")
        # several plain failures then the escalated recovery
        assert len(tickets) >= 3

    def test_single_event_bug_never_escalates_when_spread_out(self):
        """Crashes far apart in time stay on the plain restore path."""
        net = Network(linear_topology(2, 1), seed=0)
        runtime = LegoSDNRuntime(net.controller)
        runtime.launch_app(
            lambda: crash_on(LearningSwitch(name="app"),
                             payload_marker="BOOM"))
        net.start()
        net.run_for(1.0)
        for i in range(4):
            inject_marker_packet(net, "h1", "h2", "BOOM")
            net.run_for(3.0)  # outside the futility window
        record = runtime.record("app")
        assert record.crash_count == 4
        assert record.deep_restores == 0
        assert record.status is AppStatus.UP


class TestFutileRecoveryBoundary:
    """The escalation verdict at its edges: DEEP_RESTORE_THRESHOLD
    crashes within DEEP_RESTORE_WINDOW of now escalate; one fewer, or
    the oldest of them just outside the window, does not."""

    THRESHOLD = AppVisorProxy.DEEP_RESTORE_THRESHOLD
    WINDOW = AppVisorProxy.DEEP_RESTORE_WINDOW

    @staticmethod
    def futile(crash_ages):
        """The proxy's verdict on crashes ``crash_ages`` seconds ago
        (oldest first, as crashes happen)."""
        net = Network(linear_topology(2, 1), seed=0)
        proxy = LegoSDNRuntime(net.controller).proxy
        net.run_for(10.0)
        record = AppRecord(name="app", subscriptions=frozenset(),
                           endpoint=None)
        for age in crash_ages:
            record.crash_times.append(net.sim.now - age)
        return proxy._recovery_is_futile(record)

    def test_one_crash_short_of_the_threshold_does_not_escalate(self):
        recent = [0.0] * (self.THRESHOLD - 1)
        assert not self.futile(recent)
        assert not self.futile([self.WINDOW + 5.0] * 4 + recent)

    def test_threshold_crashes_inside_the_window_escalate(self):
        # The window is closed at its far edge: a crash exactly
        # DEEP_RESTORE_WINDOW ago is inside it.
        assert self.futile([self.WINDOW] + [0.0] * (self.THRESHOLD - 1))
        assert self.futile([self.WINDOW + 5.0] * 4
                           + [self.WINDOW / 2] * self.THRESHOLD)

    def test_threshold_crashes_with_the_oldest_outside_do_not_escalate(self):
        outside = [self.WINDOW + 1e-6] + [0.0] * (self.THRESHOLD - 1)
        assert not self.futile(outside)
        assert not self.futile([self.WINDOW + 5.0] * 4 + outside)
