"""Tests for two-phase cross-shard NetLog transactions: commit, the
presumed-abort paths around coordinator and participant crashes, and
the NetLog-inversion guarantee that both shards land back on a
consistent state."""

import pytest

from repro.apps import LearningSwitch
from repro.core.netlog.crossshard import CrossTxnState
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.shard import CrossShardTxnManager, ShardCoordinator

MARK = "cc:cc:cc:cc:cc:cc"


def build(shards=2, switches=4, **kwargs):
    net = Network(linear_topology(switches, 1), seed=0)
    coordinator = ShardCoordinator(
        net, shards=shards, apps=(LearningSwitch,), **kwargs)
    coordinator.start()
    net.run_for(1.0)
    manager = CrossShardTxnManager(coordinator)
    return net, coordinator, manager


def mark_flowmod():
    return FlowMod(command=FlowModCommand.ADD, match=Match(eth_dst=MARK),
                   priority=200, actions=(Output(1),),
                   idle_timeout=0, hard_timeout=0)


def marked_rules(net, dpid):
    return [e for e in net.switches[dpid].flow_table.entries
            if getattr(e.match, "eth_dst", None) == MARK]


def spanning_writes(coordinator):
    """One marker write on a switch of each of two different shards."""
    a = coordinator.shards[0].dpids[0]
    b = coordinator.shards[1].dpids[0]
    return [(a, mark_flowmod()), (b, mark_flowmod())]


class TestCommit:
    def test_happy_path_commits_both_branches(self):
        net, coordinator, manager = build()
        writes = spanning_writes(coordinator)
        env = manager.execute("app", writes)
        assert env.state is CrossTxnState.COMMITTED
        assert sorted(env.shard_ids) == [0, 1]
        net.run_for(0.05)  # control-channel delivery of the FlowMods
        for dpid, _ in writes:
            assert len(marked_rules(net, dpid)) == 1
        assert manager.stats()["committed"] == 1
        assert manager.stats()["open"] == 0

    def test_single_shard_envelope_still_commits(self):
        net, coordinator, manager = build()
        dpid = coordinator.shards[0].dpids[0]
        env = manager.execute("app", [(dpid, mark_flowmod())])
        assert env.state is CrossTxnState.COMMITTED
        assert env.shard_ids == [0]
        net.run_for(0.05)
        assert len(marked_rules(net, dpid)) == 1

    def test_committed_state_survives_and_ships(self):
        net, coordinator, manager = build()
        writes = spanning_writes(coordinator)
        manager.execute("app", writes)
        net.run_for(1.0)  # let the commit ship to the backups
        for shard_id in (0, 1):
            assert coordinator.shards[shard_id].replicas.divergence() == 0


class TestCoordinatorCrash:
    def test_crash_before_prepare_aborts_vacuously(self):
        net, coordinator, manager = build()
        writes = spanning_writes(coordinator)
        manager.crash()
        env = manager.execute("app", writes)
        assert env.state is CrossTxnState.ABORTED
        assert not env.participants, "nothing should have been prepared"
        for dpid, _ in writes:
            assert marked_rules(net, dpid) == []

    def test_crash_after_prepare_presumed_abort_at_deadline(self):
        net, coordinator, manager = build()
        writes = spanning_writes(coordinator)
        env = manager.execute("app", writes, halt_after_prepare=True)
        manager.crash()
        assert env.state is CrossTxnState.PREPARED
        # Prepared but undecided: the writes are live on the switches.
        net.run_for(0.05)
        for dpid, _ in writes:
            assert len(marked_rules(net, dpid)) == 1
        # The participants' timers fire despite the dead coordinator.
        net.run_for(1.0)
        assert env.state is CrossTxnState.ABORTED
        assert "timeout" in env.abort_reason
        for dpid, _ in writes:
            assert marked_rules(net, dpid) == []
        for shard_id in (0, 1):
            assert coordinator.shards[shard_id].replicas.divergence() == 0

    def test_dead_coordinator_cannot_decide(self):
        net, coordinator, manager = build()
        env = manager.execute("app", spanning_writes(coordinator),
                              halt_after_prepare=True)
        manager.crash()
        manager.decide(env)
        assert env.state is CrossTxnState.PREPARED

    def test_recovered_coordinator_commits_in_time(self):
        net, coordinator, manager = build()
        env = manager.execute("app", spanning_writes(coordinator),
                              halt_after_prepare=True)
        manager.crash()
        net.run_for(0.2)  # within the decision window
        manager.recover()
        manager.decide(env)
        assert env.state is CrossTxnState.COMMITTED
        net.run_for(1.0)
        assert env.state is CrossTxnState.COMMITTED  # deadline was late


class TestParticipantCrash:
    def test_partition_mid_commit_compensates_both_shards(self):
        net, coordinator, manager = build()
        writes = spanning_writes(coordinator)
        env = manager.execute("app", writes, halt_after_prepare=True)
        # Let the prepare records ship to shard 1's backup -- a real
        # prepare is not durable until participants hold it.
        net.run_for(0.05)
        coordinator.crash_shard_primary(1)
        manager.decide(env)
        assert env.state is CrossTxnState.COMPENSATED
        assert "lost its branch" in env.abort_reason
        # Shard 0's branch committed, then was compensated back out.
        part0 = env.participant(0)
        assert part0.committed and part0.compensated
        assert manager.compensations == 1
        net.run_for(0.05)
        assert marked_rules(net, writes[0][0]) == []

    def test_orphan_rolls_back_at_failover_and_shards_converge(self):
        net, coordinator, manager = build()
        writes = spanning_writes(coordinator)
        env = manager.execute("app", writes, halt_after_prepare=True)
        net.run_for(0.05)
        coordinator.crash_shard_primary(1)
        manager.decide(env)
        net.run_for(2.0)  # failover + orphan rollback + reconcile
        rs1 = coordinator.shards[1].replicas
        assert len(rs1.failovers) == 1
        assert rs1.failovers[0].orphan_txns == 1
        # NetLog inversion left BOTH shards' flow tables consistent:
        # no marker rule anywhere, shadow == switches on both shards.
        for dpid, _ in writes:
            assert marked_rules(net, dpid) == []
        for shard_id in (0, 1):
            assert coordinator.shards[shard_id].replicas.divergence() == 0
        assert net.reachability(wait=1.0) == 1.0

    def test_headless_participant_at_prepare_aborts_cleanly(self):
        net, coordinator, manager = build(backups=1)
        # Kill primary AND promoted backup: shard 1 goes headless.
        coordinator.crash_shard_primary(1)
        net.run_for(2.0)
        coordinator.crash_shard_primary(1)
        writes = spanning_writes(coordinator)
        env = manager.execute("app", writes)
        assert env.state is CrossTxnState.ABORTED
        assert "no live primary" in env.abort_reason
        # Shard 0's prepared branch was inverted, not left dangling.
        assert marked_rules(net, writes[0][0]) == []
        assert coordinator.shards[0].replicas.divergence() == 0


class TestTelemetry:
    def test_outcomes_recorded_on_coordinator(self):
        net, coordinator, manager = build(telemetry_enabled=True)
        manager.execute("app", spanning_writes(coordinator))
        env = manager.execute("app", spanning_writes(coordinator),
                              halt_after_prepare=True)
        net.run_for(1.0)
        assert env.state is CrossTxnState.ABORTED
        metrics = coordinator.telemetry.metrics
        assert metrics.counters.get("crossshard.committed") == 1
        assert metrics.counters.get("crossshard.aborted") == 1
        spans = [s for s in coordinator.telemetry.tracer.spans
                 if s.name == "shard.cross_txn"]
        assert len(spans) == 2
        outcomes = sorted(s.tags["outcome"] for s in spans)
        assert outcomes == ["aborted", "committed"]
