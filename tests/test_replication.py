"""Tests for the controller replication layer: log shipping, lease
failover, epoch fencing, orphan rollback, and stub adoption."""

import pytest

from repro.apps import Hub, LearningSwitch
from repro.core.appvisor.proxy import AppStatus
from repro.core.runtime import LegoSDNRuntime
from repro.faults import crash_on
from repro.faults.netfaults import ChaosProfile
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.replication import (
    EpochFence,
    RecordShip,
    ReplicaRole,
    ReplicaSet,
)
from repro.replication.replicaset import SeenNumbers
from repro.telemetry import Telemetry
from repro.workloads import TrafficWorkload
from repro.workloads.traffic import inject_marker_packet


def partition_primary(replicas):
    """Cut the primary off from the backups without killing it: it
    keeps running, and believing it is primary, but nobody hears it,
    so the lease expires and a backup takes over.  The split brain the
    epoch fence exists for: its writes to the switches carry a
    superseded epoch and are rejected."""
    replicas.members.partitioned = replicas.primary


def build(backups=1, switches=2, telemetry=None, **kwargs):
    net = Network(linear_topology(switches, 1), seed=0, telemetry=telemetry)
    runtime = LegoSDNRuntime(net.controller)
    replicas = ReplicaSet(net, runtime, backups=backups, **kwargs)
    runtime.launch_app(LearningSwitch())
    net.start()
    net.run_for(1.0)
    return net, runtime, replicas


class TestConstruction:
    def test_requires_a_backup(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = LegoSDNRuntime(net.controller)
        with pytest.raises(ValueError):
            ReplicaSet(net, runtime, backups=0)

    def test_lease_must_exceed_heartbeat(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = LegoSDNRuntime(net.controller)
        with pytest.raises(ValueError):
            ReplicaSet(net, runtime, heartbeat_interval=0.2,
                       lease_timeout=0.1)

    def test_initial_roles_and_fence(self):
        net, runtime, replicas = build(backups=2)
        assert replicas.primary.replica_id == "r0"
        assert [r.replica_id for r in replicas.live_backups()] == ["r1", "r2"]
        assert all(s.fence is replicas.fence for s in net.switches.values())
        assert replicas.epoch == 0


class TestShipping:
    def test_backups_receive_committed_records(self):
        net, runtime, replicas = build()
        net.reachability(wait=0.5)  # bidirectional pings install flows
        net.run_for(1.0)
        backup = replicas.replica("r1")
        assert replicas.ship_index > 0
        assert backup.ships_received == replicas.ship_index
        assert backup.log, "no committed records folded on the backup"
        assert not backup.open_txns

    def test_backup_shadow_matches_primary_shadow(self):
        net, runtime, replicas = build()
        TrafficWorkload(net, rate=30.0, seed=0).start(2.0)
        net.run_for(3.0)  # includes settle time past the last ship
        assert replicas.shadow_divergence("r1") == 0

    def test_heartbeats_carry_app_progress_and_acks(self):
        net, runtime, replicas = build()
        net.reachability(wait=0.5)
        net.run_for(1.0)
        backup = replicas.replica("r1")
        assert "learning_switch" in backup.app_progress
        assert backup.acked_index == replicas.ship_index


class TestFailover:
    def test_crash_promotes_lowest_backup(self):
        net, runtime, replicas = build(backups=2, lease_timeout=0.2)
        inject_marker_packet(net, "h1", "h2", "flow-a")
        net.run_for(0.5)
        replicas.crash_primary()
        net.run_for(1.0)
        assert len(replicas.failovers) == 1
        fo = replicas.failovers[0]
        assert (fo.from_replica, fo.to_replica) == ("r0", "r1")
        assert replicas.primary.replica_id == "r1"
        assert replicas.epoch == 1
        assert replicas.replica("r0").role is ReplicaRole.DEAD
        # Detection is lease-bounded.
        assert fo.duration <= 0.2 + 3 * replicas.check_interval

    def test_second_failover_promotes_next_backup(self):
        net, runtime, replicas = build(backups=2, lease_timeout=0.2)
        replicas.crash_primary()
        net.run_for(1.0)
        replicas.crash_primary()
        net.run_for(1.0)
        assert replicas.primary.replica_id == "r2"
        assert replicas.epoch == 2
        assert len(replicas.failovers) == 2

    def test_no_backup_left_stops_failing_over(self):
        net, runtime, replicas = build(backups=1, lease_timeout=0.2)
        replicas.crash_primary()
        net.run_for(1.0)
        replicas.crash_primary()
        net.run_for(1.0)
        # The last primary died with nobody left to promote: it keeps
        # the title, but the set knows it is not serving.
        assert replicas.primary.replica_id == "r1"
        assert not replicas.primary.is_live
        assert not replicas.live_backups()
        assert replicas.epoch == 1  # nothing left to promote
        assert len(replicas.failovers) == 1

    def test_app_survives_with_state(self):
        net, runtime, replicas = build(lease_timeout=0.2)
        inject_marker_packet(net, "h1", "h2", "flow-a")
        net.run_for(0.5)
        stub = runtime.stubs["learning_switch"]
        seq_before = stub.last_seq_done
        macs_before = {d: dict(t) for d, t in stub.app.mac_tables.items()}
        assert any(macs_before.values()), "nothing learned pre-crash"
        replicas.crash_primary()
        net.run_for(1.0)
        new_runtime = replicas.runtime
        assert new_runtime is not runtime
        assert new_runtime.live_apps() == ["learning_switch"]
        # Same stub object, same state, seq numbering resumed.
        assert new_runtime.stubs["learning_switch"] is stub
        for dpid, table in macs_before.items():
            for mac, port in table.items():
                assert stub.app.mac_tables[dpid].get(mac) == port
        inject_marker_packet(net, "h2", "h1", "flow-b")
        net.run_for(1.0)
        assert stub.last_seq_done > seq_before

    def test_app_dead_of_an_unheard_crash_recovers_on_the_promoted_proxy(self):
        # The CrashReport goes once into a cut link and is given up on
        # (retry budget 0), then the primary dies: only the stub knows
        # what killed the app.  Re-attaching, it says so again, and the
        # promoted proxy's restore skips the event that did it.
        net = Network(linear_topology(2, 1), seed=0)
        chaos = ChaosProfile(seed=0)
        runtime = LegoSDNRuntime(
            net.controller, channel_retry_budget=0,
            chaos=lambda app: chaos if app == "learning_switch" else None)
        replicas = ReplicaSet(net, runtime, lease_timeout=0.2)
        stub = runtime.launch_app(
            crash_on(LearningSwitch(), payload_marker="BOOM"))
        hub = runtime.launch_app(Hub())
        net.start()
        net.run_for(1.0)
        chaos.partition(net.now, 0.15, side="stub")
        inject_marker_packet(net, "h1", "h2", "BOOM")
        net.run_for(0.05)
        assert not stub.sandbox.alive
        assert runtime.channels["learning_switch"].abandoned
        assert runtime.record("learning_switch").crash_count == 0  # unheard
        replicas.crash_primary()
        net.run_for(1.0)
        assert len(replicas.failovers) == 1
        record = replicas.runtime.record("learning_switch")
        assert record.status is AppStatus.UP
        assert record.crash_count == record.recoveries == 1
        beside = replicas.runtime.record("hub")
        assert (beside.status, beside.crash_count) == (AppStatus.UP, 0)
        done = (stub.last_seq_done, hub.last_seq_done)
        inject_marker_packet(net, "h2", "h1", "after")
        net.run_for(1.0)
        assert stub.last_seq_done > done[0] and hub.last_seq_done > done[1]
        assert not beside.inflights and not beside.queue

    def test_crash_drops_unflushed_replication_batch(self):
        # A primary dying mid-tick loses exactly the batched frames it
        # never flushed: nothing it enqueued in its final instant may
        # reach a backup after the process is gone.
        net, runtime, replicas = build(lease_timeout=0.2)
        backup = replicas.replica("r1")
        ships_before = backup.ships_received
        frame = RecordShip(epoch=replicas.epoch,
                           index=replicas.ship_index + 1,
                           txn_id=999, app_name="learning_switch",
                           dpid=1, message=None, inverses=(),
                           applied_at=net.now)
        backup.channel.proxy_end.send(frame)
        assert len(backup.channel.proxy_end.pending) == 1
        replicas.crash_primary()
        assert len(backup.channel.proxy_end.pending) == 0
        net.run_for(1.0)
        assert backup.ships_received == ships_before
        assert 999 not in backup.open_txns

    def test_failover_drops_unflushed_batch_from_partitioned_primary(self):
        # The partition path never fires the crash callback; the drop
        # happens at failover, while the backups' channels still point
        # at the demoted primary.
        net, runtime, replicas = build(lease_timeout=0.2)
        net.run_for(0.5)
        partition_primary(replicas)
        backup = replicas.replica("r1")
        backup.channel.proxy_end.send(RecordShip(
            epoch=replicas.epoch, index=replicas.ship_index + 1,
            txn_id=998, app_name="learning_switch", dpid=1,
            message=None, inverses=(), applied_at=net.now))
        old_channel = backup.channel
        replicas._failover(backup)
        assert len(old_channel.proxy_end.pending) == 0
        net.run_for(1.0)
        assert 998 not in replicas.replica("r1").open_txns

    def test_failover_span_and_metrics(self):
        telemetry = Telemetry(enabled=True)
        net, runtime, replicas = build(telemetry=telemetry, lease_timeout=0.2)
        replicas.crash_primary()
        net.run_for(1.0)
        tracer = replicas.primary.telemetry.tracer
        spans = [s for s in tracer.spans if s.name == "replication.failover"]
        assert len(spans) == 1
        assert spans[0].tags["to_replica"] == "r1"
        assert spans[0].duration == replicas.failovers[0].duration

    def test_zero_divergence_after_failover_under_traffic(self):
        telemetry = Telemetry(enabled=True)
        net, runtime, replicas = build(telemetry=telemetry, switches=3,
                                       lease_timeout=0.2)
        TrafficWorkload(net, rate=30.0, seed=0).start(4.0)
        net.run_for(1.0)
        replicas.crash_primary()
        net.run_for(3.5)
        assert replicas.divergence() == 0


class TestFencing:
    def test_fence_validates_epochs(self):
        fence = EpochFence(epoch=3)
        assert fence.permits(None)   # unreplicated writers are exempt
        assert fence.permits(3)
        assert not fence.permits(2)
        with pytest.raises(ValueError):
            fence.advance(2)

    def test_partitioned_primary_cannot_write(self):
        net, runtime, replicas = build(lease_timeout=0.2)
        net.run_for(0.5)
        partition_primary(replicas)
        net.run_for(1.0)
        assert replicas.primary.replica_id == "r1"
        zombie = replicas.replica("r0").controller
        fenced_before = replicas.fence.fenced_writes
        table_before = len(net.switch(1).flow_table)
        zombie.send_to_switch(1, FlowMod(
            match=Match(eth_dst="evil"), command=FlowModCommand.ADD,
            priority=5000, actions=(Output(1),)))
        net.run_for(0.2)
        assert replicas.fence.fenced_writes > fenced_before
        assert len(net.switch(1).flow_table) == table_before
        assert replicas.fence.rejections[-1][0] == 1

    def test_stale_frames_dropped_by_promoted_replica(self):
        net, runtime, replicas = build(lease_timeout=0.2)
        backup = replicas.replica("r1")
        replicas.crash_primary()
        net.run_for(1.0)
        stale = RecordShip(epoch=0, index=99, txn_id=7, app_name="x",
                           dpid=1, message=None, inverses=(),
                           applied_at=net.now)
        before = backup.stale_frames
        replicas._on_backup_frame(backup, stale)
        assert backup.stale_frames == before + 1
        assert 7 not in backup.open_txns


class TestOrphanRollback:
    def test_unresolved_txn_rolled_back_on_promotion(self):
        net, runtime, replicas = build(lease_timeout=0.2)
        backup = replicas.replica("r1")
        # A transaction the primary opened but never resolved: the ADD
        # reached switch 1 and shipped, the resolve never came.
        mod = FlowMod(match=Match(eth_dst="orphan"),
                      command=FlowModCommand.ADD,
                      priority=700, actions=(Output(1),))
        inverse = FlowMod(match=Match(eth_dst="orphan"),
                          command=FlowModCommand.DELETE_STRICT,
                          priority=700, actions=())
        net.controller.send_to_switch(1, mod)
        net.run_for(0.1)
        assert net.switch(1).flow_table.find(Match(eth_dst="orphan"), 700)
        replicas._on_backup_frame(backup, replicas.keyring.stamp(RecordShip(
            epoch=0, index=replicas.ship_index + 1, txn_id=12345,
            app_name="learning_switch", dpid=1, message=mod,
            inverses=(inverse,), applied_at=net.now), "r0", "r1"))
        assert 12345 in backup.open_txns
        replicas.crash_primary()
        net.run_for(1.0)
        fo = replicas.failovers[0]
        assert fo.orphan_txns == 1
        assert fo.orphan_inverses == 1
        assert not backup.open_txns
        # The inverse reached the switch: the half-done write is gone.
        assert not net.switch(1).flow_table.find(Match(eth_dst="orphan"), 700)


class TestStatsReconcile:
    def test_poll_refreshes_shadow_idle_clocks(self):
        net, runtime, replicas = build(stats_interval=0.1)
        manager = runtime.proxy.manager
        # A rule the data plane keeps alive but whose shadow clock the
        # controller cannot refresh on its own.
        net.controller.send_to_switch(1, FlowMod(
            match=Match(eth_dst="hot"), command=FlowModCommand.ADD,
            priority=10, idle_timeout=0.5, actions=(Output(1),)))
        net.run_for(0.2)
        shadow = manager.shadow_table(1)
        [entry] = shadow.find(Match(eth_dst="hot"), 10)
        real = net.switch(1).flow_table.find(Match(eth_dst="hot"), 10)[0]
        installed = entry.installed_at
        for _ in range(8):
            net.run_for(0.3)
            real.hit(object(), net.now)  # data-plane traffic
        # Lazy expiry alone would have dropped it after 0.5s idle; the
        # stats poll kept the shadow's clock tracking the switch's.
        assert manager.shadow_table(1).find(Match(eth_dst="hot"), 10)
        assert entry.installed_at == installed


class TestPartitionHealResync:
    """A backup cut off long enough to exhaust the shipping channel's
    retry budgets must detect its lag on heal and repair via *ranged*
    replay -- never by waiting for repair that will not come."""

    def _partitioned_build(self, partition=(0.4, 1.3), backups=2):
        from repro.faults.netfaults import ChaosProfile

        # Shipping on this topology+workload spreads over ~0.1-0.9s,
        # so the window cuts the stream mid-flight: records shipped
        # before it must NOT be replayed (ranged, not full-log).
        profile = ChaosProfile(seed=0)
        profile.partition(partition[0], partition[1] - partition[0])
        net = Network(linear_topology(3, 2), seed=0)
        runtime = LegoSDNRuntime(net.controller)
        replicas = ReplicaSet(
            net, runtime, backups=backups, repl_retry_budget=3,
            lease_timeout=30.0,  # isolate: the partitioned candidate
            # cannot tell "primary dead" from "my link dead" -- a short
            # lease would make it self-promote mid-test.
            chaos=lambda rid: profile if rid == "r1" else None)
        runtime.launch_app(LearningSwitch())
        net.start()
        return net, runtime, replicas, profile

    def test_healed_backup_resyncs_to_zero_lag(self):
        net, runtime, replicas, profile = self._partitioned_build()
        TrafficWorkload(net, rate=60.0, seed=0).start(2.5)
        net.run_for(3.5)
        backup = replicas.replica("r1")
        assert profile.partition_drops > 0, "partition never bit"
        assert backup.resync_requests > 0
        assert replicas.resyncs_served > 0
        # Fully repaired: contiguous coverage of the shipped log.
        assert backup.contig_index == replicas.ship_index
        assert backup.contig_resolves == replicas.resolve_count
        assert not backup.open_txns
        # ... so the dedup state is back to two integers.
        assert not backup.seen_indices.above
        assert not backup.seen_resolve_seqs.above

    def test_resync_is_ranged_not_full_log(self):
        net, runtime, replicas, profile = self._partitioned_build()
        TrafficWorkload(net, rate=60.0, seed=0).start(2.5)
        net.run_for(3.5)
        # The replay shipped strictly less than the whole history:
        # everything shipped before the partition was never re-sent.
        assert 0 < replicas.resync_records_sent < len(replicas.ship_history)

    def test_resynced_backup_shadow_matches_primary(self):
        net, runtime, replicas, profile = self._partitioned_build()
        TrafficWorkload(net, rate=60.0, seed=0).start(2.5)
        net.run_for(3.5)
        assert replicas.shadow_divergence("r1") == 0

    def test_unpartitioned_backup_never_requests_resync(self):
        net, runtime, replicas, profile = self._partitioned_build()
        TrafficWorkload(net, rate=60.0, seed=0).start(2.5)
        net.run_for(3.5)
        untouched = replicas.replica("r2")
        assert untouched.resync_requests == 0
        assert untouched.contig_index == replicas.ship_index


class TestSeenNumbers:
    """The backup's dedup state: a floor plus what is above it."""

    def test_memory_is_the_gap_not_the_run(self):
        seen = SeenNumbers()
        for n in range(1, 10_001):
            assert seen.add(n)
            assert not seen.above       # in order: nothing to remember
        assert seen.floor == 10_000
        # Everything at or below the floor still counts as seen.
        assert not seen.add(1) and not seen.add(10_000)
        assert 5_000 in seen and 10_001 not in seen
        # A gap keeps exactly what arrived past it, until it fills.
        for n in range(10_002, 10_012):
            assert seen.add(n)
        assert seen.floor == 10_000 and len(seen.above) == 10
        assert 10_005 in seen and not seen.add(10_005)
        assert seen.add(10_001)
        assert seen.floor == 10_011 and not seen.above

    def test_clear_starts_again_from_zero(self):
        seen = SeenNumbers()
        for n in (1, 2, 3, 7):
            seen.add(n)
        seen.clear()
        assert seen.floor == 0 and not seen.above
        assert 1 not in seen and 7 not in seen
        assert seen.add(1) and seen.floor == 1

    def test_rehabilitate_resets_a_replica_to_zero(self):
        net, runtime, replicas = build(backups=2, repl_mode="byzantine")
        net.reachability(wait=0.5)
        backup = replicas.replica("r1")
        assert backup.contig_index > 0 and backup.contig_resolves > 0
        backup.quarantined = True           # as _quarantine() leaves it
        replicas.rehabilitate("r1")
        # Nothing it held is trusted, its dedup state included: the
        # full resync replays from index 0 ...
        assert backup.contig_index == backup.contig_resolves == 0
        assert 1 not in backup.seen_indices
        net.run_for(1.0)
        # ... and lands it back level with the primary.
        assert backup.contig_index == replicas.ship_index > 0
        assert backup.contig_resolves == replicas.resolve_count
        assert replicas.shadow_divergence("r1") == 0


class TestQuorumCommit:
    def test_majority_ack_commits(self):
        net, runtime, replicas = build(backups=2, quorum=True)
        net.reachability(wait=0.5)
        net.run_for(1.0)
        assert replicas.resolve_count > 0
        assert replicas.quorum_commits > 0
        assert replicas.quorum_stalls == 0
        assert not replicas.quorum_degraded
        assert not replicas._pending_quorum

    def test_quorum_needs_majority_not_all(self):
        # 1 primary + 2 backups: majority is 2, so one dead backup
        # must not stall commits.
        net, runtime, replicas = build(backups=2, quorum=True)
        replicas.replica("r2").controller.crash(
            RuntimeError("backup dies"), culprit="fault-injection")
        replicas.replica("r2").role = ReplicaRole.DEAD
        net.reachability(wait=0.5)
        net.run_for(1.0)
        assert replicas.quorum_commits > 0
        assert replicas.quorum_stalls == 0

    def test_quorum_unreachable_degrades_gracefully(self):
        from repro.faults.netfaults import ChaosProfile

        profiles = {}

        def chaos(rid):
            profile = ChaosProfile(seed=0)
            profile.partition(0.4, 10.0)  # all backups dark, forever
            profiles[rid] = profile
            return profile

        net = Network(linear_topology(3, 2), seed=0)
        runtime = LegoSDNRuntime(net.controller)
        replicas = ReplicaSet(net, runtime, backups=2, quorum=True,
                              quorum_timeout=0.2, repl_retry_budget=2,
                              lease_timeout=30.0,  # isolate: no failover
                              chaos=chaos)
        runtime.launch_app(LearningSwitch())
        net.start()
        TrafficWorkload(net, rate=60.0, seed=0).start(1.5)
        net.run_for(3.0)
        # Commits kept happening (availability), but durability is
        # flagged as degraded and the stalls are counted.
        assert replicas.quorum_stalls > 0
        assert replicas.quorum_degraded
        assert not replicas._pending_quorum
        assert runtime.proxy.manager.committed > 0

    def test_async_mode_never_tracks_quorum(self):
        net, runtime, replicas = build()
        net.reachability(wait=0.5)
        net.run_for(1.0)
        assert replicas.quorum_commits == 0
        assert not replicas._pending_quorum


class TestReplicationTelemetryExport:
    def test_resync_and_quorum_counters_reach_prometheus(self):
        from repro.faults.netfaults import ChaosProfile
        from repro.telemetry.export import prometheus_text

        profile = ChaosProfile(seed=0)
        profile.partition(0.4, 0.9)
        telemetry = Telemetry(enabled=True)
        net = Network(linear_topology(3, 2), seed=0, telemetry=telemetry)
        runtime = LegoSDNRuntime(net.controller)
        replicas = ReplicaSet(
            net, runtime, backups=2, quorum=True, quorum_timeout=0.2,
            repl_retry_budget=2, lease_timeout=30.0,
            chaos=lambda rid: profile)  # both backups cut: quorum stalls
        runtime.launch_app(LearningSwitch())
        net.start()
        TrafficWorkload(net, rate=60.0, seed=0).start(2.5)
        net.run_for(3.5)
        assert replicas.resyncs_served > 0
        assert replicas.quorum_stalls > 0
        text = prometheus_text(telemetry.metrics)
        assert "repro_replication_resyncs_total" in text
        assert "repro_replication_quorum_commits_total" in text
        assert "repro_replication_quorum_stalls_total" in text
