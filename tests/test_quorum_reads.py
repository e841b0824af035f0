"""Tests for freshness-bounded quorum reads: backup eligibility, the
provable staleness bound under loss, primary fallback, and the sharded
read gateway."""

import pytest

from repro.apps import LearningSwitch
from repro.core.runtime import LegoSDNRuntime
from repro.faults.netfaults import ChaosProfile
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.replication import ReplicaSet
from repro.shard import ShardCoordinator, ShardReadGateway
from repro.workloads import ChurnWorkload


def build(backups=1, switches=2, **kwargs):
    net = Network(linear_topology(switches, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller)
    replicas = ReplicaSet(net, runtime, backups=backups, **kwargs)
    runtime.launch_app(LearningSwitch())
    net.start()
    net.run_for(1.0)
    return net, runtime, replicas


class TestEligibility:
    def test_warm_backup_serves_within_bound(self):
        net, runtime, replicas = build()
        net.reachability(wait=0.5)  # install flows, ship records
        net.run_for(0.5)            # heartbeats carry high-water marks
        result = replicas.quorum_read(1, freshness=0.5)
        assert result.from_backup
        assert result.served_by == "r1"
        assert 0.0 <= result.staleness <= 0.5
        assert result.quorum_met

    def test_backup_answer_matches_primary_shadow(self):
        net, runtime, replicas = build()
        net.reachability(wait=0.5)
        net.run_for(0.5)
        result = replicas.quorum_read(1, freshness=0.5)
        manager = replicas.primary.runtime.proxy.manager
        truth = ReplicaSet._rule_identities(manager.shadow.get(1))
        assert result.from_backup
        assert result.rules == truth
        assert result.rules, "expected learned flows on dpid 1"

    def test_impossible_bound_makes_backup_ineligible(self):
        net, runtime, replicas = build()
        net.reachability(wait=0.5)
        net.run_for(0.5)
        backup = replicas.replicas[1]
        assert replicas.read_eligible(backup, 0.5)
        assert not replicas.read_eligible(backup, 0.0)

    def test_freshest_backup_wins(self):
        net, runtime, replicas = build(backups=2)
        net.reachability(wait=0.5)
        net.run_for(0.5)
        result = replicas.quorum_read(1, freshness=0.5)
        assert result.from_backup
        eligible = [r for r in replicas.replicas
                    if replicas.read_eligible(r, 0.5)]
        best = max(eligible,
                   key=lambda r: (r.contig_resolves, r.replica_id))
        assert result.served_by == best.replica_id


class TestFallback:
    def test_no_eligible_backup_falls_back_to_primary(self):
        net, runtime, replicas = build()
        net.reachability(wait=0.5)
        net.run_for(0.5)
        result = replicas.quorum_read(1, freshness=0.0)
        assert not result.from_backup
        assert result.served_by == "r0"
        assert result.staleness == 0.0
        assert replicas.quorum_read_fallbacks == 1
        # Majority of 2 live replicas is 2; a cohort of just the
        # primary does not reach it -- degradation is reported, never
        # hidden.
        assert not result.quorum_met

    def test_fallback_never_lies_about_freshness(self):
        net, runtime, replicas = build()
        net.reachability(wait=0.5)
        result = replicas.quorum_read(1, freshness=0.0)
        manager = replicas.primary.runtime.proxy.manager
        assert result.rules == \
            ReplicaSet._rule_identities(manager.shadow.get(1))

    def test_stats_count_reads_and_fallbacks(self):
        net, runtime, replicas = build()
        net.run_for(0.5)
        replicas.quorum_read(1, freshness=0.5)
        replicas.quorum_read(1, freshness=0.0)
        stats = replicas.stats()
        assert stats["quorum_reads"] == 2
        assert stats["quorum_read_fallbacks"] == 1


class TestStalenessUnderLoss:
    def test_bound_holds_under_thirty_percent_loss(self):
        """The acceptance-criteria invariant: with 30% replication-
        channel loss and a churning write load, every backup-served
        read still provably covers everything the primary resolved
        before (now - freshness); loss only shifts reads to the
        primary, never past the bound."""
        freshness = 0.5
        net, runtime, replicas = build(
            switches=3, chaos=ChaosProfile(seed=1, loss=0.3))
        churn = ChurnWorkload(net, rate=4.0, seed=2)
        churn.start(4.0)
        backup_served = 0
        for _ in range(20):
            net.run_for(0.2)
            result = replicas.quorum_read(2, freshness=freshness)
            now = net.sim.now
            if result.from_backup:
                backup_served += 1
                assert result.staleness <= freshness
                assert result.resolve_floor >= \
                    replicas.resolve_floor(now - freshness)
            else:
                assert result.staleness == 0.0
        assert replicas.quorum_reads == 20
        assert backup_served > 0, \
            "loss made every single read fall back -- bound untestable"


class TestShardGateway:
    def build_sharded(self, **kwargs):
        net = Network(linear_topology(6, 1), seed=0)
        coordinator = ShardCoordinator(
            net, shards=3, apps=(LearningSwitch,), **kwargs)
        coordinator.start()
        net.run_for(1.0)
        net.reachability(wait=1.0)
        net.run_for(0.5)
        return net, coordinator

    def test_reads_route_to_owning_shard(self):
        net, coordinator = self.build_sharded()
        gateway = ShardReadGateway(coordinator, freshness=0.5)
        for dpid in net.switches:
            result = gateway.flow_rules(dpid)
            shard = coordinator.shards[coordinator.shard_of_dpid(dpid)]
            replica_ids = {r.replica_id for r in shard.replicas.replicas}
            assert result.served_by in replica_ids
            if result.from_backup:
                assert result.staleness <= 0.5

    def test_rule_counts_cover_every_switch(self):
        net, coordinator = self.build_sharded()
        gateway = ShardReadGateway(coordinator)
        counts = {dpid: len(gateway.flow_rules(dpid).rules)
                  for dpid in net.switches}
        assert sorted(counts) == sorted(net.switches)
        assert all(count > 0 for count in counts.values())

    def test_gateway_stats_track_per_shard_reads(self):
        net, coordinator = self.build_sharded()
        gateway = ShardReadGateway(coordinator)
        for dpid in net.switches:
            gateway.flow_rules(dpid)
        # One quorum read per switch, each counted by its own shard.
        reads = {shard_id: handle.replicas.quorum_reads
                 for shard_id, handle in coordinator.shards.items()}
        assert sorted(reads) == [0, 1, 2]
        assert reads == {shard_id: len(handle.dpids)
                         for shard_id, handle in coordinator.shards.items()}
        assert sum(reads.values()) == len(net.switches)

    def test_shard_views_cover_every_trunk(self):
        net, coordinator = self.build_sharded()
        switches, links = set(), set()
        for handle in coordinator.shards.values():
            view = handle.controller.topology.view()
            switches.update(view.switches)
            links.update(view.links)
        assert sorted(switches) == sorted(net.switches)
        # The linear fabric's s_i - s_{i+1} trunks all appear, shard
        # boundaries included (LLDP probes cross them).
        seen = {tuple(sorted((a, b))) for a, _, b, _ in links}
        for left in range(1, 6):
            assert (left, left + 1) in seen
