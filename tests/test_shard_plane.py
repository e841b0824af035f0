"""Tests for the sharded control plane: coordinator wiring, routing,
failover containment, health and stats."""

from repro.apps import LearningSwitch
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.openflow.messages import Hello
from repro.shard import ShardCoordinator, ShardRouter
from repro.telemetry import Telemetry
from repro.telemetry.export import prometheus_text


def build(shards=3, switches=6, backups=1, **kwargs):
    net = Network(linear_topology(switches, 1), seed=0)
    coordinator = ShardCoordinator(
        net, shards=shards, apps=(LearningSwitch,), backups=backups,
        **kwargs)
    coordinator.start()
    net.run_for(1.0)
    return net, coordinator


class TestWiring:
    def test_every_switch_connects_to_its_owning_shard(self):
        net, coordinator = build()
        for dpid in net.switches:
            owner = coordinator.owner_controller(dpid)
            assert dpid in owner.channels, \
                f"dpid {dpid} not connected to its owner"
            for shard_id, handle in coordinator.shards.items():
                if shard_id != coordinator.shard_of_dpid(dpid):
                    assert dpid not in handle.controller.channels

    def test_assignment_partitions_the_fabric(self):
        net, coordinator = build()
        owned = sorted(
            d for h in coordinator.shards.values() for d in h.dpids)
        assert owned == sorted(net.switches)

    def test_default_controller_left_inert(self):
        net, coordinator = build()
        assert not net.controller.channels
        assert net.controller.messages_received == 0

    def test_sharded_plane_serves_traffic(self):
        net, coordinator = build()
        assert net.reachability(wait=1.0) == 1.0

    def test_each_shard_fences_only_its_switches(self):
        net, coordinator = build()
        for shard_id, handle in coordinator.shards.items():
            for dpid in handle.dpids:
                assert net.switches[dpid].fence is handle.replicas.fence


class TestTraceIds:
    def test_shard_prefix_in_minted_ids(self):
        tracer_a = Telemetry(enabled=True, shard_id=2).tracer
        trace = tracer_a.mint_trace()
        assert (trace >> 48) & 0xFFFF == 2

    def test_no_collisions_across_shards_and_replicas(self):
        """Satellite 1 regression: K shards x N replicas all minting
        concurrently must never collide."""
        minted = []
        for shard_id in range(4):
            for replica_id in ("r0", "r1", "r2"):
                tracer = Telemetry(enabled=True, replica_id=replica_id,
                                   shard_id=shard_id).tracer
                minted.extend(tracer.mint_trace() for _ in range(100))
        assert len(minted) == len(set(minted)), "trace ids collided"

    def test_live_plane_mints_disjoint_ids(self):
        net, coordinator = build(telemetry_enabled=True)
        minted = []
        for handle in coordinator.shards.values():
            for replica in handle.replicas.replicas:
                minted.extend(
                    replica.telemetry.tracer.mint_trace()
                    for _ in range(50))
        assert len(minted) == len(set(minted))

    def test_spans_carry_shard_tag(self):
        net, coordinator = build(telemetry_enabled=True)
        net.reachability(wait=0.5)
        for shard_id, handle in coordinator.shards.items():
            spans = [s for s in handle.primary.telemetry.tracer.spans
                     if s.tags.get("shard") == shard_id]
            assert spans, f"shard {shard_id} recorded no tagged spans"


class TestRouting:
    def test_misrouted_event_hops_to_owner(self):
        net, coordinator = build()
        dpid = coordinator.shards[0].dpids[0]
        wrong = coordinator.shards[1].controller
        owner = coordinator.owner_controller(dpid)
        before = owner.messages_received
        wrong.handle_switch_message(dpid, Hello())
        assert wrong.events_forwarded == 1
        assert owner.messages_received == before + 1

    def test_owned_event_not_forwarded(self):
        net, coordinator = build()
        dpid = coordinator.shards[0].dpids[0]
        owner = coordinator.owner_controller(dpid)
        owner.handle_switch_message(dpid, Hello())
        assert owner.events_forwarded == 0


class TestFailoverContainment:
    def test_other_shards_unaffected_by_one_primary_death(self):
        net, coordinator = build()
        victim = 1
        coordinator.crash_shard_primary(victim)
        net.run_for(2.0)
        for shard_id, handle in coordinator.shards.items():
            rs = handle.replicas
            if shard_id == victim:
                assert len(rs.failovers) == 1
                assert rs.primary.replica_id != "r0"
            else:
                assert len(rs.failovers) == 0
                assert rs.epoch == 0
        assert net.reachability(wait=1.0) == 1.0

    def test_promoted_controller_keeps_routing_hook(self):
        net, coordinator = build()
        coordinator.crash_shard_primary(1)
        net.run_for(2.0)
        promoted = coordinator.shards[1].controller
        assert promoted.shard_id == 1
        assert promoted.shard_router == coordinator.owner_controller


class TestHealth:
    def test_healthy_plane_scores_one(self):
        net, coordinator = build()
        doc = coordinator.shard_health()
        assert doc["score"] == 1.0
        assert doc["status"] == "healthy"
        assert sorted(doc["shards"]) == ["0", "1", "2"]

    def test_min_fold_not_average(self):
        net, coordinator = build(health_window=1e9)
        coordinator.crash_shard_primary(1)
        net.run_for(2.0)
        doc = coordinator.shard_health()
        # Shard 1 failed over: no backups left + recent failover.
        assert doc["shards"]["1"]["score"] < 1.0
        assert doc["shards"]["0"]["score"] == 1.0
        assert doc["score"] == doc["shards"]["1"]["score"]

    def test_headless_shard_zeroes_the_plane(self):
        net, coordinator = build()
        # Kill the primary and the only backup: the shard is headless.
        coordinator.crash_shard_primary(1)
        net.run_for(2.0)
        coordinator.crash_shard_primary(1)
        doc = coordinator.shard_health()
        assert doc["shards"]["1"]["score"] == 0.0
        assert doc["score"] == 0.0
        assert doc["status"] == "critical"


class TestPrometheus:
    def test_bare_export_unchanged_without_labels(self):
        telemetry = Telemetry(enabled=True)
        telemetry.metrics.inc("crashpad.recoveries", 3)
        text = prometheus_text(telemetry.metrics)
        assert "repro_crashpad_recoveries_total 3" in text
        assert "{" not in text.replace("# ", "")

    def test_labelled_export_wraps_every_sample(self):
        telemetry = Telemetry(enabled=True)
        telemetry.metrics.inc("crashpad.recoveries", 3)
        telemetry.metrics.observe("app.event_latency", 0.01)
        text = prometheus_text(telemetry.metrics,
                               labels={"shard": "7"})
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert 'shard="7"' in line, line


class TestStats:
    def test_stats_document(self):
        net, coordinator = build()
        assert sorted(coordinator.shards) == [0, 1, 2]
        assert coordinator.total_events_ingested() > 0
        for shard_id, handle in coordinator.shards.items():
            assert handle.replicas.stats()["shard_id"] == shard_id

    def test_explicit_router_is_honoured(self):
        net = Network(linear_topology(4, 1), seed=0)
        router = ShardRouter(2, seed=0, pins={1: 0, 2: 0, 3: 1, 4: 1})
        coordinator = ShardCoordinator(
            net, shards=2, apps=(LearningSwitch,), router=router)
        assert coordinator.shards[0].dpids == [1, 2]
        assert coordinator.shards[1].dpids == [3, 4]
