"""E18: sharded multi-primary control plane -- scaling and isolation.

One primary serialises every control-plane event; `repro.shard`
partitions the switch space across K primary shards, each a full
LegoSDN stack with its own warm-backup ReplicaSet.  This experiment
measures the three claims the subsystem makes:

- **throughput scales with K**: with a per-event ingest service time
  (the real controller's CPU bound) and a saturating churn workload,
  ingested-event throughput grows ~linearly in the shard count --
  >= 1.7x from K=1 to K=2 and >= 3x from K=1 to K=4;
- **failure is contained**: killing one shard's primary leaves the
  other shards' p95 ``appvisor.event`` latency within 10% of its
  pre-kill value and their switch population fully reachable while
  the victim shard fails over;
- **quorum reads stay honest under loss**: with 30% replication-
  channel loss, backup-served reads never exceed the freshness bound
  -- loss shifts reads to the primary instead of serving stale state.
- **a shard writes only the switches it owns**: a routing app that
  installs whole paths has its writes to other shards' switches
  refused and counted, and no shard's shadow holds a table for a
  switch it does not own.

The scaling runs pin equal contiguous switch segments to shards so
the capacity arithmetic is exact (rendezvous balance is statistics;
a saturation measurement wants a deterministic K-way split).
"""

from repro.apps import LearningSwitch, ShortestPathRouting
from repro.faults.netfaults import ChaosProfile
from repro.invariants import check_shadow_ownership
from repro.network.net import Network
from repro.network.topology import linear_topology, tree_topology
from repro.shard import ShardCoordinator, ShardReadGateway, ShardRouter
from repro.workloads import ChurnWorkload, TrafficWorkload

from benchmarks.harness import percentile, print_table, run_once

SWITCHES = 8
#: Per-event ingest service time: 50 events/s capacity per shard.
SERVICE_TIME = 0.02
#: Churn load that saturates even the K=4 split (offered events per
#: shard far exceed 50/s at every K).
CHURN_RATE = 150.0
MEASURE_WINDOW = 4.0

ISOLATION_SHARDS = 4
ISOLATION_VICTIM = 1
PHASE = 3.0  # pre-kill and post-kill span-sampling windows

FRESHNESS = 0.5


def pinned_router(shards: int) -> ShardRouter:
    """Equal contiguous segments of the linear fabric."""
    per = SWITCHES // shards
    pins = {i + 1: min(i // per, shards - 1) for i in range(SWITCHES)}
    return ShardRouter(shards, seed=0, pins=pins)


def build(shards, router=None, **kwargs):
    net = Network(linear_topology(SWITCHES, 1), seed=0)
    coordinator = ShardCoordinator(
        net, shards=shards, apps=(LearningSwitch,),
        router=router, **kwargs)
    coordinator.start()
    net.run_for(2.0)  # handshakes, discovery, learning settle
    return net, coordinator


def throughput_run(shards: int) -> dict:
    net, coordinator = build(shards, router=pinned_router(shards),
                             service_time=SERVICE_TIME)
    churn = ChurnWorkload(net, rate=CHURN_RATE, min_hosts=2, seed=1)
    churn.start(MEASURE_WINDOW)
    before = coordinator.total_events_ingested()
    net.run_for(MEASURE_WINDOW)
    ingested = coordinator.total_events_ingested() - before
    return {
        "shards": shards,
        "ingested": ingested,
        "throughput": ingested / MEASURE_WINDOW,
        "churn_events": churn.joins + churn.leaves,
    }


def shard_host_pairs(net, coordinator, shard_ids, up):
    """Ordered pairs of *attached* hosts whose endpoints sit inside one
    of the given shards (cross-shard pairs excluded: those transit the
    victim shard's switches on a linear fabric; churned-away hosts
    excluded: a detached host is unreachable by design)."""
    pairs = []
    for shard_id in shard_ids:
        dpids = set(coordinator.shards[shard_id].dpids)
        hosts = [spec.name for spec in net.topology.hosts
                 if spec.dpid in dpids and spec.name in up]
        pairs.extend((a, b) for a in hosts for b in hosts if a != b)
    return pairs


def appvisor_p95(handle, start, end):
    durations = []
    for replica in handle.replicas.replicas:
        durations.extend(
            span.duration for span in replica.telemetry.tracer.spans
            if span.name == "appvisor.event" and start <= span.start < end)
    return percentile(sorted(durations), 95) if durations else None


def isolation_run() -> dict:
    net, coordinator = build(ISOLATION_SHARDS,
                             router=pinned_router(ISOLATION_SHARDS),
                             telemetry_enabled=True)
    duration = 2 * PHASE + 2.0
    TrafficWorkload(net, rate=80.0, seed=0).start(duration)
    # min_hosts keeps at most one host detached at a time, so every
    # non-victim shard keeps a measurable intra-shard pair.
    churn = ChurnWorkload(net, rate=6.0, min_hosts=7, seed=2)
    churn.start(duration)
    net.run_for(PHASE)

    kill_at = net.now
    coordinator.crash_shard_primary(ISOLATION_VICTIM)
    others = [s for s in coordinator.shards if s != ISOLATION_VICTIM]
    # While the victim elects: its siblings must keep serving.
    mid_pairs = shard_host_pairs(net, coordinator, others,
                                 set(churn.up_hosts()))
    mid_reach = net.reachability(pairs=mid_pairs, wait=0.4)
    net.run_until(kill_at + PHASE)
    end = net.now

    per_shard = {}
    for shard_id in others:
        handle = coordinator.shards[shard_id]
        pre = appvisor_p95(handle, kill_at - PHASE, kill_at)
        post = appvisor_p95(handle, kill_at, end)
        per_shard[shard_id] = {
            "pre_p95": pre, "post_p95": post,
            "delta": (abs(post - pre) / pre
                      if pre and post is not None else None),
            "failovers": len(handle.replicas.failovers),
        }
    net.run_for(1.0)
    up = churn.up_hosts()
    final_pairs = [(a, b) for a in up for b in up if a != b]
    return {
        "mid_reach": mid_reach,
        "mid_pairs": len(mid_pairs),
        "final_reach": net.reachability(pairs=final_pairs, wait=1.0),
        "victim_failovers":
            len(coordinator.shards[ISOLATION_VICTIM].replicas.failovers),
        "victim_divergence":
            coordinator.shards[ISOLATION_VICTIM].replicas.divergence(),
        "per_shard": per_shard,
        "health": coordinator.shard_health(),
    }


def staleness_run() -> dict:
    net, coordinator = build(2, chaos=ChaosProfile(seed=1, loss=0.3))
    gateway = ShardReadGateway(coordinator, freshness=FRESHNESS)
    churn = ChurnWorkload(net, rate=4.0, seed=3)
    churn.start(4.0)
    backup_served = fallbacks = 0
    max_staleness = 0.0
    violations = 0
    for _ in range(20):
        net.run_for(0.2)
        for dpid in sorted(net.switches):
            result = gateway.flow_rules(dpid)
            if result.from_backup:
                backup_served += 1
                max_staleness = max(max_staleness, result.staleness)
                if result.staleness > FRESHNESS:
                    violations += 1
            else:
                fallbacks += 1
                if result.staleness != 0.0:
                    violations += 1
    return {
        "backup_served": backup_served,
        "fallbacks": fallbacks,
        "max_staleness": max_staleness,
        "violations": violations,
    }


def routing_run(shards: int) -> dict:
    """ShortestPathRouting on a depth-3 tree: whole-path installs that
    cross shard boundaries."""
    net = Network(tree_topology(3), seed=0)
    coordinator = ShardCoordinator(
        net, shards=shards, apps=(ShortestPathRouting,), backups=1)
    coordinator.start()
    net.run_for(2.0)
    reach = net.reachability(wait=1.0)
    net.run_for(0.5)
    return {
        "shards": shards,
        "reach": reach,
        "refused": sum(handle.runtime.proxy.manager.refused
                       for handle in coordinator.shards.values()),
        "foreign": len(check_shadow_ownership(coordinator.shards)),
    }


def test_e18_sharded_control_plane(benchmark):
    def experiment():
        return {
            "throughput": [throughput_run(k) for k in (1, 2, 4)],
            "isolation": isolation_run(),
            "staleness": staleness_run(),
            "routing": [routing_run(k) for k in (2, 3)],
        }

    r = run_once(benchmark, experiment)

    runs = {row["shards"]: row for row in r["throughput"]}
    base = runs[1]["throughput"]
    rows = [[f"K={k}", f"{row['ingested']}",
             f"{row['throughput']:.0f} ev/s",
             f"{row['throughput'] / base:.2f}x"]
            for k, row in sorted(runs.items())]
    print_table(
        "E18a: ingested-event throughput vs shard count "
        f"(service_time={SERVICE_TIME}s, churn {CHURN_RATE}/s)",
        ["config", "ingested", "throughput", "scaling"], rows)

    iso = r["isolation"]
    rows = [[f"shard {shard_id}",
             f"{doc['pre_p95'] * 1000:.2f} ms",
             f"{doc['post_p95'] * 1000:.2f} ms",
             f"{doc['delta']:.1%}", doc["failovers"]]
            for shard_id, doc in sorted(iso["per_shard"].items())]
    rows.append([f"victim {ISOLATION_VICTIM}", "-", "-", "-",
                 iso["victim_failovers"]])
    print_table(
        "E18b: appvisor.event p95 around a shard-primary kill "
        f"(K={ISOLATION_SHARDS}, victim shard {ISOLATION_VICTIM})",
        ["shard", "p95 before", "p95 after", "delta", "failovers"], rows)

    stale = r["staleness"]
    print_table(
        "E18c: quorum-read staleness under 30% replication loss",
        ["backup-served", "fallbacks", "max staleness", "violations"],
        [[stale["backup_served"], stale["fallbacks"],
          f"{stale['max_staleness'] * 1000:.0f} ms",
          stale["violations"]]])

    print_table(
        "E18d: ShortestPathRouting across shards (tree depth 3, 1 backup)",
        ["config", "reachability", "writes refused",
         "foreign shadow tables"],
        [[f"K={row['shards']}", f"{row['reach']:.3f}", row["refused"],
          row["foreign"]] for row in r["routing"]])

    benchmark.extra_info["results"] = {
        "scaling_2": runs[2]["throughput"] / base,
        "scaling_4": runs[4]["throughput"] / base,
        "mid_reach": iso["mid_reach"],
        "max_staleness": stale["max_staleness"],
    }

    # Acceptance: near-linear scaling under the saturating workload.
    assert runs[2]["throughput"] / base >= 1.7
    assert runs[4]["throughput"] / base >= 3.0

    # Acceptance: the kill is contained to its shard.
    assert iso["victim_failovers"] == 1
    assert iso["victim_divergence"] == 0
    for shard_id, doc in iso["per_shard"].items():
        assert doc["failovers"] == 0, f"shard {shard_id} failed over too"
        assert doc["pre_p95"] is not None and doc["post_p95"] is not None
        assert doc["delta"] <= 0.10, \
            f"shard {shard_id} p95 moved {doc['delta']:.1%}"
    assert iso["mid_pairs"] > 0
    assert iso["mid_reach"] == 1.0
    assert iso["final_reach"] == 1.0

    # Acceptance: loss degrades where reads come from, never how stale
    # they are.
    assert stale["violations"] == 0
    assert stale["max_staleness"] <= FRESHNESS
    assert stale["backup_served"] > 0

    # Acceptance: a shard's NetLog holds only what it can send.
    for row in r["routing"]:
        assert row["foreign"] == 0, f"K={row['shards']}"
        assert row["refused"] > 0, f"K={row['shards']}"
