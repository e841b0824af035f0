"""Command-line interface: ``python -m repro <command>``.

Gives operators the common workflows without writing a script:

- ``demo``          -- the quickstart crash/recovery walk-through
- ``drill``         -- a parameterised fault drill on a chosen topology
- ``replicate``     -- primary-backup failover demo (kill the primary)
- ``trace``         -- run a scenario with tracing on; print/save the trace
- ``serve``         -- run a scenario, then serve /metrics over HTTP
- ``chaos``         -- stress the control channel with seeded faults
- ``byzantine``     -- compromise a replica; sweep tamper-rate x mode
- ``minimize``      -- record a planted failure; shrink it to its
  minimal causal sequence and replay the repro standalone
- ``corpus``        -- run the chaos-correlated bug corpus grid;
  regenerate or verify CORPUS_PR10.json
- ``bug-study``     -- replay a synthetic bug corpus (the E1 experiment)
- ``check-policy``  -- validate a compromise-policy file
- ``show-topology`` -- describe a builder topology
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.network.topology import TOPOLOGIES, build_topology
from repro.version import __version__


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _watchdog(telemetry, net):
    """A HealthWatchdog sweeping invariants against ground truth."""
    from repro.invariants.graph import NetSnapshot
    from repro.telemetry import HealthWatchdog

    return HealthWatchdog(
        telemetry, net.sim,
        snapshot_provider=lambda: NetSnapshot.from_network(net))


def _run_quickstart(args, telemetry=None, crash=True, watchdog=False):
    """The quickstart scenario ``demo``, ``trace`` and ``serve`` share:
    a LearningSwitch that crashes on a ``BOOM`` payload, healthy
    traffic first (so a trace shows complete control-loop transits),
    then -- with ``crash`` -- the marker and the recovery.

    Returns ``(net, runtime, watchdog or None, healthy reachability)``.
    """
    from repro.apps import LearningSwitch
    from repro.core.runtime import LegoSDNRuntime
    from repro.faults import crash_on
    from repro.network.net import Network
    from repro.workloads.traffic import inject_marker_packet

    net = Network(build_topology(args.topology, args.size),
                  seed=args.seed, telemetry=telemetry)
    runtime = LegoSDNRuntime(net.controller)
    app = LearningSwitch()
    if crash:
        app = crash_on(app, payload_marker="BOOM")
    runtime.launch_app(app)
    # Created after the launch and before the start: it is scheduling
    # order.
    dog = _watchdog(telemetry, net) if watchdog else None
    net.start()
    net.run_for(1.5)
    healthy = net.reachability()
    if crash:
        # Idle the reactive flows out so the marker packet punts to the
        # controller (and the app), then crash and recover.
        net.run_for(LearningSwitch.IDLE_TIMEOUT + 1.0)
        hosts = sorted(net.hosts)
        inject_marker_packet(net, hosts[0], hosts[-1], "BOOM")
        net.run_for(2.0)
    return net, runtime, dog, healthy


def _run_random_traffic(args, telemetry=None, watchdog=False,
                        replica_options=None, **runtime_options):
    """The load scenario the causal ``trace`` commands, ``chaos`` and
    ``byzantine`` share: a LearningSwitch, a 1 s warm-up, random
    traffic for 0.7 x ``--duration``, the run.

    ``replica_options`` puts a ReplicaSet around the runtime (before
    the launch, which it must see); ``watchdog`` adds a HealthWatchdog
    (after it).  Returns ``(net, runtime, replicas, watchdog)``.
    """
    from repro.apps import LearningSwitch
    from repro.core.runtime import LegoSDNRuntime
    from repro.network.net import Network
    from repro.workloads.traffic import TrafficWorkload

    net = Network(build_topology(args.topology, args.size),
                  seed=args.seed, telemetry=telemetry)
    runtime = LegoSDNRuntime(net.controller, **runtime_options)
    replicas = None
    if replica_options is not None:
        from repro.replication.replicaset import ReplicaSet

        replicas = ReplicaSet(net, runtime, seed=args.seed,
                              **replica_options)
    runtime.launch_app(LearningSwitch())
    dog = _watchdog(telemetry, net) if watchdog else None
    net.start()
    net.run_for(1.0)
    TrafficWorkload(net, rate=args.rate, seed=args.seed,
                    selection="random").start(args.duration * 0.7)
    net.run_for(args.duration)
    return net, runtime, replicas, dog


def cmd_demo(args) -> int:
    """The quickstart scenario: contain a crash, recover, show a ticket."""
    net, runtime, _, healthy = _run_quickstart(args)
    print(f"reachability (healthy): {healthy:.0%}")
    stats = runtime.stats()["learning_switch"]
    print(f"app crashes: {stats['crashes']}, recoveries: "
          f"{stats['recoveries']}, controller up: {runtime.is_up}")
    print(f"reachability (after recovery): {net.reachability(wait=1.0):.0%}")
    if runtime.tickets.all():
        print()
        print(runtime.tickets.all()[0].render())
    return 0


def cmd_drill(args) -> int:
    """A fault drill: traffic + scripted failures on a chosen runtime."""
    from repro.apps import make_app
    from repro.controller.monolithic import MonolithicRuntime
    from repro.core.crashpad.policy_lang import PolicyTable
    from repro.core.runtime import LegoSDNRuntime
    from repro.network.net import Network
    from repro.workloads.failure import FailureSchedule
    from repro.workloads.traffic import TrafficWorkload

    net = Network(build_topology(args.topology, args.size), seed=args.seed)
    if args.runtime == "legosdn":
        policy_table = None
        if args.policy:
            with open(args.policy) as fh:
                policy_table = PolicyTable.parse(fh.read())
        runtime = LegoSDNRuntime(net.controller, policy_table=policy_table,
                                 mode=args.mode)
        for name in args.apps:
            runtime.launch_app(make_app(name))
    else:
        runtime = MonolithicRuntime(net.controller, auto_restart=True)
        for name in args.apps:
            runtime.launch_app(lambda n=name: make_app(n))
    net.start()
    net.run_for(1.5)
    TrafficWorkload(net, rate=args.rate).start(args.duration * 0.8)
    schedule = FailureSchedule()
    dpids = list(net.switches)
    if len(dpids) >= 2:
        schedule.link_down(args.duration * 0.3, dpids[0], dpids[1])
        schedule.link_up(args.duration * 0.6, dpids[0], dpids[1])
    schedule.apply(net)
    net.run_for(args.duration)
    print(f"drill complete at t={net.now:.1f}s")
    print(f"  controller up:  {not net.controller.crashed}")
    print(f"  reachability:   {net.reachability(wait=1.0):.0%}")
    if args.runtime == "legosdn":
        for name, stats in sorted(runtime.stats().items()):
            print(f"  {name}: {stats}")
        print(f"  tickets: {len(runtime.tickets)}")
        if args.report:
            from repro.report import write_report

            write_report(args.report, net, runtime,
                         title="LegoSDN fault-drill report")
            print(f"  report written to {args.report}")
    else:
        print(f"  controller crashes: {runtime.crash_count}, "
              f"restarts: {runtime.restart_count}")
    return 0


def cmd_replicate(args) -> int:
    """Controller HA walk-through: kill the primary mid-workload and
    watch a warm backup take over without losing the apps."""
    from repro.apps import LearningSwitch
    from repro.core.runtime import LegoSDNRuntime
    from repro.network.net import Network
    from repro.replication import ReplicaSet
    from repro.telemetry import Telemetry
    from repro.workloads import ChurnWorkload, TrafficWorkload

    telemetry = Telemetry(enabled=True,
                          flight_capacity=args.flight_capacity)
    net = Network(build_topology(args.topology, args.size),
                  seed=args.seed, telemetry=telemetry)
    runtime = LegoSDNRuntime(net.controller)
    replicas = ReplicaSet(net, runtime, backups=args.backups,
                          lease_timeout=args.lease, seed=args.seed)
    runtime.launch_app(LearningSwitch())
    net.start()
    net.run_for(1.5)
    TrafficWorkload(net, rate=args.rate, seed=args.seed).start(args.duration)
    churn = None
    if len(net.hosts) > 2 and args.churn > 0:
        churn = ChurnWorkload(net, rate=args.churn, seed=args.seed)
        churn.start(args.duration)
    net.run_for(args.duration * 0.4)
    victim = replicas.primary.replica_id
    print(f"t={net.now:.2f}s: killing primary {victim} "
          f"(epoch {replicas.epoch}, {replicas.ship_index} records shipped)")
    replicas.crash_primary()
    net.run_for(args.duration * 0.6 + 1.0)
    for fo in replicas.failovers:
        print(f"  failover -> epoch {fo.epoch}: {fo.from_replica} -> "
              f"{fo.to_replica} in {fo.duration * 1000:.0f} ms "
              f"(orphans rolled back: {fo.orphan_txns}, "
              f"tail replayed: {fo.replayed_records})")
    divergence = replicas.divergence()
    up = churn.up_hosts() if churn else sorted(net.hosts)
    pairs = [(a, b) for a in up for b in up if a != b]
    print(f"  primary now:    {replicas.primary.replica_id} "
          f"(epoch {replicas.epoch})")
    print(f"  fenced writes:  {replicas.fence.fenced_writes}")
    print(f"  divergence:     {divergence} rule(s)")
    if churn:
        print(f"  host churn:     {churn.leaves} leaves, {churn.joins} joins")
    print(f"  apps alive:     {', '.join(replicas.runtime.live_apps())}")
    print(f"  reachability:   {net.reachability(pairs=pairs, wait=1.0):.0%}")
    return 0 if (replicas.failovers and divergence == 0) else 1


def cmd_shard(args) -> int:
    """Sharded control-plane walk-through: K primary shards over one
    fabric, a mid-run shard-primary kill (contained to its shard), and
    freshness-bounded quorum reads served by warm backups."""
    from repro.apps import LearningSwitch
    from repro.network.net import Network
    from repro.shard import ShardCoordinator, ShardReadGateway
    from repro.workloads import ChurnWorkload, TrafficWorkload

    net = Network(build_topology(args.topology, args.size),
                  seed=args.seed)
    coordinator = ShardCoordinator(
        net, shards=args.shards, apps=(LearningSwitch,),
        backups=args.backups, service_time=args.service_time,
        telemetry_enabled=True, seed=args.seed)
    coordinator.start()
    net.run_for(1.5)
    print(f"sharded plane up: {args.shards} shards over "
          f"{len(net.switches)} switches")
    for shard_id, handle in sorted(coordinator.shards.items()):
        print(f"  shard {shard_id}: dpids {handle.dpids} "
              f"(primary {handle.primary.replica_id}, "
              f"{args.backups} backup(s))")

    TrafficWorkload(net, rate=args.rate, seed=args.seed).start(args.duration)
    churn = None
    if len(net.hosts) > 2 and args.churn > 0:
        churn = ChurnWorkload(net, rate=args.churn, seed=args.seed)
        churn.start(args.duration)
    net.run_for(args.duration * 0.4)

    victim = args.kill_shard
    if victim is not None:
        if victim not in coordinator.shards:
            print(f"error: no shard {victim} "
                  f"(valid: {sorted(coordinator.shards)})")
            return 2
        print(f"t={net.now:.2f}s: killing shard {victim}'s primary "
              f"{coordinator.shards[victim].primary.replica_id}")
        coordinator.crash_shard_primary(victim)
    net.run_for(args.duration * 0.6 + 1.0)

    gateway = ShardReadGateway(coordinator, freshness=args.freshness)
    sample_dpid = sorted(net.switches)[0]
    read = gateway.flow_rules(sample_dpid)
    health = coordinator.shard_health()
    ok = True
    print(f"t={net.now:.2f}s: final state")
    for shard_id, handle in sorted(coordinator.shards.items()):
        rs = handle.replicas
        divergence = rs.divergence()
        ok = ok and divergence == 0
        tag = " (failed over)" if rs.failovers else ""
        print(f"  shard {shard_id}: primary {rs.primary.replica_id} "
              f"epoch {rs.epoch}, failovers {len(rs.failovers)}, "
              f"divergence {divergence}, "
              f"ingested {handle.events_ingested()}{tag}")
    if victim is not None:
        ok = ok and len(coordinator.shards[victim].replicas.failovers) == 1
        ok = ok and all(
            not handle.replicas.failovers
            for shard_id, handle in coordinator.shards.items()
            if shard_id != victim)
    print(f"  health:       {health['score']:.2f} ({health['status']})")
    print(f"  quorum read:  dpid {sample_dpid} -> {len(read.rules)} "
          f"rule(s) from {read.served_by} "
          f"({'backup' if read.from_backup else 'primary fallback'}, "
          f"staleness {read.staleness * 1000:.0f} ms, "
          f"bound {args.freshness * 1000:.0f} ms)")
    ok = ok and read.staleness <= args.freshness
    up = churn.up_hosts() if churn else sorted(net.hosts)
    pairs = [(a, b) for a in up for b in up if a != b]
    reach = net.reachability(pairs=pairs, wait=1.0)
    ok = ok and reach == 1.0
    print(f"  reachability: {reach:.0%}")
    return 0 if ok else 1


def cmd_trace(args) -> int:
    """Run the quickstart scenario with tracing enabled; print the
    per-seam span summary and optionally save the full trace."""
    from repro.telemetry import Telemetry
    from repro.telemetry.export import write_trace

    telemetry = Telemetry(enabled=True,
                          flight_capacity=args.flight_capacity)
    net, runtime, _, _ = _run_quickstart(args, telemetry, crash=args.crash)
    tracer = telemetry.tracer
    print(f"trace captured over {net.now:.2f}s simulated: "
          f"{len(tracer.spans)} spans, {len(telemetry.recorder)} "
          "flight-recorder events retained")
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span.duration)
    for name in sorted(by_name):
        durations = by_name[name]
        mean = sum(durations) / len(durations)
        print(f"  {name:<26} x{len(durations):<5} "
              f"mean {mean * 1000:8.3f} ms  "
              f"max {max(durations) * 1000:8.3f} ms")
    for ticket in runtime.tickets.all():
        print(f"ticket #{ticket.ticket_id}: {ticket.failure_kind} in "
              f"{ticket.app_name}; flight recorder attached "
              f"{len(ticket.flight_records)} event(s)")
    if args.out:
        write_trace(args.out, telemetry, fmt=args.format)
        print(f"trace ({args.format}) written to {args.out}")
    return 0


def _load_spans(path: str) -> list:
    """Spans from a saved trace document (or a bare span list)."""
    import json

    with open(path) as fh:
        doc = json.load(fh)
    return doc["spans"] if isinstance(doc, dict) else doc


def _run_traced_workload(args, loss: float):
    """A short traced control-loop workload for the causal commands.

    Mirrors the E17 adverse-network setup: reliable batched channels,
    optional chaos at ``loss`` (with 10% dup/reorder and delay jitter),
    random traffic, and a HealthWatchdog sweeping invariants against
    ground truth.  Returns ``(telemetry, watchdog, net)``.
    """
    from repro.faults.netfaults import ChaosProfile
    from repro.telemetry import Telemetry

    telemetry = Telemetry(enabled=True,
                          flight_capacity=args.flight_capacity)
    chaos = None
    if loss > 0:
        profile = ChaosProfile(seed=args.seed, loss=loss, duplicate=0.1,
                               reorder=0.1, jitter=0.0005)
        chaos = lambda name: profile  # noqa: E731 - per-app profile hook
    net, _, _, watchdog = _run_random_traffic(
        args, telemetry, watchdog=True, channel_retry_budget=12,
        chaos=chaos)
    return telemetry, watchdog, net


def cmd_trace_tree(args) -> int:
    """Render one trace's causal span tree; without a TRACE_ID, list
    every captured trace (id, root span, duration, span count)."""
    from repro.telemetry.causal import (
        build_trace_tree,
        render_tree,
        trace_summaries,
    )

    if args.infile:
        spans = _load_spans(args.infile)
    else:
        telemetry, watchdog, _net = _run_traced_workload(args, args.loss)
        watchdog.stop()
        spans = telemetry.tracer.to_dicts()
    if args.trace_id is None:
        rows = trace_summaries(spans)
        if not rows:
            print("no traced spans captured")
            return 1
        print(f"{len(rows)} trace(s) captured "
              "(repro trace tree <TRACE_ID> for one tree)")
        print(f"{'trace':>8} {'root':<22} {'event':<16} "
              f"{'spans':>5} {'ms':>9}")
        for row in rows[:40]:
            print(f"{row['trace_id']:>8} {row['root']:<22} "
                  f"{str(row['event']):<16} {row['spans']:>5} "
                  f"{row['duration'] * 1000:>9.3f}")
        if len(rows) > 40:
            print(f"... and {len(rows) - 40} more")
        return 0
    roots = build_trace_tree(spans, trace_id=args.trace_id)
    if not roots:
        print(f"trace {args.trace_id} not found")
        return 1
    print(f"trace {args.trace_id}:")
    print(render_tree(roots))
    return 0


def cmd_trace_critical_path(args) -> int:
    """Aggregate critical-path attribution across every captured
    trace: which component the control loop's latency actually sits
    in (app handling, RPC wire time, retransmission backoff, NetLog,
    checkpoint freezes, recovery)."""
    from repro.telemetry.causal import analyze

    watchdog = None
    telemetry = None
    if args.infile:
        spans = _load_spans(args.infile)
    else:
        telemetry, watchdog, _net = _run_traced_workload(args, args.loss)
        spans = telemetry.tracer.to_dicts()
    analysis = analyze(spans)
    if not analysis.attribution:
        print("no traced spans to analyze")
        return 1
    print(analysis.render(args.top))
    if telemetry is not None:
        from repro.telemetry.export import bytes_per_event

        metrics = telemetry.metrics
        derived = bytes_per_event(metrics)
        if derived is not None:
            sent = metrics.counters.get("channel.bytes_sent", 0)
            recv = metrics.counters.get("channel.bytes_recv", 0)
            events = metrics.recorders["span.appvisor.event"].count
            print(f"wire: {sent} B sent, {recv} B delivered, "
                  f"{events} events -> {derived:.1f} bytes/event")
    if watchdog is not None:
        payload = watchdog.healthz_payload()
        watchdog.stop()
        counts = payload["anomaly_counts"]
        summary = (", ".join(f"{kind} x{count}"
                             for kind, count in sorted(counts.items()))
                   or "none")
        print(f"watchdog: score {payload['score']:.2f} "
              f"({payload['status']}); anomalies: {summary}")
    return 0


def cmd_trace_diff(args) -> int:
    """Diff two traces segment by segment: which hot-path span
    (dispatch, RPC, checkpoint, NetLog commit) moved, and by how much."""
    from repro.telemetry.spandiff import (
        check_regression,
        diff_summaries,
        load_summary,
        render_diff,
    )

    base = load_summary(args.baseline)
    cand = load_summary(args.candidate)
    print(render_diff(diff_summaries(base, cand),
                      base_label=args.baseline,
                      cand_label=args.candidate))
    if args.check_regression is not None:
        ok, message = check_regression(base, cand, span=args.span,
                                       threshold=args.check_regression)
        print(("OK   " if ok else "FAIL ") + message)
        return 0 if ok else 1
    return 0


def cmd_serve(args) -> int:
    """Run the quickstart scenario with tracing on, then keep serving
    its metrics over HTTP (/metrics, /healthz, /trace.json)."""
    import time

    from repro.telemetry import Telemetry
    from repro.telemetry.serve import MetricsServer

    telemetry = Telemetry(enabled=True,
                          flight_capacity=args.flight_capacity)
    net, runtime, watchdog, _ = _run_quickstart(args, telemetry,
                                                watchdog=True)

    def health() -> str:
        status = "up" if runtime.is_up else "down"
        return (f"controller={status} sim_time={net.now:.2f}s "
                f"apps={len(runtime.live_apps())}")

    server = MetricsServer(telemetry, port=args.port, health=health,
                           watchdog=watchdog,
                           tickets=lambda: runtime.tickets.all())
    server.start()
    print(f"serving telemetry on {server.url}")
    print(f"  {server.url}/metrics      (Prometheus text)")
    print(f"  {server.url}/healthz      (health score + anomalies)")
    print(f"  {server.url}/trace.json   (spans + critical-path)")
    print(f"  {server.url}/tickets.json (problem tickets + minimized repros)")
    try:
        if args.linger is not None:
            time.sleep(args.linger)
        else:
            print("press Ctrl-C to stop")
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _run_chaos_point(args, loss: float):
    """One chaos run at a given loss rate; returns the stats dict."""
    from repro.faults.netfaults import ChaosProfile

    profile = ChaosProfile(seed=args.seed, loss=loss,
                           burst_loss=args.burst, duplicate=args.dup,
                           reorder=args.reorder, corrupt=args.corrupt,
                           jitter=args.jitter)
    if args.partition:
        start, duration = args.partition
        profile.partition(start, duration)
    net, runtime, _, _ = _run_random_traffic(
        args, channel_retry_budget=args.retry_budget,
        chaos=lambda name: profile)
    channel = runtime.channels["learning_switch"]
    return {
        "loss": loss,
        "reachability": net.reachability(wait=1.0),
        "chaos": profile.stats(),
        "channel": channel.reliability_stats(),
        "channel_suspicions": runtime.proxy.stats()[
            "learning_switch"]["channel_suspicions"],
        "crashes": runtime.stats()["learning_switch"]["crashes"],
    }


def cmd_chaos(args) -> int:
    """Drive the control channel through a hostile network and report
    whether the app layer noticed: delivery stats, reachability, and a
    non-zero exit when reachability misses the --slo floor."""
    points = args.sweep if args.sweep else [args.loss]
    worst = 1.0
    for loss in points:
        result = _run_chaos_point(args, loss)
        chaos, chan = result["chaos"], result["channel"]
        worst = min(worst, result["reachability"])
        print(f"loss={loss:.0%}: reachability "
              f"{result['reachability']:.0%}")
        print(f"  injected : dropped={chaos['dropped']} "
              f"duplicated={chaos['duplicated']} "
              f"reordered={chaos['reordered']} "
              f"corrupted={chaos['corrupted']} "
              f"partition_drops={chaos['partition_drops']}")
        print(f"  repaired : retransmits={chan['retransmits']} "
              f"dups_dropped={chan['dup_datagrams_dropped']} "
              f"corrupt_rejected={chan['corrupt_rejected']} "
              f"abandoned={chan['abandoned']}")
        print(f"  verdict  : channel faults={chan['faults_raised']} "
              f"suspicions={result['channel_suspicions']} "
              f"app crashes={result['crashes']}")
    if worst < args.slo:
        print(f"SLO MISS: worst reachability {worst:.0%} "
              f"< floor {args.slo:.0%}")
        return 1
    print(f"SLO met: worst reachability {worst:.0%} "
          f">= floor {args.slo:.0%}")
    return 0


def _run_byzantine_point(args, tamper: float, mode: str):
    """One Byzantine run: a compromised backup at ``tamper`` fault rate
    under replication mode ``mode``; returns the stats dict."""
    from repro.faults.byzfaults import ByzantineProfile

    profile = None
    if tamper > 0:
        # The liar: r1 tampers frames post-signature and votes
        # fabricated digests, starting after a clean warmup so the
        # detection latency is measurable.
        profile = ByzantineProfile(seed=args.seed, tamper=tamper,
                                   digest_lie=tamper,
                                   start=args.fault_start)
    net, _, replicas, _ = _run_random_traffic(args, replica_options=dict(
        backups=args.backups, repl_mode=mode,
        byzantine=(lambda rid: profile if rid == "r1" else None)))
    stats = replicas.stats()
    stats["tamper"] = tamper
    stats["injected"] = profile.stats() if profile is not None else {}
    stats["divergence"] = replicas.divergence()
    stats["reachability"] = net.reachability(wait=1.0)
    return stats


def cmd_byzantine(args) -> int:
    """Sweep a tamper-rate x replication-mode matrix with a compromised
    backup and report whether the set noticed: signature rejections,
    vote conflicts, quarantines, and mode switches.  Exits non-zero
    when a mode that should detect the liar failed to (or when the
    primary's switch-state divergence is non-zero at the end)."""
    rates = args.sweep if args.sweep else [args.tamper]
    modes = args.modes
    failed = []
    for tamper in rates:
        for mode in modes:
            result = _run_byzantine_point(args, tamper, mode)
            injected = result["injected"]
            did_anything = any(
                injected.get(k, 0) for k in
                ("tampered", "equivocated", "replayed", "digests_lied"))
            print(f"tamper={tamper:.0%} mode={mode}: "
                  f"ended in {result['mode']} "
                  f"(switches={result['mode_switches']})")
            if injected:
                print(f"  injected : tampered={injected['tampered']} "
                      f"digests_lied={injected['digests_lied']} "
                      f"first_at={injected['first_fault_at']}")
            print(f"  detected : sig_rejected={result['sig_rejected']} "
                  f"auth_faults={result['auth_faults']} "
                  f"vote_conflicts={result['vote_conflicts']} "
                  f"quarantines={result['quarantines']}")
            print(f"  verdict  : divergence={result['divergence']} "
                  f"reachability={result['reachability']:.0%} "
                  f"votes confirmed={result['votes_confirmed']} "
                  f"stalls={result['vote_stalls']}")
            # The SLO: the primary's installed state must stay exactly
            # its NetLog's committed state (liars detected, never
            # obeyed), and any mode that can vote must have *noticed*
            # an active liar.
            point = f"tamper={tamper:.0%}/{mode}"
            if result["divergence"] != 0:
                failed.append(f"{point}: divergence "
                              f"{result['divergence']} != 0")
            if (did_anything and mode in ("byzantine", "adaptive")
                    and not (result["sig_rejected"]
                             or result["vote_conflicts"]
                             or result["quarantines"])):
                failed.append(f"{point}: liar went undetected")
    if failed:
        print("SLO MISS:")
        for line in failed:
            print(f"  {line}")
        return 1
    print(f"SLO met: {len(rates) * len(modes)} point(s), "
          "zero divergence, every active liar detected")
    return 0


def cmd_minimize(args) -> int:
    """Record the planted 3-event-dependent crash under chaos, shrink
    it to its minimal causal sequence (STS-style ddmin seeded by the
    failing event's trace), and replay the repro standalone."""
    from repro.debug import minimize_failure, planted_armed_recording

    print(f"recording planted failure (seed {args.seed}, "
          f"loss {args.loss:.0%}, {args.noise} noise events)...")
    harness, recording = planted_armed_recording(
        seed=args.seed, loss=args.loss, noise=args.noise)
    print(f"captured {len(recording.events)} event(s); "
          f"outcome: {recording.signature.describe()}")
    if not recording.signature.failed:
        print("error: the planted scenario did not fail", file=sys.stderr)
        return 2
    repro = minimize_failure(recording, harness)
    print(repro.render())
    replay = harness.replay(repro.minimal_events)
    ok = replay.reproduces(recording.signature)
    print(f"standalone replay: "
          f"{'reproduces the signature' if ok else 'DOES NOT reproduce'} "
          f"({replay.signature.describe()})")
    if recording.ticket is not None and recording.ticket.minimized:
        print(f"attached to problem ticket #{recording.ticket.ticket_id}")
    if args.expect_length is not None and len(repro) != args.expect_length:
        print(f"FAIL: minimized to {len(repro)} event(s), "
              f"expected {args.expect_length}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def cmd_corpus(args) -> int:
    """Run the chaos-correlated bug corpus: E1 bugs x seeded chaos
    cells through the recorded stack, each failure minimized; write or
    verify the committed corpus document."""
    from repro.debug.corpus import check_corpus, corpus_json, run_corpus

    doc = run_corpus(args.preset, seed=args.seed, log=print)
    for cell in doc["cells"]:
        outcome = cell["outcome"]
        sig = outcome["signature"]
        adversity = ", ".join(
            f"{k}={v:g}" for k, v in sorted(cell["adversity"].items())
        ) or "clean"
        min_note = ""
        if "minimized_length" in outcome:
            min_note = (f", minimized {outcome['minimized_length']} "
                        f"(trigger {cell['trigger_length']})")
        print(f"  {cell['bug']} [{cell['kind']}] x {adversity}: "
              f"{sig['kind']}/{sig['failure_kind'] or '-'} "
              f"policy={outcome['recovery_policy'] or '-'}"
              f"{min_note}")
    text = corpus_json(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(doc['cells'])} cells)")
    if args.check:
        ok, lines = check_corpus(doc, args.check)
        for line in lines:
            print(("OK   " if ok else "FAIL ") + line)
        return 0 if ok else 1
    return 0


def cmd_bug_study(args) -> int:
    """Replay a synthetic bug corpus and report the catastrophic rate."""
    from repro.faults import make_bug_corpus

    corpus = make_bug_corpus(n=args.count,
                             catastrophic_fraction=args.catastrophic,
                             seed=args.seed)
    by_kind = {}
    for bug in corpus:
        by_kind[bug.kind.value] = by_kind.get(bug.kind.value, 0) + 1
    print(f"corpus: {args.count} bugs, seed {args.seed}")
    for kind, count in sorted(by_kind.items()):
        print(f"  {kind:<18} {count}")
    catastrophic = sum(1 for b in corpus if b.is_catastrophic())
    deterministic = sum(1 for b in corpus if b.deterministic)
    print(f"catastrophic: {catastrophic}/{args.count} "
          f"({catastrophic / args.count:.0%}) -- paper reports 16%")
    print(f"deterministic: {deterministic}/{args.count}")
    return 0


def cmd_check_policy(args) -> int:
    """Parse a compromise-policy file; print the effective table."""
    from repro.core.crashpad.policy_lang import PolicyParseError, PolicyTable

    try:
        with open(args.file) as fh:
            table = PolicyTable.parse(fh.read())
    except (OSError, PolicyParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"ok: {len(table.rules)} rule(s)")
    print(table.render())
    for app, event in (("firewall", "PacketIn"), ("routing", "SwitchLeave"),
                       ("anything", "PacketIn")):
        print(f"  lookup({app}, {event}) -> "
              f"{table.lookup(app, event).value}")
    return 0


def cmd_show_topology(args) -> int:
    topo = build_topology(args.topology, args.size)
    print(f"{topo.name}: {len(topo.switches)} switches, "
          f"{len(topo.hosts)} hosts, {len(topo.switch_links)} links")
    for a, b in topo.switch_links:
        print(f"  s{a} -- s{b}")
    for host in topo.hosts:
        print(f"  {host.name} ({host.ip}) @ s{host.dpid}")
    return 0


def cmd_bench(args) -> int:
    """Sustained-load harness: synthetic 10^5-10^6 host universes
    driven through the full sharded stack on the sim clock."""
    import dataclasses as _dc

    from repro.bench import PRESETS, check_report, run_scenario

    scenario = PRESETS[args.preset]
    overrides = {}
    for name in ("hosts", "rate", "sim_seconds", "warmup_seconds",
                 "shards", "churn_per_sec", "ceiling_mb",
                 "checkpoint_interval", "crash_at", "seed"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        scenario = _dc.replace(scenario, **overrides)
    print(f"bench {scenario.name}: {scenario.hosts:,} hosts, "
          f"rate {scenario.rate:g}/s, {scenario.sim_seconds:g}s sim, "
          f"K={scenario.shards}, "
          f"interval={scenario.checkpoint_interval}, "
          f"ceiling {scenario.ceiling_mb:g} MB")
    report = run_scenario(scenario, log=print)
    results = report.results
    latency = results.get("latency_ms") or {}
    print(f"  events: {results['events_completed']:,} completed "
          f"({results['events_per_sim_sec']:,} /sim-s), "
          f"{results['events_dropped']} dropped")
    print("  latency ms: " + ", ".join(
        f"{k}={latency[k]:.3f}" for k in ("p50", "p99", "p99_9")
        if k in latency and latency[k] == latency[k]))
    bpe = results.get("bytes_per_event")
    print(f"  wire: {results['bytes_sent']:,} B sent"
          + (f", {bpe:.1f} B/event" if bpe else ""))
    ckpt = results.get("checkpoint") or {}
    if ckpt:
        print(f"  checkpoint: {ckpt.get('taken', 0):,} taken, "
              f"{ckpt.get('bytes_written', 0):,} B written, "
              f"{ckpt.get('encodes_skipped', 0):,} encodes skipped, "
              f"lag {ckpt.get('checkpoint_lag', 0)}")
    if scenario.crash_at > 0 or results.get("crashes"):
        print(f"  crashes: {results.get('crashes', 0)}, "
              f"recoveries: {results.get('recoveries', 0)}")
    print(f"  wall {report.environment['wall_seconds']:.1f}s, "
          f"peak RSS {report.environment['peak_rss_mb']:.0f} MB")
    if report.aborted:
        print(f"  ABORTED: {report.aborted}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {args.out}")
    if args.check:
        with open(args.check) as fh:
            doc = json.load(fh)
        runs = doc.get("runs", [doc])
        # Baselines committed before the named wire format was deleted
        # (PR 17) hold a row per codec: the packed row is this run's.
        baseline = next(
            (run for run in runs
             if run.get("scenario", {}).get("name") == scenario.name
             and run.get("codec", "packed") == "packed"), None)
        if baseline is None:
            print(f"check: no baseline for {scenario.name} "
                  f"in {args.check}", file=sys.stderr)
            return 1
        ok, lines = check_report(baseline, report,
                                 threshold=args.threshold)
        print(f"check vs {args.check} (budget {args.threshold:.0%}):")
        for line in lines:
            print(f"  {line}")
        if not ok:
            return 1
    return 0 if report.completed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LegoSDN reproduction command-line interface",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_topo_args(p):
        p.add_argument("--topology", choices=TOPOLOGIES, default="linear")
        p.add_argument("--size", type=int, default=3)
        p.add_argument("--seed", type=int, default=0)

    def add_flight_args(p):
        p.add_argument("--flight-records", "--flight-capacity",
                       dest="flight_capacity", type=_positive_int,
                       default=128, metavar="N",
                       help="flight-recorder ring size (default 128)")

    p_demo = sub.add_parser("demo", help=cmd_demo.__doc__)
    add_topo_args(p_demo)
    p_demo.set_defaults(func=cmd_demo)

    p_drill = sub.add_parser("drill", help=cmd_drill.__doc__)
    add_topo_args(p_drill)
    p_drill.add_argument("--runtime", choices=("legosdn", "monolithic"),
                         default="legosdn")
    p_drill.add_argument("--mode", choices=("netlog", "buffer"),
                         default="netlog")
    p_drill.add_argument("--apps", nargs="+",
                         default=["learning_switch", "monitor"])
    p_drill.add_argument("--policy", help="compromise-policy file")
    p_drill.add_argument("--duration", type=float, default=10.0)
    p_drill.add_argument("--rate", type=float, default=50.0)
    p_drill.add_argument("--report",
                         help="write a markdown incident report here "
                              "(legosdn runtime only)")
    p_drill.set_defaults(func=cmd_drill)

    p_repl = sub.add_parser("replicate", help=cmd_replicate.__doc__)
    add_topo_args(p_repl)
    add_flight_args(p_repl)
    p_repl.add_argument("--backups", type=_positive_int, default=1,
                        help="warm backup controllers (default 1)")
    p_repl.add_argument("--lease", type=float, default=0.2,
                        help="heartbeat lease timeout, sim seconds "
                             "(default 0.2)")
    p_repl.add_argument("--duration", type=float, default=6.0)
    p_repl.add_argument("--rate", type=float, default=50.0,
                        help="traffic rate, packets/s (default 50)")
    p_repl.add_argument("--churn", type=float, default=1.0,
                        help="host churn rate, events/s (default 1; 0 off)")
    p_repl.set_defaults(func=cmd_replicate)

    p_shard = sub.add_parser("shard", help=cmd_shard.__doc__)
    add_topo_args(p_shard)
    p_shard.add_argument("--shards", type=_positive_int, default=3,
                         help="primary shard count K (default 3)")
    p_shard.add_argument("--backups", type=_positive_int, default=1,
                         help="warm backups per shard (default 1)")
    p_shard.add_argument("--service-time", type=float, default=0.0,
                         help="per-event ingest service time, sim "
                              "seconds (default 0: infinitely fast)")
    p_shard.add_argument("--duration", type=float, default=6.0)
    p_shard.add_argument("--rate", type=float, default=50.0,
                         help="traffic rate, packets/s (default 50)")
    p_shard.add_argument("--churn", type=float, default=1.0,
                         help="host churn rate, events/s (default 1; 0 off)")
    p_shard.add_argument("--kill-shard", type=int, default=None,
                         metavar="K",
                         help="kill this shard's primary mid-run "
                              "(default: no fault)")
    p_shard.add_argument("--freshness", type=float, default=0.5,
                         help="quorum-read staleness bound, sim "
                              "seconds (default 0.5)")
    p_shard.set_defaults(func=cmd_shard)

    p_trace = sub.add_parser("trace", help=cmd_trace.__doc__)
    add_topo_args(p_trace)
    add_flight_args(p_trace)
    p_trace.add_argument("--no-crash", dest="crash", action="store_false",
                         help="skip the injected app crash (healthy trace)")
    p_trace.add_argument("--out", help="write the full trace here")
    p_trace.add_argument("--format", choices=("json", "prom"),
                         default="json",
                         help="output format for --out (default json)")
    p_trace.set_defaults(func=cmd_trace)
    trace_sub = p_trace.add_subparsers(dest="trace_cmd")
    p_diff = trace_sub.add_parser(
        "diff", help=cmd_trace_diff.__doc__)
    p_diff.add_argument("baseline", help="baseline trace JSON "
                        "(repro trace --out, or a span-diff capture)")
    p_diff.add_argument("candidate", help="candidate trace JSON")
    p_diff.add_argument("--span", default="appvisor.event",
                        help="span gated by --check-regression "
                             "(default appvisor.event)")
    p_diff.add_argument("--check-regression", type=float, default=None,
                        metavar="FRACTION",
                        help="exit non-zero if the --span median "
                             "regressed more than FRACTION (e.g. 0.2)")
    p_diff.set_defaults(func=cmd_trace_diff)

    def add_causal_args(p):
        add_topo_args(p)
        add_flight_args(p)
        p.add_argument("--in", dest="infile", default=None, metavar="FILE",
                       help="analyze a saved trace JSON instead of "
                            "running the built-in workload")
        p.add_argument("--loss", type=float, default=0.0,
                       help="chaos loss rate for the built-in workload "
                            "(default 0; E17 uses 0.3)")
        p.add_argument("--duration", type=float, default=4.0,
                       help="workload duration, sim seconds (default 4)")
        p.add_argument("--rate", type=float, default=50.0,
                       help="traffic rate, packets/s (default 50)")

    p_tree = trace_sub.add_parser("tree", help=cmd_trace_tree.__doc__)
    add_causal_args(p_tree)
    p_tree.add_argument("trace_id", nargs="?", type=int, default=None,
                        help="trace to render (omit to list traces)")
    p_tree.set_defaults(func=cmd_trace_tree)

    p_cp = trace_sub.add_parser("critical-path",
                                help=cmd_trace_critical_path.__doc__)
    add_causal_args(p_cp)
    p_cp.add_argument("--top", type=_positive_int, default=10,
                      help="attribution rows to print (default 10)")
    p_cp.set_defaults(func=cmd_trace_critical_path)

    p_serve = sub.add_parser("serve", help=cmd_serve.__doc__)
    add_topo_args(p_serve)
    add_flight_args(p_serve)
    p_serve.add_argument("--port", type=int, default=9464,
                         help="listen port (default 9464; 0 = ephemeral)")
    p_serve.add_argument("--linger", type=float, default=None,
                         help="serve for this many wall seconds then exit "
                              "(default: until Ctrl-C)")
    p_serve.set_defaults(func=cmd_serve)

    def _partition_spec(text):
        try:
            start, duration = (float(part) for part in text.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected START:DURATION, e.g. 1.0:0.5")
        return (start, duration)

    p_chaos = sub.add_parser("chaos", help=cmd_chaos.__doc__)
    add_topo_args(p_chaos)
    p_chaos.add_argument("--loss", type=float, default=0.2,
                         help="datagram loss probability (default 0.2)")
    p_chaos.add_argument("--burst", type=float, default=0.0,
                         help="burst-loss probability (default 0)")
    p_chaos.add_argument("--dup", type=float, default=0.0,
                         help="duplication probability (default 0)")
    p_chaos.add_argument("--reorder", type=float, default=0.0,
                         help="reorder probability (default 0)")
    p_chaos.add_argument("--corrupt", type=float, default=0.0,
                         help="bit-flip probability (default 0)")
    p_chaos.add_argument("--jitter", type=float, default=0.0,
                         help="extra delay jitter, sim seconds (default 0)")
    p_chaos.add_argument("--partition", type=_partition_spec, default=None,
                         metavar="START:DURATION",
                         help="black out the channel for a window, "
                              "e.g. 1.0:0.5")
    p_chaos.add_argument("--retry-budget", type=_positive_int, default=8,
                         help="retransmissions per datagram (default 8)")
    p_chaos.add_argument("--duration", type=float, default=5.0)
    p_chaos.add_argument("--rate", type=float, default=50.0,
                         help="traffic rate, packets/s (default 50)")
    p_chaos.add_argument("--sweep", type=lambda t: [
                             float(x) for x in t.split(",")],
                         default=None, metavar="L1,L2,...",
                         help="sweep these loss rates instead of --loss")
    p_chaos.add_argument("--slo", type=float, default=0.99,
                         help="reachability floor; exit 1 below it "
                              "(default 0.99)")
    p_chaos.set_defaults(func=cmd_chaos)

    p_byz = sub.add_parser("byzantine", help=cmd_byzantine.__doc__)
    add_topo_args(p_byz)
    p_byz.add_argument("--tamper", type=float, default=0.2,
                       help="per-frame tamper/digest-lie probability "
                            "for the compromised backup (default 0.2)")
    p_byz.add_argument("--sweep", type=lambda t: [
        float(x) for x in t.split(",")], default=None,
        metavar="R1,R2,...",
        help="sweep several tamper rates instead of one")
    p_byz.add_argument("--modes", type=lambda t: t.split(","),
                       default=["crash", "byzantine", "adaptive"],
                       metavar="M1,M2,...",
                       help="replication modes to cross with each rate "
                            "(default crash,byzantine,adaptive)")
    p_byz.add_argument("--backups", type=_positive_int, default=3,
                       help="warm backups (default 3: a 4-replica set "
                            "tolerates f=1)")
    p_byz.add_argument("--fault-start", type=float, default=2.0,
                       help="sim time the compromise activates "
                            "(default 2.0; honest before)")
    p_byz.add_argument("--duration", type=float, default=6.0)
    p_byz.add_argument("--rate", type=float, default=50.0,
                       help="traffic rate, packets/s (default 50)")
    p_byz.set_defaults(func=cmd_byzantine)

    p_min = sub.add_parser("minimize", help=cmd_minimize.__doc__)
    p_min.add_argument("--seed", type=int, default=0)
    p_min.add_argument("--loss", type=float, default=0.2,
                       help="chaos loss on the app channel during both "
                            "the recording and every replay probe "
                            "(default 0.2)")
    p_min.add_argument("--noise", type=_positive_int, default=4,
                       help="irrelevant events planted around the "
                            "causal three (default 4)")
    p_min.add_argument("--expect-length", type=_positive_int, default=None,
                       metavar="N",
                       help="exit non-zero unless the minimal sequence "
                            "has exactly N events (CI gate)")
    p_min.set_defaults(func=cmd_minimize)

    from repro.debug.corpus import CORPUS_PRESETS as _corpus_presets
    p_corpus = sub.add_parser("corpus", help=cmd_corpus.__doc__)
    p_corpus.add_argument("--preset", choices=sorted(_corpus_presets),
                          default="smoke")
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.add_argument("--out", default=None,
                          help="write the corpus document here")
    p_corpus.add_argument("--check", default=None, metavar="BASELINE",
                          help="byte-compare against a committed corpus "
                               "document (exit non-zero on drift)")
    p_corpus.set_defaults(func=cmd_corpus)

    p_bugs = sub.add_parser("bug-study", help=cmd_bug_study.__doc__)
    p_bugs.add_argument("--count", type=int, default=100)
    p_bugs.add_argument("--catastrophic", type=float, default=0.16)
    p_bugs.add_argument("--seed", type=int, default=0)
    p_bugs.set_defaults(func=cmd_bug_study)

    p_policy = sub.add_parser("check-policy", help=cmd_check_policy.__doc__)
    p_policy.add_argument("file")
    p_policy.set_defaults(func=cmd_check_policy)

    p_topo = sub.add_parser("show-topology", help=cmd_show_topology.__doc__)
    add_topo_args(p_topo)
    p_topo.set_defaults(func=cmd_show_topology)

    from repro.bench import PRESETS as _bench_presets
    p_bench = sub.add_parser("bench", help=cmd_bench.__doc__)
    p_bench.add_argument("--preset", choices=sorted(_bench_presets),
                         default="smoke")
    p_bench.add_argument("--hosts", type=_positive_int, default=None)
    p_bench.add_argument("--rate", type=float, default=None,
                         help="injected flows per simulated second")
    p_bench.add_argument("--sim-seconds", type=float, default=None,
                         dest="sim_seconds")
    p_bench.add_argument("--warmup-seconds", type=float, default=None,
                         dest="warmup_seconds")
    p_bench.add_argument("--shards", type=_positive_int, default=None)
    p_bench.add_argument("--churn", type=float, default=None,
                         dest="churn_per_sec",
                         help="host re-addressings per simulated second")
    p_bench.add_argument("--ceiling-mb", type=float, default=None,
                         dest="ceiling_mb",
                         help="peak-RSS abort ceiling in MB")
    p_bench.add_argument("--checkpoint-interval", type=_positive_int,
                         default=None, dest="checkpoint_interval",
                         help="events between checkpoints (recovery "
                              "replays the NetLog tail); 1 = per-event")
    p_bench.add_argument("--crash-at", type=float, default=None,
                         dest="crash_at",
                         help="inject one app-crashing packet this many "
                              "sim seconds into the measured window "
                              "(0 = no crash)")
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", default=None,
                         help="write the full report JSON here")
    p_bench.add_argument("--check", default=None, metavar="BASELINE",
                         help="gate against a committed baseline doc "
                              "(exit nonzero on regression)")
    p_bench.add_argument("--threshold", type=float, default=0.15,
                         help="fractional regression budget for --check")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
