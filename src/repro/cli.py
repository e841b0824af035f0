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
- ``check-policy``  -- validate a compromise-policy file
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.network.topology import TOPOLOGIES, build_topology
from repro.scenario import Scenario, Step, play, run
from repro.stack import StackSpec, build_stack
from repro.version import __version__


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _spec(args, traced=False, **spec):
    """The deployment ``spec`` (a StackSpec's other fields) describes on
    the command's ``--topology``/``--size``, with its one ``--seed``;
    ``traced`` turns telemetry on with a ``--flight-records`` ring."""
    if traced:
        spec["telemetry"] = {"flight_capacity": args.flight_capacity}
    return StackSpec(topology=build_topology(args.topology, args.size),
                     seed=args.seed, **spec)


def _quickstart(args, traced=False, crash=True, watchdog=False):
    """The quickstart scenario ``demo``, ``trace`` and ``serve`` share:
    a LearningSwitch that crashes on a ``BOOM`` payload, healthy
    traffic first (a reachability probe at 1.5 s, so a trace shows
    complete control-loop transits), then -- with ``crash`` -- the
    marker, once the reactive flows idled out so it punts to the
    controller (and the app), and the recovery."""
    from repro.apps import LearningSwitch
    from repro.faults import crash_on

    app = LearningSwitch()
    if crash:
        app = crash_on(app, payload_marker="BOOM")
    spec = _spec(args, traced, apps=(app,), watchdog=watchdog)
    steps = [Step(1.5, "reachability")]
    until = None
    if crash:
        hosts = sorted(host.name for host in spec.topology.hosts)
        at = 1.5 + 0.5 + (LearningSwitch.IDLE_TIMEOUT + 1.0)
        steps.append(Step(at, "marker_packet", {
            "src": hosts[0], "dst": hosts[-1], "marker": "BOOM"}))
        until = at + 2.0
    return Scenario(spec=spec, steps=tuple(steps), until=until)


def _random_traffic(args, spec):
    """The load scenario the causal ``trace`` commands, ``chaos`` and
    ``byzantine`` share, on a stack hosting a LearningSwitch: a 1 s
    warm-up, random traffic for 0.7 x ``--duration``, the run."""
    traffic = Step(1.0, "traffic", dict(
        duration=args.duration * 0.7, rate=args.rate, seed=args.seed,
        selection="random"))
    return Scenario(spec=spec, steps=(traffic,), until=1.0 + args.duration)


def _under_load(args, spec, fault=None):
    """The scenario ``replicate`` and ``shard`` share: a 1.5 s warm-up,
    traffic and (on more than two hosts) host churn for ``--duration``,
    a ``fault`` step's ``(kind, args)`` (if any) 0.4 x ``--duration``
    in, the run to 1 s past the load."""
    load = dict(duration=args.duration, rate=args.rate, seed=args.seed)
    steps = [Step(1.5, "traffic", load)]
    if len(spec.topology.hosts) > 2 and args.churn > 0:
        steps.append(Step(1.5, "churn", dict(load, rate=args.churn)))
    fault_at = 1.5 + args.duration * 0.4
    if fault is not None:
        steps.append(Step(fault_at, *fault))
    return Scenario(spec=spec, steps=tuple(steps),
                    until=fault_at + (args.duration * 0.6 + 1.0))


def cmd_demo(args) -> int:
    """The quickstart scenario: contain a crash, recover, show a ticket."""
    stack, seen = run(_quickstart(args))
    healthy = seen["reachability"][0]
    net, runtime = stack.net, stack.runtime
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
    from functools import partial

    from repro.apps import make_app
    from repro.core.crashpad.policy_lang import PolicyTable
    from repro.core.runtime import RuntimeConfig

    monolithic = args.runtime == "monolithic"
    config = None       # the monolithic baseline
    if not monolithic:
        policy_table = None
        if args.policy:
            with open(args.policy) as fh:
                policy_table = PolicyTable.parse(fh.read())
        config = RuntimeConfig(policy_table=policy_table, mode=args.mode)
    # The baseline restarts an app by re-instantiating it: factories.
    apps = tuple(partial(make_app, name) if monolithic else make_app(name)
                 for name in args.apps)
    spec = _spec(args, apps=apps, runtime=config)
    # Traffic after a 1.5 s warm-up; the first link flaps at 0.3 and
    # 0.6 x --duration (absolute: a short drill flaps it mid-warm-up).
    steps = [Step(1.5, "traffic", dict(duration=args.duration * 0.8,
                                       rate=args.rate))]
    dpids = list(spec.topology.switches)
    if len(dpids) >= 2:
        link = {"dpid_a": dpids[0], "dpid_b": dpids[1]}
        steps += [Step(args.duration * 0.3, "link_down", link),
                  Step(args.duration * 0.6, "link_up", link)]
    stack, _ = run(Scenario(spec=spec, steps=tuple(steps),
                            until=1.5 + args.duration))
    net, runtime = stack.net, stack.runtime
    print(f"drill complete at t={net.now:.1f}s")
    print(f"  controller up:  {not net.controller.crashed}")
    print(f"  reachability:   {net.reachability(wait=1.0):.0%}")
    if not monolithic:
        for name, stats in sorted(runtime.stats().items()):
            print(f"  {name}: {stats}")
        print(f"  tickets: {len(runtime.tickets)}")
    else:
        print(f"  controller crashes: {runtime.crash_count}, "
              f"restarts: {runtime.restart_count}")
    return 0


def cmd_replicate(args) -> int:
    """Controller HA walk-through: kill the primary mid-workload and
    watch a warm backup take over without losing the apps."""
    from repro.apps import LearningSwitch

    stack, seen = run(_under_load(args, _spec(
        args, traced=True, apps=(LearningSwitch(),), backups=args.backups,
        replica_options={"lease_timeout": args.lease}), ("kill_primary",)))
    net, replicas = stack.net, stack.replicas
    kill = seen["kill_primary"][0]
    print(f"t={kill['at']:.2f}s: killing primary {kill['victim']} "
          f"(epoch {kill['epoch']}, {kill['ship_index']} records shipped)")
    for fo in replicas.failovers:
        print(f"  failover -> epoch {fo.epoch}: {fo.from_replica} -> "
              f"{fo.to_replica} in {fo.duration * 1000:.0f} ms "
              f"(orphans rolled back: {fo.orphan_txns}, "
              f"tail replayed: {fo.replayed_records})")
    divergence = replicas.divergence()
    churn = seen.get("churn", [None])[0]
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
    from repro.shard import ShardReadGateway

    victim = args.kill_shard
    scenario = _under_load(args, _spec(
        args, apps=(LearningSwitch,), backups=args.backups,
        shards=args.shards, service_time=args.service_time,
        telemetry={}),      # tracing on, default settings
        None if victim is None else ("kill_shard_primary", {"shard": victim}))
    stack = build_stack(scenario.spec)
    net, coordinator = stack.net, stack.coordinator
    stack.start()
    print(f"sharded plane up: {args.shards} shards over "
          f"{len(net.switches)} switches")
    for shard_id, handle in sorted(coordinator.shards.items()):
        print(f"  shard {shard_id}: dpids {handle.dpids} "
              f"(primary {handle.primary.replica_id}, "
              f"{args.backups} backup(s))")
    if victim is not None and victim not in coordinator.shards:
        print(f"error: no shard {victim} "
              f"(valid: {sorted(coordinator.shards)})")
        return 2
    seen = play(stack, scenario.steps, scenario.until)
    if victim is not None:
        kill = seen["kill_shard_primary"][0]
        print(f"t={kill['at']:.2f}s: killing shard {victim}'s primary "
              f"{kill['victim']}")

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
    churn = seen.get("churn", [None])[0]
    up = churn.up_hosts() if churn else sorted(net.hosts)
    pairs = [(a, b) for a in up for b in up if a != b]
    reach = net.reachability(pairs=pairs, wait=1.0)
    ok = ok and reach == 1.0
    print(f"  reachability: {reach:.0%}")
    return 0 if ok else 1


def cmd_trace(args) -> int:
    """Run the quickstart scenario with tracing enabled; print the
    per-seam span summary and optionally save the full trace."""
    from repro.telemetry.export import write_trace

    stack, _ = run(_quickstart(args, traced=True, crash=args.crash))
    net, runtime, telemetry = stack.net, stack.runtime, stack.telemetry
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


def _traced_spans(args):
    """The spans ``trace critical-path`` analyzes: a saved trace document
    (``--in``; or a bare span list), or a short traced workload's.

    The workload mirrors the E17 adverse-network setup: reliable batched
    channels, optional chaos at ``--loss`` (with 10% dup/reorder and
    delay jitter), random traffic, and a HealthWatchdog sweeping
    invariants against ground truth.  Returns ``(spans, stack or None)``.
    """
    from repro.apps import LearningSwitch
    from repro.core.runtime import RuntimeConfig

    if args.infile:
        with open(args.infile) as fh:
            doc = json.load(fh)
        return (doc["spans"] if isinstance(doc, dict) else doc), None
    chaos = None
    if args.loss > 0:
        chaos = dict(loss=args.loss, duplicate=0.1, reorder=0.1,
                     jitter=0.0005)
    stack, _ = run(_random_traffic(args, _spec(
        args, traced=True, apps=(LearningSwitch(),),
        runtime=RuntimeConfig(channel_retry_budget=12), chaos=chaos,
        watchdog=True)))
    stack.watchdog.stop()
    return stack.telemetry.tracer.to_dicts(), stack


def cmd_trace_critical_path(args) -> int:
    """Aggregate critical-path attribution across every captured
    trace: which component the control loop's latency actually sits
    in (app handling, RPC wire time, retransmission backoff, NetLog,
    checkpoint freezes, recovery)."""
    from repro.telemetry.causal import analyze

    spans, stack = _traced_spans(args)
    analysis = analyze(spans)
    if not analysis.attribution:
        print("no traced spans to analyze")
        return 1
    print(analysis.render(args.top))
    if stack is not None:
        from repro.telemetry.export import bytes_per_event

        metrics = stack.telemetry.metrics
        derived = bytes_per_event(metrics)
        if derived is not None:
            sent = metrics.counters.get("channel.bytes_sent", 0)
            recv = metrics.counters.get("channel.bytes_recv", 0)
            events = metrics.recorders["span.appvisor.event"].count
            print(f"wire: {sent} B sent, {recv} B delivered, "
                  f"{events} events -> {derived:.1f} bytes/event")
        payload = stack.watchdog.healthz_payload()
        counts = payload["anomaly_counts"]
        summary = (", ".join(f"{kind} x{count}"
                             for kind, count in sorted(counts.items()))
                   or "none")
        print(f"watchdog: score {payload['score']:.2f} "
              f"({payload['status']}); anomalies: {summary}")
    return 0


def cmd_serve(args) -> int:
    """Run the quickstart scenario with tracing on, then keep serving
    its metrics over HTTP (/metrics, /healthz, /trace.json)."""
    import time

    from repro.telemetry.serve import MetricsServer

    stack, _ = run(_quickstart(args, traced=True, watchdog=True))
    net, runtime, telemetry = stack.net, stack.runtime, stack.telemetry

    def health() -> str:
        status = "up" if runtime.is_up else "down"
        return (f"controller={status} sim_time={net.now:.2f}s "
                f"apps={len(runtime.live_apps())}")

    server = MetricsServer(telemetry, port=args.port, health=health,
                           watchdog=stack.watchdog,
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


def cmd_chaos(args) -> int:
    """Drive the control channel through a hostile network and report
    whether the app layer noticed: delivery stats, reachability, and a
    non-zero exit when reachability misses the --slo floor."""
    from repro.apps import LearningSwitch
    from repro.core.runtime import RuntimeConfig

    points = args.sweep if args.sweep else [args.loss]
    worst = 1.0
    for loss in points:
        scenario = _random_traffic(args, _spec(
            args, apps=(LearningSwitch(),),
            runtime=RuntimeConfig(channel_retry_budget=args.retry_budget),
            chaos=dict(loss=loss, burst_loss=args.burst, duplicate=args.dup,
                       reorder=args.reorder, corrupt=args.corrupt,
                       jitter=args.jitter)))
        stack = build_stack(scenario.spec)
        if args.partition:
            # A loss window every datagram reads, not an event on the clock.
            stack.chaos.partition(*args.partition)
        stack.start()
        play(stack, scenario.steps, scenario.until)
        reachability = stack.net.reachability(wait=1.0)
        chaos = stack.chaos.stats()
        chan = stack.runtime.channels["learning_switch"].reliability_stats()
        app = stack.runtime.stats()["learning_switch"]
        worst = min(worst, reachability)
        print(f"loss={loss:.0%}: reachability {reachability:.0%}")
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
              f"suspicions={app['channel_suspicions']} "
              f"app crashes={app['crashes']}")
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
    from repro.apps import LearningSwitch
    from repro.faults.byzfaults import ByzantineProfile

    profile = None
    if tamper > 0:
        # The liar: r1 tampers frames post-signature and votes
        # fabricated digests, starting after a clean warmup so the
        # detection latency is measurable.
        profile = ByzantineProfile(seed=args.seed, tamper=tamper,
                                   digest_lie=tamper,
                                   start=args.fault_start)
    stack, _ = run(_random_traffic(args, _spec(
        args, apps=(LearningSwitch(),), backups=args.backups,
        replica_options=dict(
            repl_mode=mode,
            byzantine=(lambda rid: profile if rid == "r1" else None)))))
    replicas = stack.replicas
    stats = replicas.stats()
    stats["tamper"] = tamper
    stats["injected"] = profile.stats() if profile is not None else {}
    stats["divergence"] = replicas.divergence()
    stats["reachability"] = stack.net.reachability(wait=1.0)
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
    unreplayed = 0
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
        if "replayed_signature" in outcome:
            replayed = outcome["replayed_signature"]
            unreplayed += 1
            min_note = (f", DOES NOT replay (replays as {replayed['kind']}/"
                        f"{replayed['failure_kind'] or '-'})")
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
        if not ok:
            return 1
    if unreplayed:
        print(f"error: {unreplayed} recorded failure(s) did not replay "
              "to their own signature", file=sys.stderr)
        return 1
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
        baseline = next(
            (run for run in doc.get("runs", [doc])
             if run.get("scenario", {}).get("name") == scenario.name), None)
        if baseline is None:
            print(f"check: no baseline for {scenario.name} "
                  f"in {args.check}", file=sys.stderr)
            return 1
        ok, lines = check_report(baseline, report)
        print(f"check vs {args.check}:")
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

    p_cp = trace_sub.add_parser("critical-path",
                                help=cmd_trace_critical_path.__doc__)
    add_topo_args(p_cp)
    add_flight_args(p_cp)
    p_cp.add_argument("--in", dest="infile", default=None, metavar="FILE",
                      help="analyze a saved trace JSON instead of "
                           "running the built-in workload")
    p_cp.add_argument("--loss", type=float, default=0.0,
                      help="chaos loss rate for the built-in workload "
                           "(default 0; E17 uses 0.3)")
    p_cp.add_argument("--duration", type=float, default=4.0,
                      help="workload duration, sim seconds (default 4)")
    p_cp.add_argument("--rate", type=float, default=50.0,
                      help="traffic rate, packets/s (default 50)")
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

    p_policy = sub.add_parser("check-policy", help=cmd_check_policy.__doc__)
    p_policy.add_argument("file")
    p_policy.set_defaults(func=cmd_check_policy)

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
                         help="compare results with a committed baseline "
                              "doc (exit nonzero if any key moved)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
