"""Scenario presets, the run loop, reports, and the regression gate.

``run_scenario`` drives the full sharded control stack (controller +
AppVisor + replication + shards, via :class:`~repro.shard.
ShardCoordinator`) under a :class:`~repro.bench.loadgen.LoadGenerator`
for a configured stretch of simulated time, in *chunks*: after every
chunk it drains finished spans out of each replica's tracer ring into
a :class:`~repro.bench.hist.StreamingHistogram` (bounded memory, no
matter how long the run) and checks peak RSS against the scenario's
memory ceiling.  A breach stops injection and returns a clean partial
report (``aborted = "memory-ceiling"``) instead of an OOM kill.

Reports split into a **deterministic** part (scenario + results: every
number is a function of the seeds alone, so two runs of one scenario
serialise byte-identically) and an **environment** part (wall time,
peak RSS, python version) that varies per machine.  ``check_report``
compares a fresh run against a committed baseline document -- the
``repro bench --check`` CI gate, sibling of ``span_diff.py check``.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps import LearningSwitch
from repro.bench.hist import StreamingHistogram
from repro.bench.loadgen import LoadGenerator
from repro.bench.synth import HostUniverse, TrafficMix
from repro.network.net import Network
from repro.network.packet import reset_packet_ids, tcp_packet
from repro.network.topology import tree_topology
from repro.openflow.messages import PacketIn, reset_xid_counter
from repro.shard import ShardCoordinator

#: Event-latency span the histogram tracks (one per app event).
EVENT_SPAN = "appvisor.event"

#: Payload sentinel the crash row's app dies on (the offending event
#: is excluded from replay by Crash-Pad, so exactly one crash happens).
CRASH_MARKER = "BENCH-CRASH-MARKER"


class _CrashMarkerSwitch(LearningSwitch):
    """LearningSwitch that crashes on the marker payload.

    The trigger is stateless (a property of the packet, not of
    accumulated state), so recovery's tail replay cannot re-crash: the
    offending event is dropped and every other event replays clean.
    """

    def on_packet_in(self, event):
        payload = getattr(event.packet, "payload", "") or ""
        if CRASH_MARKER in payload:
            raise RuntimeError("bench: injected crash marker")
        return super().on_packet_in(event)


@dataclass(frozen=True)
class BenchScenario:
    """One load-harness configuration, fully seed-determined."""

    name: str
    hosts: int
    rate: float                  # injected flows per simulated second
    sim_seconds: float           # measured window (after warmup)
    warmup_seconds: float = 2.0
    shards: int = 1
    backups: int = 1
    tree_depth: int = 1
    tree_fanout: int = 4
    skew: float = 1.0            # switch-mass Zipf exponent (gravity)
    hot_fraction: float = 0.15   # flows aimed at the hotspot set
    hot_set: int = 32
    churn_per_sec: float = 2.0   # hosts re-addressed per sim second
    service_time: float = 0.0008  # per-event ingest capacity model
    ceiling_mb: float = 1024.0   # peak-RSS ceiling (abort above)
    chunk_seconds: float = 0.5   # drain/ceiling-check cadence
    tick: float = 0.05           # load generator tick
    #: Events between checkpoints (interval/fuzzy checkpointing with
    #: NetLog tail replay on recovery); 1 = the paper's per-event mode.
    checkpoint_interval: int = 8
    #: Sim seconds into the measured window at which one crash-marker
    #: packet is injected (the app hosting it crashes and Crash-Pad
    #: recovers it mid-run); 0 disables the injection.
    crash_at: float = 0.0
    seed: int = 0


PRESETS: Dict[str, BenchScenario] = {
    "smoke": BenchScenario(
        name="smoke", hosts=2_000, rate=40.0, sim_seconds=8.0,
        warmup_seconds=2.0, shards=1, ceiling_mb=1024.0),
    "smoke-crash": BenchScenario(
        name="smoke-crash", hosts=2_000, rate=40.0, sim_seconds=8.0,
        warmup_seconds=2.0, shards=1, ceiling_mb=1024.0,
        checkpoint_interval=8, crash_at=3.0),
    "e19-100k": BenchScenario(
        name="e19-100k", hosts=100_000, rate=120.0, sim_seconds=60.0,
        warmup_seconds=5.0, shards=1, tree_fanout=7, churn_per_sec=5.0,
        ceiling_mb=1024.0),
    "e19-100k-k4": BenchScenario(
        name="e19-100k-k4", hosts=100_000, rate=120.0, sim_seconds=60.0,
        warmup_seconds=5.0, shards=4, tree_fanout=7, churn_per_sec=5.0,
        ceiling_mb=1280.0),
    "e19-1m": BenchScenario(
        name="e19-1m", hosts=1_000_000, rate=150.0, sim_seconds=60.0,
        warmup_seconds=5.0, shards=1, tree_fanout=7, churn_per_sec=8.0,
        ceiling_mb=1536.0),
    "e19-1m-k4": BenchScenario(
        name="e19-1m-k4", hosts=1_000_000, rate=150.0, sim_seconds=60.0,
        warmup_seconds=5.0, shards=4, tree_fanout=7, churn_per_sec=8.0,
        ceiling_mb=1792.0),
}

def default_memory_probe() -> float:
    """Peak RSS of this process in MB (ru_maxrss: KB on Linux,
    bytes on macOS)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


@dataclass
class BenchReport:
    """One run's outcome: deterministic results + local environment."""

    scenario: Dict[str, object]
    results: Dict[str, object]
    environment: Dict[str, object] = field(default_factory=dict)
    aborted: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.aborted is None

    def deterministic_dict(self) -> Dict[str, object]:
        """Everything two identically-seeded runs must agree on."""
        return {
            "scenario": self.scenario,
            "results": self.results,
            "aborted": self.aborted,
        }

    def deterministic_json(self) -> str:
        return json.dumps(self.deterministic_dict(), sort_keys=True,
                          indent=2)

    def to_dict(self) -> Dict[str, object]:
        doc = self.deterministic_dict()
        doc["completed"] = self.completed
        doc["environment"] = self.environment
        return doc


def _drain_spans(telemetries, hist: Optional[StreamingHistogram]) -> int:
    """Move finished spans out of every tracer ring; histogram the
    event-latency ones.  Returns how many event spans were seen."""
    seen = 0
    for telemetry in telemetries:
        if not telemetry.enabled:
            continue
        for span in telemetry.tracer.spans:
            if span.name == EVENT_SPAN:
                seen += 1
                if hist is not None:
                    hist.add(span.duration)
        telemetry.tracer.spans.clear()
    return seen


def _bytes_counters(telemetries) -> Tuple[int, int]:
    sent = recv = 0
    for telemetry in telemetries:
        sent += telemetry.metrics.counters.get("channel.bytes_sent", 0)
        recv += telemetry.metrics.counters.get("channel.bytes_recv", 0)
    return sent, recv


def _checkpoint_stats(coordinator) -> Dict[str, object]:
    keys = ("taken", "full", "delta", "dedup_hits", "bytes_written",
            "value_encodes", "value_decodes", "encodes_skipped",
            "pending", "pending_dropped", "deferred_takes",
            "deferred_drains", "checkpoint_lag")
    agg: Dict[str, object] = {k: 0 for k in keys}
    total_cost = 0.0
    deferred_cost = 0.0
    for handle in coordinator.shards.values():
        runtime = handle.runtime
        if runtime is None:
            continue
        for stub in runtime.stubs.values():
            stats = stub.checkpoints.stats()
            for k in keys:
                agg[k] += stats.get(k, 0)
            total_cost += stats.get("total_cost", 0.0)
            deferred_cost += stats.get("deferred_cost", 0.0)
    agg["total_cost"] = round(total_cost, 9)
    agg["deferred_cost"] = round(deferred_cost, 9)
    return agg


def _crash_totals(coordinator) -> Tuple[int, int]:
    crashes = recoveries = 0
    for handle in coordinator.shards.values():
        runtime = handle.runtime
        if runtime is None:
            continue
        crashes += runtime.total_crashes()
        recoveries += runtime.total_recoveries()
    return crashes, recoveries


def run_scenario(scenario: BenchScenario,
                 memory_probe: Optional[Callable[[], float]] = None,
                 log: Optional[Callable[[str], None]] = None,
                 ) -> BenchReport:
    """Run one scenario; return its report."""
    probe = memory_probe or default_memory_probe
    emit = log or (lambda line: None)
    wall_start = time.time()
    # Fresh id spaces so wire-byte totals are run-reproducible (varint
    # lengths depend on id magnitude).
    reset_xid_counter()
    reset_packet_ids()

    topo = tree_topology(scenario.tree_depth, scenario.tree_fanout,
                         hosts_per_leaf=1)
    net = Network(topo, seed=scenario.seed)
    coordinator = ShardCoordinator(
        net, shards=scenario.shards,
        apps=(_CrashMarkerSwitch if scenario.crash_at > 0
              else LearningSwitch,),
        backups=scenario.backups,
        service_time=scenario.service_time,
        telemetry_enabled=True,
        seed=scenario.seed,
        runtime_kwargs={
            "checkpoint_interval": scenario.checkpoint_interval},
        telemetry_kwargs={"metrics_max_samples": 4096,
                          "max_spans": 60_000},
    )
    coordinator.start()
    universe = HostUniverse(scenario.hosts, sorted(net.switches),
                            seed=scenario.seed, skew=scenario.skew)
    mix = TrafficMix(universe, seed=scenario.seed + 1,
                     hot_fraction=scenario.hot_fraction,
                     hot_set=scenario.hot_set,
                     churn_per_sec=scenario.churn_per_sec)
    generator = LoadGenerator(net.sim, coordinator.owner_controller,
                              mix, rate=scenario.rate,
                              tick=scenario.tick)
    telemetries = [coordinator.telemetry]
    for handle in coordinator.shards.values():
        telemetries.extend(r.telemetry
                           for r in handle.replicas.replicas)

    aborted: Optional[str] = None
    hist = StreamingHistogram()

    def run_chunks(total: float, hist_arg) -> float:
        """Run ``total`` sim seconds in drain/probe chunks;
        returns how much actually ran before any abort."""
        nonlocal aborted
        ran = 0.0
        while ran < total - 1e-9:
            step = min(scenario.chunk_seconds, total - ran)
            net.run_for(step)
            ran += step
            _drain_spans(telemetries, hist_arg)
            used = probe()
            if used > scenario.ceiling_mb:
                aborted = "memory-ceiling"
                generator.stop()
                emit(f"  ! memory ceiling: {used:.0f} MB > "
                     f"{scenario.ceiling_mb:.0f} MB, aborting")
                return ran
        return ran

    # Settle discovery, then warm up with injection running; the
    # warmup's spans and byte counts are discarded.
    net.run_for(0.5)
    generator.start()
    run_chunks(scenario.warmup_seconds, hist_arg=None)
    _drain_spans(telemetries, None)
    warm_offered = generator.events_offered
    warm_ingested = coordinator.total_events_ingested()
    warm_sent, warm_recv = _bytes_counters(telemetries)

    def inject_crash_marker() -> None:
        """One poisoned PacketIn through the normal punt path: the
        hosting app crashes and Crash-Pad recovers it mid-run."""
        src, dst = mix.sample()
        controller = coordinator.owner_controller(src.dpid)
        if controller is None:
            return
        packet = tcp_packet(src.mac, dst.mac, src.ip, dst.ip,
                            src_port=10000 + src.idx % 5000,
                            dst_port=80, size=64,
                            payload=CRASH_MARKER)
        controller.handle_switch_message(
            src.dpid,
            PacketIn(dpid=src.dpid, in_port=src.port, packet=packet))

    measured = 0.0
    if aborted is None:
        emit(f"  warmup done ({scenario.warmup_seconds:.0f}s sim); "
             f"measuring {scenario.sim_seconds:.0f}s sim")
        if scenario.crash_at > 0:
            net.sim.schedule(scenario.crash_at, inject_crash_marker)
        measured = run_chunks(scenario.sim_seconds, hist)
    generator.stop()
    _drain_spans(telemetries, hist if measured > 0 else None)

    sent, recv = _bytes_counters(telemetries)
    bytes_sent = sent - warm_sent
    bytes_recv = recv - warm_recv
    events = hist.count
    latency = {
        key: (round(value * 1000.0, 6)
              if key not in ("count",) else value)
        for key, value in hist.summary().items()
    }
    spans_dropped = sum(getattr(t.tracer, "dropped", 0)
                        for t in telemetries if t.enabled)
    results: Dict[str, object] = {
        "sim_seconds_measured": round(measured, 6),
        "events_offered": generator.events_offered - warm_offered,
        "events_dropped": generator.events_dropped,
        "events_ingested": (coordinator.total_events_ingested()
                            - warm_ingested),
        "events_completed": events,
        "events_per_sim_sec": (round(events / measured, 3)
                               if measured > 0 else 0.0),
        "latency_ms": latency,
        "bytes_sent": bytes_sent,
        "bytes_recv": bytes_recv,
        "bytes_per_event": (round(bytes_sent / events, 2)
                            if events else None),
        "hosts_churned": mix.churned,
        "spans_dropped": spans_dropped,
        "checkpoint": _checkpoint_stats(coordinator),
    }
    crashes, recoveries = _crash_totals(coordinator)
    results["crashes"] = crashes
    results["recoveries"] = recoveries

    report = BenchReport(
        scenario=dataclasses.asdict(scenario),
        results=results,
        aborted=aborted,
        environment={
            "wall_seconds": round(time.time() - wall_start, 3),
            "peak_rss_mb": round(probe(), 1),
            "ceiling_mb": scenario.ceiling_mb,
            "python": platform.python_version(),
        },
    )
    return report


# -- the regression gate ----------------------------------------------


def check_report(baseline: Dict[str, object], candidate: BenchReport,
                 threshold: float = 0.15) -> Tuple[bool, List[str]]:
    """Gate a fresh run against a committed baseline document entry.

    Fails when throughput drops, tail latency rises, or bytes/event
    rises by more than ``threshold`` (fractional), or when the
    candidate's latency summary contradicts itself (a quantile above a
    higher one, or above ``max``; the frozen baseline is not judged).
    Returns (ok, human-readable check lines).
    """
    lines: List[str] = []
    ok = True
    base = baseline["results"]
    cand = candidate.results

    def check(label: str, base_v, cand_v, higher_is_better: bool):
        nonlocal ok
        if not base_v or base_v <= 0 or cand_v is None:
            lines.append(f"SKIP {label}: no baseline")
            return
        ratio = cand_v / base_v
        if higher_is_better:
            good = ratio >= 1.0 - threshold
        else:
            good = ratio <= 1.0 + threshold
        if not good:
            ok = False
        lines.append(f"{'OK  ' if good else 'FAIL'} {label}: "
                     f"{base_v} -> {cand_v} ({ratio:.2f}x, "
                     f"budget {threshold:.0%})")

    if candidate.aborted:
        ok = False
        lines.append(f"FAIL run aborted: {candidate.aborted}")
    check("events/sec", base.get("events_per_sim_sec"),
          cand.get("events_per_sim_sec"), higher_is_better=True)
    check("p99 latency", (base.get("latency_ms") or {}).get("p99"),
          (cand.get("latency_ms") or {}).get("p99"),
          higher_is_better=False)
    check("bytes/event", base.get("bytes_per_event"),
          cand.get("bytes_per_event"), higher_is_better=False)
    latency = cand.get("latency_ms") or {}
    ladder = [latency[key] for key in ("p50", "p99", "p99_9", "max")
              if key in latency]
    if any(lower > upper for lower, upper in zip(ladder, ladder[1:])):
        ok = False
        lines.append(f"FAIL latency order p50 <= p99 <= p99.9 <= max: "
                     f"{ladder}")
    return ok, lines
