"""The frozen workloads and the stacks they run on.

Everything here goes through the benchmark's *frozen surface* (listed
in the README): ``Network``, ``tree_topology``, ``ShardCoordinator``,
``MonolithicRuntime``, ``HostUniverse``/``TrafficMix``/``LoadGenerator``,
``crash_on``, the id-counter resets and public ``stats()`` accessors.
No knob slated for deletion and no ``_private`` name is touched, so the
stack can be refactored underneath without editing this directory.

Load is open-loop on the *simulated* clock: the generator offers the
same seed-determined events however slowly the stack digests them, so
one (workload, seed, seconds) triple is a fixed amount of work and
throughput is that work divided by host time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps import LearningSwitch
from repro.bench import HostUniverse, LoadGenerator, TrafficMix
from repro.controller.monolithic import MonolithicRuntime
from repro.faults import crash_on
from repro.network.net import Network
from repro.network.packet import reset_packet_ids, tcp_packet
from repro.network.topology import tree_topology
from repro.openflow.messages import PacketIn, reset_xid_counter
from repro.shard import ShardCoordinator

#: ``BENCHMARK.json``'s ``run_seconds``: each workload's ``sim_seconds``
#: is the simulated stretch that takes about this long on the reference
#: box at the commit that froze it; ``--seconds`` scales it linearly.
RUN_SECONDS = 12

#: Per-ingest capacity model of every controller (sim seconds).
SERVICE_TIME = 0.0008
#: Discovery settle before the generator starts, then generator-on
#: warm-up (sim seconds); both are part of ``setup_s``.
SETTLE = 0.5
WARMUP = 2.0
#: Generator-off drain after the measured window, in steps of this
#: many sim seconds, until one step completes no event.
DRAIN = 1.0
MAX_DRAIN_STEPS = 120
#: Equal sim-time slices the measured window is stepped in.
SLICES = 200

#: ``--seed`` draws the traffic (``TrafficMix``) and seeds the
#: simulator (``Network``).  *Placement* -- which switch carries which
#: share of the hosts (``HostUniverse``) and which shard owns which
#: switch (``ShardRouter``) -- is part of the workload's definition and
#: frozen: it decides punt amplification and how much of the fabric an
#: outage takes down, so varying it changes which workload runs (it
#: moved sharded-failover's events_per_wall_s by 6.5% between seeds,
#: against 2% with placement fixed).
PLACEMENT_SEED = 0

CRASH_MARKER = "WALLBENCH-CRASH-MARKER"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Measured window in sim seconds at ``--seconds == RUN_SECONDS``.
    sim_seconds: float
    hosts: int = 2_000
    rate: float = 40.0          # flows offered per sim second
    fanout: int = 4             # depth-1 tree: 1 root + fanout leaves
    shards: int = 1             # 0 = MonolithicRuntime, no AppVisor
    backups: int = 1
    checkpoint_interval: int = 8
    #: One crash-marker PacketIn this often (sim seconds); 0 = never.
    marker_every: float = 0.0
    #: Kill shard 0's primary this far into the window (fraction).
    kill_at: float = 0.0
    #: Self-test only: the app crashes on *every* PacketIn, so however
    #: often Crash-Pad restores it no event ever completes and the
    #: output checks must fail.
    always_crash: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="steady", sim_seconds=34.0,
        why="headline path ingest->dispatch->RPC->app->NetLog->ship->"
            "deferred checkpoint: codec and AppVisor channel dominate, "
            "long enough for table growth to show in the p95 slice"),
    Workload(
        name="monolithic", sim_seconds=1100.0, shards=0,
        why="paper Fig. 1 baseline and the bypass workload: no codec, "
            "channel, NetLog, checkpoint or replication runs, so their "
            "optimisations must show no change here"),
    Workload(
        name="crash-recover", sim_seconds=8.0, hosts=20_000, rate=80.0,
        checkpoint_interval=1, marker_every=0.25,
        why="per-event checkpoints and a crash every 0.25 sim-s: "
            "Crash-Pad take/restore and state-value encoding dominate, "
            "the codec used the other way round from steady"),
    Workload(
        name="sharded-failover", sim_seconds=8.0, hosts=20_000,
        rate=120.0, fanout=7, shards=4, backups=2, kill_at=1 / 3,
        why="K=4 shards x 2 backups with shard 0's primary killed a "
            "third in: replication shipping, HMAC stamps, election and "
            "HRW routing carry 2x steady's per-event work"),
)}

#: Not in BENCHMARK.json: exists so the self-test can watch the output
#: checks reject a run whose app never recovers.
SELFTEST_DEAD_APP = Workload(
    name="selftest-dead-app", sim_seconds=2.0, always_crash=True,
    why="self-test: every PacketIn crashes the app; checks must fail")


def lookup(name: str) -> Workload:
    if name == SELFTEST_DEAD_APP.name:
        return SELFTEST_DEAD_APP
    return WORKLOADS[name]


#: Proxy-side per-app counters that restart at zero on a promoted
#: replica's runtime and therefore need carrying across a failover.
_PROXY_KEYS = ("dispatched", "completed", "skipped", "crashes",
               "recoveries")


def _unfinished(totals: Dict[str, int]) -> int:
    """Events a proxy dispatched that neither completed nor were
    skipped by Crash-Pad policy."""
    return totals["dispatched"] - totals["completed"] - totals["skipped"]


class Stack:
    """One built and started deployment plus its load generator."""

    def __init__(self, workload: Workload, seed: int,
                 telemetry: bool = False):
        self.workload = w = workload
        # Fresh id spaces: wire-byte totals depend on id magnitude.
        reset_xid_counter()
        reset_packet_ids()
        self.net = Network(tree_topology(1, w.fanout, hosts_per_leaf=1),
                           seed=seed)
        self.coordinator = None
        self.monolithic = None
        if w.shards == 0:
            self.net.controller.service_time = SERVICE_TIME
            self.monolithic = MonolithicRuntime(self.net.controller)
            self.app = self.monolithic.launch_app(LearningSwitch)
            self.net.start()
            controller_for = lambda dpid: self.net.controller  # noqa: E731
        else:
            self.coordinator = ShardCoordinator(
                self.net, shards=w.shards, apps=(self._app_factory(),),
                backups=w.backups, service_time=SERVICE_TIME,
                telemetry_enabled=telemetry, seed=PLACEMENT_SEED,
                runtime_kwargs={
                    "checkpoint_interval": w.checkpoint_interval})
            self.coordinator.start()
            controller_for = self.coordinator.owner_controller
        self.controller_for = controller_for
        universe = HostUniverse(w.hosts, sorted(self.net.switches),
                                seed=PLACEMENT_SEED)
        self.mix = TrafficMix(universe, seed=seed + 1, hot_fraction=0.15,
                              hot_set=32, churn_per_sec=2.0)
        self.generator = LoadGenerator(self.net.sim, controller_for,
                                       self.mix, rate=w.rate)
        self.markers_injected = 0
        self._faults_armed = False
        #: Every UdpChannel ever reachable, by identity: a failover
        #: re-wires replication channels and the old objects (with
        #: their byte counters) would otherwise be lost.
        self._channels: Dict[int, tuple] = {}
        #: Proxy counters of runtimes retired by a failover:
        #: (runtime, totals snapshotted just before its primary died).
        self._retired: List[tuple] = []
        self.backup_lag_max = 0
        self.entries_max = 0
        self._collect_channels()

    def _app_factory(self):
        w = self.workload
        if w.always_crash:
            return lambda: crash_on(LearningSwitch())
        if w.marker_every > 0:
            return lambda: crash_on(LearningSwitch(),
                                    payload_marker=CRASH_MARKER)
        return LearningSwitch

    # -- driving --------------------------------------------------------

    def warm_up(self) -> None:
        self.net.run_for(SETTLE)
        self.generator.start()
        self.net.run_for(WARMUP)

    def arm_faults(self, window: float) -> None:
        """Schedule this workload's faults relative to *now* (the start
        of the measured window)."""
        w = self.workload
        self._faults_armed = True
        if w.marker_every > 0:
            self.net.sim.schedule(w.marker_every / 2, self._marker_tick)
        if w.kill_at > 0:
            self.net.sim.schedule(w.kill_at * window, self._kill_shard0)

    def run_for(self, sim_seconds: float) -> None:
        self.net.run_for(sim_seconds)

    def drain(self) -> None:
        """Stop offering load and run until the backlog is gone: until
        a whole ``DRAIN`` step completes nothing new.  (crash-recover
        is offered more than its modelled capacity, so its queue at
        the end of the window is minutes of events deep.)"""
        self.generator.stop()
        self._faults_armed = False
        done = self.counts()["completed"]
        for _ in range(MAX_DRAIN_STEPS):
            self.net.run_for(DRAIN)
            before, done = done, self.counts()["completed"]
            if done == before:
                return

    def _marker_tick(self) -> None:
        if not self._faults_armed:
            return
        src, dst = self.mix.sample()
        controller = self.controller_for(src.dpid)
        if controller is not None:
            packet = tcp_packet(src.mac, dst.mac, src.ip, dst.ip,
                                src_port=10000 + src.idx % 5000,
                                dst_port=80, size=64,
                                payload=CRASH_MARKER)
            controller.handle_switch_message(
                src.dpid, PacketIn(dpid=src.dpid, in_port=src.port,
                                   packet=packet))
            self.markers_injected += 1
        self.net.sim.schedule(self.workload.marker_every,
                              self._marker_tick)

    def _kill_shard0(self) -> None:
        handle = self.coordinator.shards[0]
        self._retired.append((handle.runtime,
                              self._proxy_totals(handle.runtime)))
        self.coordinator.crash_shard_primary(0)

    # -- counters -------------------------------------------------------

    def _runtimes(self) -> list:
        if self.coordinator is None:
            return []
        return [h.runtime for h in self.coordinator.shards.values()
                if h.runtime is not None]

    @staticmethod
    def _proxy_totals(runtime) -> Dict[str, int]:
        totals = dict.fromkeys(_PROXY_KEYS, 0)
        for per_app in runtime.stats().values():
            for key in _PROXY_KEYS:
                totals[key] += per_app[key]
        return totals

    def _collect_channels(self) -> None:
        if self.coordinator is None:
            return
        for handle in self.coordinator.shards.values():
            for replica in handle.replicas.replicas:
                if replica.channel is not None:
                    self._channels.setdefault(
                        id(replica.channel), ("repl", replica.channel))
        for runtime in self._runtimes():
            for channel in runtime.channels.values():
                self._channels.setdefault(id(channel), ("app", channel))

    def counts(self) -> Dict[str, float]:
        """Every seed-determined counter the benchmark reads, as
        running totals since the stack was built.  ``stuck`` events sit
        unfinished on a live proxy; ``outage_stuck`` ones were in
        flight on a primary the workload killed."""
        c: Dict[str, float] = dict.fromkeys((
            "offered", "dropped", "ingested", "forwarded", *_PROXY_KEYS,
            "app_frames", "app_bytes", "app_datagrams", "repl_frames",
            "repl_bytes", "repl_datagrams", "retransmits", "takes",
            "take_bytes", "value_encodes", "encodes_skipped",
            "take_sim_cost", "failovers", "stuck", "outage_stuck"), 0)
        c["offered"] = self.generator.events_offered
        c["dropped"] = self.generator.events_dropped
        c["markers"] = self.markers_injected
        c["sim_callbacks"] = self.net.sim.events_processed
        if self.coordinator is None:
            controller = self.net.controller
            c["ingested"] = controller.events_ingested
            c["dispatched"] = c["completed"] = self.app.events_handled
            return c
        for handle in self.coordinator.shards.values():
            c["failovers"] += len(handle.replicas.failovers)
            for replica in handle.replicas.replicas:
                c["ingested"] += replica.controller.events_ingested
                c["forwarded"] += replica.controller.events_forwarded
        live = self._runtimes()
        for runtime in live:
            totals = self._proxy_totals(runtime)
            c["stuck"] += _unfinished(totals)
            for key, value in totals.items():
                c[key] += value
            for stub in runtime.stubs.values():
                stats = stub.checkpoints.stats()
                c["takes"] += stats["taken"]
                c["take_bytes"] += stats["bytes_written"]
                c["value_encodes"] += stats["value_encodes"]
                c["encodes_skipped"] += stats["encodes_skipped"]
                c["take_sim_cost"] += stats["total_cost"]
        for runtime, totals in self._retired:
            # A killed primary's proxy keeps counting until promotion
            # shuts it down; its snapshot stands in only after that.
            if not any(runtime is r for r in live):
                c["outage_stuck"] += _unfinished(totals)
                for key, value in totals.items():
                    c[key] += value
        self._collect_channels()
        for kind, channel in self._channels.values():
            ends = (channel.proxy_end, channel.stub_end)
            c[kind + "_frames"] += sum(e.frames_sent for e in ends)
            c[kind + "_bytes"] += sum(e.bytes_sent for e in ends)
            c[kind + "_datagrams"] += channel.datagrams_delivered
            c["retransmits"] += channel.reliability_stats()["retransmits"]
        c["take_sim_cost"] = round(c["take_sim_cost"], 9)
        return c

    def sample(self) -> None:
        """Between-slice gauges: worst backup lag, largest flow table
        (real or NetLog shadow)."""
        sizes = [len(s.flow_table) for s in self.net.switches.values()]
        if self.coordinator is not None:
            for handle in self.coordinator.shards.values():
                rs = handle.replicas
                for replica in rs.live_backups():
                    self.backup_lag_max = max(self.backup_lag_max,
                                              rs.backup_lag(replica))
            for runtime in self._runtimes():
                sizes.extend(len(t) for t in
                             runtime.proxy.manager.shadow.values())
        self.entries_max = max(self.entries_max, *sizes)

    def channel_model_delay(self, nbytes: float) -> float:
        """Modelled one-way sim delay of an ``nbytes`` app datagram."""
        for kind, channel in self._channels.values():
            if kind == "app":
                return channel.delay_for(nbytes)
        return 0.0

    def failover_sim_seconds(self) -> float:
        if self.coordinator is None:
            return 0.0
        return sum(record.duration
                   for handle in self.coordinator.shards.values()
                   for record in handle.replicas.failovers)

    def divergence(self) -> int:
        if self.coordinator is None:
            return 0
        return sum(abs(handle.replicas.divergence())
                   for handle in self.coordinator.shards.values())

    def drain_event_spans(self) -> List[float]:
        """Telemetry pass only: move finished spans out of every
        replica's tracer ring; return ``appvisor.event`` durations
        (sim seconds)."""
        durations: List[float] = []
        for handle in self.coordinator.shards.values():
            for replica in handle.replicas.replicas:
                tracer = replica.telemetry.tracer
                if not replica.telemetry.enabled:
                    continue
                if tracer.dropped:
                    raise RuntimeError("tracer ring overflowed between "
                                       "slices; spans were lost")
                durations.extend(s.duration for s in tracer.spans
                                 if s.name == "appvisor.event")
                tracer.spans.clear()
        return durations

    # -- output checks --------------------------------------------------

    def violations(self, counts: Dict[str, float]) -> List[str]:
        """What is wrong with this run after the drain (empty = ok)."""
        bad: List[str] = []
        if counts["completed"] <= 0 or counts["offered"] <= 0:
            bad.append("run did no work")
        if counts["crashes"] != counts["recoveries"]:
            bad.append(f"{counts['crashes']} crashes but "
                       f"{counts['recoveries']} recoveries")
        if counts["retransmits"]:
            bad.append(f"{counts['retransmits']} channel retransmits "
                       "on a lossless channel")
        if self.monolithic is not None:
            if not self.monolithic.is_up:
                bad.append("monolithic controller crashed")
            return bad
        for shard_id, handle in self.coordinator.shards.items():
            runtime = handle.runtime
            if runtime is None or handle.controller is None:
                bad.append(f"shard {shard_id} has no live primary")
                continue
            dead = sorted(set(runtime.stubs) - set(runtime.live_apps()))
            if dead:
                bad.append(f"shard {shard_id}: apps not live: {dead}")
            if runtime.proxy.internal_errors:
                bad.append(f"shard {shard_id}: proxy internal errors")
            diverged = handle.replicas.divergence()
            if diverged:
                bad.append(f"shard {shard_id}: shadow/data-plane "
                           f"divergence {diverged}")
        return bad
