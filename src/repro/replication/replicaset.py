"""The replica set: one primary controller, N warm backups, failover.

Modelled on SMaRtLight's primary-backup design: a single controller
serves the network at any time; backups stay warm by consuming the
primary's shipped NetLog records; a lease-based failure detector
promotes the lowest-id live backup when the primary goes silent.  Every
promotion advances a monotonic *epoch* that fences the previous primary
out of the switches (:mod:`repro.replication.fence`), so even a primary
that is partitioned -- alive, but unheard -- cannot mutate network
state after it has been superseded.

Division of labour with the rest of LegoSDN: Crash-Pad still handles
*SDN-App* failures on whichever replica is primary (nothing in the
recovery path changes); the ReplicaSet handles *controller* failures,
which previously required a cold reboot and lost all app state.  The
AppVisor stubs -- separate fault domains by construction -- survive the
controller's death and re-attach to the promoted backup's proxy with
their checkpoints and journals intact.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set

from repro.controller.core import Controller
from repro.core.runtime import LegoSDNRuntime
from repro.core.appvisor.channel import UdpChannel
from repro.openflow.flowtable import FlowTable
from repro.openflow.messages import FlowStatsRequest
from repro.replication.byzantine import (
    AuthFault,
    DigestLedger,
    ReplicaKeyring,
    ReplicationMode,
    ReplicationModePolicy,
    resolve_leaf,
    tolerable_f,
    vote_threshold,
)
from repro.replication.fence import EpochFence
from repro.replication.frames import (
    AppDelta,
    RecordShip,
    ReplAck,
    ReplHeartbeat,
    ResyncRequest,
    TxnResolve,
)
from repro.telemetry import Telemetry


class ReplicaRole(enum.Enum):
    PRIMARY = "primary"
    BACKUP = "backup"
    DEAD = "dead"


class SeenNumbers:
    """Which of the sequence numbers 1, 2, 3 ... have been seen.

    Held as a contiguous ``floor`` (every n <= floor was seen) plus the
    members ``above`` it, which are forgotten as the floor passes them:
    the memory is the size of the gaps, not of the run.
    """

    __slots__ = ("floor", "above")

    def __init__(self):
        self.floor = 0
        self.above: Set[int] = set()

    def __contains__(self, n: int) -> bool:
        return n <= self.floor or n in self.above

    def add(self, n: int) -> bool:
        """Note ``n``; False when it had been seen already."""
        if n in self:
            return False
        self.above.add(n)
        while self.floor + 1 in self.above:
            self.floor += 1
            self.above.remove(self.floor)
        return True

    def clear(self) -> None:
        self.floor = 0
        self.above.clear()


@dataclass
class ControllerReplica:
    """One controller instance in the set, plus its replication state."""

    replica_id: str
    controller: Controller
    telemetry: Telemetry
    role: ReplicaRole
    #: The serving runtime (primary only; None while a warm backup).
    runtime: Optional[LegoSDNRuntime] = None
    #: Replication channel to the current primary (backups only).
    channel: Optional[UdpChannel] = None
    #: Committed NetLog records, in fold order (the replayable tail).
    log: List[RecordShip] = field(default_factory=list)
    #: Shipped records of transactions not yet resolved -- the orphans
    #: a promotion must roll back if the primary dies mid-transaction.
    open_txns: Dict[int, List[RecordShip]] = field(default_factory=dict)
    #: Replicated shadow flow tables (committed state only).
    shadow: Dict[int, FlowTable] = field(default_factory=dict)
    #: Per-app progress from the latest heartbeat's app deltas.
    app_progress: Dict[str, AppDelta] = field(default_factory=dict)
    last_heartbeat: float = 0.0
    last_ship_index: int = 0
    ships_received: int = 0
    #: Frames dropped because they carried a superseded epoch (or
    #: arrived after this replica stopped being a backup).
    stale_frames: int = 0
    #: Primary-side view: highest log index this backup has acked.
    acked_index: int = 0
    #: Primary-side view: highest resolve count this backup has acked
    #: (quorum mode counts commits durable off this).
    acked_resolves: int = 0
    #: Every ship index this backup has seen (dedup for resync replay).
    seen_indices: SeenNumbers = field(default_factory=SeenNumbers)
    #: Every resolve_seq this backup has processed (dedup; txn_id is
    #: NOT usable for this -- it restarts with each promoted primary).
    seen_resolve_seqs: SeenNumbers = field(default_factory=SeenNumbers)
    #: Re-shipped frames discarded because this backup already had them.
    resync_dups: int = 0
    resync_requests: int = 0
    resync_requested_at: float = float("-inf")
    #: Quorum-read eligibility: the primary's clock and log position as
    #: of the last heartbeat this backup *received* (vs last_heartbeat,
    #: which is the backup's own receive time).  A backup may serve a
    #: read under freshness bound F only if hb_sent_at is within F and
    #: it has contiguously folded everything the primary had resolved
    #: by then -- see :meth:`ReplicaSet.read_eligible`.
    hb_sent_at: float = float("-inf")
    hb_log_index: int = 0
    hb_resolve_count: int = 0
    #: Frames rejected because their HMAC stamp failed verification
    #: (tampered in flight, or forged without the pair key).
    sig_rejected: int = 0
    #: This replica's ordered view of the committed record stream --
    #: the chain digest its votes advertise.
    ledger: DigestLedger = field(default_factory=DigestLedger)
    #: Resolves whose locally computed leaf digest disagreed with the
    #: primary's advertised one (missing records, or a lying primary);
    #: the replica abstains from voting those until a resync heals them.
    leaf_mismatches: int = 0
    #: Partial record sets awaiting a resync heal: resolve_seq ->
    #: accumulated records (bounded).
    pending_leaves: Dict[int, List[RecordShip]] = field(default_factory=dict)
    #: The parked leaf a resync already re-delivered without healing
    #: it (what the primary re-sends does not hash to what it
    #: advertises): not asked for again in this epoch.
    unhealed_leaf: int = 0
    #: Primary-side view: this backup's latest vote (ledger floor,
    #: chain digest) and the highest floor whose vote matched ours.
    vote_floor: int = 0
    vote_digest: int = 0
    vote_matched: int = 0
    vote_conflicts: int = 0
    #: Quarantined: votes conflicted with the majority.  Excluded from
    #: shipping, voting, quorum, and election until rehabilitated.
    quarantined: bool = False
    quarantined_at: float = float("-inf")
    #: Throttle for backup-side heartbeat-digest conflict reports.
    digest_conflict_floor: int = -1

    @property
    def is_live(self) -> bool:
        return self.role is not ReplicaRole.DEAD and not self.controller.crashed

    @property
    def contig_index(self) -> int:
        """Highest N such that every index 1..N has been seen -- the
        high-water mark a ResyncRequest replays from."""
        return self.seen_indices.floor

    @property
    def contig_resolves(self) -> int:
        """Highest N with every resolve_seq 1..N processed."""
        return self.seen_resolve_seqs.floor

    def reset_votes(self) -> None:
        """Forget votes, conflict throttle and parked leaves: the chain
        they refer to is gone (rebased at a failover, or wiped for a
        rejoin)."""
        self.vote_floor = 0
        self.vote_digest = 0
        self.vote_matched = 0
        self.digest_conflict_floor = -1
        self.pending_leaves.clear()
        self.unhealed_leaf = 0


@dataclass
class FailoverRecord:
    """One completed failover, for experiment reporting."""

    epoch: int
    #: Sim time the promotion completed.
    at: float
    #: Sim time the old primary was last known good (crash time when
    #: observed, else its last heartbeat heard by the new primary).
    down_at: float
    #: down_at -> promotion: the unavailability window E16 measures.
    duration: float
    from_replica: str
    to_replica: str
    orphan_txns: int
    orphan_inverses: int
    replayed_records: int
    #: BYZANTINE mode only: whether 2f+1 surviving replicas agreed on
    #: the promoted tail's chain digest (True trivially in CRASH_FAULT).
    tail_verified: bool = True


@dataclass
class QuorumReadResult:
    """One freshness-bounded read answered by the replica set.

    ``rules`` is the identity set of the flow rules the serving
    replica's shadow holds for ``dpid`` -- the same (match, priority,
    actions) triple the divergence metrics compare on.  ``staleness``
    is an upper bound on how old the answer can be: 0 for the primary,
    otherwise now minus the primary send-clock of the last heartbeat
    the serving backup folded up to.  ``resolve_floor`` is how many
    resolves the serving replica had contiguously folded -- provably >=
    everything the primary resolved before (now - freshness) whenever a
    backup serves (see :meth:`ReplicaSet.read_eligible`).
    """

    dpid: int
    rules: frozenset
    served_by: str
    staleness: float
    freshness: float
    #: True when enough replicas were reachable that the answer is
    #: backed by a majority-sized live cohort (primary included).
    quorum_met: bool
    from_backup: bool
    resolve_floor: int


@dataclass(frozen=True)
class _Gate:
    """One way a shipped commit waits on the cohort: pending until
    enough replicas stand behind its resolve, stalled -- released
    unconfirmed -- when its window closes first.  Quorum commit and
    BYZANTINE-mode output voting are the two instances."""

    #: ReplicaSet attribute holding resolve_seq -> shipped_at.
    pending: str
    #: ControllerReplica attribute: the highest resolve a backup
    #: stands behind (acked, or voted a matching digest for).
    progress: str
    #: ReplicaSet counters; "replication." + name is the metric too.
    confirmed: str
    stalled: str
    latency_metric: str
    stall_event: str
    #: The tag the stall event reports the threshold under.
    needed_tag: str


_QUORUM = _Gate("_pending_quorum", "acked_resolves",
                "quorum_commits", "quorum_stalls",
                "replication.quorum_latency", "replication.quorum_stall",
                "majority")
_VOTES = _Gate("_pending_votes", "vote_matched",
               "votes_confirmed", "vote_stalls",
               "replication.vote_latency", "replication.vote_stall",
               "needed")


class ReplicaSet:
    """Primary-backup controller HA over an existing deployment.

    Wraps a started (or about-to-start) :class:`~repro.network.net.
    Network` whose controller runs a :class:`~repro.core.runtime.
    LegoSDNRuntime`, adds ``backups`` warm standby controllers on the
    same simulated clock, and wires the shipping, lease, and fencing
    machinery.  ``lease_timeout`` bounds detection: failover time is
    roughly ``lease_timeout + check_interval`` plus channel delays,
    which E16 asserts.
    """

    #: A promoted backup re-asserts the committed FlowMods applied this
    #: recently (seconds) on the switches.
    REPLAY_WINDOW = 0.5
    #: Min gap between ResyncRequests from one backup, so a slow
    #: replay is not re-requested every heartbeat.
    RESYNC_COOLDOWN = 0.1
    #: Conflicting votes from one replica before it is quarantined.
    QUARANTINE_THRESHOLD = 2
    #: Signature rejections from one peer per AuthFault raised.
    AUTH_FAULT_THRESHOLD = 3

    def __init__(self, net, runtime: LegoSDNRuntime, backups: int = 1,
                 heartbeat_interval: float = 0.05,
                 lease_timeout: float = 0.2,
                 check_interval: float = 0.025,
                 stats_interval: float = 0.25,
                 repl_retry_budget: int = 6,
                 chaos=None,
                 quorum: bool = False,
                 quorum_timeout: float = 0.25,
                 seed: int = 0,
                 controller=None,
                 dpids: Optional[List[int]] = None,
                 shard_id: Optional[int] = None,
                 repl_mode: str = "crash",
                 byz_f: Optional[int] = None,
                 vote_timeout: float = 0.25,
                 byzantine=None):
        if backups < 1:
            raise ValueError("a replica set needs at least one backup")
        if lease_timeout <= heartbeat_interval:
            raise ValueError("lease_timeout must exceed heartbeat_interval")
        if repl_mode not in ("crash", "byzantine", "adaptive"):
            raise ValueError(
                "repl_mode must be 'crash', 'byzantine', or 'adaptive'")
        self.net = net
        self.sim = net.sim
        #: The switch subset this set serves.  Defaults to the whole
        #: network (the unsharded deployment); a ShardCoordinator
        #: passes each set its shard's dpids, scoping fencing, stats
        #: polling, failover reconnection, and divergence accounting to
        #: the owned switches only.
        self.dpids: List[int] = sorted(
            dpids if dpids is not None else net.switches)
        unknown = [d for d in self.dpids if d not in net.switches]
        if unknown:
            raise ValueError(f"unknown dpids {unknown}")
        self.shard_id = shard_id
        primary_controller = controller if controller is not None \
            else net.controller
        self.heartbeat_interval = heartbeat_interval
        self.lease_timeout = lease_timeout
        self.check_interval = check_interval
        self.stats_interval = stats_interval
        self.repl_retry_budget = repl_retry_budget
        #: Optional chaos: a ChaosProfile for every backup channel, or
        #: a callable ``replica_id -> profile-or-None``.
        self.chaos = chaos
        #: Quorum (majority-ack) commit mode: a commit is *durable*
        #: only once a majority of live replicas (primary included)
        #: acked its resolve.  A quorum missing past
        #: ``quorum_timeout`` degrades that commit to async shipping
        #: (availability over durability), flagged in stats.
        self.quorum = quorum
        self.quorum_timeout = quorum_timeout
        self.seed = seed
        #: Authenticated shipping: every replication frame carries a
        #: pair-keyed HMAC stamp, verified on receipt.
        self.keyring = ReplicaKeyring(secret=seed)
        #: Byzantine *replica* fault injection: a callable ``rid ->``
        #: :class:`~repro.faults.byzfaults.ByzantineProfile` ``-or-None``,
        #: mirroring the ``chaos`` idiom.
        self.byzantine = byzantine
        self.repl_mode = repl_mode
        #: The CRASH_FAULT <-> BYZANTINE state machine; "crash" and
        #: "byzantine" pin the mode, "adaptive" lets anomalies escalate
        #: and a clean window de-escalate.  Epoch-fenced at failover.
        self.mode_policy = ReplicationModePolicy(
            mode=(ReplicationMode.BYZANTINE if repl_mode == "byzantine"
                  else ReplicationMode.CRASH_FAULT),
            pinned=repl_mode != "adaptive")
        self.mode_policy.on_switch.append(self._on_mode_switch)
        #: Tolerated Byzantine replicas; None derives floor((n-1)/3)
        #: from the live cohort at each vote count.
        self.byz_f = byz_f
        self.vote_timeout = vote_timeout
        #: Byzantine accounting (set level).
        self.sig_rejected = 0
        self.votes_cast = 0
        self.vote_conflicts = 0
        self.votes_confirmed = 0
        self.vote_stalls = 0
        self.quarantines = 0
        self.rejoins = 0
        self.tail_unverified = 0
        self.auth_faults: List[AuthFault] = []
        #: Called with each AuthFault (the replication-layer sibling of
        #: the channel's on_fault).
        self.on_auth_fault: List = []
        #: Commits awaiting 2f+1 matching digest votes (BYZANTINE mode):
        #: resolve_seq -> shipped_at.
        self._pending_votes: Dict[int, float] = {}
        #: Shipped-but-unresolved record frames per txn, for the
        #: primary's leaf digest at resolve time.
        self._txn_frames: Dict[int, List[RecordShip]] = {}
        #: Chain-digest rebase point: ledgers restart here after each
        #: failover (the view-change's agreed floor).
        self._digest_base = 0
        #: HealthWatchdog wired via guard_replication (None = standalone
        #: escalation through the mode policy only).
        self.watchdog = None
        self.epoch = 0
        self.ship_index = 0
        #: Total resolves shipped (the heartbeat's second lag axis).
        self.resolve_count = 0
        #: Transactions resolved without a resolve shipped: they wrote
        #: nothing to the WAL (see :meth:`_ship_resolve`).
        self.resolves_elided = 0
        #: Everything shipped this epoch, in ship order, for ranged
        #: resync replay: ("record", RecordShip) | ("resolve", TxnResolve).
        self.ship_history: List[tuple] = []
        self.resyncs_served = 0
        self.resync_records_sent = 0
        self.quorum_commits = 0
        self.quorum_stalls = 0
        self.quorum_degraded = False
        #: Commits awaiting majority ack: txn_id -> (resolve seq,
        #: shipped_at).
        self._pending_quorum: Dict[int, tuple] = {}
        self.failovers: List[FailoverRecord] = []
        self.fence = EpochFence(epoch=0)
        for dpid in self.dpids:
            net.switches[dpid].fence = self.fence
        self._stop_heartbeat = None
        self._stop_stats = None
        self._primary_down_at: Optional[float] = None
        self._partitioned_replica: Optional[ControllerReplica] = None
        #: Called with the newly promoted replica after every failover
        #: (the coordinator re-attaches shard routing to the fresh
        #: controller here).
        self.on_promote: List = []
        #: Quorum reads served, and how many had to fall back to the
        #: primary because no backup met the freshness bound.
        self.quorum_reads = 0
        self.quorum_read_fallbacks = 0
        #: (sim time, resolve_count) at each shipped resolve, bounded:
        #: lets tests and operators ask "what had resolved by time T"
        #: -- the floor a freshness-bounded read must clear.
        self.resolve_times: deque = deque(maxlen=4096)

        primary = ControllerReplica(
            replica_id="r0",
            controller=primary_controller,
            telemetry=primary_controller.telemetry,
            role=ReplicaRole.PRIMARY,
            runtime=runtime,
        )
        self.replicas: List[ControllerReplica] = [primary]
        enabled = primary.telemetry.enabled
        flight_capacity = getattr(primary.telemetry.recorder, "capacity", 128)
        metrics_max_samples = getattr(primary.telemetry.metrics,
                                      "max_samples", None)
        discovery_interval = getattr(
            primary_controller.discovery, "interval", 0.5)
        for i in range(1, backups + 1):
            replica_id = f"r{i}"
            telemetry = Telemetry(enabled=enabled,
                                  flight_capacity=flight_capacity,
                                  replica_id=replica_id,
                                  shard_id=shard_id,
                                  metrics_max_samples=metrics_max_samples)
            controller = Controller(
                self.sim,
                discovery_interval=discovery_interval,
                telemetry=telemetry,
                service_time=primary_controller.service_time,
            )
            controller.shard_id = shard_id
            self.replicas.append(ControllerReplica(
                replica_id=replica_id,
                controller=controller,
                telemetry=telemetry,
                role=ReplicaRole.BACKUP,
            ))
        for replica in self.replicas[1:]:
            self._wire_backup(replica)
        self._install_primary(primary)
        self._stop_monitor = self.sim.every(check_interval, self._monitor)

    # -- accessors ---------------------------------------------------------

    @property
    def primary(self) -> Optional[ControllerReplica]:
        for replica in self.replicas:
            if replica.role is ReplicaRole.PRIMARY:
                return replica
        return None

    @property
    def runtime(self) -> Optional[LegoSDNRuntime]:
        primary = self.primary
        return primary.runtime if primary else None

    def replica(self, replica_id: str) -> ControllerReplica:
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise KeyError(replica_id)

    def live_backups(self) -> List[ControllerReplica]:
        return [r for r in self.replicas
                if r.role is ReplicaRole.BACKUP and r.is_live
                and not r.quarantined]

    @property
    def mode(self) -> ReplicationMode:
        return self.mode_policy.mode

    @property
    def voting(self) -> bool:
        """True while resolves require 2f+1 matching digest votes."""
        return self.mode_policy.voting

    def backup_lag(self, replica: ControllerReplica) -> int:
        """Shipped records this backup has not yet received."""
        return self.ship_index - replica.last_ship_index

    # -- wiring ------------------------------------------------------------

    def _wire_backup(self, replica: ControllerReplica) -> None:
        """(Re)connect a backup to the current primary.

        Each backup gets its own UDP channel (primary holds the proxy
        end, the backup the stub end), so shipping a record costs real
        encoded bytes and channel latency just like delivering an event
        to an app.  Called again after every failover: the promoted
        primary opens fresh channels to the surviving backups.
        """
        chaos = (self.chaos(replica.replica_id) if callable(self.chaos)
                 else self.chaos)
        channel = UdpChannel(
            self.sim,
            seed=self.seed + int(replica.replica_id[1:]),
            # Batched shipping: all records/resolves committed in one
            # sim instant ride one datagram to each backup.
            batch=True,
            # Transient loss never silently skips a log record (the
            # channel retransmits); a long partition still exhausts the
            # budget and creates gaps -- which the ranged resync repairs
            # on heal.
            retry_budget=self.repl_retry_budget,
            chaos=chaos,
            telemetry=self.primary.controller.telemetry,
            span_name="replication.ship",
        )
        channel.stub_end.on_frame(
            lambda frame, raw, r=replica:
                self._on_backup_frame(r, frame, raw))
        channel.proxy_end.on_frame(
            lambda frame, raw, r=replica:
                self._on_primary_frame(r, frame, raw))
        # MACs are verified over the bytes that arrived.
        channel.stub_end.raw_frames = channel.proxy_end.raw_frames = True
        replica.channel = channel
        # A fresh lease: the backup has "heard from" this primary now.
        replica.last_heartbeat = self.sim.now

    def _install_primary(self, replica: ControllerReplica) -> None:
        """Hook shipping + heartbeats into ``replica``'s runtime.

        The shipping closures capture the replica so a superseded
        primary (demoted, or crashed-then-rebooted) can never ship
        records into the new epoch: the role check turns its callbacks
        into no-ops the moment it stops being primary.
        """
        replica.telemetry.set_replica(replica.replica_id)
        if self.shard_id is not None:
            replica.telemetry.set_shard(self.shard_id)
        replica.controller.epoch = self.epoch
        manager = replica.runtime.proxy.manager

        def serving() -> bool:
            return (replica.role is ReplicaRole.PRIMARY
                    and not replica.controller.crashed
                    and replica is not self._partitioned_replica)

        def ship(txn, record):
            if serving():
                self._ship_record(txn, record)

        def resolve(txn, outcome):
            if serving():
                self._ship_resolve(txn, outcome)

        manager.on_apply.append(ship)
        manager.on_resolve.append(resolve)

        def on_crash(exc, culprit, replica=replica):
            if replica.role is not ReplicaRole.PRIMARY:
                return
            # The primary holds the proxy end of every replication
            # channel: ships/resolves/heartbeats it enqueued this tick
            # but never flushed die with its process.
            self._drop_unflushed_replication()
            if self._primary_down_at is None:
                self._primary_down_at = self.sim.now

        replica.controller.crash_callbacks.append(on_crash)

        def heartbeat():
            if serving():
                self._primary_heartbeat(replica)

        self._stop_heartbeat = self.sim.every(
            self.heartbeat_interval, heartbeat)

        # Stats polling keeps the NetLog shadow honest: the controller
        # cannot see data-plane hits, so without the switches' own
        # reports the shadow's idle clocks drift from reality -- and a
        # promoted backup would inherit (and compound) that drift.  The
        # replies reconcile through TransactionManager.note_flow_stats.
        def poll_stats():
            if serving():
                for dpid in self.dpids:
                    if self.net.switches[dpid].up:
                        replica.controller.send_to_switch(
                            dpid, FlowStatsRequest())

        if self.stats_interval > 0:
            self._stop_stats = self.sim.every(
                self.stats_interval, poll_stats)

    # -- authenticated shipping ---------------------------------------------

    def _primary_id(self) -> str:
        primary = self.primary
        return primary.replica_id if primary is not None else "r?"

    def _send_to_backup(self, frame, replica: ControllerReplica) -> None:
        """Stamp and transmit one primary->backup frame."""
        self._send_stamped(frame, replica.channel.proxy_end,
                           self._primary_id(), replica.replica_id)

    def _send_to_primary(self, replica: ControllerReplica, frame) -> None:
        """Stamp and transmit one backup->primary frame (acks, resyncs)."""
        self._send_stamped(frame, replica.channel.stub_end,
                           replica.replica_id, self._primary_id())

    def _send_stamped(self, frame, endpoint, sender: str,
                      receiver: str) -> None:
        """Signing happens per peer (the MAC is pair-keyed), over the
        one encoding the channel makes to send the frame.  A compromised
        sender's ByzantineProfile gets its say on the stamped frame --
        it holds its own keys, so its equivocated or lying variants are
        re-signed through ``signer`` and pass authentication; only
        voting can catch them."""
        def signer(f):
            return self.keyring.stamp(f, sender, receiver)
        profile = (self.byzantine(sender) if self.byzantine is not None
                   else None)
        if profile is None:
            endpoint.send(frame, seal=signer)
            return
        if sender == self._primary_id():
            frames = profile.perturb_primary(self.sim.now, signer(frame),
                                             receiver, signer)
        else:
            frames = profile.perturb_backup(self.sim.now, signer(frame),
                                            signer)
        for out in frames:
            endpoint.send(out)

    def _note_sig_rejected(self, replica: ControllerReplica, frame) -> None:
        """One frame failed HMAC verification: count it, and raise an
        AuthFault once the run from this peer crosses the threshold --
        a tampering replica is *detected*, never obeyed."""
        replica.sig_rejected += 1
        self.sig_rejected += 1
        primary = self.primary
        telemetry = primary.telemetry if primary is not None \
            else replica.telemetry
        if telemetry.enabled:
            telemetry.metrics.inc("replication.sig_rejected")
            telemetry.tracer.event(
                "replication.sig_rejected", replica=replica.replica_id,
                frame=type(frame).__name__)
        if replica.sig_rejected % self.AUTH_FAULT_THRESHOLD == 0:
            fault = AuthFault(replica_id=replica.replica_id,
                              rejections=replica.sig_rejected,
                              at=self.sim.now)
            self.auth_faults.append(fault)
            for callback in list(self.on_auth_fault):
                callback(fault)
            self._note_byzantine(
                "auth-fault",
                f"{replica.replica_id}: {replica.sig_rejected} "
                f"signature rejections",
                replica=replica.replica_id)

    def _note_byzantine(self, kind: str, detail: str, **tags) -> None:
        """Central suspicion sink: escalate the mode policy and feed the
        watchdog's byzantine-divergence anomaly kind (scored on
        /healthz) when one is wired."""
        self.mode_policy.note_anomaly(self.sim.now, self.epoch, kind, detail)
        if self.watchdog is not None:
            self.watchdog.note_byzantine(detail, suspicion=kind, **tags)
        else:
            primary = self.primary
            if primary is not None and primary.telemetry.enabled:
                primary.telemetry.tracer.event(
                    f"replication.{kind}", detail=detail, **tags)

    def _on_mode_switch(self, record) -> None:
        if record.mode is ReplicationMode.CRASH_FAULT:
            # De-escalation releases in-flight voting windows: their
            # deadline callbacks find nothing pending and no-op.
            self._pending_votes.clear()
        primary = self.primary
        if primary is not None and primary.telemetry.enabled:
            primary.telemetry.metrics.inc("replication.mode_switches")
            primary.telemetry.tracer.event(
                "replication.mode_switch", mode=record.mode.value,
                reason=record.reason, epoch=record.epoch)

    # -- primary side: shipping --------------------------------------------

    def _ship_record(self, txn, record) -> None:
        self.ship_index += 1
        frame = RecordShip(
            epoch=self.epoch,
            index=self.ship_index,
            txn_id=txn.txn_id,
            app_name=txn.app_name,
            dpid=record.dpid,
            message=record.message,
            inverses=tuple(record.inverse_messages),
            applied_at=record.applied_at,
            trace_id=getattr(txn, "trace_id", None) or 0,
        )
        self.ship_history.append(("record", frame))
        self._txn_frames.setdefault(frame.txn_id, []).append(frame)
        for replica in self.live_backups():
            self._send_to_backup(frame, replica)
        primary = self.primary
        if primary is not None and primary.telemetry.enabled:
            primary.telemetry.metrics.inc("replication.ships")

    def _ship_resolve(self, txn, outcome: str) -> None:
        """Replicate writes, not events: a resolve ships iff a record
        of its transaction shipped in this epoch.  One that appended
        nothing to the WAL (a PacketOut-only event), commit or abort,
        has nothing for a backup to fold, roll back, vote on or make
        durable, so nothing leaves the primary and no sequence number,
        leaf or window is spent on it."""
        records = self._txn_frames.pop(txn.txn_id, None)
        primary = self.primary
        if records is None:
            self.resolves_elided += 1
            if primary is not None and primary.telemetry.enabled:
                primary.telemetry.metrics.inc("replication.resolves_elided")
            return
        self.resolve_count += 1
        leaf = resolve_leaf(self.resolve_count, outcome, records)
        frame = TxnResolve(
            epoch=self.epoch,
            txn_id=txn.txn_id,
            outcome=outcome,
            log_index=self.ship_index,
            resolve_seq=self.resolve_count,
            trace_id=getattr(txn, "trace_id", None) or 0,
            leaf=leaf,
        )
        if primary is not None:
            primary.ledger.add(self.resolve_count, leaf)
        self.ship_history.append(("resolve", frame))
        self.resolve_times.append((self.sim.now, self.resolve_count))
        for replica in self.live_backups():
            self._send_to_backup(frame, replica)
        if self.quorum and outcome == "commit":
            self._open_window(_QUORUM, frame.resolve_seq, self.quorum_timeout)
        if self.voting and outcome == "commit":
            self._open_window(_VOTES, frame.resolve_seq, self.vote_timeout)

    def _primary_heartbeat(self, replica: ControllerReplica) -> None:
        deltas = tuple(
            AppDelta(app_name=record.name, last_seq=record.last_seq,
                     events_completed=record.events_completed)
            for record in replica.runtime.proxy.apps.values()
        )
        frame = ReplHeartbeat(
            epoch=self.epoch,
            log_index=self.ship_index,
            sent_at=self.sim.now,
            app_deltas=deltas,
            resolve_count=self.resolve_count,
            # The primary's own vote: its chain digest at its ledger
            # floor (== resolve_count in steady state).
            digest=replica.ledger.digest,
        )
        for backup in self.live_backups():
            self._send_to_backup(frame, backup)
        if replica.telemetry.enabled:
            replica.telemetry.metrics.inc("replication.heartbeats")

    def _on_primary_frame(self, replica: ControllerReplica, frame,
                          raw: Optional[bytes] = None) -> None:
        """Primary-side receive: acks and resync requests from backups.

        Epoch fencing first (stale traffic is stale, not hostile), then
        HMAC verification over ``raw``, the bytes ``frame`` was decoded
        from -- a frame that fails the pair MAC was tampered in flight
        or forged, and is counted and dropped, never processed.
        """
        if getattr(frame, "epoch", self.epoch) != self.epoch:
            replica.stale_frames += 1
            return
        if replica.quarantined:
            replica.stale_frames += 1
            return
        if not self.keyring.verify(
                raw or frame, replica.replica_id, self._primary_id()):
            self._note_sig_rejected(replica, frame)
            return
        if isinstance(frame, ReplAck):
            replica.acked_index = max(replica.acked_index, frame.log_index)
            replica.acked_resolves = max(replica.acked_resolves,
                                         frame.resolve_count)
            if frame.digest_floor > 0:
                self._note_vote(replica, frame.digest_floor, frame.digest)
            if self.quorum and self._pending_quorum:
                self._check_confirmed(_QUORUM)
        elif isinstance(frame, ResyncRequest):
            self._serve_resync(replica, frame)

    # -- partition-heal resync (primary side) -------------------------------

    def _serve_resync(self, replica: ControllerReplica,
                      request: ResyncRequest) -> None:
        """Replay the requested range to one lagging backup.

        Ranged, not full-log: only records with index > ``from_index``
        (plus the resolves at or past it, which fold them) are
        re-shipped.  The backup's seen/resolved sets make redelivery
        idempotent, so overlap at the range edge is harmless.
        """
        started = self.sim.now
        sent = 0
        for kind, frame in self.ship_history:
            if kind == "record" and frame.index > request.from_index:
                pass
            elif (kind == "resolve"
                    and frame.resolve_seq > request.from_resolve):
                pass
            else:
                continue
            if frame.epoch != self.epoch:
                # Re-ship as the current primary's own: the record
                # content is epoch-independent, only the fencing tag
                # must be fresh or the backup drops it as stale.  (The
                # history holds unsigned frames; _send_to_backup stamps
                # the fresh epoch, so re-shipped frames authenticate.)
                frame = replace(frame, epoch=self.epoch)
            self._send_to_backup(frame, replica)
            sent += 1
        self.resyncs_served += 1
        self.resync_records_sent += sent
        primary = self.primary
        if primary is not None and primary.telemetry.enabled:
            primary.telemetry.metrics.inc("replication.resyncs")
            primary.telemetry.tracer.record_span(
                "replication.resync", start=started,
                replica=replica.replica_id,
                from_index=request.from_index,
                to_index=request.to_index, frames=sent)

    # -- commit confirmation (primary side) ----------------------------------

    def _majority(self) -> int:
        live = 1 + len(self.live_backups())  # primary counts itself
        return live // 2 + 1

    def _needed(self, gate: _Gate) -> int:
        return (self._majority() if gate is _QUORUM
                else self._vote_threshold())

    def _open_window(self, gate: _Gate, resolve_seq: int,
                     timeout: float) -> None:
        getattr(self, gate.pending)[resolve_seq] = self.sim.now
        self.sim.schedule(timeout, self._deadline, gate, resolve_seq,
                          self.epoch)

    def _check_confirmed(self, gate: _Gate) -> None:
        """Retire pending commits enough of the cohort stands behind:
        a majority acked the resolve (quorum), or 2f+1 voted a matching
        digest at or past it (voting)."""
        pending = getattr(self, gate.pending)
        needed = self._needed(gate)
        for resolve_seq in sorted(pending):
            behind = 1 + sum(
                1 for backup in self.live_backups()
                if getattr(backup, gate.progress) >= resolve_seq)
            if behind < needed:
                continue
            shipped_at = pending.pop(resolve_seq)
            setattr(self, gate.confirmed, getattr(self, gate.confirmed) + 1)
            if gate is _QUORUM:
                self.quorum_degraded = False
            primary = self.primary
            if primary is not None and primary.telemetry.enabled:
                primary.telemetry.metrics.inc(
                    f"replication.{gate.confirmed}")
                primary.telemetry.metrics.observe(
                    gate.latency_metric, self.sim.now - shipped_at)

    def _deadline(self, gate: _Gate, resolve_seq: int, epoch: int) -> None:
        """A commit's window closed without enough of the cohort.

        Graceful degradation, not blocking: the primary already applied
        the transaction (NetLog committed it); what is lost is only the
        guarantee -- durability (the commit is released as async and
        the set flagged degraded until a later commit reaches quorum),
        or the Byzantine confirmation -- which stays visible in the
        counters.
        """
        if epoch != self.epoch:
            return
        if getattr(self, gate.pending).pop(resolve_seq, None) is None:
            return  # confirmed in time
        setattr(self, gate.stalled, getattr(self, gate.stalled) + 1)
        if gate is _QUORUM:
            self.quorum_degraded = True
        primary = self.primary
        if primary is not None and primary.telemetry.enabled:
            primary.telemetry.metrics.inc(f"replication.{gate.stalled}")
            primary.telemetry.tracer.event(
                gate.stall_event, resolve_seq=resolve_seq,
                **{gate.needed_tag: self._needed(gate)})

    # -- output voting (primary side, BYZANTINE mode) -------------------------

    def _vote_threshold(self) -> int:
        """Matching digest votes needed to confirm a resolve: 2f+1,
        clamped to the live cohort (sets smaller than 3f+1 cannot
        actually mask f liars -- the clamp keeps them live rather than
        wedged, and ``tail_unverified``/``vote_stalls`` record the
        shortfall)."""
        n = 1 + len(self.live_backups())  # primary votes its own ledger
        f = self.byz_f if self.byz_f is not None else tolerable_f(n)
        return min(vote_threshold(f), n)

    def _note_vote(self, replica: ControllerReplica, floor: int,
                   digest: int) -> None:
        """One backup's digest vote arrived (piggybacked on its ack).

        A matching vote advances the replica's verified floor and may
        confirm pending resolves; a conflicting one is Byzantine
        evidence -- counted, escalated, and (in voting mode, past the
        threshold, when the rest of the cohort stands behind the
        primary's digest) quarantining.
        """
        if floor < replica.vote_floor:
            return  # reordered ack: an older vote, already superseded
        replica.vote_floor = floor
        replica.vote_digest = digest
        self.votes_cast += 1
        primary = self.primary
        if primary is None:
            return
        if primary.telemetry.enabled:
            primary.telemetry.metrics.inc("replication.votes_cast")
        expected = primary.ledger.at(floor)
        if expected is None:
            return  # outside our history window: no verdict either way
        if digest == expected:
            replica.vote_matched = max(replica.vote_matched, floor)
            if self.voting and self._pending_votes:
                self._check_confirmed(_VOTES)
            return
        replica.vote_conflicts += 1
        self.vote_conflicts += 1
        if primary.telemetry.enabled:
            primary.telemetry.metrics.inc("replication.vote_conflicts")
        self._note_byzantine(
            "byzantine-divergence",
            f"{replica.replica_id} voted {digest:#018x} at resolve "
            f"{floor}, cohort digest {expected:#018x}",
            replica=replica.replica_id, floor=floor)
        if (self.voting and not replica.quarantined
                and replica.vote_conflicts >= self.QUARANTINE_THRESHOLD
                and self._quarantine_justified(floor)):
            self._quarantine(replica, floor, expected, digest)

    def _quarantine_justified(self, floor: int) -> bool:
        """Quarantine only a genuine *minority*: 2f+1 of the cohort
        (primary included) must stand behind the primary's digest at or
        past the floor.  An equivocating primary cannot muster that
        majority, so its victims are never quarantined for honestly
        reporting what they saw."""
        matching = 1 + sum(1 for backup in self.live_backups()
                           if backup.vote_matched >= floor)
        return matching >= self._vote_threshold()

    def _quarantine(self, replica: ControllerReplica, floor: int,
                    expected: int, got: int) -> None:
        """Expel a replica whose votes conflict with the cohort.

        Quarantine removes it from shipping, voting, quorum, and
        election (live_backups excludes it) and files a problem ticket
        carrying both digests -- the operator-facing evidence trail.
        :meth:`rehabilitate` re-admits it through a full resync.
        """
        replica.quarantined = True
        replica.quarantined_at = self.sim.now
        self.quarantines += 1
        primary = self.primary
        if primary is not None and primary.telemetry.enabled:
            primary.telemetry.metrics.inc("replication.replicas_quarantined")
            primary.telemetry.tracer.event(
                "replication.quarantine", replica=replica.replica_id,
                floor=floor)
        runtime = self.runtime
        if runtime is not None:
            runtime.tickets.create(
                app_name=f"replica:{replica.replica_id}",
                time=self.sim.now,
                failure_kind="byzantine",
                offending_event=f"digest vote conflict at resolve {floor}",
                recovery_policy="quarantine",
                recovery_note=(f"voted {got:#018x}, cohort agreed on "
                               f"{expected:#018x}; rejoin requires "
                               f"rehabilitate() + full resync"),
            )

    def rehabilitate(self, replica_id: str) -> None:
        """Re-admit a quarantined replica (the operator's rejoin path).

        Nothing the replica holds can be trusted -- its log, shadow,
        and ledger are wiped and a *full* resync rebuilds them from the
        primary's history.  Until the replay lands it is an ordinary
        lagging backup; its votes resume from the rebased chain.
        """
        replica = self.replica(replica_id)
        if not replica.quarantined:
            return
        replica.quarantined = False
        replica.vote_conflicts = 0
        replica.leaf_mismatches = 0
        replica.reset_votes()
        replica.log.clear()
        replica.open_txns.clear()
        replica.shadow.clear()
        replica.seen_indices.clear()
        replica.seen_resolve_seqs.clear()
        replica.last_ship_index = 0
        replica.acked_index = 0
        replica.acked_resolves = 0
        replica.ledger.rebase(self._digest_base)
        # A fresh lease: nothing was heartbeated at it while in
        # quarantine, and a stale lease clock would make the rejoiner
        # (again the lowest-id candidate) instantly "detect" a primary
        # failure that never happened.
        replica.last_heartbeat = self.sim.now
        self.rejoins += 1
        primary = self.primary
        if primary is not None and primary.telemetry.enabled:
            primary.telemetry.metrics.inc("replication.rejoins")
            primary.telemetry.tracer.event(
                "replication.rejoin", replica=replica.replica_id)
        replica.resync_requested_at = self.sim.now
        replica.resync_requests += 1
        self._send_to_primary(replica, ResyncRequest(
            replica_id=replica.replica_id,
            epoch=self.epoch,
            from_index=0,
            to_index=self.ship_index,
            from_resolve=0,
        ))

    # -- backup side: the replicated log ------------------------------------

    def _on_backup_frame(self, replica: ControllerReplica, frame,
                         raw: Optional[bytes] = None) -> None:
        if (replica.role is not ReplicaRole.BACKUP
                or getattr(frame, "epoch", self.epoch) < self.epoch):
            # Late traffic from a superseded epoch, or frames landing on
            # a replica that has since been promoted (or died).
            replica.stale_frames += 1
            return
        if replica.quarantined:
            replica.stale_frames += 1
            return
        if not self.keyring.verify(
                raw or frame, self._primary_id(), replica.replica_id):
            # Suspicion falls on the *sender*: a primary->backup frame
            # that fails the pair MAC was tampered by (or en route from)
            # the primary side.
            suspect = self.primary
            self._note_sig_rejected(
                suspect if suspect is not None else replica, frame)
            return
        if isinstance(frame, RecordShip):
            if not replica.seen_indices.add(frame.index):
                # Resync overlap (or a network dup the channel let by):
                # already held, never double-counted or double-folded.
                replica.resync_dups += 1
                return
            replica.ships_received += 1
            replica.last_ship_index = max(replica.last_ship_index, frame.index)
            replica.open_txns.setdefault(frame.txn_id, []).append(frame)
            if replica.telemetry.enabled:
                replica.telemetry.metrics.inc("replication.ships_received")
            if self.quorum or self.voting:
                self._send_ack(replica)
        elif isinstance(frame, TxnResolve):
            # Idempotent by construction: a record enters open_txns at
            # most once (seen_indices), so re-processing a resolve after
            # a resync folds only records the first pass never had.
            records = replica.open_txns.pop(frame.txn_id, [])
            if frame.outcome == "commit":
                # Fold at commit-resolve, stamping each entry with the
                # primary's original apply time, so the backup's shadow
                # is exactly the state the primary's NetLog committed --
                # never a half-applied transaction.
                for rec in records:
                    table = replica.shadow.get(rec.dpid)
                    if table is None:
                        table = replica.shadow[rec.dpid] = FlowTable()
                    table.apply_flow_mod(rec.message, rec.applied_at)
                replica.log.extend(records)
            # On abort: discard.  The primary already sent the inverses
            # to the switches itself, and its own shadow never kept the
            # aborted writes either.
            self._fold_leaf(replica, frame, records)
            if not replica.seen_resolve_seqs.add(frame.resolve_seq):
                replica.resync_dups += 1
            if self.quorum or self.voting:
                self._send_ack(replica)
        elif isinstance(frame, ReplHeartbeat):
            replica.last_heartbeat = self.sim.now
            # Quorum-read high-water marks: the primary's position *as
            # of its send clock*.  Everything the primary resolved
            # before ``sent_at`` is <= hb_resolve_count, which is the
            # inequality read_eligible() leans on.
            replica.hb_sent_at = max(replica.hb_sent_at, frame.sent_at)
            replica.hb_log_index = max(replica.hb_log_index,
                                       frame.log_index)
            replica.hb_resolve_count = max(replica.hb_resolve_count,
                                           frame.resolve_count)
            replica.app_progress = {
                delta.app_name: delta for delta in frame.app_deltas
            }
            # Cross-check the primary's advertised chain digest against
            # this backup's own ledger at the same floor.  A mismatch at
            # a floor both sides have folded means the committed
            # histories already diverged -- report once per floor (the
            # throttle), escalate, and let voting arbitrate.
            if frame.resolve_count > 0:
                mine = replica.ledger.at(frame.resolve_count)
                if (mine is not None and mine != frame.digest
                        and frame.resolve_count
                        > replica.digest_conflict_floor):
                    replica.digest_conflict_floor = frame.resolve_count
                    self._note_byzantine(
                        "byzantine-divergence",
                        f"heartbeat digest {frame.digest:#018x} at resolve "
                        f"{frame.resolve_count} != {replica.replica_id}'s "
                        f"{mine:#018x}",
                        replica=replica.replica_id,
                        floor=frame.resolve_count)
            self._maybe_request_resync(replica, frame)
            self._send_ack(replica)

    def _fold_leaf(self, replica: ControllerReplica, frame: TxnResolve,
                   records: List[RecordShip]) -> None:
        """Fold one resolve into the backup's chain digest -- or abstain.

        The ledger only ever folds a leaf the primary's advertisement
        agrees with, so a resolve whose records were lost in flight can
        stall this backup's *vote* but never poison its chain.  Partial
        record sets park in ``pending_leaves``; a later resync replay
        re-delivers the gap and the merged set heals the leaf.  A
        mismatch with a provably *complete* record set is the
        equivocation signature: the advertised leaf does not hash from
        what was actually shipped here.
        """
        if frame.resolve_seq <= replica.ledger.floor:
            return  # pre-rebase (or already folded): no vote owed
        pending = replica.pending_leaves.pop(frame.resolve_seq, None)
        if pending:
            have = {r.index for r in records}
            records = list(records) + [r for r in pending
                                       if r.index not in have]
        local_leaf = resolve_leaf(frame.resolve_seq, frame.outcome, records)
        if local_leaf == frame.leaf:
            replica.ledger.add(frame.resolve_seq, local_leaf)
            return
        replica.leaf_mismatches += 1
        if pending is not None and frame.resolve_seq > replica.unhealed_leaf:
            replica.unhealed_leaf = frame.resolve_seq
        if len(replica.pending_leaves) < 256:
            replica.pending_leaves[frame.resolve_seq] = list(records)
        if records and replica.contig_index >= frame.log_index:
            self._note_byzantine(
                "equivocation",
                f"{replica.replica_id} computed leaf {local_leaf:#018x} "
                f"for resolve {frame.resolve_seq} from a complete record "
                f"set; primary advertised {frame.leaf:#018x}",
                replica=replica.replica_id, resolve_seq=frame.resolve_seq)

    def _send_ack(self, replica: ControllerReplica) -> None:
        self._send_to_primary(replica, ReplAck(
            replica_id=replica.replica_id,
            epoch=self.epoch,
            log_index=replica.last_ship_index,
            resolve_count=replica.contig_resolves,
            # The vote: this backup's chain digest at its verified
            # floor (which lags contig_resolves while abstaining).
            digest=replica.ledger.digest,
            digest_floor=replica.ledger.floor,
        ))

    def _maybe_request_resync(self, replica: ControllerReplica,
                              heartbeat: ReplHeartbeat) -> None:
        """Backup-side lag detection on heartbeat (the heal signal).

        During a partition nothing arrives, so the *first heartbeat
        through* is also the first moment the backup can compare the
        primary's advertised position against what it contiguously
        holds.  A gap in either axis -- records or resolves -- asks for
        a ranged replay instead of waiting for full-log heartbeat
        repair that never comes.
        """
        behind = (heartbeat.log_index > replica.contig_index
                  or heartbeat.resolve_count > replica.contig_resolves
                  # Abstaining from a leaf (partial record set) also
                  # counts as lag: the replay re-delivers the gap so
                  # the merged set can heal the vote.
                  or (bool(replica.pending_leaves)
                      and heartbeat.resolve_count > replica.ledger.floor
                      and replica.ledger.floor >= replica.unhealed_leaf))
        if not behind:
            return
        if self.sim.now - replica.resync_requested_at < self.RESYNC_COOLDOWN:
            return  # one outstanding request at a time
        replica.resync_requested_at = self.sim.now
        replica.resync_requests += 1
        if replica.telemetry.enabled:
            replica.telemetry.tracer.event(
                "replication.resync_request",
                from_index=replica.contig_index,
                to_index=heartbeat.log_index)
        self._send_to_primary(replica, ResyncRequest(
            replica_id=replica.replica_id,
            epoch=self.epoch,
            from_index=replica.contig_index,
            to_index=heartbeat.log_index,
            from_resolve=min(replica.contig_resolves, replica.ledger.floor),
        ))

    def _drop_unflushed_replication(self) -> int:
        """Discard frames the primary batched but never flushed.

        Called when the primary dies (crash callback) and again at
        failover (covers the partition path, where the old primary's
        process never crashed but its link to the backups is gone).
        """
        dropped = 0
        for replica in self.replicas:
            if (replica.role is ReplicaRole.BACKUP
                    and replica.channel is not None):
                dropped += replica.channel.drop_pending("proxy")
        return dropped

    # -- failure detection ----------------------------------------------------

    def _candidate(self) -> Optional[ControllerReplica]:
        """Deterministic election: the lowest-id live backup."""
        backups = self.live_backups()
        return backups[0] if backups else None

    def _monitor(self) -> None:
        """The lease check, run on the simulated clock.

        The candidate backup watches its own heartbeat stream: once the
        primary has been silent past the lease, the candidate promotes
        itself.  Election is deterministic (lowest live id), so no
        coordination round is needed -- SMaRtLight similarly relies on
        its coordination service to serialise who may be active.
        """
        self.mode_policy.maybe_deescalate(self.sim.now, self.epoch)
        candidate = self._candidate()
        if candidate is None or self.primary is None:
            return
        silent_for = self.sim.now - candidate.last_heartbeat
        if silent_for > self.lease_timeout:
            self._failover(candidate)

    # -- fault injection (experiments) ----------------------------------------

    def crash_primary(self, reason: str = "injected controller fault") -> None:
        """Kill the primary's controller process (E16's fault)."""
        self.primary.controller.crash(RuntimeError(reason),
                                      culprit="fault-injection")

    def partition_primary(self) -> None:
        """Cut the primary off from the backups without killing it.

        The primary keeps running -- and keeps believing it is primary
        -- but its heartbeats and ships no longer reach anyone, so the
        lease expires and a backup takes over.  This is the split-brain
        scenario the epoch fence exists for: the partitioned ex-primary
        can still *send* to switches, but its writes carry a superseded
        epoch and are rejected.
        """
        self._partitioned_replica = self.primary

    # -- failover ----------------------------------------------------------------

    def _failover(self, candidate: ControllerReplica) -> None:
        old = self.primary
        now = self.sim.now
        down_at = (self._primary_down_at
                   if self._primary_down_at is not None
                   else candidate.last_heartbeat)
        # The demoted primary's unflushed replication batches never
        # reach the wire -- its process is dead, or (partition) its
        # link to the backups is cut.  Must run while the backups'
        # channels still point at the old primary.
        self._drop_unflushed_replication()
        old.role = ReplicaRole.DEAD
        old_runtime = old.runtime
        # The dead deployment must never again talk to the stubs (a
        # late detector tick sending RestoreCommands would corrupt apps
        # that have re-attached elsewhere).
        old_runtime.proxy.shutdown()
        if self._stop_heartbeat is not None:
            self._stop_heartbeat()
            self._stop_heartbeat = None
        if self._stop_stats is not None:
            self._stop_stats()
            self._stop_stats = None

        # 1. Advance the epoch and fence the old one out of every
        # switch BEFORE the new primary exists: from this instant the
        # old primary's writes -- even ones already in flight -- are
        # rejected at delivery.  Commits the old primary was holding
        # for quorum die with its epoch (their deadline callbacks
        # no-op on the epoch guard).
        self._pending_quorum.clear()
        self._pending_votes.clear()
        self._txn_frames.clear()
        self.epoch += 1
        self.fence.advance(self.epoch)
        # The mode policy is fenced on the same epoch: an escalation or
        # de-escalation computed against the dead epoch (and delivered
        # late) is rejected, so the two sides of this failover can
        # never disagree about the mode.  The mode itself carries over.
        self.mode_policy.advance_epoch(self.epoch)
        candidate.role = ReplicaRole.PRIMARY
        candidate.controller.epoch = self.epoch

        # BYZANTINE mode: promotion-time tail verification.  Before the
        # ledgers rebase, 2f+1 of the surviving cohort (the candidate
        # included) must agree on the candidate's chain digest at its
        # verified floor -- a replica promoting a fabricated tail fails
        # this loudly instead of silently becoming the source of truth.
        tail_verified = True
        if self.voting:
            tail_floor = candidate.ledger.floor
            agree = 1  # the candidate stands behind its own tail
            for survivor in self.replicas:
                if (survivor is not candidate
                        and survivor.role is ReplicaRole.BACKUP
                        and survivor.is_live and not survivor.quarantined
                        and survivor.ledger.at(tail_floor)
                        == candidate.ledger.digest):
                    agree += 1
            needed = self._vote_threshold()
            tail_verified = agree >= needed
            if not tail_verified:
                self.tail_unverified += 1
                self._note_byzantine(
                    "tail-unverified",
                    f"promotion of {candidate.replica_id} at resolve "
                    f"floor {tail_floor}: {agree}/{needed} matching "
                    f"digests",
                    replica=candidate.replica_id)

        # Epoch-scoped digest chains: replicas may have missed
        # *different* tails of the dead primary's stream, so cross-epoch
        # chain continuity is unprovable.  Every ledger rebases at the
        # set's resolve count (the view-change's agreed floor); votes
        # and conflict throttles restart from the fresh chain.
        self._digest_base = self.resolve_count
        for replica in self.replicas:
            replica.ledger.rebase(self._digest_base)
            replica.reset_votes()

        # 2. Take over the switch sessions (owned dpids only -- other
        # shards' switches belong to their own sets).  connect_switch
        # repoints each switch's control channel, so switch->controller
        # traffic flows to the new primary from here on.
        for dpid in self.dpids:
            switch = self.net.switches[dpid]
            if switch.up:
                candidate.controller.connect_switch(switch)

        # 3. A fresh runtime with the old deployment's configuration,
        # seeded with the replicated shadow so post-failover inversions
        # see the same pre-state the old primary saw.
        runtime = LegoSDNRuntime(candidate.controller, old_runtime.config)
        candidate.runtime = runtime
        manager = runtime.proxy.manager
        manager.adopt_shadow(candidate.shadow)

        # 4. Converge: replay the committed tail (idempotent FlowMods
        # re-assert recent state on the switches), then roll back the
        # orphans -- transactions the old primary opened but never
        # resolved -- from their shipped inverses, newest first.
        replayed = 0
        cutoff = now - self.REPLAY_WINDOW
        for ship in candidate.log:
            if ship.applied_at >= cutoff:
                candidate.controller.send_to_switch(
                    ship.dpid, ship.message)
                replayed += 1
        orphan_txns = len(candidate.open_txns)
        orphan_inverses = 0
        for txn_id in sorted(candidate.open_txns, reverse=True):
            for ship in reversed(candidate.open_txns[txn_id]):
                for inverse in ship.inverses:
                    manager.shadow_table(ship.dpid).apply_flow_mod(
                        inverse, now)
                    candidate.controller.send_to_switch(ship.dpid, inverse)
                    orphan_inverses += 1
        candidate.open_txns.clear()

        # 5. The stubs survived; adopt them.  Each re-registers with
        # the new proxy over its existing channel, resuming its seq
        # numbering so checkpoints and journals stay coherent.
        runtime.adopt_apps(old_runtime)

        # 6. Resume dispatch (discovery + SwitchJoin announcements) and
        # become the shipping source for the surviving backups.
        candidate.controller.start()
        for replica in self.replicas:
            if replica.role is ReplicaRole.BACKUP:
                self._wire_backup(replica)
        self._install_primary(candidate)

        duration = now - down_at
        record = FailoverRecord(
            epoch=self.epoch,
            at=now,
            down_at=down_at,
            duration=duration,
            from_replica=old.replica_id,
            to_replica=candidate.replica_id,
            orphan_txns=orphan_txns,
            orphan_inverses=orphan_inverses,
            replayed_records=replayed,
            tail_verified=tail_verified,
        )
        self.failovers.append(record)
        self._primary_down_at = None
        if self._partitioned_replica is old:
            self._partitioned_replica = None
        for callback in list(self.on_promote):
            callback(candidate)
        if candidate.telemetry.enabled:
            candidate.telemetry.tracer.record_span(
                "replication.failover", start=down_at,
                epoch=self.epoch,
                from_replica=old.replica_id,
                to_replica=candidate.replica_id,
                orphan_txns=orphan_txns,
                replayed=replayed,
            )
            candidate.telemetry.metrics.inc("replication.failovers")
            candidate.telemetry.metrics.observe(
                "replication.failover_time", duration)

    # -- quorum reads --------------------------------------------------------

    def resolve_floor(self, before: float) -> int:
        """How many resolves the primary had shipped by sim time
        ``before`` -- the count a freshness-bounded read must cover."""
        floor = 0
        for at, count in self.resolve_times:
            if at <= before:
                floor = count
            else:
                break
        return floor

    def read_eligible(self, replica: ControllerReplica,
                      freshness: float) -> bool:
        """May this backup serve a read under ``freshness``?

        Eligibility is provable staleness, not hope: the backup must
        have heard a heartbeat the primary *sent* within the bound, and
        have contiguously folded every record and resolve that
        heartbeat advertised.  Then anything the primary resolved
        before ``now - freshness`` was resolved before that heartbeat's
        send clock, is counted in its high-water marks, and is already
        folded here -- the read can be at most ``freshness`` old no
        matter what the channel dropped since (loss only makes the
        backup *ineligible*, never silently stale).
        """
        return (replica.role is ReplicaRole.BACKUP
                and replica.is_live
                and self.sim.now - replica.hb_sent_at <= freshness
                and replica.contig_index >= replica.hb_log_index
                and replica.contig_resolves >= replica.hb_resolve_count)

    @staticmethod
    def _rule_identities(table) -> frozenset:
        if table is None:
            return frozenset()
        return frozenset(
            (repr(e.match), e.priority, repr(tuple(e.actions)))
            for e in table
        )

    def quorum_read(self, dpid: int, freshness: float = 0.5) -> QuorumReadResult:
        """Serve a flow-state read from a warm backup when one is fresh
        enough, falling back to the primary otherwise.

        The primary stays the tie-breaker of truth, but every read a
        backup absorbs is load the primary does not serve -- the
        scaling story of sharded reads.  ``quorum_met`` reports whether
        a majority-sized cohort (primary plus eligible backups) stood
        behind the answer; with heavy loss it degrades honestly.
        """
        now = self.sim.now
        eligible = [r for r in self.replicas
                    if self.read_eligible(r, freshness)]
        majority = self._majority()
        primary = self.primary
        primary_live = primary is not None and primary.is_live
        cohort = len(eligible) + (1 if primary_live else 0)
        self.quorum_reads += 1
        if eligible:
            best = max(eligible,
                       key=lambda r: (r.contig_resolves, r.replica_id))
            result = QuorumReadResult(
                dpid=dpid,
                rules=self._rule_identities(best.shadow.get(dpid)),
                served_by=best.replica_id,
                staleness=now - best.hb_sent_at,
                freshness=freshness,
                quorum_met=cohort >= majority,
                from_backup=True,
                resolve_floor=best.contig_resolves,
            )
        else:
            self.quorum_read_fallbacks += 1
            manager = primary.runtime.proxy.manager \
                if primary_live and primary.runtime is not None else None
            table = manager.shadow.get(dpid) if manager is not None else None
            result = QuorumReadResult(
                dpid=dpid,
                rules=self._rule_identities(table),
                served_by=primary.replica_id if primary_live else "none",
                staleness=0.0,
                freshness=freshness,
                quorum_met=cohort >= majority,
                from_backup=False,
                resolve_floor=self.resolve_count,
            )
        if primary_live and primary.telemetry.enabled:
            primary.telemetry.metrics.inc("replication.quorum_reads")
            if not result.from_backup:
                primary.telemetry.metrics.inc(
                    "replication.quorum_read_fallbacks")
        return result

    # -- consistency measurement ------------------------------------------------

    def divergence(self) -> int:
        """Rule-set disagreement between the primary's NetLog shadow and
        the real switches: the size of the symmetric difference of
        (match, priority, actions) rule identities, summed over live
        switches.  E16 asserts this is 0 shortly after a failover.

        The controller's shadow cannot observe data-plane hits, so the
        comparison first runs an instantaneous stats reconcile (the
        same :meth:`~repro.core.netlog.transaction.TransactionManager.
        note_flow_stats` pass the primary's periodic poll runs, minus
        the channel latency), syncs each surviving shadow entry's idle
        clock to its real counterpart's (traffic keeping a rule alive
        is not divergence) and expires both sides at the current sim
        time; what remains is genuine disagreement -- rules one side
        has and the other does not."""
        primary = self.primary
        if primary is None or primary.runtime is None:
            return -1
        manager = primary.runtime.proxy.manager
        now = self.sim.now
        total = 0
        for dpid in self.dpids:
            switch = self.net.switches[dpid]
            if not switch.up:
                continue
            switch.sweep_flows()
            manager.note_flow_stats(switch._flow_stats(FlowStatsRequest()))
            shadow = manager.shadow.get(dpid)
            if shadow is not None:
                for entry in shadow.entries:
                    for real_entry in switch.flow_table.entries:
                        if real_entry.same_rule(entry.match, entry.priority):
                            entry.last_hit_at = max(entry.last_hit_at,
                                                    real_entry.last_hit_at)
                shadow.expire(now, dpid=dpid)
            total += len(self._rule_identities(switch.flow_table)
                         ^ self._rule_identities(shadow))
        return total

    def shadow_divergence(self, replica_id: str) -> int:
        """Rule-set disagreement between a backup's folded shadow and the
        primary's committed NetLog shadow: the size of the symmetric
        difference of (match, priority, actions) identities summed over
        switches.  Zero means the backup could promote right now and
        lose nothing -- the property a partition-healed resync restores
        (E17 asserts it)."""
        primary = self.primary
        backup = self.replica(replica_id)
        if primary is None or primary.runtime is None:
            return -1
        manager = primary.runtime.proxy.manager
        total = 0
        for dpid in set(manager.shadow) | set(backup.shadow):
            total += len(self._rule_identities(manager.shadow.get(dpid))
                         ^ self._rule_identities(backup.shadow.get(dpid)))
        return total

    def stats(self) -> Dict[str, object]:
        """Summary counters for experiment reporting."""
        return {
            "epoch": self.epoch,
            "primary": self.primary.replica_id if self.primary else None,
            "failovers": len(self.failovers),
            "shipped": self.ship_index,
            "resolves": self.resolve_count,
            "resolves_elided": self.resolves_elided,
            "fenced_writes": self.fence.fenced_writes,
            "resyncs": self.resyncs_served,
            "resync_records_sent": self.resync_records_sent,
            "quorum_commits": self.quorum_commits,
            "quorum_stalls": self.quorum_stalls,
            "quorum_degraded": self.quorum_degraded,
            "quorum_reads": self.quorum_reads,
            "quorum_read_fallbacks": self.quorum_read_fallbacks,
            "shard_id": self.shard_id,
            "mode": self.mode.value,
            "mode_switches": self.mode_policy.mode_switches,
            "fenced_mode_transitions": self.mode_policy.fenced_transitions,
            "sig_rejected": self.sig_rejected,
            "auth_faults": len(self.auth_faults),
            "votes_cast": self.votes_cast,
            "votes_confirmed": self.votes_confirmed,
            "vote_conflicts": self.vote_conflicts,
            "vote_stalls": self.vote_stalls,
            "quarantines": self.quarantines,
            "rejoins": self.rejoins,
            "tail_unverified": self.tail_unverified,
            "replicas": {
                r.replica_id: {
                    "role": r.role.value,
                    "ships_received": r.ships_received,
                    "lag": self.backup_lag(r),
                    "stale_frames": r.stale_frames,
                    "resync_requests": r.resync_requests,
                    "resync_dups": r.resync_dups,
                    "quarantined": r.quarantined,
                    "sig_rejected": r.sig_rejected,
                    "vote_conflicts": r.vote_conflicts,
                    "leaf_mismatches": r.leaf_mismatches,
                }
                for r in self.replicas
            },
        }
