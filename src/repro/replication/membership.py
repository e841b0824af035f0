"""Membership: the replica records, the lease and election, the epoch.

The lowest-id live, non-quarantined backup watches its own heartbeat
stream and is elected once the primary has been silent past the lease:
election is deterministic, so no coordination round is needed.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Set

from repro.controller.core import Controller
from repro.core.appvisor.channel import UdpChannel
from repro.core.runtime import LegoSDNRuntime
from repro.openflow.flowtable import FlowTable
from repro.replication.byzantine import DigestLedger
from repro.replication.fence import EpochFence
from repro.replication.frames import AppDelta, RecordShip
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


#: What a rejoin keeps; what a chain rebase resets (see ControllerReplica).
_KEEP = {"life": "kept"}
_VOTE = {"life": "vote"}


@dataclass
class ControllerReplica:
    """One controller instance in the set, plus its replication state.

    Unmarked fields are what a backup holds of the primary's stream and
    the primary's view of it: :meth:`wipe` (a rejoin) resets each to its
    default.  ``_VOTE`` fields are the chain a vote refers to, which
    :meth:`reset_votes` (a rebase) resets; ``_KEEP`` fields survive.
    """

    replica_id: str = field(metadata=_KEEP)
    controller: Controller = field(metadata=_KEEP)
    telemetry: Telemetry = field(metadata=_KEEP)
    role: ReplicaRole = field(metadata=_KEEP)
    #: The serving runtime (primary only; None while a warm backup).
    runtime: Optional[LegoSDNRuntime] = field(default=None, metadata=_KEEP)
    #: Replication channel to the current primary (backups only).
    channel: Optional[UdpChannel] = field(default=None, metadata=_KEEP)
    #: Committed NetLog records, in fold order (the replayable tail).
    log: List[RecordShip] = field(default_factory=list)
    #: Shipped records of transactions not yet resolved -- the orphans
    #: a promotion must roll back if the primary dies mid-transaction.
    open_txns: Dict[int, List[RecordShip]] = field(default_factory=dict)
    #: Replicated shadow flow tables (committed state only).
    shadow: Dict[int, FlowTable] = field(default_factory=dict)
    #: Per-app progress from the latest heartbeat's app deltas.
    app_progress: Dict[str, AppDelta] = field(default_factory=dict,
                                              metadata=_KEEP)
    last_heartbeat: float = field(default=0.0, metadata=_KEEP)
    last_ship_index: int = 0
    ships_received: int = field(default=0, metadata=_KEEP)
    #: Frames dropped because they carried a superseded epoch (or
    #: arrived after this replica stopped being a backup).
    stale_frames: int = field(default=0, metadata=_KEEP)
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
    resync_dups: int = field(default=0, metadata=_KEEP)
    resync_requests: int = field(default=0, metadata=_KEEP)
    resync_requested_at: float = field(default=float("-inf"),
                                       metadata=_KEEP)
    #: Quorum-read eligibility: the primary's clock and log position as
    #: of the last heartbeat this backup *received* (last_heartbeat is
    #: the backup's own receive time) -- see ReplicaSet.read_eligible.
    hb_sent_at: float = field(default=float("-inf"), metadata=_KEEP)
    hb_log_index: int = field(default=0, metadata=_KEEP)
    hb_resolve_count: int = field(default=0, metadata=_KEEP)
    #: Frames rejected because their HMAC stamp failed verification
    #: (tampered in flight, or forged without the pair key).
    sig_rejected: int = field(default=0, metadata=_KEEP)
    #: This replica's ordered view of the committed record stream --
    #: the chain digest its votes advertise.
    ledger: DigestLedger = field(default_factory=DigestLedger)
    #: Resolves whose locally computed leaf digest disagreed with the
    #: primary's advertised one (missing records, or a lying primary);
    #: the replica abstains from voting those until a resync heals them.
    leaf_mismatches: int = 0
    #: Partial record sets awaiting a resync heal: resolve_seq ->
    #: accumulated records (bounded).
    pending_leaves: Dict[int, List[RecordShip]] = field(
        default_factory=dict, metadata=_VOTE)
    #: The parked leaf a resync already re-delivered without healing
    #: it (what the primary re-sends does not hash to what it
    #: advertises): not asked for again in this epoch.
    unhealed_leaf: int = field(default=0, metadata=_VOTE)
    #: Primary-side view: this backup's latest vote floor and the
    #: highest floor whose vote matched ours.
    vote_floor: int = field(default=0, metadata=_VOTE)
    vote_matched: int = field(default=0, metadata=_VOTE)
    vote_conflicts: int = 0
    #: Quarantined: votes conflicted with the majority.  Excluded from
    #: shipping, voting, quorum, and election until rehabilitated.
    quarantined: bool = False
    quarantined_at: float = field(default=float("-inf"), metadata=_KEEP)
    #: Throttle for backup-side heartbeat-digest conflict reports.
    digest_conflict_floor: int = field(default=-1, metadata=_VOTE)

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
        they refer to is gone (rebased at a failover)."""
        self._reset(("vote",))

    def wipe(self) -> None:
        """Forget everything held of the primary's stream, and the
        primary's view of it: nothing a rejoining replica held is
        trusted."""
        self._reset(("vote", "held"))

    def _reset(self, lives) -> None:
        for f in fields(self):
            if f.metadata.get("life", "held") in lives:
                setattr(self, f.name, f.default if f.default_factory
                        is MISSING else f.default_factory())


class Sink:
    """Where the set's counters, events and spans go: the serving
    primary's telemetry, re-pointed by :meth:`Membership.crown`."""

    __slots__ = ("telemetry",)

    def __init__(self, telemetry: Telemetry):
        self.telemetry = telemetry

    def inc(self, metric: str) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.inc(metric)

    def observe(self, metric: str, value: float) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.observe(metric, value)

    def event(self, name: str, **tags) -> None:
        if self.telemetry.enabled:
            self.telemetry.tracer.event(name, **tags)

    def span(self, name: str, start: float, **tags) -> None:
        if self.telemetry.enabled:
            self.telemetry.tracer.record_span(name, start=start, **tags)


class Membership:
    """The replica records, the epoch, and the lease."""

    def __init__(self, sim, controller: Controller, runtime: LegoSDNRuntime,
                 backups: int, shard_id: Optional[int],
                 lease_timeout: float, chaos, seed: int,
                 retry_budget: int):
        self.sim = sim
        self.shard_id = shard_id
        self.lease_timeout = lease_timeout
        #: A ChaosProfile for every backup channel, or a callable
        #: ``replica_id -> profile-or-None``.
        self.chaos = chaos
        self.seed = seed
        self.retry_budget = retry_budget
        self.primary = ControllerReplica(
            "r0", controller, controller.telemetry, ReplicaRole.PRIMARY,
            runtime=runtime)
        self.replicas: List[ControllerReplica] = [self.primary]
        for rid in (f"r{i}" for i in range(1, backups + 1)):
            # Configured as the primary is: telemetry settings (tagged
            # with its own id), service model, lanes, discovery cadence.
            backup = Controller(
                sim, discovery_interval=controller.discovery.interval,
                telemetry=controller.telemetry.sibling(rid, shard_id),
                dispatch_shards=controller.dispatch_shards,
                service_time=controller.service_time)
            backup.shard_id = shard_id
            self.replicas.append(ControllerReplica(
                rid, backup, backup.telemetry, ReplicaRole.BACKUP))
        self.sink = Sink(self.primary.telemetry)
        self.epoch = 0
        self.fence = EpochFence(epoch=0)
        #: A primary cut off from the backups: alive, unheard.
        self.partitioned: Optional[ControllerReplica] = None
        #: When the primary died, if it was seen to (None: not yet).
        self.down_at: Optional[float] = None

    def replica(self, replica_id: str) -> ControllerReplica:
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise KeyError(replica_id)

    def live_backups(self) -> List[ControllerReplica]:
        return [r for r in self.replicas
                if r.role is ReplicaRole.BACKUP and r.is_live
                and not r.quarantined]

    def behind(self, stands: Optional[Callable] = None) -> int:
        """How much of the cohort stands behind something: the primary
        (which counts itself) plus every live backup ``stands(backup)``
        holds for -- all of them when ``stands`` is None."""
        return 1 + sum(1 for backup in self.live_backups()
                       if stands is None or stands(backup))

    def majority(self) -> int:
        return self.behind() // 2 + 1

    def serving(self, replica: ControllerReplica) -> bool:
        """Whether ``replica`` may act as primary right now: a
        superseded primary (demoted, or crashed-then-rebooted) and a
        partitioned one do nothing."""
        return (replica.role is ReplicaRole.PRIMARY
                and not replica.controller.crashed
                and replica is not self.partitioned)

    def lease_expired(self) -> Optional[ControllerReplica]:
        """The elected backup -- the lowest-id live one -- once its
        own heartbeat stream has been silent past the lease."""
        backups = self.live_backups()
        if backups and (self.sim.now - backups[0].last_heartbeat
                        > self.lease_timeout):
            return backups[0]
        return None

    def open_channel(self, replica: ControllerReplica) -> UdpChannel:
        """A fresh UDP channel from the current primary (proxy end) to
        one backup (stub end), so shipping a record costs real encoded
        bytes and channel latency just like delivering an event to an
        app.  Opened again to every survivor after each failover."""
        chaos = (self.chaos(replica.replica_id) if callable(self.chaos)
                 else self.chaos)
        channel = UdpChannel(
            self.sim,
            seed=self.seed + int(replica.replica_id[1:]),
            # What one sim instant ships rides one datagram per backup.
            batch=True,
            # Retransmitted: only a partition longer than the budget
            # leaves gaps, and the ranged resync repairs those on heal.
            retry_budget=self.retry_budget,
            chaos=chaos,
            telemetry=self.primary.telemetry,
            span_name="replication.ship",
        )
        # MACs are verified over the bytes that arrived.
        channel.stub_end.raw_frames = channel.proxy_end.raw_frames = True
        replica.channel = channel
        # A fresh lease: the backup has "heard from" this primary now.
        replica.last_heartbeat = self.sim.now
        return channel

    def seat(self, replica: ControllerReplica) -> None:
        """Tag ``replica``'s telemetry as the primary's and watch it
        die: the time it did starts the failover clock."""
        replica.telemetry.set_replica(replica.replica_id)
        if self.shard_id is not None:
            replica.telemetry.set_shard(self.shard_id)
        replica.controller.epoch = self.epoch

        def on_crash(exc, culprit):
            if replica.role is not ReplicaRole.PRIMARY:
                return
            # The primary holds the proxy end of every replication
            # channel: ships/resolves/heartbeats it enqueued this tick
            # but never flushed die with its process.
            self.drop_unflushed()
            if self.down_at is None:
                self.down_at = self.sim.now

        replica.controller.crash_callbacks.append(on_crash)

    def drop_unflushed(self) -> None:
        """Discard frames the primary batched but never flushed: when it
        dies, and again at failover (the partition path, where its
        process never crashed but its link to the backups is gone)."""
        for replica in self.replicas:
            if (replica.role is ReplicaRole.BACKUP
                    and replica.channel is not None):
                replica.channel.drop_pending("proxy")

    def crown(self, candidate: ControllerReplica) -> None:
        """Advance the epoch and fence the old one out of every switch
        *before* the new primary exists: from this instant the old
        primary's writes -- even ones already in flight -- are rejected
        at delivery."""
        self.epoch += 1
        self.fence.advance(self.epoch)
        self.primary = candidate
        candidate.role = ReplicaRole.PRIMARY
        candidate.controller.epoch = self.epoch
        self.sink.telemetry = candidate.telemetry
