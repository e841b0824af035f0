"""The replica set: one primary controller, N warm backups, failover.

Modelled on SMaRtLight's primary-backup design: a single controller
serves the network at any time; backups stay warm by consuming the
primary's shipped NetLog records; a lease-based failure detector
promotes the lowest-id live backup when the primary goes silent.  Every
promotion advances a monotonic *epoch* that fences the previous primary
out of the switches (:mod:`repro.replication.fence`), so even a primary
that is partitioned -- alive, but unheard -- cannot mutate network
state after it has been superseded.

:class:`ReplicaSet` is the composition root: it wires the parts that
own each decision (see :mod:`repro.replication`), answers quorum reads
and measures divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional

from repro.core.runtime import LegoSDNRuntime
from repro.openflow.messages import FlowStatsRequest
from repro.replication.byzantine import (
    ReplicaKeyring, ReplicationMode, ReplicationModePolicy)
from repro.replication.membership import (  # noqa: F401 (SeenNumbers)
    ControllerReplica, Membership, ReplicaRole, SeenNumbers)
from repro.replication.promotion import FailoverRecord, promote
from repro.replication.shipping import Shipping
from repro.replication.voting import Voting


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

    # The set's names for what its parts own.
    primary = property(attrgetter("members.primary"))
    runtime = property(attrgetter("members.primary.runtime"))
    epoch = property(attrgetter("members.epoch"))
    mode = property(attrgetter("mode_policy.mode"))
    #: True while resolves require 2f+1 matching digest votes.
    voting = property(attrgetter("mode_policy.voting"))
    ship_index = property(attrgetter("shipping.ship_index"))
    resolve_count = property(attrgetter("shipping.resolve_count"))
    resolves_elided = property(attrgetter("shipping.resolves_elided"))
    resyncs_served = property(attrgetter("shipping.resyncs_served"))
    resync_records_sent = property(
        attrgetter("shipping.resync_records_sent"))
    quorum_commits = property(attrgetter("shipping.quorum_gate.confirmed"))
    quorum_stalls = property(attrgetter("shipping.quorum_gate.stalled"))
    quorum_degraded = property(attrgetter("shipping.quorum_gate.degraded"))
    votes_confirmed = property(attrgetter("shipping.vote_gate.confirmed"))
    vote_stalls = property(attrgetter("shipping.vote_gate.stalled"))
    sig_rejected = property(attrgetter("votes.sig_rejected"))
    votes_cast = property(attrgetter("votes.votes_cast"))
    vote_conflicts = property(attrgetter("votes.vote_conflicts"))
    quarantines = property(attrgetter("votes.quarantines"))
    rejoins = property(attrgetter("votes.rejoins"))
    tail_unverified = property(attrgetter("votes.tail_unverified"))

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
        #: The switches this set serves: the whole network, or a shard's
        #: dpids (fencing, stats polling, failover reconnection and
        #: divergence accounting are scoped to them).
        self.dpids: List[int] = sorted(
            dpids if dpids is not None else net.switches)
        unknown = [d for d in self.dpids if d not in net.switches]
        if unknown:
            raise ValueError(f"unknown dpids {unknown}")
        self.shard_id = shard_id
        #: Authenticated shipping: every replication frame carries a
        #: pair-keyed HMAC stamp, verified on receipt.
        self.keyring = ReplicaKeyring(secret=seed)
        #: The CRASH_FAULT <-> BYZANTINE state machine; "crash" and
        #: "byzantine" pin the mode, "adaptive" lets anomalies escalate
        #: and a clean window de-escalate.  Epoch-fenced at failover.
        self.mode_policy = ReplicationModePolicy(
            mode=(ReplicationMode.BYZANTINE if repl_mode == "byzantine"
                  else ReplicationMode.CRASH_FAULT),
            pinned=repl_mode != "adaptive")
        self.members = Membership(
            self.sim, controller if controller is not None
            else net.controller, runtime, backups, shard_id,
            lease_timeout, chaos, seed, repl_retry_budget)
        self.votes = Voting(self.members, self.mode_policy, byz_f)
        self.shipping = Shipping(
            self.members, self.votes, self.mode_policy, self.keyring,
            byzantine, net.switches, self.dpids,
            heartbeat_interval, stats_interval, quorum, quorum_timeout,
            vote_timeout)
        self.replicas: List[ControllerReplica] = self.members.replicas
        self.fence = self.members.fence
        self.failovers: List[FailoverRecord] = []
        self.auth_faults = self.votes.auth_faults
        self.ship_history = self.shipping.ship_history
        self.resolve_times = self.shipping.resolve_times
        self.replica = self.members.replica
        self.live_backups = self.members.live_backups
        self.backup_lag = self.shipping.backup_lag
        #: The channel callback every backup's frames arrive through.
        self._on_backup_frame = self.shipping.receive
        #: Called with the promoted replica after every failover (the
        #: coordinator re-attaches shard routing here).
        self.on_promote: List = []
        #: Quorum reads served, and how many had to fall back to the
        #: primary because no backup met the freshness bound.
        self.quorum_reads = 0
        self.quorum_read_fallbacks = 0
        for dpid in self.dpids:
            net.switches[dpid].fence = self.fence
        self._serve_from(self.primary)
        self.sim.every(check_interval, self._monitor)

    def _serve_from(self, primary: ControllerReplica) -> None:
        """Make ``primary`` the source every backup is wired to: at
        construction and after each promotion."""
        receive = self.shipping.on_primary_frame
        for replica in self.replicas:
            if replica.role is not ReplicaRole.BACKUP:
                continue
            channel = self.members.open_channel(replica)
            channel.stub_end.on_frame(
                lambda frame, raw, r=replica:
                    self._on_backup_frame(r, frame, raw))
            channel.proxy_end.on_frame(
                lambda frame, raw, r=replica: receive(r, frame, raw))
        self.members.seat(primary)
        self.shipping.install(primary)

    def _monitor(self) -> None:
        """The periodic check, on the simulated clock: a clean window
        de-escalates the mode policy, an expired lease fails over."""
        self.mode_policy.maybe_deescalate(self.sim.now, self.epoch)
        candidate = self.members.lease_expired()
        if candidate is not None:
            self._failover(candidate)

    def _failover(self, candidate: ControllerReplica) -> None:
        """Promote ``candidate`` and serve from it."""
        self.failovers.append(promote(
            candidate, self.members, self.votes, self.shipping,
            self.mode_policy, self.net.switches, self.dpids))
        self._serve_from(candidate)
        for callback in list(self.on_promote):
            callback(candidate)

    def rehabilitate(self, replica_id: str) -> None:
        """Re-admit a quarantined replica (the operator's rejoin path).

        Nothing the replica holds can be trusted -- its log, shadow,
        and ledger are wiped and a *full* resync rebuilds them from the
        primary's history.  Until the replay lands it is an ordinary
        lagging backup; its votes resume from the rebased chain.
        """
        replica = self.replica(replica_id)
        if self.votes.rehabilitate(replica):
            self.shipping.request_resync(replica, 0, self.ship_index, 0)

    def crash_primary(self, reason: str = "injected controller fault") -> None:
        """Kill the primary's controller process (E16's fault)."""
        self.primary.controller.crash(RuntimeError(reason),
                                      culprit="fault-injection")

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

        Provable staleness, not hope: it heard a heartbeat the primary
        *sent* within the bound and has contiguously folded everything
        that heartbeat advertised -- so everything the primary resolved
        before ``now - freshness`` is folded here, whatever the channel
        dropped since (loss makes a backup ineligible, never stale).
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
        eligible = [r for r in self.replicas
                    if self.read_eligible(r, freshness)]
        primary = self.primary
        primary_live = primary.is_live
        self.quorum_reads += 1
        if eligible:
            best = max(eligible,
                       key=lambda r: (r.contig_resolves, r.replica_id))
            served_by, table = best.replica_id, best.shadow.get(dpid)
            staleness = self.sim.now - best.hb_sent_at
            floor = best.contig_resolves
        else:
            self.quorum_read_fallbacks += 1
            runtime = primary.runtime if primary_live else None
            served_by = primary.replica_id if primary_live else "none"
            table = (runtime.proxy.manager.shadow.get(dpid)
                     if runtime is not None else None)
            staleness, floor = 0.0, self.resolve_count
        if primary_live:
            self.members.sink.inc("replication.quorum_reads")
            if not eligible:
                self.members.sink.inc("replication.quorum_read_fallbacks")
        return QuorumReadResult(
            dpid=dpid,
            rules=self._rule_identities(table),
            served_by=served_by,
            staleness=staleness,
            freshness=freshness,
            quorum_met=(len(eligible) + primary_live
                        >= self.members.majority()),
            from_backup=bool(eligible),
            resolve_floor=floor,
        )

    def divergence(self) -> int:
        """Rule-set disagreement between the primary's NetLog shadow and
        the real switches: the size of the symmetric difference of
        (match, priority, actions) rule identities, summed over live
        switches.  E16 asserts this is 0 shortly after a failover.

        The shadow cannot see data-plane hits, so this first runs the
        stats reconcile the primary's poll runs (instantly), syncs each
        shadow entry's idle clock to its real counterpart's and expires
        both sides now; what remains is genuine disagreement."""
        runtime = self.runtime
        if runtime is None:
            return -1
        manager = runtime.proxy.manager
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
                    for real_entry in switch.flow_table.find(
                            entry.match, entry.priority):
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
        backup = self.replica(replica_id)
        runtime = self.runtime
        if runtime is None:
            return -1
        shadow = runtime.proxy.manager.shadow
        return sum(len(self._rule_identities(shadow.get(dpid))
                       ^ self._rule_identities(backup.shadow.get(dpid)))
                   for dpid in set(shadow) | set(backup.shadow))

    def stats(self) -> Dict[str, object]:
        """Summary counters for experiment reporting."""
        return {
            "epoch": self.epoch,
            "primary": self.primary.replica_id,
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
