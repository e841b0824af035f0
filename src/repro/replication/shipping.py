"""Shipping: the primary's NetLog writes, out to every backup and back.

Records ship as NetLog applies them, a resolve per transaction that
wrote; backups fold at commit-resolve, ack, and ask for a ranged replay
when a heartbeat shows a gap.  Every frame carries a pair-keyed HMAC
stamp, verified over the bytes that arrived.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Dict, List, Optional

from repro.openflow.flowtable import FlowTable
from repro.openflow.messages import FlowStatsRequest
from repro.record import replace
from repro.replication.byzantine import ReplicationMode, resolve_leaf
from repro.replication.frames import (
    AppDelta, RecordShip, ReplAck, ReplHeartbeat, ResyncRequest, TxnResolve)
from repro.replication.membership import ReplicaRole

#: Min gap between ResyncRequests from one backup, so a slow replay is
#: not re-requested every heartbeat.
RESYNC_COOLDOWN = 0.1


class Gate:
    """One way a shipped commit waits on the cohort: pending until
    enough replicas stand behind its resolve, stalled -- released
    unconfirmed -- when its window closes first.  Quorum commit and
    BYZANTINE-mode output voting are the two instances."""

    def __init__(self, members, timeout: float, progress, needed, names):
        self.members = members
        self.sink = members.sink
        self.sim = members.sim
        self.timeout = timeout
        #: The highest resolve a backup stands behind (acked, or voted a
        #: matching digest for).
        self.progress = progress
        #: How many of the cohort (primary included) must stand behind.
        self.needed = needed
        #: resolve_seq -> shipped_at.
        self.pending: Dict[int, float] = {}
        self.confirmed = 0
        self.stalled = 0
        #: From a window that closed unconfirmed until the next commit
        #: the cohort confirms.
        self.degraded = False
        confirmed, stalled, kind, self.needed_tag = names
        self._confirmed_metric = f"replication.{confirmed}"
        self._stalled_metric = f"replication.{stalled}"
        self._latency_metric = f"replication.{kind}_latency"
        self._stall_event = f"replication.{kind}_stall"

    def open(self, resolve_seq: int) -> None:
        self.pending[resolve_seq] = self.sim.now
        self.sim.schedule(self.timeout, self._deadline, resolve_seq,
                          self.members.epoch)

    def check(self) -> None:
        """Retire the pending commits enough of the cohort stands
        behind."""
        if not self.pending:
            return
        needed = self.needed()
        progress = self.progress
        for resolve_seq in sorted(self.pending):
            if self.members.behind(
                    lambda b: progress(b) >= resolve_seq) < needed:
                continue
            shipped_at = self.pending.pop(resolve_seq)
            self.confirmed += 1
            self.degraded = False
            self.sink.inc(self._confirmed_metric)
            self.sink.observe(self._latency_metric,
                              self.sim.now - shipped_at)

    def _deadline(self, resolve_seq: int, epoch: int) -> None:
        """A commit's window closed without enough of the cohort:
        degrade, do not block.  NetLog already committed it; only the
        guarantee (durability, or the Byzantine confirmation) is lost,
        and that stays visible in the counters and ``degraded``."""
        if (epoch != self.members.epoch
                or self.pending.pop(resolve_seq, None) is None):
            return
        self.stalled += 1
        self.degraded = True
        self.sink.inc(self._stalled_metric)
        self.sink.event(self._stall_event, resolve_seq=resolve_seq,
                        **{self.needed_tag: self.needed()})


class Shipping:
    """The primary's stream of writes, the backups' folding of it, and
    the resync that repairs the gaps a partition leaves."""

    def __init__(self, members, votes, policy, keyring, byzantine,
                 switches, dpids: List[int], heartbeat_interval: float,
                 stats_interval: float, quorum: bool,
                 quorum_timeout: float, vote_timeout: float):
        self.members = members
        self.sink = members.sink
        self.sim = members.sim
        self.votes = votes
        self.policy = policy
        self.keyring = keyring
        #: Byzantine *replica* fault injection: ``rid ->``
        #: :class:`~repro.faults.byzfaults.ByzantineProfile` ``-or-None``.
        self.byzantine = byzantine
        self.switches = switches
        self.dpids = dpids
        self.heartbeat_interval = heartbeat_interval
        self.stats_interval = stats_interval
        self.quorum = quorum
        #: Quorum (majority-ack) commit: a commit is *durable* only once
        #: a majority of live replicas (primary included) acked it.
        self.quorum_gate = Gate(
            members, quorum_timeout, attrgetter("acked_resolves"),
            members.majority,
            ("quorum_commits", "quorum_stalls", "quorum", "majority"))
        #: BYZANTINE mode: a commit is confirmed by 2f+1 matching votes.
        self.vote_gate = Gate(
            members, vote_timeout, attrgetter("vote_matched"),
            votes.threshold,
            ("votes_confirmed", "vote_stalls", "vote", "needed"))
        self.ship_index = 0
        #: Total resolves shipped (the heartbeat's second lag axis).
        self.resolve_count = 0
        #: Transactions resolved without a resolve shipped: they wrote
        #: nothing to the WAL (see :meth:`ship_resolve`).
        self.resolves_elided = 0
        #: Every frame shipped since the set was built, across
        #: failovers, in ship order: ("record", RecordShip) |
        #: ("resolve", TxnResolve).  Ranged resync replays from it; it
        #: is only ever appended to.
        self.ship_history: List[tuple] = []
        self.resyncs_served = 0
        self.resync_records_sent = 0
        #: (sim time, resolve_count) at each shipped resolve, bounded:
        #: what had resolved by time T, the floor a read must clear.
        self.resolve_times: deque = deque(maxlen=4096)
        #: Shipped-but-unresolved record frames per txn, for the
        #: primary's leaf digest at resolve time.
        self._txn_frames: Dict[int, List[RecordShip]] = {}
        self._stop_timers: List = []
        policy.on_switch.append(self._on_mode_switch)

    def _on_mode_switch(self, record) -> None:
        if record.mode is ReplicationMode.CRASH_FAULT:
            # De-escalation releases in-flight voting windows: their
            # deadline callbacks find nothing pending and no-op.
            self.vote_gate.pending.clear()

    def backup_lag(self, replica) -> int:
        """Shipped records this backup has not yet received."""
        return self.ship_index - replica.last_ship_index

    def install(self, replica) -> None:
        """Hook shipping, heartbeats and the stats poll into the
        primary's runtime.  Each closure checks the replica still
        serves, so a superseded primary can never ship into the new
        epoch."""
        serving = self.members.serving
        manager = replica.runtime.proxy.manager

        def ship(txn, record):
            if serving(replica):
                self.ship_record(txn, record)

        def resolve(txn, outcome):
            if serving(replica):
                self.ship_resolve(txn, outcome)

        def heartbeat():
            if serving(replica):
                self.heartbeat(replica)

        # Stats polling keeps the NetLog shadow's idle clocks honest (the
        # controller cannot see data-plane hits, and a promoted backup
        # would inherit the drift); replies reconcile through
        # TransactionManager.note_flow_stats.
        def poll_stats():
            if serving(replica):
                for dpid in self.dpids:
                    if self.switches[dpid].up:
                        replica.controller.send_to_switch(
                            dpid, FlowStatsRequest())

        manager.on_apply.append(ship)
        manager.on_resolve.append(resolve)
        self._stop_timers.append(
            self.sim.every(self.heartbeat_interval, heartbeat))
        if self.stats_interval > 0:
            self._stop_timers.append(
                self.sim.every(self.stats_interval, poll_stats))

    def retire(self) -> None:
        """The primary is being replaced: stop its timers, and drop the
        commits it was holding -- their windows die with its epoch."""
        for stop in self._stop_timers:
            stop()
        self._stop_timers.clear()
        self.quorum_gate.pending.clear()
        self.vote_gate.pending.clear()
        self._txn_frames.clear()

    def _send(self, replica, frame, upstream: bool = False) -> None:
        """Stamp and transmit one frame between the primary and
        ``replica`` (``upstream``: from it).  Signing happens per peer
        (the MAC is pair-keyed), over the one encoding the channel makes
        to send the frame.  A compromised sender's ByzantineProfile gets
        its say on the stamped frame -- it holds its own keys, so its
        equivocated or lying variants are re-signed through ``signer``
        and pass authentication; only voting can catch them."""
        primary = self.members.primary.replica_id
        if upstream:
            endpoint, sender, receiver = (replica.channel.stub_end,
                                          replica.replica_id, primary)
        else:
            endpoint, sender, receiver = (replica.channel.proxy_end,
                                          primary, replica.replica_id)

        def signer(f):
            return self.keyring.stamp(f, sender, receiver)
        profile = (self.byzantine(sender) if self.byzantine is not None
                   else None)
        if profile is None:
            endpoint.send(frame, seal=signer)
            return
        if upstream:
            frames = profile.perturb_backup(self.sim.now, signer(frame),
                                            signer)
        else:
            frames = profile.perturb_primary(self.sim.now, signer(frame),
                                             receiver, signer)
        for out in frames:
            endpoint.send(out)

    def ship_record(self, txn, record) -> None:
        self.ship_index += 1
        frame = RecordShip(
            epoch=self.members.epoch,
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
        for replica in self.members.live_backups():
            self._send(replica, frame)
        self.sink.inc("replication.ships")

    def ship_resolve(self, txn, outcome: str) -> None:
        """Replicate writes, not events: a resolve ships iff a record
        of its transaction shipped in this epoch.  One that appended
        nothing to the WAL (a PacketOut-only event), commit or abort,
        has nothing for a backup to fold, roll back, vote on or make
        durable, so nothing leaves the primary and no sequence number,
        leaf or window is spent on it."""
        records = self._txn_frames.pop(txn.txn_id, None)
        if records is None:
            self.resolves_elided += 1
            self.sink.inc("replication.resolves_elided")
            return
        self.resolve_count += 1
        leaf = resolve_leaf(self.resolve_count, outcome, records)
        frame = TxnResolve(
            epoch=self.members.epoch,
            txn_id=txn.txn_id,
            outcome=outcome,
            log_index=self.ship_index,
            resolve_seq=self.resolve_count,
            trace_id=getattr(txn, "trace_id", None) or 0,
            leaf=leaf,
        )
        self.members.primary.ledger.add(self.resolve_count, leaf)
        self.ship_history.append(("resolve", frame))
        self.resolve_times.append((self.sim.now, self.resolve_count))
        for replica in self.members.live_backups():
            self._send(replica, frame)
        if outcome == "commit":
            if self.quorum:
                self.quorum_gate.open(frame.resolve_seq)
            if self.policy.voting:
                self.vote_gate.open(frame.resolve_seq)

    def heartbeat(self, replica) -> None:
        deltas = tuple(
            AppDelta(app_name=record.name, last_seq=record.last_seq,
                     events_completed=record.events_completed)
            for record in replica.runtime.proxy.apps.values()
        )
        frame = ReplHeartbeat(
            epoch=self.members.epoch,
            log_index=self.ship_index,
            sent_at=self.sim.now,
            app_deltas=deltas,
            resolve_count=self.resolve_count,
            # The primary's own vote: its chain digest at its ledger
            # floor (== resolve_count in steady state).
            digest=replica.ledger.digest,
        )
        for backup in self.members.live_backups():
            self._send(backup, frame)
        self.sink.inc("replication.heartbeats")

    def on_primary_frame(self, replica, frame,
                         raw: Optional[bytes] = None) -> None:
        """Primary-side receive: acks and resync requests.  Epoch
        fencing first (stale is not hostile), then the pair MAC over
        ``raw``, the bytes ``frame`` was decoded from: a frame that
        fails it is counted and dropped, never processed."""
        epoch = self.members.epoch
        if getattr(frame, "epoch", epoch) != epoch or replica.quarantined:
            replica.stale_frames += 1
            return
        if not self.keyring.verify(raw or frame, replica.replica_id,
                                   self.members.primary.replica_id):
            self.votes.note_sig_rejected(replica, frame)
            return
        if isinstance(frame, ReplAck):
            replica.acked_index = max(replica.acked_index, frame.log_index)
            replica.acked_resolves = max(replica.acked_resolves,
                                         frame.resolve_count)
            if (frame.digest_floor > 0
                    and self.votes.note_vote(replica, frame.digest_floor,
                                             frame.digest)
                    and self.policy.voting):
                self.vote_gate.check()
            if self.quorum:
                self.quorum_gate.check()
        elif isinstance(frame, ResyncRequest):
            self._serve_resync(replica, frame)

    def _serve_resync(self, replica, request: ResyncRequest) -> None:
        """Replay the requested range to one lagging backup: records
        past ``from_index`` and the resolves past ``from_resolve``, never
        the full log.  The backup's seen sets make redelivery
        idempotent, so overlap at the range edge is harmless."""
        started = self.sim.now
        epoch = self.members.epoch
        sent = 0
        for kind, frame in self.ship_history:
            if not (frame.index > request.from_index if kind == "record"
                    else frame.resolve_seq > request.from_resolve):
                continue
            if frame.epoch != epoch:
                # Re-ship as the current primary's own: the content is
                # epoch-independent, only the fencing tag must be fresh
                # (the history holds unsigned frames; _send stamps them).
                frame = replace(frame, epoch=epoch)
            self._send(replica, frame)
            sent += 1
        self.resyncs_served += 1
        self.resync_records_sent += sent
        self.sink.inc("replication.resyncs")
        self.sink.span("replication.resync", started,
                       replica=replica.replica_id,
                       from_index=request.from_index,
                       to_index=request.to_index, frames=sent)

    def receive(self, replica, frame, raw: Optional[bytes] = None) -> None:
        """Backup-side receive: records, resolves and heartbeats."""
        if (replica.role is not ReplicaRole.BACKUP
                or getattr(frame, "epoch", self.members.epoch)
                < self.members.epoch or replica.quarantined):
            # Late traffic from a superseded epoch, frames landing on a
            # replica that has since been promoted (or died), or on one
            # in quarantine.
            replica.stale_frames += 1
            return
        if not self.keyring.verify(raw or frame,
                                   self.members.primary.replica_id,
                                   replica.replica_id):
            # Suspicion falls on the *sender*: a primary->backup frame
            # that fails the pair MAC was tampered by (or en route from)
            # the primary side.
            self.votes.note_sig_rejected(self.members.primary, frame)
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
            if self.quorum or self.policy.voting:
                self._send_ack(replica)
        elif isinstance(frame, TxnResolve):
            # Idempotent by construction: a record enters open_txns at
            # most once (seen_indices), so re-processing a resolve after
            # a resync folds only records the first pass never had.
            records = replica.open_txns.pop(frame.txn_id, [])
            if frame.outcome == "commit":
                # Fold at commit-resolve with the primary's apply times:
                # the shadow is exactly what the primary's NetLog
                # committed, never a half-applied transaction.
                for rec in records:
                    table = replica.shadow.get(rec.dpid)
                    if table is None:
                        table = replica.shadow[rec.dpid] = FlowTable()
                    table.apply_flow_mod(rec.message, rec.applied_at)
                replica.log.extend(records)
            # On abort: discard (the primary sent the inverses itself).
            self.votes.fold_leaf(replica, frame, records)
            if not replica.seen_resolve_seqs.add(frame.resolve_seq):
                replica.resync_dups += 1
            if self.quorum or self.policy.voting:
                self._send_ack(replica)
        elif isinstance(frame, ReplHeartbeat):
            replica.last_heartbeat = self.sim.now
            # Quorum-read high-water marks: the primary's position as of
            # its send clock -- everything it resolved before ``sent_at``
            # is <= hb_resolve_count, which read_eligible() leans on.
            replica.hb_sent_at = max(replica.hb_sent_at, frame.sent_at)
            replica.hb_log_index = max(replica.hb_log_index,
                                       frame.log_index)
            replica.hb_resolve_count = max(replica.hb_resolve_count,
                                           frame.resolve_count)
            replica.app_progress = {
                delta.app_name: delta for delta in frame.app_deltas
            }
            if frame.resolve_count > 0:
                self.votes.cross_check(replica, frame.resolve_count,
                                       frame.digest)
            self._maybe_request_resync(replica, frame)
            self._send_ack(replica)

    def _send_ack(self, replica) -> None:
        # The vote rides the ack: this backup's chain digest at its
        # verified floor (which lags contig_resolves while abstaining).
        self._send(replica, ReplAck(
            replica_id=replica.replica_id, epoch=self.members.epoch,
            log_index=replica.last_ship_index,
            resolve_count=replica.contig_resolves,
            digest=replica.ledger.digest,
            digest_floor=replica.ledger.floor), upstream=True)

    def _maybe_request_resync(self, replica,
                              heartbeat: ReplHeartbeat) -> None:
        """Backup-side lag detection (the heal signal): the first
        heartbeat through a partition is the first moment a backup can
        compare the primary's advertised position with what it holds
        contiguously; a gap in records or resolves asks for a ranged
        replay instead of waiting for repair that never comes."""
        behind = (heartbeat.log_index > replica.contig_index
                  or heartbeat.resolve_count > replica.contig_resolves
                  # Abstaining from a leaf (partial record set) also
                  # counts as lag: the replay re-delivers the gap so
                  # the merged set can heal the vote.
                  or (bool(replica.pending_leaves)
                      and heartbeat.resolve_count > replica.ledger.floor
                      and replica.ledger.floor >= replica.unhealed_leaf))
        if (not behind or self.sim.now - replica.resync_requested_at
                < RESYNC_COOLDOWN):
            return  # one outstanding request at a time
        if replica.telemetry.enabled:
            replica.telemetry.tracer.event(
                "replication.resync_request",
                from_index=replica.contig_index,
                to_index=heartbeat.log_index)
        self.request_resync(
            replica, replica.contig_index, heartbeat.log_index,
            min(replica.contig_resolves, replica.ledger.floor))

    def request_resync(self, replica, from_index: int, to_index: int,
                       from_resolve: int) -> None:
        """Ask the primary to replay what follows the given marks."""
        replica.resync_requested_at = self.sim.now
        replica.resync_requests += 1
        self._send(replica, ResyncRequest(
            replica_id=replica.replica_id, epoch=self.members.epoch,
            from_index=from_index, to_index=to_index,
            from_resolve=from_resolve), upstream=True)
