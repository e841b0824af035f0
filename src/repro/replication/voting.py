"""Voting: what the cohort's digests say, and what becomes of a liar.

Signature rejections, digest conflicts and unverifiable promotions are
all suspicion: each escalates the mode policy and reaches the watchdog
(MORPH's output comparator).
"""

from __future__ import annotations

from typing import List, Optional

from repro.replication.byzantine import (
    AuthFault, resolve_leaf, tolerable_f, vote_threshold)
from repro.replication.frames import RecordShip, TxnResolve

#: Conflicting votes from one replica before it is quarantined.
QUARANTINE_THRESHOLD = 2
#: Signature rejections from one peer per AuthFault raised.
AUTH_FAULT_THRESHOLD = 3


class Voting:
    """The vote threshold, the quarantine policy, and the set's
    Byzantine accounting."""

    def __init__(self, members, policy, byz_f: Optional[int]):
        self.members = members
        self.sink = members.sink
        self.sim = members.sim
        self.policy = policy
        #: Tolerated Byzantine replicas; None derives floor((n-1)/3)
        #: from the live cohort at each vote count.
        self.byz_f = byz_f
        #: HealthWatchdog wired via guard_replication (None = standalone
        #: escalation through the mode policy only).
        self.watchdog = None
        self.sig_rejected = 0
        self.votes_cast = 0
        self.vote_conflicts = 0
        self.quarantines = 0
        self.rejoins = 0
        self.tail_unverified = 0
        self.auth_faults: List[AuthFault] = []
        #: Chain-digest rebase point: ledgers restart here after each
        #: failover (the view-change's agreed floor).
        self.digest_base = 0
        policy.on_switch.append(self._on_mode_switch)

    def threshold(self) -> int:
        """Matching digest votes needed to confirm a resolve: 2f+1,
        clamped to the live cohort (sets smaller than 3f+1 cannot
        actually mask f liars -- the clamp keeps them live rather than
        wedged, and ``tail_unverified``/``vote_stalls`` record the
        shortfall)."""
        n = self.members.behind()   # the primary votes its own ledger
        f = self.byz_f if self.byz_f is not None else tolerable_f(n)
        return min(vote_threshold(f), n)

    def note_sig_rejected(self, replica, frame) -> None:
        """One frame failed HMAC verification: count it, and raise an
        AuthFault once the run from this peer crosses the threshold --
        a tampering replica is *detected*, never obeyed."""
        replica.sig_rejected += 1
        self.sig_rejected += 1
        self.sink.inc("replication.sig_rejected")
        self.sink.event("replication.sig_rejected",
                        replica=replica.replica_id,
                        frame=type(frame).__name__)
        if replica.sig_rejected % AUTH_FAULT_THRESHOLD == 0:
            fault = AuthFault(replica_id=replica.replica_id,
                              rejections=replica.sig_rejected,
                              at=self.sim.now)
            self.auth_faults.append(fault)
            self.suspect("auth-fault",
                         f"{replica.replica_id}: {replica.sig_rejected} "
                         f"signature rejections",
                         replica=replica.replica_id)

    def suspect(self, kind: str, detail: str, **tags) -> None:
        """Central suspicion sink: escalate the mode policy and feed the
        watchdog's byzantine-divergence anomaly kind (scored on
        /healthz) when one is wired."""
        self.policy.note_anomaly(self.sim.now, self.members.epoch, kind,
                                 detail)
        if self.watchdog is not None:
            self.watchdog.note_byzantine(detail, suspicion=kind, **tags)
        else:
            self.sink.event(f"replication.{kind}", detail=detail, **tags)

    def _on_mode_switch(self, record) -> None:
        self.sink.inc("replication.mode_switches")
        self.sink.event("replication.mode_switch", mode=record.mode.value,
                        reason=record.reason, epoch=record.epoch)

    def cross_check(self, replica, floor: int, digest: int) -> None:
        """Compare the primary's heartbeat digest with this backup's own
        ledger at the same floor.  A mismatch at a floor both sides have
        folded means the committed histories already diverged -- report
        once per floor (the throttle), escalate, and let voting
        arbitrate."""
        mine = replica.ledger.at(floor)
        if (mine is not None and mine != digest
                and floor > replica.digest_conflict_floor):
            replica.digest_conflict_floor = floor
            self.suspect(
                "byzantine-divergence",
                f"heartbeat digest {digest:#018x} at resolve {floor} != "
                f"{replica.replica_id}'s {mine:#018x}",
                replica=replica.replica_id, floor=floor)

    def fold_leaf(self, replica, frame: TxnResolve,
                  records: List[RecordShip]) -> None:
        """Fold one resolve into the backup's chain digest -- or abstain.

        Only a leaf the primary's advertisement agrees with is folded,
        so lost records stall this backup's *vote*, never poison its
        chain: a partial record set parks in ``pending_leaves`` until a
        resync re-delivers the gap.  A mismatch over a provably
        *complete* record set is the equivocation signature.
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
            self.suspect(
                "equivocation",
                f"{replica.replica_id} computed leaf {local_leaf:#018x} "
                f"for resolve {frame.resolve_seq} from a complete record "
                f"set; primary advertised {frame.leaf:#018x}",
                replica=replica.replica_id, resolve_seq=frame.resolve_seq)

    def note_vote(self, replica, floor: int, digest: int) -> bool:
        """One backup's digest vote, piggybacked on its ack: True when
        it matches the primary's ledger (the backup's verified floor
        advances).  A conflicting vote is Byzantine evidence -- counted,
        escalated, and in voting mode eventually quarantining."""
        if floor < replica.vote_floor:
            return False  # reordered ack: an older vote, superseded
        replica.vote_floor = floor
        self.votes_cast += 1
        self.sink.inc("replication.votes_cast")
        expected = self.members.primary.ledger.at(floor)
        if expected is None:
            return False  # outside our history window: no verdict
        if digest == expected:
            replica.vote_matched = max(replica.vote_matched, floor)
            return True
        replica.vote_conflicts += 1
        self.vote_conflicts += 1
        self.sink.inc("replication.vote_conflicts")
        self.suspect(
            "byzantine-divergence",
            f"{replica.replica_id} voted {digest:#018x} at resolve "
            f"{floor}, cohort digest {expected:#018x}",
            replica=replica.replica_id, floor=floor)
        # Quarantine only a genuine *minority*: 2f+1 of the cohort must
        # stand behind the primary's digest at or past the floor.  An
        # equivocating primary cannot muster that, so its victims are
        # never quarantined for honestly reporting what they saw.
        if (self.policy.voting and not replica.quarantined
                and replica.vote_conflicts >= QUARANTINE_THRESHOLD
                and self.members.behind(lambda b: b.vote_matched >= floor)
                >= self.threshold()):
            self._quarantine(replica, floor, expected, digest)
        return False

    def _quarantine(self, replica, floor: int, expected: int,
                    got: int) -> None:
        """Expel a replica whose votes conflict with the cohort from
        shipping, voting, quorum and election (live_backups excludes
        it), and file a ticket carrying both digests."""
        replica.quarantined = True
        replica.quarantined_at = self.sim.now
        self.quarantines += 1
        self.sink.inc("replication.replicas_quarantined")
        self.sink.event("replication.quarantine",
                        replica=replica.replica_id, floor=floor)
        runtime = self.members.primary.runtime
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

    def rehabilitate(self, replica) -> bool:
        """Wipe a quarantined replica for its rejoin (False if it was
        not quarantined), its ledger restarted at the rebase point.  A
        fresh lease too: nothing was heartbeated at it in quarantine, and
        a stale lease would make the rejoiner (again the lowest-id
        candidate) "detect" a primary failure that never happened."""
        if not replica.quarantined:
            return False
        replica.wipe()
        replica.ledger.rebase(self.digest_base)
        replica.last_heartbeat = self.sim.now
        self.rejoins += 1
        self.sink.inc("replication.rejoins")
        self.sink.event("replication.rejoin", replica=replica.replica_id)
        return True

    def verify_tail(self, candidate) -> bool:
        """BYZANTINE mode: 2f+1 of the surviving cohort (the crowned
        candidate included) must agree on its chain digest at its
        verified floor -- a replica promoting a fabricated tail fails
        this loudly instead of silently becoming the source of truth."""
        if not self.policy.voting:
            return True
        floor, digest = candidate.ledger.floor, candidate.ledger.digest
        agree = self.members.behind(lambda b: b.ledger.at(floor) == digest)
        needed = self.threshold()
        if agree >= needed:
            return True
        self.tail_unverified += 1
        self.suspect(
            "tail-unverified",
            f"promotion of {candidate.replica_id} at resolve floor "
            f"{floor}: {agree}/{needed} matching digests",
            replica=candidate.replica_id)
        return False

    def rebase(self, resolve_count: int) -> None:
        """Epoch-scoped chains: replicas may have missed *different*
        tails of the dead primary's stream, so every ledger restarts at
        the set's resolve count (the view change's agreed floor), and
        votes and conflict throttles with it."""
        self.digest_base = resolve_count
        for replica in self.members.replicas:
            replica.ledger.rebase(resolve_count)
            replica.reset_votes()
