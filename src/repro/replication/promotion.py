"""Promotion: the steps that turn the elected backup into the primary."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.runtime import LegoSDNRuntime
from repro.replication.membership import ReplicaRole

#: A promoted backup re-asserts the committed FlowMods applied this
#: recently (seconds) on the switches.
REPLAY_WINDOW = 0.5


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


def promote(candidate, members, votes, shipping, policy, switches,
            dpids: List[int]) -> FailoverRecord:
    """Promote ``candidate``; the caller re-wires the backups to it."""
    now = members.sim.now
    old = members.primary
    down_at = (members.down_at if members.down_at is not None
               else candidate.last_heartbeat)
    # The old primary's unflushed batches never reach the wire (its
    # process is dead, or its link cut): drop them while the backups'
    # channels still point at it.  Its deployment must never again
    # talk to the stubs, which re-attach elsewhere.
    members.drop_unflushed()
    old.role = ReplicaRole.DEAD
    old_runtime = old.runtime
    old_runtime.proxy.shutdown()
    shipping.retire()

    # 1. A new epoch, fenced at every switch and at the mode policy (a
    # transition computed against the dead epoch is rejected; the mode
    # carries over); BYZANTINE mode checks the tail before the ledgers
    # rebase.
    members.crown(candidate)
    policy.advance_epoch(members.epoch)
    tail_verified = votes.verify_tail(candidate)
    votes.rebase(shipping.resolve_count)

    # 2. Take over the owned switches' sessions: switch->controller
    # traffic flows to the new primary from here on.
    for dpid in dpids:
        if switches[dpid].up:
            candidate.controller.connect_switch(switches[dpid])

    # 3. A fresh runtime with the old deployment's configuration, seeded
    # with the replicated shadow so post-failover inversions see the
    # pre-state the old primary saw.
    runtime = LegoSDNRuntime(candidate.controller, old_runtime.config)
    candidate.runtime = runtime
    manager = runtime.proxy.manager
    manager.adopt_shadow(candidate.shadow)

    # 4. Converge: re-assert the recent committed tail (idempotent
    # FlowMods), then roll back the orphans -- transactions the old
    # primary opened but never resolved -- from their shipped inverses,
    # newest first.
    replayed = 0
    for ship in candidate.log:
        if ship.applied_at >= now - REPLAY_WINDOW:
            candidate.controller.send_to_switch(ship.dpid, ship.message)
            replayed += 1
    orphan_txns = len(candidate.open_txns)
    orphan_inverses = 0
    for txn_id in sorted(candidate.open_txns, reverse=True):
        for ship in reversed(candidate.open_txns[txn_id]):
            for inverse in ship.inverses:
                manager.shadow_table(ship.dpid).apply_flow_mod(inverse, now)
                candidate.controller.send_to_switch(ship.dpid, inverse)
                orphan_inverses += 1
    candidate.open_txns.clear()

    # 5. The stubs survived; each re-registers over its existing
    # channel, resuming its seq numbering so checkpoints and journals
    # stay coherent.
    runtime.adopt_apps(old_runtime)

    # 6. Resume dispatch (discovery + SwitchJoin announcements).
    candidate.controller.start()
    record = FailoverRecord(
        epoch=members.epoch, at=now, down_at=down_at,
        duration=now - down_at, from_replica=old.replica_id,
        to_replica=candidate.replica_id, orphan_txns=orphan_txns,
        orphan_inverses=orphan_inverses, replayed_records=replayed,
        tail_verified=tail_verified)
    members.down_at = None
    if members.partitioned is old:
        members.partitioned = None
    members.sink.span("replication.failover", down_at, epoch=members.epoch,
                      from_replica=old.replica_id,
                      to_replica=candidate.replica_id,
                      orphan_txns=orphan_txns, replayed=replayed)
    members.sink.inc("replication.failovers")
    members.sink.observe("replication.failover_time", record.duration)
    return record
