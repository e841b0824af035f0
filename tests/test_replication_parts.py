"""Each replication rule, tested in the part that owns it.

No ``Network``: a bare ``Simulator`` is the clock, a ``Membership`` the
cohort, and the rule under test gets a hand-fed sequence -- votes,
acks, heartbeat times, orphaned records.  The end-to-end runs that
exercise the same rules live in ``test_replication.py``,
``test_byzantine.py`` and the two replication goldens.
"""

from dataclasses import fields
from operator import attrgetter
from types import SimpleNamespace

from repro.apps import LearningSwitch
from repro.controller.core import Controller
from repro.core.runtime import LegoSDNRuntime
from repro.network.net import Network
from repro.network.simulator import Simulator
from repro.network.topology import linear_topology
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.replication import (
    RecordShip,
    ReplicaKeyring,
    ReplicaRole,
    ReplicationMode,
    ReplicationModePolicy,
)
from repro.replication.membership import ControllerReplica, Membership
from repro.replication.promotion import promote
from repro.replication.shipping import Gate, Shipping
from repro.replication.voting import Voting
from repro.shard import ShardCoordinator
from repro.telemetry import Telemetry


def cohort(backups=3, mode=ReplicationMode.CRASH_FAULT, byz_f=None,
           controller=None):
    controller = controller or Controller(Simulator(seed=0))
    sim = controller.sim
    runtime = LegoSDNRuntime(controller)
    members = Membership(sim, controller, runtime, backups, None,
                         lease_timeout=0.2, chaos=None, seed=0,
                         retry_budget=6)
    policy = ReplicationModePolicy(mode=mode, pinned=True)
    votes = Voting(members, policy, byz_f)
    return sim, members, policy, votes


def byzantine_cohort(backups=3, byz_f=None):
    return cohort(backups, ReplicationMode.BYZANTINE, byz_f)


# -- voting: the threshold ----------------------------------------------------

def test_threshold_is_2f_plus_1_clamped_to_the_live_cohort():
    _, members, _, votes = byzantine_cohort(backups=3)
    assert votes.threshold() == 3               # n = 4: f = 1
    members.replica("r3").role = ReplicaRole.DEAD
    assert votes.threshold() == 1               # n = 3: f = 0
    _, members, _, votes = byzantine_cohort(backups=1, byz_f=2)
    assert votes.threshold() == 2               # 2f+1 = 5, cohort 2
    members.replica("r1").quarantined = True
    assert votes.threshold() == 1               # the primary alone


# -- voting: quarantine -------------------------------------------------------

DIGEST = 0x1234


def voted(backups=3):
    _, members, _, votes = byzantine_cohort(backups)
    members.primary.ledger.add(1, DIGEST)
    return members, votes, members.primary.ledger.digest


def test_a_liar_is_quarantined_when_2f_plus_1_stand_behind_the_primary():
    members, votes, digest = voted()
    liar, *honest = members.replicas[1:]
    for backup in honest:
        assert votes.note_vote(backup, 1, digest)
    assert not votes.note_vote(liar, 1, digest ^ 1)
    assert not liar.quarantined                 # one conflict is not enough
    assert not votes.note_vote(liar, 1, digest ^ 2)
    assert liar.quarantined and votes.quarantines == 1
    assert liar not in members.live_backups()


def test_an_equivocating_primarys_victims_are_never_quarantined():
    members, votes, digest = voted()
    for _ in range(5):
        for i, victim in enumerate(members.replicas[1:]):
            assert not votes.note_vote(victim, 1, digest ^ (i + 1))
    assert votes.vote_conflicts == 15
    assert votes.quarantines == 0
    assert len(members.live_backups()) == 3


def test_an_older_vote_is_ignored():
    members, votes, digest = voted()
    backup = members.replica("r1")
    backup.vote_floor = 2
    assert not votes.note_vote(backup, 1, digest)
    assert votes.votes_cast == 0 and backup.vote_matched == 0


# -- membership: election and the lease ---------------------------------------

def test_the_lowest_id_live_unquarantined_backup_is_elected_on_expiry():
    sim, members, _, _ = cohort(backups=3)
    r1, r2, r3 = members.replicas[1:]
    for backup in (r1, r2, r3):
        backup.last_heartbeat = 0.0
    sim.run_until(0.2)
    assert members.lease_expired() is None      # silent for exactly 0.2
    sim.run_until(0.25)
    assert members.lease_expired() is r1
    r1.quarantined = True
    r2.controller.crashed = True
    assert members.lease_expired() is r3
    r3.last_heartbeat = sim.now                 # r3 heard the primary
    assert members.lease_expired() is None
    r3.role = ReplicaRole.DEAD
    assert members.lease_expired() is None      # nobody left to elect


def test_crown_advances_the_epoch_and_the_fence_first():
    _, members, _, _ = cohort(backups=2)
    r2 = members.replica("r2")
    members.crown(r2)
    assert members.epoch == members.fence.current_epoch == 1
    assert members.primary is r2 and r2.role is ReplicaRole.PRIMARY
    assert r2.controller.epoch == 1
    assert members.sink.telemetry is r2.telemetry
    assert not members.fence.permits(0)


# -- membership: what a replica's record keeps --------------------------------

def dirty(replica) -> None:
    """Move every field of ``replica`` off its default."""
    for f in fields(replica):
        value = getattr(replica, f.name)
        if isinstance(value, bool):
            setattr(replica, f.name, not value)
        elif isinstance(value, (int, float)):
            setattr(replica, f.name, 7)
        elif isinstance(value, list):
            value.append(1)
        elif isinstance(value, dict):
            value[1] = 1
    replica.seen_indices.add(1)
    replica.seen_resolve_seqs.add(1)
    replica.ledger.add(1, 99)


def test_a_rejoin_resets_every_field_it_does_not_keep():
    """A field added later is reset by a rejoin unless it says it is
    kept: nothing has to remember to list it."""
    _, members, _, _ = cohort(backups=1)
    replica = members.replica("r1")
    fresh = ControllerReplica(replica.replica_id, replica.controller,
                              replica.telemetry, replica.role)
    dirty(replica)
    kept = {f.name: getattr(replica, f.name) for f in fields(replica)
            if f.metadata.get("life") == "kept"}
    # Exactly what rehabilitate() left alone when it reset by hand.
    assert set(kept) == {
        "replica_id", "controller", "telemetry", "role", "runtime",
        "channel", "app_progress", "last_heartbeat", "ships_received",
        "stale_frames", "resync_dups", "resync_requests",
        "resync_requested_at", "hb_sent_at", "hb_log_index",
        "hb_resolve_count", "sig_rejected", "quarantined_at"}
    assert kept["ships_received"] == 7 and kept["app_progress"] == {1: 1}
    replica.wipe()
    for f in fields(replica):
        if f.name in kept:
            assert getattr(replica, f.name) == kept[f.name], f.name
        elif f.name not in ("seen_indices", "seen_resolve_seqs", "ledger"):
            assert getattr(replica, f.name) == getattr(fresh, f.name), f.name
    assert replica.contig_index == replica.contig_resolves == 0
    assert (replica.ledger.floor, replica.ledger.digest) == (0, 0)


def test_a_rebase_resets_only_the_vote_fields():
    _, members, _, _ = cohort(backups=1)
    replica = members.replica("r1")
    replica.vote_matched = replica.vote_floor = 4
    replica.pending_leaves[5] = []
    replica.vote_conflicts = replica.leaf_mismatches = 2
    replica.log.append(None)
    assert {f.name for f in fields(replica)
            if f.metadata.get("life") == "vote"} == {
        "pending_leaves", "unhealed_leaf", "vote_floor", "vote_matched",
        "digest_conflict_floor"}
    replica.reset_votes()
    assert (replica.vote_matched, replica.vote_floor) == (0, 0)
    assert not replica.pending_leaves
    assert replica.digest_conflict_floor == -1
    assert (replica.vote_conflicts, replica.leaf_mismatches) == (2, 2)
    assert replica.log == [None]


def test_a_backup_is_configured_as_the_primary_is():
    sim = Simulator(seed=0)
    telemetry = Telemetry(enabled=True, flight_capacity=16,
                          max_spans=60_000, metrics_max_samples=99)
    primary = Controller(sim, discovery_interval=0.3, telemetry=telemetry,
                         dispatch_shards=3, service_time=0.001)
    _, members, _, _ = cohort(backups=2, controller=primary)
    for backup in members.replicas[1:]:
        controller, tel = backup.controller, backup.telemetry
        assert tel is controller.telemetry and tel is not telemetry
        assert tel.enabled and tel.replica_id == backup.replica_id
        assert tel.tracer.max_spans == 60_000
        assert tel.recorder.capacity == 16
        assert tel.metrics.max_samples == 99
        assert controller.discovery.interval == 0.3
        assert controller.dispatch_shards == 3
        assert controller.service_time == 0.001


def test_a_promoted_shard_primary_keeps_the_telemetry_configuration():
    """Fails at the commit before the cut: backups were built with the
    default 20 000-span ring whatever the shard primary had."""
    net = Network(linear_topology(4, 1), seed=0)
    coordinator = ShardCoordinator(
        net, shards=2, apps=(LearningSwitch,), backups=1,
        telemetry_enabled=True, telemetry_kwargs={"max_spans": 60_000})
    coordinator.start()
    net.run_for(1.0)
    assert coordinator.shards[0].primary.telemetry.tracer.max_spans == 60_000
    coordinator.crash_shard_primary(0)
    net.run_for(1.0)
    shard = coordinator.shards[0]
    assert shard.primary.replica_id == "r1"
    assert shard.primary.telemetry.tracer.max_spans == 60_000


# -- promotion: the orphan rollback -------------------------------------------

def _mod(port: int) -> FlowMod:
    return FlowMod(match=Match(tp_dst=port), priority=10,
                   actions=(Output(1),))


def _ship(index, txn_id, *inverse_ports):
    return RecordShip(epoch=0, index=index, txn_id=txn_id, app_name="a",
                      dpid=1, message=_mod(index),
                      inverses=tuple(_mod(p) for p in inverse_ports),
                      applied_at=0.0)


def test_orphans_roll_back_newest_transaction_first_records_reversed():
    _, members, policy, votes = cohort(backups=1)
    shipping = Shipping(members, votes, policy, ReplicaKeyring(0), None,
                        {}, [], 0.05, 0, False, 0.25, 0.25)
    candidate = members.replica("r1")
    candidate.open_txns = {
        3: [_ship(5, 3, 51, 52), _ship(6, 3, 61)],
        7: [_ship(8, 7, 81)],
    }
    sent = []
    candidate.controller.send_to_switch = \
        lambda dpid, msg: sent.append(msg.match.tp_dst)
    record = promote(candidate, members, votes, shipping, policy, {}, [])
    assert sent == [81, 61, 51, 52]
    assert (record.orphan_txns, record.orphan_inverses) == (2, 4)
    assert (record.from_replica, record.to_replica, record.epoch) \
        == ("r0", "r1", 1)
    assert not candidate.open_txns
    assert members.replica("r0").role is ReplicaRole.DEAD
    assert members.primary is candidate and candidate.runtime is not None


# -- shipping: the gate -------------------------------------------------------

def test_a_gate_confirms_on_a_majority_and_stalls_at_its_deadline():
    sim, members, _, _ = cohort(backups=2)      # majority of 3 is 2
    gate = Gate(members, 0.2, attrgetter("acked_resolves"),
                members.majority,
                ("quorum_commits", "quorum_stalls", "quorum", "majority"))
    r1, r2 = members.replicas[1:]
    gate.open(1)
    gate.open(2)
    r1.acked_resolves = 1
    gate.check()
    assert (gate.confirmed, sorted(gate.pending)) == (1, [2])
    sim.run_until(0.1)
    gate.open(3)
    sim.run_until(0.25)                          # 2's window closed
    assert (gate.stalled, gate.degraded, sorted(gate.pending)) \
        == (1, True, [3])
    r2.acked_resolves = 3
    gate.check()                                 # one backup suffices
    assert (gate.confirmed, gate.degraded, gate.pending) == (2, False, {})
    sim.run_until(1.0)                           # 3's deadline: a no-op
    assert gate.stalled == 1


def test_a_gate_window_dies_with_its_epoch():
    sim, members, _, _ = cohort(backups=2)
    gate = Gate(members, 0.2, attrgetter("vote_matched"),
                lambda: 3, ("votes_confirmed", "vote_stalls", "vote",
                            "needed"))
    gate.open(1)
    members.crown(members.replica("r1"))
    sim.run_until(1.0)
    assert gate.stalled == 0 and gate.pending == {1: 0.0}


def test_a_record_ships_to_every_live_backup_only():
    _, members, policy, votes = cohort(backups=2)
    shipping = Shipping(members, votes, policy, ReplicaKeyring(0), None,
                        {}, [], 0.05, 0, False, 0.25, 0.25)
    sent = []
    shipping._send = lambda replica, frame, upstream=False: \
        sent.append((replica.replica_id, type(frame).__name__))
    members.replica("r2").quarantined = True
    txn = SimpleNamespace(txn_id=9, app_name="a", trace_id=0)
    shipping.ship_record(txn, SimpleNamespace(
        dpid=1, message=_mod(1), inverse_messages=[], applied_at=0.0))
    assert sent == [("r1", "RecordShip")]
    assert shipping.ship_index == 1 and len(shipping.ship_history) == 1
    shipping.ship_resolve(SimpleNamespace(txn_id=10), "commit")
    assert shipping.resolves_elided == 1    # txn 10 wrote nothing
    shipping.ship_resolve(txn, "commit")
    assert sent[-1] == ("r1", "TxnResolve") and shipping.resolve_count == 1
