"""Tests for the Byzantine-tolerance layer: HMAC-authenticated
shipping, chain-digest output voting, quarantine/rejoin, and the
adaptive, epoch-fenced replication-mode policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import LearningSwitch
from repro.core.runtime import LegoSDNRuntime
from repro.faults import ByzantineProfile
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.actions import Output
from repro.replication import (
    DigestLedger,
    RecordShip,
    ReplAck,
    ReplHeartbeat,
    ReplicaKeyring,
    ReplicaSet,
    ReplicationMode,
    ReplicationModePolicy,
    TxnResolve,
    chain_digest,
    resolve_leaf,
    tolerable_f,
    vote_threshold,
)
from repro.replication.frames import ResyncRequest
from repro.telemetry import HealthWatchdog, Telemetry
from repro.workloads import TrafficWorkload


def build(backups=1, switches=2, telemetry=None, **kwargs):
    net = Network(linear_topology(switches, 1), seed=0, telemetry=telemetry)
    runtime = LegoSDNRuntime(net.controller)
    replicas = ReplicaSet(net, runtime, backups=backups, **kwargs)
    runtime.launch_app(LearningSwitch())
    net.start()
    net.run_for(1.0)
    return net, runtime, replicas


def drive(net, duration=2.0, rate=40.0):
    TrafficWorkload(net, rate=rate, seed=1,
                    selection="random").start(duration * 0.8)
    net.run_for(duration)


# -- quorum math --------------------------------------------------------------

class TestQuorumMath:
    def test_vote_threshold(self):
        assert vote_threshold(0) == 1
        assert vote_threshold(1) == 3
        assert vote_threshold(2) == 5

    def test_vote_threshold_rejects_negative(self):
        with pytest.raises(ValueError):
            vote_threshold(-1)

    def test_tolerable_f(self):
        # n >= 3f + 1
        assert tolerable_f(1) == 0
        assert tolerable_f(3) == 0
        assert tolerable_f(4) == 1
        assert tolerable_f(6) == 1
        assert tolerable_f(7) == 2

    def test_set_threshold_clamps_to_cohort(self):
        net, runtime, replicas = build(backups=1, byz_f=2)
        # 2f+1 = 5 but the cohort is only 2: clamp keeps it live.
        assert replicas._vote_threshold() == 2


# -- authenticated shipping ---------------------------------------------------

def _sample_frames():
    mod = FlowMod(match=Match(eth_dst="aa"), command=FlowModCommand.ADD,
                  priority=10, actions=(Output(1),))
    return [
        RecordShip(epoch=1, index=4, txn_id=9, app_name="x", dpid=1,
                   message=mod, inverses=(), applied_at=1.5),
        TxnResolve(epoch=1, txn_id=9, outcome="commit", log_index=4,
                   resolve_seq=3, leaf=0xdead),
        ReplHeartbeat(epoch=1, log_index=4, sent_at=2.0,
                      resolve_count=3, digest=0xbeef),
        ReplAck(replica_id="r1", epoch=1, log_index=4, resolve_count=3,
                digest=0xbeef, digest_floor=3),
        ResyncRequest(replica_id="r1", epoch=1, from_index=0, to_index=4),
    ]


class TestKeyring:
    def test_stamp_verify_roundtrip_every_frame_type(self):
        ring = ReplicaKeyring(secret=7)
        for frame in _sample_frames():
            stamped = ring.stamp(frame, "r0", "r1")
            assert stamped.auth
            assert ring.verify(stamped, "r0", "r1")
            # Pair keys are symmetric in the pair, not per direction.
            assert ring.verify(stamped, "r1", "r0")

    def test_wrong_pair_rejected(self):
        ring = ReplicaKeyring(secret=7)
        stamped = ring.stamp(_sample_frames()[0], "r0", "r1")
        assert not ring.verify(stamped, "r0", "r2")

    def test_different_secrets_disagree(self):
        frame = _sample_frames()[0]
        a = ReplicaKeyring(secret=1).stamp(frame, "r0", "r1")
        assert not ReplicaKeyring(secret=2).verify(a, "r0", "r1")

    @settings(max_examples=40, deadline=None)
    @given(kind=st.integers(min_value=0, max_value=4),
           bump=st.integers(min_value=1, max_value=1 << 30))
    def test_any_field_mutation_is_rejected(self, kind, bump):
        """Tamper-rejection property: bump any integer content field of
        any signed frame type and the MAC check must fail."""
        from dataclasses import fields, replace

        ring = ReplicaKeyring(secret=42)
        frame = _sample_frames()[kind]
        stamped = ring.stamp(frame, "r0", "r1")
        mutated_any = False
        for f in fields(stamped):
            if f.name == "auth" or not isinstance(
                    getattr(stamped, f.name), int):
                continue
            evil = replace(stamped, **{f.name: getattr(stamped, f.name)
                                       + bump})
            assert not ring.verify(evil, "r0", "r1")
            mutated_any = True
        assert mutated_any

    def test_epoch_is_covered_no_rebadging(self):
        ring = ReplicaKeyring(secret=7)
        from dataclasses import replace
        stamped = ring.stamp(_sample_frames()[0], "r0", "r1")
        rebadged = replace(stamped, epoch=stamped.epoch + 1)
        assert not ring.verify(rebadged, "r0", "r1")


# -- digests ------------------------------------------------------------------

class TestDigestLedger:
    def test_out_of_order_folds_contiguously(self):
        a, b = DigestLedger(), DigestLedger()
        leaves = {i: resolve_leaf(i, "commit", []) for i in (1, 2, 3)}
        for i in (1, 2, 3):
            a.add(i, leaves[i])
        for i in (3, 1, 2):  # arrival order must not matter
            b.add(i, leaves[i])
        assert a.floor == b.floor == 3
        assert a.digest == b.digest != 0
        assert a.at(2) == b.at(2)

    def test_gap_stalls_the_chain(self):
        ledger = DigestLedger()
        ledger.add(1, 11)
        ledger.add(3, 33)  # 2 missing
        assert ledger.floor == 1
        ledger.add(2, 22)
        assert ledger.floor == 3

    def test_rebase_restarts_chain_at_floor(self):
        ledger = DigestLedger()
        for i in (1, 2):
            ledger.add(i, resolve_leaf(i, "commit", []))
        ledger.rebase(5)
        assert ledger.floor == 5
        assert ledger.digest == 0
        assert ledger.at(5) == 0
        ledger.add(6, 66)
        assert ledger.floor == 6
        assert ledger.digest == chain_digest(0, 66)

    def test_history_is_bounded_without_being_searched(self):
        """Eviction names the oldest key; it does not look for it (the
        ``min()`` over 1 024 keys on every fold was the hottest line of
        the replication layer)."""

        class CountingDict(dict):
            iterations = 0

            def __iter__(self):
                CountingDict.iterations += 1
                return super().__iter__()

        ledger = DigestLedger()
        ledger.history = CountingDict()
        limit = DigestLedger.HISTORY_MAX
        for seq in range(1, limit + limit // 2 + 1):
            ledger.add(seq, seq)
        assert len(ledger.history) == limit
        rebased = ledger.floor + 7
        ledger.rebase(rebased)
        for seq in range(rebased + 1, rebased + 2 * limit + 1):
            ledger.add(seq, seq)
        assert CountingDict.iterations == 0
        assert len(ledger.history) == limit
        # ``at`` answers for exactly the newest HISTORY_MAX folds.
        top = ledger.floor
        assert top == rebased + 2 * limit
        assert ledger.at(top) == ledger.digest
        assert ledger.at(top - limit + 1) is not None
        assert ledger.at(top - limit) is None
        assert ledger.at(rebased) is None
        assert sorted(ledger.history) == list(range(top - limit + 1, top + 1))

    def test_leaf_is_order_insensitive_over_records(self):
        frames = _sample_frames()
        rec = frames[0]
        from dataclasses import replace
        other = replace(rec, index=rec.index + 1)
        assert (resolve_leaf(3, "commit", [rec, other])
                == resolve_leaf(3, "commit", [other, rec]))
        assert (resolve_leaf(3, "commit", [rec])
                != resolve_leaf(3, "abort", [rec]))


# -- the mode policy ----------------------------------------------------------

class TestModePolicy:
    def test_escalates_and_deescalates(self):
        policy = ReplicationModePolicy(clean_window=1.0)
        assert not policy.voting
        assert policy.note_anomaly(10.0, 0, "auth-fault")
        assert policy.mode is ReplicationMode.BYZANTINE
        # still dirty: inside the clean window
        assert not policy.maybe_deescalate(10.5, 0)
        assert policy.maybe_deescalate(11.5, 0)
        assert policy.mode is ReplicationMode.CRASH_FAULT
        assert policy.mode_switches == 2

    def test_pinned_never_moves(self):
        policy = ReplicationModePolicy(mode=ReplicationMode.BYZANTINE,
                                       pinned=True)
        assert not policy.note_anomaly(1.0, 0, "x")
        assert not policy.maybe_deescalate(99.0, 0)
        assert policy.mode is ReplicationMode.BYZANTINE

    def test_stale_epoch_requests_are_fenced(self):
        policy = ReplicationModePolicy()
        policy.advance_epoch(1)
        assert not policy.note_anomaly(1.0, 0, "late-suspicion")
        assert policy.mode is ReplicationMode.CRASH_FAULT
        assert policy.fenced_transitions == 1
        # The current epoch still escalates.
        assert policy.note_anomaly(1.0, 1, "fresh-suspicion")

    def test_deescalation_fenced_after_failover(self):
        policy = ReplicationModePolicy(clean_window=0.5)
        policy.note_anomaly(1.0, 0, "x")
        policy.advance_epoch(1)
        assert not policy.maybe_deescalate(99.0, 0)
        assert policy.mode is ReplicationMode.BYZANTINE
        assert policy.fenced_transitions == 1


# -- integration: the honest path ---------------------------------------------

class TestHonestRuns:
    def test_clean_signed_run_votes_confirm(self):
        net, runtime, replicas = build(backups=2, repl_mode="byzantine")
        drive(net)
        assert replicas.sig_rejected == 0
        assert replicas.vote_conflicts == 0
        assert replicas.quarantines == 0
        assert replicas.votes_confirmed > 0
        # Honest backups' chains converge with the primary's.
        primary = replicas.primary
        for backup in replicas.live_backups():
            assert backup.ledger.at(backup.ledger.floor) \
                == primary.ledger.at(backup.ledger.floor)

    def test_crash_mode_is_default_and_silent(self):
        net, runtime, replicas = build()
        drive(net, duration=1.0)
        assert replicas.mode is ReplicationMode.CRASH_FAULT
        assert replicas.mode_policy.mode_switches == 0
        assert not replicas.voting


class TestCheapModeStillDetects:
    """CRASH_FAULT mode is cheap, not blind: frames are stamped and
    verified and the digest cross-checks run in it -- they are the
    detector that escalates out of it."""

    @pytest.mark.parametrize("repl_mode", ["crash", "adaptive"])
    def test_tamper_and_lying_heartbeat_are_caught(self, repl_mode):
        from dataclasses import replace

        net, runtime, replicas = build(repl_mode=repl_mode)
        drive(net, duration=1.0)
        assert replicas.mode is ReplicationMode.CRASH_FAULT
        assert replicas.keyring.stamps > 0 and replicas.keyring.verifies > 0
        backup = replicas.replica("r1")
        floor = backup.ledger.floor
        assert floor > 0        # resolves were folded, leaf by leaf
        assert backup.ledger.digest == replicas.primary.ledger.at(floor)

        def signed(frame):
            return replicas.keyring.stamp(frame, "r0", "r1")

        # A record altered after it was signed.
        ship = signed(RecordShip(
            epoch=replicas.epoch, index=replicas.ship_index + 1, txn_id=10**6,
            app_name="x", dpid=1, message=_sample_frames()[0].message,
            inverses=(), applied_at=net.sim.now))
        replicas._on_backup_frame(backup, replace(ship, dpid=2))
        assert replicas.sig_rejected == 1
        assert ship.index not in backup.seen_indices
        # A correctly signed heartbeat whose chain digest is a lie.
        noted = replicas.mode_policy.anomalies_noted
        replicas._on_backup_frame(backup, signed(ReplHeartbeat(
            epoch=replicas.epoch, log_index=replicas.ship_index,
            sent_at=net.sim.now, resolve_count=floor,
            digest=backup.ledger.digest ^ 1)))
        assert replicas.mode_policy.anomalies_noted == noted + 1
        if repl_mode == "adaptive":
            assert replicas.mode is ReplicationMode.BYZANTINE
            assert replicas.mode_policy.switches[-1].reason.startswith(
                "byzantine-divergence")
        else:                   # pinned: noted, never switched
            assert replicas.mode is ReplicationMode.CRASH_FAULT


# -- integration: liars -------------------------------------------------------

class TestTamperingBackup:
    def test_tampered_frames_rejected_and_auth_fault_raised(self):
        profile = ByzantineProfile(seed=3, tamper=1.0)
        net, runtime, replicas = build(
            backups=2, repl_mode="adaptive",
            byzantine=lambda rid: profile if rid == "r1" else None)
        drive(net)
        assert profile.tampered > 0
        liar = replicas.replica("r1")
        assert liar.sig_rejected >= replicas.AUTH_FAULT_THRESHOLD
        assert replicas.auth_faults
        assert replicas.auth_faults[0].replica_id == "r1"
        # Repeated auth faults escalated the adaptive policy.
        assert replicas.mode is ReplicationMode.BYZANTINE

    def test_honest_traffic_unaffected(self):
        profile = ByzantineProfile(seed=3, tamper=1.0)
        net, runtime, replicas = build(
            backups=2, repl_mode="adaptive",
            byzantine=lambda rid: profile if rid == "r1" else None)
        drive(net)
        honest = replicas.replica("r2")
        assert honest.sig_rejected == 0
        assert honest.ships_received > 0


class TestDigestLiar:
    def build_liar(self, mode="byzantine", start=0.0):
        profile = ByzantineProfile(seed=5, digest_lie=1.0, start=start)
        net, runtime, replicas = build(
            backups=2, repl_mode=mode,
            byzantine=lambda rid: profile if rid == "r1" else None)
        return profile, net, runtime, replicas

    def test_liar_quarantined_with_ticket(self):
        profile, net, runtime, replicas = self.build_liar()
        drive(net)
        liar = replicas.replica("r1")
        assert profile.digests_lied > 0
        assert liar.quarantined
        assert replicas.quarantines == 1
        assert liar not in replicas.live_backups()
        tickets = runtime.tickets.for_app("replica:r1")
        assert tickets and tickets[0].failure_kind == "byzantine"
        assert tickets[0].recovery_policy == "quarantine"

    def test_zero_divergent_resolves_applied(self):
        profile, net, runtime, replicas = self.build_liar()
        drive(net)
        # The lie never reached the switches: primary state is exactly
        # its NetLog's committed state, and honest backups still match.
        assert replicas.divergence() == 0
        assert replicas.shadow_divergence("r2") == 0

    def test_adaptive_escalates_on_lies(self):
        profile, net, runtime, replicas = self.build_liar(
            mode="adaptive", start=1.5)
        assert not replicas.voting  # honest warmup stays cheap
        drive(net, duration=3.0)
        assert replicas.mode_policy.mode_switches >= 1
        assert replicas.mode_policy.switches[0].mode \
            is ReplicationMode.BYZANTINE

    def test_rejoin_after_rehabilitate(self):
        profile, net, runtime, replicas = self.build_liar()
        drive(net)
        liar = replicas.replica("r1")
        assert liar.quarantined
        profile.digest_lie = 0.0  # the operator fixed the replica
        replicas.rehabilitate("r1")
        assert not liar.quarantined
        assert replicas.rejoins == 1
        drive(net, duration=2.0)
        # The full resync rebuilt its shadow from the primary's history.
        assert replicas.shadow_divergence("r1") == 0
        assert liar in replicas.live_backups()


def compromised(kind, repl_mode, liars=("r0",)):
    """linear(4), three backups, a profile misbehaving at rate 0.3 on
    ``liars`` from the moment traffic starts (t = 1 s)."""
    profile = ByzantineProfile(seed=3, start=1.0, **{kind: 0.3})
    net, runtime, replicas = build(
        backups=3, switches=4, repl_mode=repl_mode,
        byzantine=lambda rid: profile if rid in liars else None)
    return net, replicas, profile


MODES = pytest.mark.parametrize("repl_mode",
                                ["crash", "byzantine", "adaptive"])


def assert_escalated(replicas, repl_mode, reason):
    policy = replicas.mode_policy
    assert policy.anomalies_noted > 0
    if repl_mode == "adaptive":
        first = policy.switches[0]
        assert first.mode is ReplicationMode.BYZANTINE
        assert first.reason.startswith(reason)
    else:                       # pinned: noted, never switched
        assert policy.mode_switches == 0


class TestEquivocatingPrimary:
    """Each backup gets its own well-signed variant of a record: every
    fold is internally consistent, only the leaf digests can tell."""

    @MODES
    def test_victims_abstain_and_nobody_honest_is_punished(self, repl_mode):
        net, replicas, profile = compromised("equivocate", repl_mode)
        drive(net, duration=5.0, rate=50.0)
        assert profile.equivocated > 0
        for victim in replicas.live_backups():
            assert victim.leaf_mismatches > 0
            # Abstaining stalls the vote, never the fold.
            assert victim.ledger.floor < victim.contig_resolves \
                == replicas.resolve_count
            assert replicas.shadow_divergence(victim.replica_id) == 0
        assert len(replicas.live_backups()) == 3
        assert replicas.quarantines == 0
        assert replicas.divergence() == 0
        assert_escalated(replicas, repl_mode, "equivocation")

    def test_a_leaf_no_replay_can_heal_is_asked_for_once(self):
        # The honest re-delivery dedups against the variant already
        # held, so the leaf never heals in this epoch; asking for the
        # same range on every heartbeat only multiplied the evidence
        # (~1 000 mismatches and ~1 300 dups per victim in 4 sim-s).
        net, replicas, profile = compromised("equivocate", "crash")
        drive(net, duration=5.0, rate=50.0)
        resolves = replicas.resolve_count
        for victim in replicas.live_backups():
            assert victim.pending_leaves
            assert victim.resync_requests <= 2
            assert victim.leaf_mismatches <= 2 * resolves
            assert victim.resync_dups <= 2 * resolves


class TestReplayingPrimary:
    """Captured signed frames re-sent verbatim: to the peer they were
    signed for they are duplicates, to any other they fail the MAC."""

    @MODES
    def test_nothing_folds_twice(self, repl_mode):
        net, replicas, profile = compromised("replay", repl_mode)
        drive(net, duration=5.0, rate=50.0)
        assert profile.replayed > 0
        primary = replicas.primary
        for backup in replicas.live_backups():
            assert backup.resync_dups > 0
            assert backup.ships_received == replicas.ship_index
            assert backup.leaf_mismatches == 0
            assert backup.ledger.digest == primary.ledger.digest
            assert replicas.shadow_divergence(backup.replica_id) == 0
        assert replicas.sig_rejected > 0
        assert replicas.quarantines == 0
        assert replicas.divergence() == 0
        assert_escalated(replicas, repl_mode, "auth-fault")

    def test_old_epoch_frames_replayed_after_a_failover_are_stale(self):
        # r1 is compromised too: promoted, it draws on a pool of
        # epoch-0 frames.  The survivors fence every one of them.
        net, replicas, profile = compromised("replay", "crash",
                                             liars=("r0", "r1"))
        TrafficWorkload(net, rate=50.0, seed=1,
                        selection="random").start(4.0)
        net.run_for(2.0)
        stale = {r.replica_id: r.stale_frames
                 for r in replicas.replicas[2:]}
        replicas.crash_primary()
        net.run_for(3.0)
        assert replicas.primary.replica_id == "r1"
        for survivor in replicas.live_backups():
            assert survivor.stale_frames > stale[survivor.replica_id]
            assert replicas.shadow_divergence(survivor.replica_id) == 0
        assert replicas.divergence() == 0


class TestVoting:
    def test_votes_piggyback_no_extra_frames(self):
        """Voting reuses the ack path: turning it on adds no frame
        types, just digest fields on frames already flowing."""
        net, runtime, replicas = build(backups=2, repl_mode="byzantine")
        drive(net, duration=1.5)
        assert replicas.votes_cast > 0
        assert replicas.votes_confirmed > 0
        assert replicas.vote_stalls == 0

    def test_vote_stall_when_backups_gone(self):
        net, runtime, replicas = build(backups=2, repl_mode="byzantine",
                                       byz_f=1, vote_timeout=0.1)
        for backup in replicas.live_backups():
            backup.controller.crashed = True
        drive(net, duration=1.0, rate=20.0)
        assert replicas.vote_stalls > 0


# -- integration: failover under byzantine mode -------------------------------

class TestFailoverMidEscalation:
    def test_mode_survives_failover_and_old_epoch_is_fenced(self):
        net, runtime, replicas = build(backups=2, repl_mode="adaptive",
                                       lease_timeout=0.2)
        replicas.mode_policy.note_anomaly(net.now, replicas.epoch,
                                          "test-suspicion")
        assert replicas.voting
        replicas.crash_primary()
        net.run_for(1.0)
        assert replicas.epoch == 1
        # The mode carried across; the dead epoch can no longer move it.
        assert replicas.voting
        assert not replicas.mode_policy.maybe_deescalate(net.now + 99, 0)
        assert replicas.mode_policy.fenced_transitions >= 1
        assert replicas.mode is ReplicationMode.BYZANTINE

    def test_ledgers_rebase_and_voting_resumes(self):
        net, runtime, replicas = build(backups=2, repl_mode="byzantine",
                                       lease_timeout=0.2)
        drive(net, duration=1.0)
        replicas.crash_primary()
        net.run_for(1.0)
        base = replicas._digest_base
        for replica in replicas.replicas:
            assert replica.ledger.floor >= base
        drive(net, duration=2.0)
        assert replicas.failovers[0].tail_verified
        assert replicas.votes_confirmed > 0
        assert replicas.divergence() == 0


# -- watchdog wiring ----------------------------------------------------------

class TestWatchdogWiring:
    def test_guard_replication_feeds_healthz(self):
        telemetry = Telemetry(enabled=True)
        net = Network(linear_topology(2, 1), seed=0, telemetry=telemetry)
        runtime = LegoSDNRuntime(net.controller)
        profile = ByzantineProfile(seed=5, digest_lie=1.0)
        replicas = ReplicaSet(
            net, runtime, backups=2, repl_mode="adaptive",
            byzantine=lambda rid: profile if rid == "r1" else None)
        watchdog = HealthWatchdog(telemetry, net.sim)
        watchdog.guard_replication(replicas)
        assert replicas.votes.watchdog is watchdog
        runtime.launch_app(LearningSwitch())
        net.start()
        net.run_for(1.0)
        drive(net)
        counts = watchdog.anomaly_counts()
        assert counts.get("byzantine-divergence", 0) > 0
        payload = watchdog.healthz_payload()
        assert payload["score"] < 1.0
        assert any(a["kind"] == "byzantine-divergence"
                   for a in payload["anomalies"])
        assert telemetry.metrics.counters[
            "watchdog.byzantine-divergence"] > 0
