"""Replication ships the NetLog's writes: what that must never move.

``tests/data/replication_golden.json`` was recorded on the commit
*before* ``ReplicaSet`` stopped shipping a ``TxnResolve`` for a
transaction that appended nothing to the WAL.  One scripted run (tree
topology, two backups; once each in ``crash``, quorum and ``byzantine``
mode) mixes PacketOut-only events, FlowMod-installing events, an
aborted transaction with records, an aborted one without, empty and
write commits made straight on the primary's ``TransactionManager``,
and a primary kill while a record-bearing transaction is open.  The
golden holds only what a change to *how much* is shipped may not touch:

* every backup's shadow rule identities and its ``log`` as ``[index,
  dpid, encoded message, applied_at]``,
* the primary's NetLog shadow and the switches' tables,
* ``divergence()``, ``ship_index``, the failover record's promoted id,
  epoch and orphans rolled back, and per-app ``events_completed``,

before the kill and at the end -- one recording for all three modes,
because none of it depends on the mode.  Frame, resolve, MAC and vote
counts are deliberately absent.  Never regenerate the golden to make a
replication change pass; running this file as a script rewrites it,
for a PR that means to move what backups hold.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import LearningSwitch
from repro.core.runtime import LegoSDNRuntime
from repro.faults.byzfaults import ByzantineProfile
from repro.network.net import Network
from repro.network.packet import reset_packet_ids
from repro.network.topology import linear_topology, tree_topology
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketOut, reset_xid_counter
from repro.openflow.serialization import encode_message
from repro.replication import RecordShip, ReplicaSet, TxnResolve
from repro.telemetry import Telemetry
from repro.telemetry.export import prometheus_text
from repro.workloads.traffic import inject_marker_packet

GOLDEN_PATH = (pathlib.Path(__file__).parent / "data"
               / "replication_golden.json")

MODES = {
    "crash": {},
    "quorum": {"quorum": True},
    "byzantine": {"repl_mode": "byzantine"},
}


def build(mode: str):
    # Ids are varint-encoded, so their magnitude reaches wire sizes and
    # through them sim instants: start each run from the same counters.
    reset_xid_counter()
    reset_packet_ids()
    net = Network(tree_topology(2, 2), seed=0)
    runtime = LegoSDNRuntime(net.controller)
    replicas = ReplicaSet(net, runtime, backups=2, **MODES[mode])
    runtime.launch_app(LearningSwitch())
    net.start()
    net.run_for(1.0)
    return net, replicas


def write(port: int, out: int = 1) -> FlowMod:
    """A permanent rule no host traffic hits: one WAL append."""
    return FlowMod(match=Match(tp_dst=port), priority=300,
                   actions=(Output(out),))


def empty() -> PacketOut:
    """A message NetLog forwards without logging."""
    return PacketOut(packet=None, in_port=1, actions=(Output(2),))


def transact(replicas, ops, outcome: str = "commit"):
    """One transaction on the serving primary's NetLog: ``ops`` is a
    list of ``(dpid, message)``; ``outcome`` "open" leaves it open."""
    manager = replicas.runtime.proxy.manager
    txn = manager.begin("script", outcome)
    for dpid, message in ops:
        manager.apply(txn, dpid, message)
    if outcome == "commit":
        manager.commit(txn)
    elif outcome == "abort":
        manager.abort(txn)
    return txn


def ping(net, a: str, b: str, settle: float = 0.3) -> None:
    """a -> b floods (PacketOut-only events, nothing learnt about b
    yet); b -> a walks back over learnt ports (FlowMod events)."""
    inject_marker_packet(net, a, b, f"{a}{b}")
    net.run_for(settle)
    inject_marker_packet(net, b, a, f"{b}{a}")
    net.run_for(settle)


def _rules(table) -> list:
    return sorted(ReplicaSet._rule_identities(table))


def snapshot(net, replicas) -> dict:
    """What backups hold and what the network looks like, right now."""
    divergence = replicas.divergence()      # reconciles, so read first
    manager = replicas.runtime.proxy.manager
    return {
        "divergence": divergence,
        "ship_index": replicas.ship_index,
        "primary": replicas.primary.replica_id,
        "primary_shadow": {str(dpid): _rules(table) for dpid, table
                           in sorted(manager.shadow.items())},
        "switch_tables": {str(dpid): _rules(switch.flow_table)
                          for dpid, switch in sorted(net.switches.items())},
        "backups": {
            replica.replica_id: {
                "shadow": {str(dpid): _rules(table) for dpid, table
                           in sorted(replica.shadow.items())},
                "log": [[ship.index, ship.dpid,
                         encode_message(ship.message).hex(),
                         ship.applied_at] for ship in replica.log],
                "open_txns": sorted(len(ships) for ships
                                    in replica.open_txns.values()),
            }
            for replica in replicas.replicas[1:]
        },
        "events_completed": {
            name: record.events_completed for name, record
            in sorted(replicas.runtime.proxy.apps.items())},
    }


def scripted_run(mode: str) -> dict:
    net, replicas = build(mode)
    ping(net, "h1", "h2")
    transact(replicas, [(1, empty())])
    transact(replicas, [(1, write(9001))])
    transact(replicas, [(2, write(9002)), (3, write(9003, out=2))], "abort")
    transact(replicas, [(2, empty())], "abort")
    transact(replicas, [(4, empty()), (4, write(9004)), (5, empty())])
    net.run_for(0.3)
    ping(net, "h3", "h1")
    for _ in range(5):
        transact(replicas, [(6, empty())])
    transact(replicas, [(7, write(9005))])
    net.run_for(0.3)
    before_kill = snapshot(net, replicas)
    for backup in before_kill["backups"].values():
        # Logs only grow: the end snapshot holds these entries too.
        backup["log"] = len(backup["log"])

    # The primary dies holding a transaction whose records reached the
    # backups: the promoted backup must roll those orphans back.
    transact(replicas, [(1, empty())])
    transact(replicas, [(2, write(9006)), (5, write(9007))], "open")
    net.run_for(0.02)
    replicas.crash_primary()
    net.run_for(1.0)

    failover = replicas.failovers[0]
    ping(net, "h4", "h2")
    transact(replicas, [(3, empty())])
    transact(replicas, [(3, write(9008))])
    transact(replicas, [(3, write(9009))], "abort")
    net.run_for(0.5)
    return {
        "before_kill": before_kill,
        "failover": {"to_replica": failover.to_replica,
                     "epoch": failover.epoch,
                     "orphan_txns": failover.orphan_txns,
                     "orphan_inverses": failover.orphan_inverses},
        "end": snapshot(net, replicas),
    }


def _normalise(value):
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("mode", sorted(MODES))
def test_what_backups_hold_is_the_recorded_run(mode):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = _normalise(scripted_run(mode))
    for section in ("before_kill", "failover", "end"):
        assert got[section] == golden[section], section


def test_the_script_covers_what_it_claims():
    """The golden is only an oracle if the run really mixes the cases:
    rolled-back orphans, folded writes, and a network that converged."""
    run = json.loads(GOLDEN_PATH.read_text())
    assert run["failover"] == {"to_replica": "r1", "epoch": 1,
                               "orphan_txns": 1, "orphan_inverses": 2}
    assert run["before_kill"]["divergence"] == 0
    assert run["end"]["divergence"] == 0
    for backup in run["before_kill"]["backups"].values():
        assert backup["log"] > 0 and backup["open_txns"] == []
    # The survivor that was not promoted folded the new primary's
    # writes on top of the old one's.
    logs = {rid: len(backup["log"])
            for rid, backup in run["end"]["backups"].items()}
    assert logs["r2"] > logs["r1"] == \
        run["before_kill"]["backups"]["r1"]["log"]
    # Counted per runtime: the promoted primary's starts again.
    assert run["before_kill"]["events_completed"]["learning_switch"] > 0
    assert run["end"]["events_completed"]["learning_switch"] > 0



# -- what the rule changes ----------------------------------------------------
#
# Everything above reproduces the parent's recording.  Everything below
# fails at the parent (it shipped one TxnResolve per transaction) unless
# its docstring says it holds on both sides.

def bare(mode: str, **kwargs):
    """Two switches, two backups, no app: only the script transacts."""
    net = Network(linear_topology(2, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller)
    replicas = ReplicaSet(net, runtime, backups=2, **MODES[mode], **kwargs)
    net.start()
    # Stop between heartbeats (every 0.05), so no frame is in flight
    # when a test reads a counter on either side of the channel.
    net.run_for(0.22)
    return net, replicas


def tap_backup_frames(replicas):
    """Count what reaches the backups' handler by frame type, and keep
    each backup's resolve sequence numbers in arrival order."""
    seen, seqs = Counter(), {}
    inner = replicas._on_backup_frame

    def tapped(replica, frame, raw=None):
        seen[type(frame).__name__] += 1
        if isinstance(frame, TxnResolve):
            seqs.setdefault(replica.replica_id, []).append(frame.resolve_seq)
        inner(replica, frame, raw)

    replicas._on_backup_frame = tapped
    return seen, seqs


def frames_sent(replicas) -> int:
    """Primary -> backup frames handed to the replication channels."""
    return sum(r.channel.proxy_end.frames_sent
               for r in replicas.replicas[1:])


def shipping_state(replicas) -> dict:
    return {
        "frames": frames_sent(replicas),
        "queued": [len(r.channel.proxy_end.pending)
                   for r in replicas.replicas[1:]],
        "stamps": replicas.keyring.stamps,
        "resolve_count": replicas.resolve_count,
        "ship_history": len(replicas.ship_history),
        "resolve_times": len(replicas.resolve_times),
        "floors": [r.ledger.floor for r in replicas.replicas],
        "windows": (dict(replicas._pending_quorum),
                    dict(replicas._pending_votes)),
    }


@pytest.mark.parametrize("outcome", ["commit", "abort"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_an_empty_transaction_leaves_the_primary_silent(mode, outcome):
    net, replicas = bare(mode)
    before = shipping_state(replicas)
    transact(replicas, [(1, empty()), (2, empty())], outcome)
    assert shipping_state(replicas) == before
    assert replicas.resolves_elided == 1
    assert replicas.stats()["resolves_elided"] == 1
    # ... while a write still costs record + resolve per backup.
    transact(replicas, [(1, write(9001))], outcome)
    assert frames_sent(replicas) == before["frames"] + 2 * 2
    assert replicas.keyring.stamps == before["stamps"] + 2 * 2
    assert replicas.resolve_count == 1 and replicas.resolves_elided == 1


MIXED = [("empty", "commit"), ("write", "commit"), ("empty", "commit"),
         ("empty", "abort"), ("write", "abort"), ("empty", "commit"),
         ("write", "commit"), ("empty", "abort")]


def run_mixed(replicas, script=MIXED) -> None:
    for i, (kind, outcome) in enumerate(script):
        message = write(9100 + i) if kind == "write" else empty()
        transact(replicas, [(1 + i % 2, message)], outcome)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_resolve_seqs_are_consecutive_over_the_writes(mode):
    net, replicas = bare(mode)
    seen, seqs = tap_backup_frames(replicas)
    run_mixed(replicas)
    net.run_for(0.5)    # past quorum_timeout / vote_timeout
    assert seqs == {"r1": [1, 2, 3], "r2": [1, 2, 3]}
    assert replicas.resolve_count == 3 and replicas.resolves_elided == 5
    assert seen["TxnResolve"] == seen["RecordShip"] == 3 * 2
    for backup in replicas.live_backups():
        assert backup.contig_resolves == backup.ledger.floor == 3
        assert backup.ledger.digest == replicas.primary.ledger.digest
        assert backup.resync_requests == 0
        assert replicas.shadow_divergence(backup.replica_id) == 0
    # The windows count write commits: two of the three resolves.
    assert not replicas._pending_quorum and not replicas._pending_votes
    assert replicas.quorum_commits == (2 if mode == "quorum" else 0)
    assert replicas.votes_confirmed == (2 if mode == "byzantine" else 0)
    assert replicas.quorum_stalls == replicas.vote_stalls == 0
    assert replicas.divergence() == 0


def test_a_backup_reads_fresh_with_no_resolve_traffic_at_all():
    net, replicas = bare("crash")
    seen, _ = tap_backup_frames(replicas)
    for _ in range(20):
        transact(replicas, [(1, empty())])
    net.run_for(0.1)    # two heartbeats
    assert seen["TxnResolve"] == seen["RecordShip"] == 0
    assert seen["ReplHeartbeat"] > 0
    assert replicas.resolve_count == 0 and replicas.resolves_elided == 20
    for backup in replicas.live_backups():
        assert backup.hb_resolve_count == backup.contig_resolves == 0
        assert replicas.read_eligible(backup, freshness=0.1)
    assert replicas.resolve_floor(net.sim.now) == 0
    assert replicas.quorum_read(1, freshness=0.1).from_backup


def test_elided_resolves_reach_the_metrics():
    net = Network(linear_topology(2, 1), seed=0,
                  telemetry=Telemetry(enabled=True))
    runtime = LegoSDNRuntime(net.controller)
    replicas = ReplicaSet(net, runtime, backups=1)
    net.start()
    transact(replicas, [(1, empty())])
    transact(replicas, [(1, write(9001))])
    transact(replicas, [(2, empty())], "abort")
    counters = net.controller.telemetry.metrics.counters
    assert counters["replication.resolves_elided"] == 2
    assert "repro_replication_resolves_elided_total 2" in prometheus_text(
        net.controller.telemetry.metrics)


class RecordTamperer(ByzantineProfile):
    """Alters every RecordShip after it was signed, nothing else."""

    @staticmethod
    def _flip_one_field(frame):
        if isinstance(frame, RecordShip):
            return replace(frame, dpid=frame.dpid + 1)
        return frame


@pytest.mark.parametrize("mode", ["crash", "byzantine"])
def test_a_tampered_record_is_still_rejected_and_never_confirmed(mode):
    """Holds on both sides of the change down to the marked lines: the
    parent folded and confirmed the empty commit ahead of the first
    write, which is all a tampering primary ever got confirmed."""
    profile = RecordTamperer(seed=3, tamper=1.0)
    net, replicas = bare(
        mode, byz_f=1,      # a commit needs both backups' matching votes
        byzantine=lambda rid: profile if rid == "r0" else None)
    run_mixed(replicas)
    net.run_for(0.5)
    assert replicas.ship_index == 3
    for backup in replicas.live_backups():
        # Never obeyed: nothing tampered was held or folded.
        assert backup.ships_received == 0 and not backup.log
        assert not backup.shadow
        assert backup.leaf_mismatches >= 3
    # Detected: the rejections are pinned on the sender.
    assert replicas.sig_rejected >= 3 * 2
    assert replicas.auth_faults
    assert {fault.replica_id for fault in replicas.auth_faults} == {"r0"}
    if mode == "byzantine":
        # Out-voted: neither write commit mustered its 2f+1.
        assert replicas.vote_stalls == 2            # parent: 4
        assert replicas.votes_confirmed == 0        # parent: 1
    assert all(backup.ledger.floor == 0             # parent: 1
               for backup in replicas.live_backups())


KINDS = st.tuples(st.sampled_from(["empty", "write"]),
                  st.sampled_from(["commit", "abort"]))


@given(st.sampled_from(sorted(MODES)), st.lists(KINDS, max_size=12))
@settings(max_examples=30, deadline=None)
def test_frames_are_a_function_of_writes_and_heartbeats(mode, script):
    net, replicas = bare(mode)
    sent = frames_sent(replicas)
    seen, seqs = tap_backup_frames(replicas)
    run_mixed(replicas, script)
    net.run_for(0.5)
    writes = sum(kind == "write" for kind, _ in script)
    assert replicas.resolve_count == writes
    assert replicas.resolves_elided == len(script) - writes
    # One record and one resolve per write per backup, the heartbeats,
    # and no term in how many transactions there were.
    assert seen["RecordShip"] == seen["TxnResolve"] == 2 * writes
    assert frames_sent(replicas) - sent \
        == 2 * 2 * writes + seen["ReplHeartbeat"]
    assert set(seen) <= {"RecordShip", "TxnResolve", "ReplHeartbeat"}
    primary = replicas.primary
    for backup in replicas.live_backups():
        assert seqs.get(backup.replica_id, []) == list(range(1, writes + 1))
        assert backup.ledger.floor == primary.ledger.floor == writes
        assert backup.ledger.digest == primary.ledger.digest
        assert backup.resync_requests == 0 and not backup.open_txns
        assert replicas.shadow_divergence(backup.replica_id) == 0


if __name__ == "__main__":
    runs = [_normalise(scripted_run(mode)) for mode in sorted(MODES)]
    assert all(run == runs[0] for run in runs), "the modes disagree"
    GOLDEN_PATH.write_text(
        json.dumps(runs[0], indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
