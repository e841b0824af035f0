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

import pytest

from repro.apps import LearningSwitch
from repro.core.runtime import LegoSDNRuntime
from repro.network.net import Network
from repro.network.packet import reset_packet_ids
from repro.network.topology import tree_topology
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketOut, reset_xid_counter
from repro.openflow.serialization import encode_message
from repro.replication import ReplicaSet
from repro.workloads.traffic import inject_marker_packet

GOLDEN_PATH = (pathlib.Path(__file__).parent / "data"
               / "replication_golden.json")

MODES = {
    "crash": {},
    "quorum": {"quorum": True},
    "byzantine": {"repl_mode": "byzantine"},
}


def build(mode: str, backups: int = 2, **kwargs):
    # Ids are varint-encoded, so their magnitude reaches wire sizes and
    # through them sim instants: start each run from the same counters.
    reset_xid_counter()
    reset_packet_ids()
    net = Network(tree_topology(2, 2), seed=0)
    runtime = LegoSDNRuntime(net.controller)
    replicas = ReplicaSet(net, runtime, backups=backups,
                          **MODES[mode], **kwargs)
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


if __name__ == "__main__":
    runs = [_normalise(scripted_run(mode)) for mode in sorted(MODES)]
    assert all(run == runs[0] for run in runs), "the modes disagree"
    GOLDEN_PATH.write_text(
        json.dumps(runs[0], indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
