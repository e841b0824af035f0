"""What a replica set decides, pinned on the paths the write-only golden
does not walk.

``tests/data/replication_surface_golden.json`` was recorded while
``ReplicaSet`` was one class.  Six scripted runs, each small:

* ``adaptive`` -- a backup starts lying about its digest; the adaptive
  policy escalates, the liar is quarantined, a clean window
  de-escalates;
* ``rehabilitate`` -- the same liar in ``byzantine`` mode, quarantined,
  then ``rehabilitate()``d and rebuilt by a full resync;
* ``partition_heal`` -- a backup cut off past its retry budget, healed
  by a ranged resync;
* ``quorum_degrade`` -- every backup dark under quorum commit: commits
  stall and degrade, then confirm again once the partition lifts;
* ``spurious_lease`` -- the lowest-id backup's link dies with the
  primary alive: its lease expires and it promotes itself;
* ``shard_kill`` -- a K=2 ``ShardCoordinator`` loses one shard primary.

Each records the full ``stats()``, every ``FailoverRecord``, the mode
policy's switches, the ``AuthFault`` list, the tickets filed, and per
replica its role, contiguous marks, ledger floor and digest, log length
and shadow rule identities.  Never regenerate the golden to make a
restructuring pass; running this file as a script rewrites it, for a
change that means to move what a replica set decides.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.apps import LearningSwitch
from repro.core.runtime import LegoSDNRuntime
from repro.faults import ByzantineProfile
from repro.faults.netfaults import ChaosProfile
from repro.network.net import Network
from repro.network.packet import reset_packet_ids
from repro.network.topology import linear_topology
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, reset_xid_counter
from repro.replication import RecordShip, ReplicaSet, TxnResolve
from repro.replication.frames import ResyncRequest
from repro.shard import ShardCoordinator
from repro.workloads import TrafficWorkload

GOLDEN_PATH = (pathlib.Path(__file__).parent / "data"
               / "replication_surface_golden.json")


def _fresh_ids() -> None:
    # Ids are varint-encoded: their magnitude reaches wire sizes and,
    # through them, sim instants.
    reset_xid_counter()
    reset_packet_ids()


def build(backups=2, switches=3, hosts=1, **kwargs):
    _fresh_ids()
    net = Network(linear_topology(switches, hosts), seed=0)
    runtime = LegoSDNRuntime(net.controller)
    replicas = ReplicaSet(net, runtime, backups=backups, **kwargs)
    runtime.launch_app(LearningSwitch())
    net.start()
    return net, replicas


def drive(net, duration, rate=40.0, seed=1, selection="random"):
    TrafficWorkload(net, rate=rate, seed=seed,
                    selection=selection).start(duration * 0.8)
    net.run_for(duration)


def _value(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _value(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if hasattr(value, "value") and hasattr(value, "name"):
        return value.value      # an enum
    return value


def observe(replicas) -> dict:
    """Everything a replica set decided, as JSON-able values."""
    tickets = []
    for replica in replicas.replicas:
        if replica.runtime is not None:
            tickets.extend(
                [replica.replica_id, t.app_name, t.time, t.failure_kind,
                 t.offending_event, t.recovery_policy, t.recovery_note]
                for t in replica.runtime.tickets.all())
    return {
        "stats": replicas.stats(),
        "failovers": [_value(record) for record in replicas.failovers],
        "mode_switches": [_value(s) for s in replicas.mode_policy.switches],
        "auth_faults": [_value(fault) for fault in replicas.auth_faults],
        "tickets": tickets,
        "replicas": {
            replica.replica_id: [
                replica.role.value, replica.contig_index,
                replica.contig_resolves, replica.ledger.floor,
                replica.ledger.digest, len(replica.log),
                {str(dpid): sorted(ReplicaSet._rule_identities(table))
                 for dpid, table in sorted(replica.shadow.items())}]
            for replica in replicas.replicas},
    }


def liar(mode, start):
    profile = ByzantineProfile(seed=5, digest_lie=1.0, start=start)
    net, replicas = build(
        backups=3, repl_mode=mode,
        byzantine=lambda rid: profile if rid == "r1" else None)
    return profile, net, replicas


def run_adaptive() -> dict:
    _, net, replicas = liar("adaptive", start=1.5)
    net.run_for(1.0)
    drive(net, 2.0)
    net.run_for(2.5)        # past the clean window: de-escalates
    return observe(replicas)


def run_rehabilitate() -> dict:
    profile, net, replicas = liar("byzantine", start=0.0)
    net.run_for(1.0)
    drive(net, 1.5)
    profile.digest_lie = 0.0
    replicas.rehabilitate("r1")
    drive(net, 1.5, seed=2)
    return observe(replicas)


def run_partition_heal() -> dict:
    profile = ChaosProfile(seed=0)
    profile.partition(0.4, 0.9)
    net, replicas = build(
        hosts=2, repl_retry_budget=3, lease_timeout=30.0,
        chaos=lambda rid: profile if rid == "r1" else None)
    drive(net, 3.0, rate=60.0, seed=0, selection="round-robin")
    return observe(replicas)


def run_quorum_degrade() -> dict:
    profile = ChaosProfile(seed=0)
    profile.partition(0.4, 1.0)     # every backup dark for a second
    net, replicas = build(
        hosts=2, quorum=True, quorum_timeout=0.2, repl_retry_budget=2,
        lease_timeout=30.0, chaos=lambda rid: profile)
    drive(net, 3.0, rate=60.0, seed=0, selection="round-robin")
    # One write once the backups are back: it musters its majority.
    manager = replicas.runtime.proxy.manager
    txn = manager.begin("script")
    manager.apply(txn, 1, FlowMod(match=Match(tp_dst=9001), priority=300,
                                  actions=(Output(1),)))
    manager.commit(txn)
    net.run_for(0.5)
    return observe(replicas)


def run_spurious_lease() -> dict:
    profile = ChaosProfile(seed=0)
    net, replicas = build(
        lease_timeout=0.2,
        chaos=lambda rid: profile if rid == "r1" else None)
    net.run_for(1.0)
    # The candidate's link dies, the primary does not.
    profile.partition(net.now, 0.5)
    drive(net, 2.0)
    return observe(replicas)


def run_shard_kill() -> dict:
    _fresh_ids()
    net = Network(linear_topology(4, 1), seed=0)
    coordinator = ShardCoordinator(net, shards=2, apps=(LearningSwitch,),
                                   backups=1)
    coordinator.start()
    net.run_for(1.0)
    TrafficWorkload(net, rate=40.0, seed=1,
                    selection="random").start(2.0)
    net.run_for(0.8)
    coordinator.crash_shard_primary(0)
    net.run_for(1.7)
    return {str(shard_id): observe(handle.replicas)
            for shard_id, handle in sorted(coordinator.shards.items())}


SCENARIOS = {
    "adaptive": run_adaptive,
    "rehabilitate": run_rehabilitate,
    "partition_heal": run_partition_heal,
    "quorum_degrade": run_quorum_degrade,
    "spurious_lease": run_spurious_lease,
    "shard_kill": run_shard_kill,
}


def _normalise(value):
    return json.loads(json.dumps(value, sort_keys=True))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_run_decides_what_was_recorded(name, golden):
    got = _normalise(SCENARIOS[name]())
    for section in sorted(golden[name]):
        assert got[section] == golden[name][section], section
    assert sorted(got) == sorted(golden[name])


def test_the_scenarios_reach_the_paths_they_name(golden):
    """The golden is an oracle only if each run really went there."""
    adaptive = golden["adaptive"]
    assert [s["mode"] for s in adaptive["mode_switches"]] \
        == ["byzantine", "crash"]
    assert adaptive["stats"]["quarantines"] == 1
    assert [t[1] for t in adaptive["tickets"]] == ["replica:r1"]
    rehab = golden["rehabilitate"]["stats"]
    assert rehab["quarantines"] == rehab["rejoins"] == 1
    assert not rehab["replicas"]["r1"]["quarantined"]
    assert rehab["resync_records_sent"] > 0
    heal = golden["partition_heal"]["stats"]
    assert heal["resyncs"] > 0
    assert heal["replicas"]["r1"]["resync_requests"] > 0
    assert heal["replicas"]["r2"]["resync_requests"] == 0
    quorum = golden["quorum_degrade"]["stats"]
    assert quorum["quorum_stalls"] > 0 and quorum["quorum_commits"] > 0
    assert not quorum["quorum_degraded"]        # recovered after the heal
    [spurious] = golden["spurious_lease"]["failovers"]
    assert spurious["to_replica"] == "r1"
    assert golden["spurious_lease"]["replicas"]["r0"][0] == "dead"
    shards = golden["shard_kill"]
    assert len(shards["0"]["failovers"]) == 1
    assert not shards["1"]["failovers"]


def test_ship_history_spans_epochs_and_resync_restamps_it():
    """``ship_history`` is every frame shipped since the set was built,
    not this epoch's: it carries across a failover, and a resync served
    after one re-stamps earlier-epoch frames with the new epoch.  (A
    promoted primary serving its own bounded log is open work.)"""
    net, replicas = build(lease_timeout=0.2)
    drive(net, 1.0)
    before = len(replicas.ship_history)
    assert before > 0
    replicas.crash_primary()
    net.run_for(1.0)
    assert replicas.epoch == 1
    assert len(replicas.ship_history) == before
    assert {frame.epoch for _, frame in replicas.ship_history} == {0}
    backup = replicas.replica("r2")
    sent = []
    inner = backup.channel.proxy_end.send

    def tapped(frame, *args, **kwargs):
        if isinstance(frame, (RecordShip, TxnResolve)):
            sent.append(frame)
        return inner(frame, *args, **kwargs)

    backup.channel.proxy_end.send = tapped
    backup.channel.stub_end.send(replicas.keyring.stamp(ResyncRequest(
        replica_id="r2", epoch=replicas.epoch, from_index=0, to_index=0,
        from_resolve=0), "r2", "r1"))
    net.run_for(0.1)
    assert replicas.resyncs_served == 1
    assert replicas.resync_records_sent == len(sent) == before
    assert {frame.epoch for frame in sent} == {1}


if __name__ == "__main__":
    runs = {name: _normalise(run()) for name, run in SCENARIOS.items()}
    GOLDEN_PATH.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
