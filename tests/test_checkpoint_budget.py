"""What a checkpoint encodes and a restore decodes, counted.

``wallbench``'s ``crash-recover`` measures this on a stopwatch and
gates nothing; these counts cannot flake and fail the moment a take
goes back to encoding the table an entry lives in, a wrapper stops
forwarding the inner app's dirty tracking, or patches pile up past the
fold rule.  The stack is ``crash-recover``-shaped: one shard, one
backup, ``crash_on(LearningSwitch())``, 2 000 hosts, a checkpoint
before every event, 3 sim-s of load after warm-up, two marker crashes.
"""

from repro.apps import LearningSwitch
from repro.bench import HostUniverse, LoadGenerator, TrafficMix
from repro.core.crashpad import checkpoint
from repro.core.crashpad.checkpoint import CheckpointStore
from repro.faults import crash_on
from repro.network.net import Network
from repro.network.packet import tcp_packet
from repro.network.topology import tree_topology
from repro.openflow.messages import PacketIn
from repro.openflow.serialization import encode_state_value
from repro.shard import ShardCoordinator

MARKER = "BUDGET-CRASH-MARKER"

#: A learned MAC is ~22 bytes in a patch and the patch frames it with
#: ~6 more; the counters an event bumps add ~20 per take.
BYTES_PER_ENTRY = 48
BYTES_PER_TAKE = 48


class UntrackedSwitch(LearningSwitch):
    """The all-dirty reference: every take encodes every key whole."""

    def enable_dirty_tracking(self):
        pass


def run_stack(app_class, observe=lambda stub: None):
    """Warm up, call ``observe(stub)``, offer 3 sim-s of load with a
    marker crash at +1 s and +2 s, drain.  Returns the stub."""
    net = Network(tree_topology(1, 4, hosts_per_leaf=1), seed=1)
    coordinator = ShardCoordinator(
        net, shards=1, backups=1, service_time=0.0008,
        apps=(lambda: crash_on(app_class(), payload_marker=MARKER),),
        runtime_kwargs={"checkpoint_interval": 1})
    coordinator.start()
    universe = HostUniverse(2_000, sorted(net.switches), seed=0)
    mix = TrafficMix(universe, seed=2, hot_fraction=0.15, hot_set=32,
                     churn_per_sec=2.0)
    generator = LoadGenerator(net.sim, coordinator.owner_controller, mix,
                              rate=80.0)
    net.run_for(0.5)
    generator.start()
    net.run_for(2.0)
    runtime = coordinator.shards[0].runtime
    (stub,) = runtime.stubs.values()
    observe(stub)

    def crash():
        src, dst = mix.sample()
        coordinator.owner_controller(src.dpid).handle_switch_message(
            src.dpid, PacketIn(dpid=src.dpid, in_port=src.port,
                               packet=tcp_packet(src.mac, dst.mac, src.ip,
                                                 dst.ip, payload=MARKER)))

    net.sim.schedule(1.0, crash)
    net.sim.schedule(2.0, crash)
    net.run_for(3.0)
    generator.stop()
    done = -1
    while done != stub.last_seq_done:       # the reference run lags
        done = stub.last_seq_done
        net.run_for(1.0)
    (stats,) = runtime.stats().values()
    assert stats["crashes"] == stats["recoveries"] == 2
    return stub


def test_crash_recover_checkpoint_budget(monkeypatch):
    encoded = {"bytes": 0}
    decoded = {"bytes": 0}
    encode, decode = (checkpoint.encode_state_value,
                      checkpoint.decode_state_value)

    def counting_encode(value):
        buf = encode(value)
        encoded["bytes"] += len(buf)
        return buf

    def counting_decode(buf):
        decoded["bytes"] += len(buf)
        return decode(buf)

    monkeypatch.setattr(checkpoint, "encode_state_value", counting_encode)
    monkeypatch.setattr(checkpoint, "decode_state_value", counting_decode)

    takes = []          # (checkpoint, entries changed since the last take)
    finalised = {}      # id(checkpoint) -> bytes its finalise encoded
    restores = []       # (bytes decoded, folded size of the restored state)
    after_restore = set()
    shadow = {}
    take, finalize, restore = (CheckpointStore.take,
                               CheckpointStore._finalize,
                               CheckpointStore.restore)

    def watching_take(self, app, before_seq, now, defer=False):
        tables = app.inner.mac_tables
        changed = sum(len(table.items() ^ shadow.get(dpid, {}).items())
                      for dpid, table in tables.items())
        shadow.clear()
        shadow.update((dpid, dict(table)) for dpid, table in tables.items())
        entry = take(self, app, before_seq, now, defer)
        takes.append((entry, changed))
        if restores and len(after_restore) < len(restores):
            after_restore.add(id(entry))
        return entry

    def watching_finalize(self, entry, version_cost=0.0):
        before = encoded["bytes"]
        cost = finalize(self, entry, version_cost)
        finalised[id(entry)] = encoded["bytes"] - before
        return cost

    def watching_restore(self, app, target):
        before = decoded["bytes"]
        restore(self, app, target)
        folded = sum(len(encode_state_value(value))
                     for value in app.get_state().values())
        restores.append((decoded["bytes"] - before, folded))

    def observe(stub):
        monkeypatch.setattr(CheckpointStore, "take", watching_take)
        monkeypatch.setattr(CheckpointStore, "_finalize", watching_finalize)
        monkeypatch.setattr(CheckpointStore, "restore", watching_restore)

    stub = run_stack(LearningSwitch, observe)
    store = stub.checkpoints

    # (a) Outside folds (a key rewritten whole: it shows as a one-buffer
    # tuple the predecessor did not hold) and the first take after a
    # restore (replay re-marks its whole tail), a take encodes the
    # entries that changed, not the tables they live in.
    folds = budgeted = 0
    previous = None
    for entry, changed in takes:
        if id(entry) not in finalised:
            previous = None         # dropped by a crash while pending
            continue
        rewritten = previous is None or any(
            len(buffers) == 1 and key[0] == "macs"
            and previous.buffers.get(key) != buffers
            for key, buffers in entry.buffers.items())
        previous = entry
        if rewritten:
            folds += 1
        elif id(entry) not in after_restore:
            budgeted += 1
            assert finalised[id(entry)] <= (BYTES_PER_ENTRY * changed
                                            + BYTES_PER_TAKE), (
                entry.before_seq, changed, finalised[id(entry)])
    # Tables of ~350 MACs fold about every seventh learn (1/32 of
    # 8 KB is six patches); whole-key encoding would make every
    # learning take a rewrite and leave next to nothing budgeted.
    assert budgeted > 800 and folds < budgeted / 4

    # (b) More keys are skipped than encoded.
    assert store.encodes_skipped > store.value_encodes

    # (c) A restore reads the folded state plus at most the fold
    # fraction of it -- and, per key, the one patch that crossed it.
    assert len(restores) >= 2
    keys = len(stub.app.get_state())
    for read, folded in restores:
        assert folded > 20_000
        assert read <= ((1 + store.fold_fraction) * folded
                        + keys * BYTES_PER_ENTRY)

    # (d) What was recovered is what whole-state images recover.
    monkeypatch.undo()
    reference = run_stack(UntrackedSwitch)
    assert reference.checkpoints.encodes_skipped == 0
    assert stub.app.inner.mac_tables == reference.app.inner.mac_tables
    assert sum(map(len, stub.app.inner.mac_tables.values())) > 1_000
