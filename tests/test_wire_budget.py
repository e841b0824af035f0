"""What crosses a channel, counted: a guard in counts, not in time.

``wallbench`` measures the same things on a stopwatch and gates
nothing; these three ratios cannot flake and fail the moment a frame is
encoded twice, decoded twice, a host table is re-sent whole, or an ack
is held back past the retransmission timer.
"""

import pytest

from repro.apps import LearningSwitch
from repro.bench import HostUniverse, LoadGenerator, TrafficMix
from repro.core.appvisor import rpc
from repro.network.net import Network
from repro.network.topology import tree_topology
from repro.replication import byzantine
from repro.shard import ShardCoordinator

#: One HostEntry on the wire is ~50 bytes and a push that carries one
#: adds ~35 of its own.
PUSH_BYTES_PER_HOST_CHANGE = 128


@pytest.fixture
def counted(monkeypatch):
    """``encode_value`` / ``decode_value`` as the channel and the
    replication layer call them, counted; ContextPush bytes summed."""
    counts = {"encodes": 0, "decodes": 0, "push_bytes": 0}
    encode, decode = rpc.encode_value, rpc.decode_value

    def counting_encode(value):
        counts["encodes"] += 1
        data = encode(value)
        if type(value) is rpc.ContextPush:
            counts["push_bytes"] += len(data)
        return data

    def counting_decode(data):
        counts["decodes"] += 1
        return decode(data)

    monkeypatch.setattr(rpc, "encode_value", counting_encode)
    monkeypatch.setattr(rpc, "decode_value", counting_decode)
    monkeypatch.setattr(byzantine, "encode_value", counting_encode)
    return counts


def test_steady_wire_budget(counted):
    """A ``steady``-shaped stack: one shard, one backup, 200 hosts, 3
    sim-s of load after warm-up."""
    net = Network(tree_topology(1, 4, hosts_per_leaf=1), seed=1)
    coordinator = ShardCoordinator(
        net, shards=1, apps=(LearningSwitch,), backups=1,
        service_time=0.0008, runtime_kwargs={"checkpoint_interval": 8})
    coordinator.start()
    universe = HostUniverse(200, sorted(net.switches), seed=0)
    mix = TrafficMix(universe, seed=2, hot_fraction=0.15, hot_set=32,
                     churn_per_sec=2.0)
    generator = LoadGenerator(net.sim, coordinator.owner_controller, mix,
                              rate=40.0)
    net.run_for(0.5)
    generator.start()
    net.run_for(2.0)

    handle = coordinator.shards[0]
    channels = [replica.channel for replica in handle.replicas.replicas
                if replica.channel is not None]
    channels += handle.runtime.channels.values()
    ends = [end for channel in channels
            for end in (channel.proxy_end, channel.stub_end)]
    devices = handle.controller.devices

    def snapshot():
        return dict(counted, sent=sum(e.frames_sent for e in ends),
                    received=sum(e.frames_recv for e in ends),
                    host_changes=devices.version)

    before = snapshot()
    net.run_for(3.0)
    window = {key: value - before[key] for key, value in snapshot().items()}

    assert window["sent"] > 1000 and window["host_changes"] > 20
    # (a) one encode per frame sent (plus one per resolve leaf, on each
    # side), one decode per frame received.
    assert window["encodes"] / window["sent"] <= 1.5
    assert window["decodes"] / window["received"] <= 1.1
    # (b) a push carries what changed, not the table.
    assert 0 < window["push_bytes"] \
        <= PUSH_BYTES_PER_HOST_CHANGE * window["host_changes"]
    # (c) lossless means no retransmission: acks are not held back.
    assert sum(c.retransmits for c in channels) == 0
    assert handle.runtime.record("learning_switch").full_pushes == 1
