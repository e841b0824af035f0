"""The datagram layout under corruption, and authentication over the
bytes that arrived.

PR 15's decoder fuzz, extended one layer down: for a data datagram (one
frame, four frames) and an ack, every strict prefix and 300 seeded
1-3-bit flips either leave what the receiver does unchanged or count
one ``corrupt_rejected`` -- no exception leaves ``_deliver``, no frame
arrives with flipped content, no ack acknowledges what was not
received.
"""

import random
from dataclasses import replace

import pytest

from repro.apps import LearningSwitch
from repro.core.appvisor import rpc
from repro.core.appvisor.channel import (
    HEADER_SIZE,
    UdpChannel,
    pack_datagram,
    pack_records,
    unpack_datagram,
)
from repro.core.runtime import LegoSDNRuntime
from repro.faults.netfaults import ChaosProfile
from repro.network.net import Network
from repro.network.simulator import Simulator
from repro.network.topology import linear_topology
from repro.openflow.serialization import SerializationError
from repro.replication import RecordShip, ReplicaSet
from repro.replication import byzantine
from repro.workloads import TrafficWorkload


def frames_of(count):
    return [rpc.CrashReport(app_name="app", seq=i, error="e" * (7 * i),
                            traceback_text="tb", trace_id=i)
            for i in range(1, count + 1)]


def mutations(data: bytes, label: str):
    """Every strict prefix, then 300 seeded flips of 1-3 bits."""
    for cut in range(len(data)):
        yield data[:cut]
    rng = random.Random(label)
    for _ in range(300):
        mutated = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        if bytes(mutated) != data:      # two flips can cancel out
            yield bytes(mutated)


@pytest.mark.parametrize("count", [1, 4], ids=["one-frame", "four-frames"])
def test_data_datagram_is_delivered_intact_or_rejected(count):
    frames = frames_of(count)
    datagram = pack_datagram(
        1, 1, 1, pack_records([rpc.encode_frame(f) for f in frames]))

    def receive(data):
        channel = UdpChannel(Simulator())
        got = []
        channel.proxy_end.on_frame(got.append)
        channel._deliver(channel.proxy_end, data, 0.0)
        return channel, got

    channel, got = receive(datagram)
    assert got == frames and channel.corrupt_rejected == 0
    assert channel.acks_sent == 1
    for mutated in mutations(datagram, f"data-{count}"):
        channel, got = receive(mutated)
        assert got == [] and channel.corrupt_rejected == 1
        # Rejected means not acknowledged: the sender retransmits.
        assert channel.acks_sent == 0 and channel.datagrams_delivered == 0


def test_ack_is_honoured_intact_or_rejected():
    ack = pack_datagram(2, 2, 0)
    assert len(ack) == HEADER_SIZE

    def receive(data):
        sim = Simulator()
        channel = UdpChannel(sim, chaos=ChaosProfile(loss=1.0))
        for seq in range(3):            # seqs 1..3 sent, none arrived
            channel.stub_end.send(frames_of(1)[0])
        channel._deliver(channel.stub_end, data, 0.0)
        return channel

    assert len(receive(ack).stub_end.unacked) == 1
    for mutated in mutations(ack, "ack"):
        channel = receive(mutated)
        # Nothing is acknowledged on the word of a damaged ack -- least
        # of all seq 3, which the receiver never claimed.
        assert len(channel.stub_end.unacked) == 3
        assert channel.corrupt_rejected == 1


def test_a_record_cannot_run_past_its_datagram():
    """A length that lies is corruption even when the checksum is
    recomputed to match (a sender bug, not the wire)."""
    record = rpc.encode_frame(frames_of(1)[0])
    lying = (len(record) + 1).to_bytes(4, "big") + record
    with pytest.raises(SerializationError, match="overruns"):
        unpack_datagram(pack_datagram(1, 1, 1, lying))
    with pytest.raises(SerializationError, match="truncated"):
        unpack_datagram(pack_datagram(1, 1, 1, pack_records([record])
                                      + b"\x00\x00"))
    with pytest.raises(SerializationError, match="kind"):
        unpack_datagram(pack_datagram(3, 1, 1))
    channel = UdpChannel(Simulator())
    channel.proxy_end.on_frame(lambda frame: pytest.fail("delivered"))
    # A frame that does not decode, behind a valid header and length.
    channel._deliver(channel.proxy_end,
                     pack_datagram(1, 1, 1, pack_records([b"\x63"])), 0.0)
    assert channel.corrupt_rejected == 1


# -- authentication over the received bytes ----------------------------

class Tap:
    """Chaos stand-in that records what crosses the wire."""

    def __init__(self):
        self.seen = []

    def perturb(self, now, side, data):
        self.seen.append((side, data))
        return [(0.0, data)]


def test_verify_runs_on_received_bytes(monkeypatch):
    """A frame altered after it was stamped, inside a datagram whose
    CRC was recomputed to match: the channel has no complaint, the MAC
    does -- and it is computed over the bytes that arrived, with no
    re-encoding of what they decoded to."""
    net = Network(linear_topology(2, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller)
    replicas = ReplicaSet(net, runtime, backups=1)
    runtime.launch_app(LearningSwitch())
    net.start()
    net.run_for(1.0)
    backup = replicas.replica("r1")
    tap = backup.channel.chaos = Tap()
    TrafficWorkload(net, rate=40.0, seed=1, selection="random").start(0.5)
    net.run_for(1.0)
    shipped = [(record, frame)
               for side, data in tap.seen if side == "proxy"
               for record in unpack_datagram(data)[3]
               for frame in [rpc.decode_frame(record)]
               if isinstance(frame, RecordShip)]
    assert shipped and replicas.sig_rejected == 0
    record, ship = shipped[-1]
    assert replicas.keyring.verify(record, "r0", "r1")
    # A record nobody has seen yet, carrying the stamp of another.
    evil = rpc.encode_frame(replace(ship, index=replicas.ship_index + 1,
                                    dpid=ship.dpid + 1))
    assert evil[-8:] == record[-8:]
    seq = backup.channel.stub_end.cursor + 1
    encodes = []
    monkeypatch.setattr(byzantine, "encode_value",
                        lambda value: encodes.append(value))
    received = backup.ships_received
    backup.channel._deliver(
        backup.channel.stub_end,
        pack_datagram(1, seq, seq, pack_records([evil])), 0.0)
    assert backup.channel.corrupt_rejected == 0
    assert replicas.sig_rejected == 1 and backup.sig_rejected == 0
    assert backup.ships_received == received
    assert replicas.ship_index + 1 not in backup.seen_indices
    assert encodes == []
