"""Batched RPC: coalescing, FIFO across flushes, and crash-tail loss.

The guarantees the batching channel must keep (the reason E6
equivalence and the NetLog rollback tests stay green with batching on
by default at the runtime level):

- frames delivered in send order, across and within batch flushes;
- one data datagram (one base_delay, one chaos roll per transmission,
  one ack back) per same-instant burst;
- a sender dying mid-tick loses exactly the unflushed tail -- frames
  already on the wire still arrive, and nothing arrives twice.
"""

from repro.core.appvisor.channel import (
    HEADER_SIZE,
    UdpChannel,
    pack_datagram,
    pack_records,
    unpack_datagram,
)
from repro.core.appvisor.rpc import Heartbeat, decode_frame, encode_frame
from repro.faults.netfaults import ChaosProfile
from repro.network.simulator import Simulator


def beat(seq):
    return Heartbeat(app_name="app", stub_time=0.0, last_seq_done=seq)


def make_channel(sim, **kwargs):
    kwargs.setdefault("batch", True)
    channel = UdpChannel(sim, **kwargs)
    got = []
    channel.proxy_end.on_frame(lambda f: got.append(f.last_seq_done))
    return channel, got


class TestCoalescing:
    def test_same_instant_burst_is_one_datagram(self):
        sim = Simulator()
        channel, got = make_channel(sim)
        for seq in range(5):
            channel.stub_end.send(beat(seq))
        sim.run()
        assert got == [0, 1, 2, 3, 4]
        assert channel.datagrams_delivered == 1
        assert channel.batches_flushed == 1
        assert channel.frames_batched == 5
        assert channel.stub_end.frames_sent == 5
        # ... and one ack the other way, which is not a delivery.
        assert channel.acks_sent == 1
        assert channel.proxy_end.frames_sent == 0

    def test_batch_pays_base_delay_once(self):
        sim = Simulator()
        arrivals = []
        channel = UdpChannel(sim, base_delay=0.01, per_byte_delay=0.0,
                             batch=True)
        channel.proxy_end.on_frame(
            lambda f: arrivals.append(sim.now))
        for seq in range(4):
            channel.stub_end.send(beat(seq))
        sim.run()
        # All four frames land together, one base_delay after the tick.
        assert arrivals == [0.01] * 4

        sim2 = Simulator()
        unbatched = UdpChannel(sim2, base_delay=0.01, per_byte_delay=0.0)
        last = []
        unbatched.proxy_end.on_frame(lambda f: last.append(sim2.now))
        for seq in range(4):
            unbatched.stub_end.send(beat(seq))
        sim2.run()
        assert len(last) == 4  # same frames, but four datagrams
        assert sim2.now >= sim.now

    def test_single_frame_skips_the_batch_wrapper(self):
        sim = Simulator()
        channel, got = make_channel(sim)
        channel.stub_end.send(beat(7))
        sim.run()
        assert got == [7]
        # One frame is a batch of one: the header, one length, the
        # frame's encoding -- no wrapper frame around it.
        record = 4 + len(encode_frame(beat(7)))
        assert channel.stub_end.bytes_sent == record
        # On the wire: that datagram, and the bare-header ack for it.
        assert channel.acks_sent == 1
        assert channel.bytes_carried == (HEADER_SIZE + record) + HEADER_SIZE


class TestFifoAcrossFlushes:
    def test_order_preserved_across_ticks(self):
        sim = Simulator()
        channel, got = make_channel(sim)
        for tick in range(3):
            sim.schedule(tick * 0.001, lambda t=tick: [
                channel.stub_end.send(beat(t * 10 + i)) for i in range(3)
            ])
        sim.run()
        assert got == [0, 1, 2, 10, 11, 12, 20, 21, 22]

    def test_both_directions_interleave_safely(self):
        sim = Simulator()
        channel = UdpChannel(sim, batch=True)
        to_proxy, to_stub = [], []
        channel.proxy_end.on_frame(lambda f: to_proxy.append(f.last_seq_done))
        channel.stub_end.on_frame(lambda f: to_stub.append(f.last_seq_done))
        for seq in range(3):
            channel.stub_end.send(beat(seq))
            channel.proxy_end.send(beat(100 + seq))
        sim.run()
        assert to_proxy == [0, 1, 2]
        assert to_stub == [100, 101, 102]


class TestCrashMidBatch:
    def test_crash_before_flush_loses_only_the_tail(self):
        sim = Simulator()
        channel, got = make_channel(sim)
        # Tick 0: three frames flushed and on the wire.
        for seq in range(3):
            channel.stub_end.send(beat(seq))
        sim.run()
        # Tick 1: the app enqueues two more, then dies before the
        # flush event fires (same instant, later in the event queue).
        channel.stub_end.send(beat(3))
        channel.stub_end.send(beat(4))
        assert len(channel.stub_end.pending) == 2
        assert channel.drop_pending("stub") == 2
        sim.run()
        # Only the unflushed tail is gone; no duplicates of the head.
        assert got == [0, 1, 2]
        assert len(channel.stub_end.pending) == 0

    def test_flushed_frames_survive_a_late_crash(self):
        sim = Simulator()
        channel, got = make_channel(sim)
        channel.stub_end.send(beat(0))
        sim.run_until(0.0001)  # flush fired; datagram is in flight
        assert len(channel.stub_end.pending) == 0
        channel.drop_pending("stub")  # crash now: nothing left to drop
        sim.run()
        assert got == [0]

    def test_loss_rolls_once_per_batch(self):
        sim = Simulator()
        channel = UdpChannel(sim, batch=True,
                             chaos=ChaosProfile(seed=1, loss=1.0))
        got = []
        channel.proxy_end.on_frame(lambda f: got.append(f))
        for seq in range(6):
            channel.stub_end.send(beat(seq))
        sim.run()
        assert got == []
        # Six frames, one batch, one datagram: one loss roll per time it
        # went on the wire (the first send plus the whole retry budget),
        # never one per frame.
        assert channel.batches_flushed == 1
        assert channel.retransmits == channel.retry_budget
        assert channel.datagrams_lost == 1 + channel.retry_budget
        assert channel.chaos.dropped == channel.datagrams_lost
        assert channel.abandoned == 1


class TestCrashPathWiring:
    """The production crash paths actually drop the unflushed tail."""

    def _runtime(self):
        from repro.apps import LearningSwitch
        from repro.controller.core import Controller
        from repro.core.runtime import LegoSDNRuntime

        sim = Simulator()
        controller = Controller(sim)
        runtime = LegoSDNRuntime(controller)
        runtime.launch_app(LearningSwitch())
        sim.run_until(0.5)  # registration + first heartbeats settle
        return sim, controller, runtime

    def test_controller_crash_drops_proxy_side_pending(self):
        sim, controller, runtime = self._runtime()
        channel = runtime.channels["learning_switch"]
        channel.proxy_end.send(beat(1))
        channel.stub_end.send(beat(2))
        assert len(channel.proxy_end.pending) == 1
        controller.crash(RuntimeError("die"), culprit="fault-injection")
        # The proxy died mid-tick: its tail is gone, the surviving
        # stub's pending frames are not.
        assert len(channel.proxy_end.pending) == 0
        assert len(channel.stub_end.pending) == 1

    def test_proxy_shutdown_drops_proxy_side_pending(self):
        sim, controller, runtime = self._runtime()
        channel = runtime.channels["learning_switch"]
        channel.proxy_end.send(beat(2))
        assert len(channel.proxy_end.pending) == 1
        runtime.proxy.shutdown()
        assert len(channel.proxy_end.pending) == 0


class TestBatchWire:
    def test_frame_batch_roundtrips_through_codec(self):
        frames = [beat(i) for i in range(3)]
        datagram = pack_datagram(
            1, 7, 3, pack_records([encode_frame(f) for f in frames]))
        kind, seq, floor, records = unpack_datagram(datagram)
        assert (kind, seq, floor) == (1, 7, 3)
        assert [decode_frame(record) for record in records] == frames
        # An ack is a header and nothing else.
        assert unpack_datagram(pack_datagram(2, 9, 0)) == (2, 9, 0, [])
        assert len(pack_datagram(2, 9, 0)) == HEADER_SIZE
