"""Property-based tests for the RPC channel's delivery guarantees."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.appvisor.channel import HEADER_SIZE, UdpChannel
from repro.core.appvisor.rpc import CrashReport, Heartbeat
from repro.faults.netfaults import ChaosProfile
from repro.network.simulator import Simulator


def frame_of_size(i, n):
    """A frame whose encoded size grows with n (error text padding)."""
    return CrashReport(app_name="app", seq=i, error="e" * n)


@given(st.lists(st.integers(min_value=0, max_value=800),
                min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_fifo_regardless_of_frame_sizes(sizes):
    """Frames arrive in send order no matter how their sizes mix --
    and the order is the wire's, not the reorder buffer's: each frame
    lands the moment its own bytes, queued behind everything sent
    before it, have drained at line rate."""
    sim = Simulator()
    base, per_byte = 0.0002, 1e-6
    channel = UdpChannel(sim, base_delay=base, per_byte_delay=per_byte)
    got, arrivals, wire_bytes = [], [], []
    channel.proxy_end.on_frame(
        lambda f: (got.append(f.seq), arrivals.append(sim.now)))
    for i, n in enumerate(sizes):
        channel.stub_end.send(frame_of_size(i, n))
        wire_bytes.append((i + 1) * HEADER_SIZE
                          + channel.stub_end.bytes_sent)
    sim.run()
    assert got == list(range(len(sizes)))
    assert arrivals == [pytest.approx(total * per_byte + base)
                        for total in wire_bytes]


@given(st.lists(st.integers(min_value=0, max_value=500),
                min_size=1, max_size=15),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_staggered_sends_still_fifo(sizes, gap_ms):
    """Sends spread over time keep order too."""
    sim = Simulator()
    channel = UdpChannel(sim, base_delay=0.0005, per_byte_delay=2e-6)
    got = []
    channel.proxy_end.on_frame(lambda f: got.append(f.seq))

    def send(i, n):
        channel.stub_end.send(frame_of_size(i, n))

    for i, n in enumerate(sizes):
        sim.schedule(i * gap_ms / 1000.0, send, i, n)
    sim.run()
    assert got == list(range(len(sizes)))


@given(st.lists(st.integers(min_value=1, max_value=400),
                min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_transmission_serialises_at_line_rate(sizes):
    """A burst drains no faster than the line rate allows."""
    sim = Simulator()
    per_byte = 1e-5
    channel = UdpChannel(sim, base_delay=0.001, per_byte_delay=per_byte)
    arrivals = []
    channel.proxy_end.on_frame(lambda f: arrivals.append(sim.now))
    total_bytes = 0
    for i, n in enumerate(sizes):
        frame = frame_of_size(i, n)
        channel.stub_end.send(frame)
    total_bytes = channel.stub_end.bytes_sent
    sim.run()
    assert len(arrivals) == len(sizes)
    # the last arrival cannot beat pure transmission time + propagation
    assert arrivals[-1] >= total_bytes * per_byte

    # directions are independent: the reverse path is idle and fast
    reply_arrival = []
    channel.stub_end.on_frame(lambda f: reply_arrival.append(sim.now))
    t0 = sim.now
    channel.proxy_end.send(Heartbeat(app_name="a", stub_time=0.0,
                                     last_seq_done=0))
    sim.run()
    assert reply_arrival and reply_arrival[0] - t0 < 0.01


# ---------------------------------------------------------------------------
# Exactly-once delivery under adversity (the chaos plane)
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.0, max_value=0.35),
       st.floats(min_value=0.0, max_value=0.3),
       st.floats(min_value=0.0, max_value=0.3),
       st.integers(min_value=1, max_value=25))
@settings(max_examples=60, deadline=None)
def test_reliable_channel_is_exactly_once_in_order(seed, loss, dup,
                                                   reorder, count):
    """Under any mix of loss, duplication, and reordering the reliable
    channel delivers every frame exactly once, in send order."""
    sim = Simulator()
    profile = ChaosProfile(seed=seed, loss=loss, duplicate=dup,
                           reorder=reorder, jitter=0.0005)
    channel = UdpChannel(sim, seed=seed, retry_budget=30, chaos=profile)
    got = []
    channel.proxy_end.on_frame(lambda f: got.append(f.seq))
    for i in range(count):
        channel.stub_end.send(frame_of_size(i, 8))
    sim.run()
    assert got == list(range(count))
    assert channel.abandoned == 0


@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.0, max_value=0.25),
       st.integers(min_value=1, max_value=15))
@settings(max_examples=40, deadline=None)
def test_reliable_channel_survives_corruption(seed, corrupt, count):
    """Corrupted datagrams are rejected (CRC or codec) and healed by
    retransmission -- never delivered mangled, never delivered twice."""
    sim = Simulator()
    profile = ChaosProfile(seed=seed, corrupt=corrupt)
    channel = UdpChannel(sim, seed=seed, retry_budget=30, chaos=profile)
    got = []
    channel.proxy_end.on_frame(lambda f: got.append((f.seq, f.error)))
    for i in range(count):
        channel.stub_end.send(frame_of_size(i, 16))
    sim.run()
    assert got == [(i, "e" * 16) for i in range(count)]
    # Every rejection traces back to an injected flip.  Not equality:
    # a flip can be a semantic no-op (e.g. the codec tag of an ack's
    # cumulative=0 flipping int->float decodes to an equal value with
    # an identical checksum) -- undetectable because it changed nothing.
    assert channel.corrupt_rejected <= profile.corrupted


@given(st.integers(min_value=0, max_value=10_000),
       st.lists(st.sampled_from(["stub", "proxy"]),
                min_size=2, max_size=16))
@settings(max_examples=40, deadline=None)
def test_both_directions_exactly_once(seed, directions):
    """Sequencing is per-side: interleaved bidirectional traffic under
    chaos still lands exactly once, in order, on each side."""
    sim = Simulator()
    profile = ChaosProfile(seed=seed, loss=0.2, duplicate=0.15,
                           reorder=0.15)
    channel = UdpChannel(sim, seed=seed, retry_budget=30, chaos=profile)
    at_proxy, at_stub = [], []
    channel.proxy_end.on_frame(lambda f: at_proxy.append(f.seq))
    channel.stub_end.on_frame(lambda f: at_stub.append(f.seq))
    sent = {"stub": [], "proxy": []}
    for i, side in enumerate(directions):
        end = channel.stub_end if side == "stub" else channel.proxy_end
        end.send(frame_of_size(i, 4))
        sent[side].append(i)
    sim.run()
    assert at_proxy == sent["stub"]
    assert at_stub == sent["proxy"]


@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.0, max_value=0.3),
       st.floats(min_value=0.0, max_value=0.3),
       st.floats(min_value=0.0, max_value=0.3),
       st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                          st.integers(min_value=1, max_value=5)),
                min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_batched_fifo_equals_unbatched_fifo(seed, loss, dup, reorder,
                                            bursts):
    """Batching changes how frames share datagrams, never what the
    receiver is handed: under the same seeded chaos a batched and an
    unbatched channel deliver the identical frame sequence.  (Why
    ``batch=`` can stay an ablation lever without a second set of
    delivery tests.)"""

    def deliver(batch):
        sim = Simulator()
        profile = ChaosProfile(seed=seed, loss=loss, duplicate=dup,
                               reorder=reorder, jitter=0.0005)
        channel = UdpChannel(sim, seed=seed, batch=batch, retry_budget=30,
                             chaos=profile)
        got = []
        channel.proxy_end.on_frame(lambda f: got.append((f.seq, f.error)))

        def burst(first, count):
            for i in range(first, first + count):
                channel.stub_end.send(frame_of_size(i, i % 7))

        sent = at = 0
        for gap_ms, count in bursts:
            at += gap_ms / 1000.0
            sim.schedule_at(at, burst, sent, count)
            sent += count
        sim.run()
        assert channel.abandoned == 0
        return sent, got, channel

    sent, batched, batched_channel = deliver(batch=True)
    _, unbatched, unbatched_channel = deliver(batch=False)
    assert batched == unbatched == [(i, "e" * (i % 7)) for i in range(sent)]
    # The lever did something: same frames, no more datagrams.
    assert batched_channel.batches_flushed <= len(bursts)
    assert unbatched_channel.batches_flushed == 0
