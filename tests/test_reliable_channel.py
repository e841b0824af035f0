"""The reliable-delivery layer: seq/ack, retransmit, dedup, reorder,
floor advance, and retry-budget exhaustion surfacing as ChannelFault.

Companion to tests/test_channel_batching.py (which pins coalescing and
the crash-tail rules).  Loss comes from where deployments get it: a
seeded ``ChaosProfile`` on the channel.
"""

import pytest

from repro.core.appvisor.channel import ChannelFault, UdpChannel
from repro.core.appvisor.rpc import Heartbeat
from repro.faults.netfaults import ChaosProfile
from repro.network.simulator import Simulator


def beat(seq):
    return Heartbeat(app_name="app", stub_time=0.0, last_seq_done=seq)


def make(sim, **kwargs):
    channel = UdpChannel(sim, **kwargs)
    got = []
    channel.proxy_end.on_frame(lambda f: got.append(f.last_seq_done))
    return channel, got


class TestHappyPath:
    def test_frames_arrive_in_order_and_acks_flow(self):
        sim = Simulator()
        channel, got = make(sim)
        for seq in range(5):
            channel.stub_end.send(beat(seq))
        sim.run()
        assert got == [0, 1, 2, 3, 4]
        assert channel.datagrams_delivered == 5
        assert channel.acks_sent == 5
        assert channel.retransmits == 0
        assert channel.unacked_count("stub") == 0

    def test_acks_do_not_inflate_data_counters(self):
        sim = Simulator()
        channel, got = make(sim)
        channel.stub_end.send(beat(0))
        sim.run()
        # One data datagram delivered; the ack is accounted separately.
        assert channel.datagrams_delivered == 1
        assert channel.acks_sent == 1

    def test_zero_loss_adds_no_retransmits_under_batching(self):
        sim = Simulator()
        channel = UdpChannel(sim, batch=True)
        got = []
        channel.proxy_end.on_frame(lambda f: got.append(f.last_seq_done))
        for seq in range(8):
            channel.stub_end.send(beat(seq))
        sim.run()
        assert got == list(range(8))
        assert channel.retransmits == 0
        assert channel.batches_flushed == 1


class TestLossRecovery:
    def test_lost_datagram_is_retransmitted(self):
        sim = Simulator()
        channel, got = make(sim, chaos=ChaosProfile(seed=3, loss=0.5))
        for seq in range(10):
            channel.stub_end.send(beat(seq))
        sim.run()
        # Exactly once, in order, despite the coin flips.
        assert got == list(range(10))
        assert channel.retransmits > 0
        assert channel.unacked_count("stub") == 0

    def test_heavy_loss_still_exactly_once(self):
        for seed in range(5):
            sim = Simulator()
            channel, got = make(
                sim, seed=seed, chaos=ChaosProfile(seed=seed, loss=0.3))
            for seq in range(20):
                channel.stub_end.send(beat(seq))
            sim.run()
            assert got == list(range(20)), f"seed {seed}"

    def test_lost_ack_causes_dup_which_is_dropped(self):
        sim = Simulator()
        channel, got = make(sim)
        # Drop only the first ack: dup arrives, receiver re-acks.
        profile = ChaosProfile(seed=0)
        sent = []

        class DropFirstAck:
            def perturb(self, now, side, data):
                if side == "proxy" and not sent:  # the ack direction
                    sent.append(1)
                    return []
                return [(0.0, data)]

        channel.chaos = DropFirstAck()
        channel.stub_end.send(beat(0))
        sim.run()
        assert got == [0]
        assert channel.dup_datagrams_dropped >= 1


class TestReordering:
    def test_reordered_datagrams_delivered_in_seq_order(self):
        sim = Simulator()
        channel, got = make(sim, chaos=ChaosProfile(
            seed=7, reorder=0.5, reorder_delay=0.005))
        for seq in range(12):
            sim.schedule(seq * 0.001,
                         lambda s=seq: channel.stub_end.send(beat(s)))
        sim.run()
        assert got == list(range(12))


class TestCorruption:
    def test_corrupt_payload_rejected_then_healed_by_retransmit(self):
        sim = Simulator()
        channel, got = make(sim, chaos=ChaosProfile(seed=1, corrupt=0.4))
        for seq in range(10):
            channel.stub_end.send(beat(seq))
        sim.run()
        assert got == list(range(10))
        assert channel.corrupt_rejected > 0


class TestRetryBudget:
    def test_exhausted_budget_raises_channel_fault(self):
        sim = Simulator()
        channel, got = make(sim, chaos=ChaosProfile(loss=1.0),
                            retry_budget=3)
        faults = []
        channel.on_fault.append(faults.append)
        channel.stub_end.send(beat(0))
        sim.run()
        assert got == []
        assert len(faults) == 1
        fault = faults[0]
        assert isinstance(fault, ChannelFault)
        assert fault.side == "stub"
        assert fault.seq == 1
        # Initial transmit + retry_budget retransmissions.
        assert channel.retransmits == 3
        assert channel.abandoned == 1
        assert channel.unacked_count("stub") == 0

    def test_floor_advance_unwedges_receiver_after_partition(self):
        sim = Simulator()
        profile = ChaosProfile(seed=0)
        # Total blackout while seqs 1-3 (and their retries) are sent.
        profile.partition(0.0, 0.5)
        channel, got = make(sim, retry_budget=2, chaos=profile)
        for seq in range(3):
            channel.stub_end.send(beat(seq))
        sim.run_until(0.6)
        assert got == []
        assert channel.faults_raised >= 1
        # After heal, new traffic must get through: the receiver skips
        # the abandoned gap because the envelope's floor moved past it.
        channel.stub_end.send(beat(99))
        sim.run()
        assert got == [99]

    def test_dead_process_stops_retransmitting(self):
        sim = Simulator()
        channel, got = make(sim, chaos=ChaosProfile(loss=1.0))
        channel.stub_end.send(beat(0))
        sim.run_until(0.001)
        assert channel.unacked_count("stub") == 1
        channel.drop_pending("stub")
        assert channel.unacked_count("stub") == 0
        events_before = sim.events_processed
        sim.run()
        # No retransmit storm from beyond the grave.
        assert channel.retransmits == 0


class FixedJitter:
    """Stands in for ``channel.rng``: the backoff draws, in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def heap_entries(sim):
    """How many entries the queue has ever been given: an event id is a
    running count (this call's own entry excluded)."""
    return sim.schedule(0.0, lambda: None)


class TestRetransmitTimer:
    """One timer per direction, moved only when its instant moves."""

    def test_sends_behind_an_unacked_datagram_leave_the_timer_alone(self):
        sim = Simulator()
        channel, got = make(sim)
        channel.rng = FixedJitter(0.0, 0.5, 0.9)    # deadlines ascend
        before = heap_entries(sim)
        for seq in range(3):
            channel.stub_end.send(beat(seq))
        # Three deliveries and one timer -- not a timer per send.
        assert heap_entries(sim) - before - 1 == 4
        sim.run()
        assert got == [0, 1, 2] and channel.retransmits == 0

    def test_an_earlier_deadline_moves_the_timer(self):
        sim = Simulator()
        channel, got = make(sim, chaos=ChaosProfile(loss=1.0),
                            retry_budget=0)
        channel.rng = FixedJitter(0.8, 0.0)
        channel.on_fault.append(lambda fault: None)
        channel.stub_end.send(beat(0))      # due at 0.012
        channel.stub_end.send(beat(1))      # due at 0.010: re-armed
        sim.run_until(0.011)
        # The tick at 0.010 gave up on seq 2 and everything below it.
        assert channel.abandoned == 2 and channel.faults_raised == 1

    def test_last_ack_leaves_nothing_queued(self):
        sim = Simulator()
        channel, got = make(sim)
        channel.stub_end.send(beat(0))
        assert sim.pending == 2             # the delivery and the timer
        sim.run()
        assert sim.pending == 0
        # ...and the run ended when the ack landed, not at the timer.
        assert sim.now < 0.001

    def test_a_send_moves_a_stale_timer_later(self):
        """Seq 1 is acknowledged while seq 2 (lost) still waits; the
        timer stands at seq 1's deadline until the next send re-arms it
        at the earliest deadline *still waiting* -- so no tick ever
        fires on behalf of a datagram that is no longer unacked."""
        sim = Simulator()
        channel, got = make(sim)
        channel.rng = FixedJitter(0.0, 1.0, 0.0, 0.0)

        class LoseFirstCopyOfSeq2:
            lost = False

            def perturb(self, now, side, data):
                if (side == "stub" and not self.lost
                        and int.from_bytes(data[5:9], "big") == 2):
                    self.lost = True
                    return []
                return [(0.0, data)]

        channel.chaos = LoseFirstCopyOfSeq2()
        channel.stub_end.send(beat(0))      # seq 1, due at 0.0100
        channel.stub_end.send(beat(1))      # seq 2, due at 0.0125, lost
        sim.schedule(0.005, channel.stub_end.send, beat(2))   # due 0.015
        sim.run()
        assert got == [0, 1, 2] and channel.retransmits == 1
        # The scheduled send; deliveries of seq 1, seq 3, and seq 2's
        # second copy; their three acks; one tick, at 0.0125.  A timer
        # left at seq 1's deadline would add a ninth, at 0.0100.
        assert sim.events_processed == 8


class TestTelemetryCounters:
    def test_reliability_counters_reach_prometheus(self):
        from repro.telemetry import Telemetry
        from repro.telemetry.export import prometheus_text

        sim = Simulator()
        telemetry = Telemetry(enabled=True)
        channel = UdpChannel(sim, chaos=ChaosProfile(seed=3, loss=0.5),
                             retry_budget=4, telemetry=telemetry)
        channel.proxy_end.on_frame(lambda f: None)
        for seq in range(10):
            channel.stub_end.send(beat(seq))
        sim.run()
        text = prometheus_text(telemetry.metrics)
        assert "repro_channel_retransmits_total" in text
        assert "repro_channel_acks_sent_total" in text
