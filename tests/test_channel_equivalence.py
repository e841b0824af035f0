"""The channel's observable behaviour, pinned against a recording.

``tests/data/channel_golden.json`` was recorded on the commit *before*
the per-datagram path of ``UdpChannel`` and the ``Simulator`` loop were
rebuilt for host speed.  A rewrite of either may move no handler call,
no datagram on the wire, no counter and no sim instant: for batch
on/off x {no chaos object, a recording pass-through, a lossy
``ChaosProfile``, a timed partition long enough to abandon} x two seeds
the golden holds

* every handler call as ``[sim.now, side, frame type, seq]`` (the proxy
  side runs with ``raw_frames`` and appends the CRC-32 of the bytes it
  was handed),
* every datagram put on the wire as ``[sim.now, side, crc, length]``,
  seen through a ``chaos`` object that records and then delegates (the
  chaos-free path has no such seam: it is pinned by the handler
  instants and counters of the ``clean`` runs),
* ``reliability_stats()``, ``byte_stats()``, the other counters, the
  ``ChannelFault`` s, what ``drop_pending`` returned, and
* ``sim.events_processed`` part-way and at the end, and the final
  ``sim.now`` / ``sim.pending`` after ``sim.run()`` -- an idle channel
  must leave nothing in the queue.

Seed-2 scenarios run with telemetry on and pin the channel's spans and
metric counters as well.  The script uses public names only, so the
same file runs against either implementation.  Never regenerate the
golden to make a transport change pass; running this file as a script
rewrites it, for a PR that *means* to move simulated behaviour.
"""

from __future__ import annotations

import json
import pathlib
import random
import zlib

import pytest

from repro.core.appvisor.channel import UdpChannel
from repro.core.appvisor.rpc import (
    AppOutput,
    CrashReport,
    EventComplete,
    EventDeliver,
    Heartbeat,
)
from repro.faults.netfaults import ChaosProfile
from repro.network.simulator import Simulator
from repro.telemetry import Telemetry

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "channel_golden.json"

PROFILES = ("clean", "tap", "lossy", "partition")
SCENARIOS = [(batch, profile, seed) for batch in (False, True)
             for profile in PROFILES for seed in (1, 2)]


def scenario_id(scenario) -> str:
    batch, profile, seed = scenario
    return f"{'batch' if batch else 'single'}-{profile}-{seed}"


class Tap:
    """Chaos stand-in: records what is put on the wire, then lets the
    real profile (if any) decide its fate."""

    def __init__(self, inner=None):
        self.inner = inner
        self.seen = []

    def perturb(self, now, side, data):
        self.seen.append([now, side, int.from_bytes(data[:4], "big"),
                          len(data)])
        if self.inner is None:
            return [(0.0, data)]
        return self.inner.perturb(now, side, data)


def _chaos_for(profile: str, seed: int):
    if profile == "clean":
        return None
    if profile == "tap":
        return Tap()
    if profile == "lossy":
        return Tap(ChaosProfile(seed, loss=0.15, duplicate=0.1, reorder=0.2,
                                reorder_delay=0.003, corrupt=0.1,
                                jitter=0.0004))
    inner = ChaosProfile(seed, jitter=0.0002)
    # Longer than 1 + retry_budget backoffs: everything sent inside is
    # abandoned.  Seed 2 cuts one direction only (acks still die).
    inner.partition(0.1, 1.0, side=None if seed == 1 else "proxy")
    return Tap(inner)


def run_scenario(batch: bool, profile: str, seed: int) -> dict:
    sim = Simulator(seed)
    rng = random.Random(f"channel-golden-{profile}-{seed}")
    chaos = _chaos_for(profile, seed)
    telemetry = None
    if seed == 2:
        telemetry = Telemetry(enabled=True, clock=lambda: sim.now)
    channel = UdpChannel(sim, seed=seed, batch=batch, chaos=chaos,
                         telemetry=telemetry)
    proxy, stub = channel.proxy_end, channel.stub_end
    calls, faults, drops = [], [], []
    channel.on_fault.append(lambda fault: faults.append(
        [fault.side, fault.seq, fault.attempts, fault.at]))

    def seq_of(frame):
        return getattr(frame, "seq", getattr(frame, "last_seq_done", None))

    def on_stub(frame):
        calls.append([sim.now, "stub", type(frame).__name__, seq_of(frame)])
        if not isinstance(frame, EventDeliver):
            return
        if frame.seq == 7:
            # Detach mid-datagram: the frames behind this one are lost
            # to the handler but counted as received.
            stub.handler = None
            sim.schedule(0.02, stub.on_frame, on_stub)
        # Replies sent from inside a handler, the way a stub answers.
        if frame.seq % 3 == 0:
            stub.send(AppOutput(app_name="app", seq=frame.seq, index=0,
                                dpid=frame.seq % 5, message=frame.event,
                                trace_id=frame.trace_id))
        stub.send(EventComplete(app_name="app", seq=frame.seq,
                                output_count=int(frame.seq % 3 == 0),
                                trace_id=frame.trace_id))

    def on_proxy(frame, raw):
        calls.append([sim.now, "proxy", type(frame).__name__, seq_of(frame),
                      zlib.crc32(raw)])

    stub.on_frame(on_stub)
    proxy.on_frame(on_proxy)
    proxy.raw_frames = True

    # The script: bursts of EventDelivers of mixed size (same-instant
    # sends ride one datagram under batching; a large datagram holds
    # the interface, so later ones queue behind it), a heartbeat every
    # 50 ms the other way, a crash report, and -- seed 2 -- the stub's
    # process dying mid-run.  A second stretch runs after the
    # partition has healed.
    seq = 0
    for start in (0.0, 1.25):
        for _ in range(9):
            at = start + round(rng.uniform(0.0, 0.3), 3)
            for _ in range(rng.randint(1, 4)):
                seq += 1
                event = ("pkt", seq, "x" * rng.choice((0, 8, 64, 700)))
                sim.schedule_at(at, proxy.send, EventDeliver(
                    app_name="app", seq=seq, event=event,
                    trace_id=1000 + seq))
        for beat in range(7):
            sim.schedule_at(start + 0.05 * beat, stub.send, Heartbeat(
                app_name="app", stub_time=start + 0.05 * beat,
                last_seq_done=beat))
    sim.schedule_at(0.15, stub.send, CrashReport(
        app_name="app", seq=99, error="boom", traceback_text="tb" * 40))
    if seed == 2:
        sim.schedule_at(0.2, lambda: drops.append(
            [sim.now, stub.drop_pending()]))

    sim.run_until(0.5)
    midway = [sim.events_processed, sim.pending,
              channel.unacked_count("proxy"), channel.unacked_count("stub"),
              channel.pending_frames("proxy"), channel.pending_frames("stub")]
    sim.run()

    recorded = {
        "calls": calls,
        "wire": chaos.seen if chaos is not None else [],
        "faults": faults,
        "drops": drops,
        "reliability": channel.reliability_stats(),
        "bytes": channel.byte_stats(),
        "counters": {
            "datagrams_delivered": channel.datagrams_delivered,
            "datagrams_lost": channel.datagrams_lost,
            "batches_flushed": channel.batches_flushed,
            "frames_batched": channel.frames_batched,
            "proxy_frames": [proxy.frames_sent, proxy.frames_recv],
            "stub_frames": [stub.frames_sent, stub.frames_recv],
            "unacked": [channel.unacked_count("proxy"),
                        channel.unacked_count("stub")],
            "pending_frames": [channel.pending_frames("proxy"),
                               channel.pending_frames("stub")],
        },
        "midway": midway,
        "sim": {"events_processed": sim.events_processed, "now": sim.now,
                "pending": sim.pending},
    }
    if telemetry is not None:
        recorded["spans"] = [
            [span.name, span.start, span.end, span.trace_id,
             sorted(span.tags.items())]
            for span in telemetry.tracer.spans]
        recorded["metrics"] = dict(sorted(telemetry.metrics.counters.items()))
    # Compare what JSON can hold: tuples become lists.
    return json.loads(json.dumps(recorded))


def generate() -> dict:
    return {scenario_id(s): run_scenario(*s) for s in SCENARIOS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scenario", SCENARIOS, ids=scenario_id)
def test_channel_reproduces_the_recording(scenario, golden):
    expected = golden[scenario_id(scenario)]
    got = run_scenario(*scenario)
    # Key by key, so a failure names what moved.
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


def test_the_recording_exercises_what_it_claims(golden):
    """The golden is only an oracle for paths it walks."""
    lossy = [golden[scenario_id((batch, "lossy", seed))]
             for batch in (False, True) for seed in (1, 2)]
    for run in lossy:
        stats = run["reliability"]
        assert stats["retransmits"] and stats["dup_datagrams_dropped"]
        assert stats["corrupt_rejected"]
        assert run["counters"]["datagrams_lost"]
    cut = [golden[scenario_id((batch, "partition", seed))]
           for batch in (False, True) for seed in (1, 2)]
    for run in cut:
        assert run["faults"] and run["reliability"]["abandoned"]
        # ...and traffic after the heal got through the floor skip.
        assert any(call[0] > 1.2 for call in run["calls"])
    for name, run in golden.items():
        assert run["sim"]["pending"] == 0, name
        assert run["counters"]["unacked"] == [0, 0], name
        if "-clean-" in name or "-tap-" in name:
            assert run["reliability"]["retransmits"] == 0, name
    batched = golden[scenario_id((True, "clean", 1))]["counters"]
    assert batched["frames_batched"] > batched["batches_flushed"]
    assert any(run["drops"] and run["drops"][0][1] for run in golden.values())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(generate(), separators=(",", ":"),
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
