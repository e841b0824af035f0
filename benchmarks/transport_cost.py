#!/usr/bin/env python3
"""What moving a datagram costs the host, beside what encoding it costs.

A request/response loop over a bare ``Simulator``: the proxy end sends
one ``EventComplete``, the stub end's handler answers with one, the
proxy end's handler sends the next.  No controller, app, NetLog or
checkpoint runs, so the stopwatch reads the transport alone --
``UdpChannel`` and the event loop -- plus the one encode and one decode
of the frame aboard, which is timed by itself and subtracted.

Prints host microseconds per data datagram (total, codec, transport;
and transport as a multiple of codec, which does not move with the
box's speed), and the simulator's heap entries and callbacks per data
datagram.  It
asserts the *counts* only -- three callbacks per batched datagram (the
flush, the delivery, the ack's delivery; the retransmit timer is
cancelled unfired), every frame delivered once, no retransmit -- never
a time: compare times between two commits with alternated runs,

    PYTHONPATH=src python3 benchmarks/transport_cost.py
    PYTHONPATH=/path/to/other/src python3 benchmarks/transport_cost.py
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from time import perf_counter

from repro.core.appvisor.channel import UdpChannel
from repro.core.appvisor.rpc import EventComplete, decode_frame, encode_frame
from repro.network.simulator import Simulator


#: Built once: constructing a frame is the sender's cost, not the
#: transport's.
REQUEST = EventComplete(app_name="app", seq=12345, output_count=1,
                        trace_id=12345)
REPLY = EventComplete(app_name="app", seq=12346, output_count=1,
                      trace_id=12345)


def _noop() -> None:
    pass


def probe(round_trips: int) -> dict:
    """One timed conversation of ``round_trips`` requests + replies."""
    sim = Simulator()
    channel = UdpChannel(sim, batch=True)
    proxy, stub = channel.proxy_end, channel.stub_end
    left = [round_trips]

    def on_stub(request):
        stub.send(REPLY)

    def on_proxy(reply):
        left[0] -= 1
        if left[0]:
            proxy.send(REQUEST)

    stub.on_frame(on_stub)
    proxy.on_frame(on_proxy)
    # An event id is the count of heap entries made so far.
    pushed = sim.schedule(0.0, _noop)
    callbacks = sim.events_processed
    proxy.send(REQUEST)
    start = perf_counter()
    sim.run(max_events=100 * round_trips)
    wall = perf_counter() - start
    pushed = sim.schedule(0.0, _noop) - pushed - 1
    callbacks = sim.events_processed - callbacks - 1    # the first no-op
    sim.run()

    datagrams = channel.datagrams_delivered
    assert left[0] == 0 and datagrams == 2 * round_trips, \
        (left[0], datagrams)
    assert proxy.frames_recv == stub.frames_recv == round_trips
    assert channel.reliability_stats()["retransmits"] == 0
    assert channel.reliability_stats()["acks_sent"] == datagrams
    assert callbacks == 3 * datagrams, (callbacks, datagrams)
    assert sim.pending == 0
    return {"us_per_datagram": wall / datagrams * 1e6,
            "heap_entries_per_datagram": pushed / datagrams,
            "callbacks_per_datagram": callbacks / datagrams}


def codec_us_per_frame(frames: int) -> float:
    """One encode + one decode of the probe's frame, by itself."""
    start = perf_counter()
    for _ in range(frames):
        decode_frame(encode_frame(REQUEST))
    return (perf_counter() - start) / frames * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--round-trips", type=int, default=5_000)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    probe(200)                                  # warm caches and code
    codec_us_per_frame(200)
    runs, codecs = [], []
    for _ in range(args.repeats):               # interleaved, same minute
        codecs.append(codec_us_per_frame(2 * args.round_trips))
        runs.append(probe(args.round_trips))
    total = statistics.median(run["us_per_datagram"] for run in runs)
    codec = statistics.median(codecs)
    print(json.dumps({
        "round_trips": args.round_trips, "repeats": args.repeats,
        "us_per_datagram": round(total, 2),
        "codec_us_per_frame": round(codec, 2),
        "transport_us_per_datagram": round(total - codec, 2),
        # Dimensionless, so a slow minute on the box cancels out.
        "transport_over_codec": round((total - codec) / codec, 2),
        "heap_entries_per_datagram": runs[0]["heap_entries_per_datagram"],
        "callbacks_per_datagram": runs[0]["callbacks_per_datagram"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
