#!/usr/bin/env python3
"""What the hot frames' coders hand to the codec's generic tables.

Every registered schema's encoder and reader is source generated with
the common tags written in line (``repro.openflow.serialization``); a
field value with no inline path is handed to the generic tables --
``_encoders`` by class, ``_decoders`` by tag.  This probe wraps every
generic entry of both tables in a counter (the library is not touched;
the generated coders look entries up at call time, so they meet the
wrappers) and counts the calls one encode and one decode of each of
the four frames that carry the AppVisor's event path make:
``EventDeliver(PacketIn(Packet))``, ``AppOutput(FlowMod)``,
``AppOutput(PacketOut)`` and ``EventComplete``.

What falls back, and so what the exact counts below are made of:

- on encode, ints of 4096 and above, enum members, bools, floats and
  non-empty tuples (whose own generated coder writes their items);
- on decode, varints of four bytes or more, bools, floats and
  non-empty tuples.

It asserts those counts and prints microseconds per frame beside them
(``encode_value`` + ``decode_value``, median of interleaved repeats),
never asserting a time: compare times between two commits with
alternated runs,

    PYTHONPATH=src python3 benchmarks/codec_cost.py
    PYTHONPATH=/path/to/other/src python3 benchmarks/codec_cost.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from time import perf_counter

from repro.core.appvisor.rpc import AppOutput, EventComplete, EventDeliver
from repro.network.packet import tcp_packet
from repro.openflow import serialization
from repro.openflow.actions import Flood, Output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketIn, PacketOut
from repro.openflow.serialization import decode_value, encode_value

#: Values as the steady workload makes them: small dpids and ports,
#: an event seq in the thousands, xids and packet ids past 8191, an
#: L4 source port of 10000.
PACKET = dataclasses.replace(
    tcp_packet("00:00:00:00:00:01", "00:00:00:00:00:02", "10.0.0.1",
               "10.0.0.2"), pkt_id=12_345)
FRAMES = {
    "EventDeliver(PacketIn(Packet))": EventDeliver(
        app_name="learning_switch", seq=1_234,
        event=PacketIn(dpid=3, in_port=2, packet=PACKET, xid=54_321)),
    "AppOutput(FlowMod)": AppOutput(
        app_name="learning_switch", seq=1_234, index=0, dpid=3,
        message=FlowMod(match=Match(in_port=2, eth_dst="00:00:00:00:00:02"),
                        actions=(Output(port=1),), idle_timeout=5.0,
                        xid=54_322)),
    "AppOutput(PacketOut)": AppOutput(
        app_name="learning_switch", seq=1_234, index=1, dpid=3,
        message=PacketOut(packet=PACKET, in_port=2, actions=(Flood(),),
                          xid=54_323)),
    "EventComplete": EventComplete(
        app_name="learning_switch", seq=1_234, output_count=2),
}

#: Generic calls per encode / per decode of each frame's own coder.
#: Encode -- EventDeliver: tp_src, pkt_id, xid, PacketIn.reason;
#: AppOutput(FlowMod): xid, command, the actions tuple, two floats,
#: send_flow_removed; AppOutput(PacketOut): pkt_id, tp_src, the actions
#: tuple, xid.  Decode -- only the tuples, floats and bools: ints up
#: to three varint bytes and enums read in line, and a tuple's own
#: coder is generated too, so its action is read in line.
EXPECTED = {
    "EventDeliver(PacketIn(Packet))": {"encode": 4, "decode": 0},
    "AppOutput(FlowMod)": {"encode": 6, "decode": 4},
    "AppOutput(PacketOut)": {"encode": 4, "decode": 1},
    "EventComplete": {"encode": 0, "decode": 0},
}


class Counted:
    """A table entry that counts its calls."""

    calls = 0

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        Counted.calls += 1
        return self.fn(*args)


def wrap_generic_entries() -> None:
    """Replace every generic entry of both tables by a counter.  A
    schema's own encoder is not generic (it is the generated coder)."""
    schemas = set(serialization._schema_classes)
    encoders = serialization._encoders
    for cls in list(encoders):
        if cls not in schemas:
            encoders[cls] = Counted(encoders[cls])
    decoders = serialization._decoders
    unknown = decoders[0xFF]
    for tag, reader in enumerate(decoders):
        if reader is not unknown:
            decoders[tag] = Counted(reader)


def fallbacks(frame) -> dict:
    """Generic calls one encode and one decode of ``frame``'s own coder
    make (the frame's entry into its coder is not counted)."""
    encoder = serialization._encoders[type(frame)]
    data = encode_value(frame)
    assert data[0] == 13 and data[1] < 0x80, data[:2]   # one-byte id
    reader = serialization._schema_decoders[data[1] >> 1]
    Counted.calls = 0
    buf = bytearray()
    encoder(buf, frame)
    encode = Counted.calls
    Counted.calls = 0
    value, end = reader(data, 2)
    assert bytes(buf) == data and value == frame and end == len(data), frame
    return {"encode": encode, "decode": Counted.calls}


def us_per_frame(frame, rounds: int) -> float:
    """One ``encode_value`` and one ``decode_value`` of ``frame``."""
    start = perf_counter()
    for _ in range(rounds):
        decode_value(encode_value(frame))
    return (perf_counter() - start) / rounds * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2_000)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    times = {name: [] for name in FRAMES}
    for _ in range(args.repeats):               # interleaved, same minute
        for name, frame in FRAMES.items():
            times[name].append(us_per_frame(frame, args.rounds))
    wrap_generic_entries()
    counts = {name: fallbacks(frame) for name, frame in FRAMES.items()}
    print(json.dumps({
        name: {**counts[name],
               "us_per_frame": round(statistics.median(times[name]), 2)}
        for name in FRAMES}))
    assert counts == EXPECTED, counts
    return 0


if __name__ == "__main__":
    sys.exit(main())
