"""The generated coders against an independent oracle.

Every schema's encoder and reader is source generated at registration,
with the hot tags written in line (``serialization._ENCODE_VALUE`` /
``_DECODE_VALUE``); the container coders are generated from the same
source.  Three contracts hold them to the generic layout:

1. **bytes** -- ``encode_value`` writes what ``wire_reference.encode``
   (plain recursion over the docstring's layout) writes, for schema
   fields and containers drawn across every fast path's edges, and the
   value round-trips; bytes no current encoder writes (non-canonical
   varints, short field counts) decode through the fallbacks to the
   same values;
2. **construction** -- a decoded instance is the constructed one: same
   type, ``==`` and ``hash``, ``__post_init__`` run where there is one;
   a record is built bare, through its slots, not by a keyword call;
3. **memory** -- a decoded object costs what a constructed one does
   (no per-instance dict materialised by the reader).
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wire_cases
import wire_reference
from repro.core.appvisor.rpc import EventComplete, EventDeliver
from repro.network.packet import Packet
from repro.openflow import serialization
from repro.openflow.actions import Output
from repro.openflow.messages import FlowMod, PacketIn, PacketOut
from repro.openflow.serialization import (
    decode_message,
    decode_value,
    encode_message,
    encode_value,
)

INSTANCES = wire_cases.schema_instances()
SCHEMAS = sorted(INSTANCES)

#: Each side of every inline boundary: one-byte varints end at 63 /
#: -64, two-byte ones at 8191, three-byte ones at 2**20 - 1, the
#: ready-made tag+varint table at 4095.
EDGE_INTS = (-1, 0, 63, 64, 127, 128, 4095, 4096, 16383, 16384,
             2**20 - 1, 2**20, -2**20 - 1, 2**40)
ENUM_MEMBERS = [m for cls in serialization._enum_classes for m in cls]

leaves = st.one_of(
    st.sampled_from(EDGE_INTS),
    st.just(True),
    st.none(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.text(alphabet="é✓ßΔ\U0001F600", min_size=1, max_size=4),
    st.sampled_from(ENUM_MEMBERS),
    st.sampled_from([INSTANCES[name] for name in SCHEMAS]),
)


#: A drawn field that keeps the instance's own value.
_KEEP = object()


def _redraw(draw_value, instance):
    """``instance`` with some of its fields replaced by drawn values
    (annotations are not enforced; ``__post_init__``'s ``actions`` stays
    iterable)."""
    changes = {}
    for f in dataclasses.fields(instance):
        if f.name == "actions" and hasattr(instance, "__post_init__"):
            continue
        value = draw_value()
        if value is not _KEEP:
            changes[f.name] = value
    return dataclasses.replace(instance, **changes)


@pytest.mark.parametrize("name", SCHEMAS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generated_bytes_equal_the_reference(name, data):
    instance = _redraw(
        lambda: data.draw(st.one_of(st.just(_KEEP), leaves)),
        INSTANCES[name])
    encoded = encode_value(instance)
    assert encoded == wire_reference.encode(instance)
    assert decode_value(encoded) == instance
    type_id = serialization._type_to_id.get(type(instance))
    if type_id is not None:         # the body coders are generated too
        msg = dataclasses.replace(instance, xid=7)     # a u32 header field
        wire = encode_message(msg)
        assert wire == wire_reference.encode_message(msg, type_id)
        assert decode_message(wire) == msg


hashables = st.one_of(st.sampled_from(EDGE_INTS), st.text(max_size=6),
                      st.none(), st.sampled_from(ENUM_MEMBERS))


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(
    st.dictionaries(hashables, leaves, max_size=6),
    st.lists(leaves, max_size=6),
    st.lists(leaves, max_size=6).map(tuple),
    st.sets(hashables, max_size=6),
    st.frozensets(hashables, max_size=6)))
def test_generated_container_coders_equal_the_reference(value):
    """Dict, list, tuple and set coders are generated from the same
    per-value source as the schemas'."""
    encoded = encode_value(value)
    assert encoded == wire_reference.encode(value)
    assert decode_value(encoded) == value


def _packet_in():
    return PacketIn(dpid=3, in_port=2, packet=INSTANCES["Packet"], xid=9)


def test_non_canonical_varints_decode_through_the_fallback():
    """A padded varint is still the value: the two- and three-byte
    inline paths, the multi-byte fallback and a two-byte schema id all
    read it."""
    frame = EventComplete(app_name="a", seq=5, output_count=1)
    data = encode_value(frame)
    canonical = wire_reference.encode(5)
    at = data.index(canonical)
    for padded in (b"\x0f\x8a\x00", b"\x0f\x8a\x80\x00",
                   b"\x0f\x8a\x80\x80\x00"):
        forged = data[:at] + padded + data[at + len(canonical):]
        assert decode_value(forged) == frame
    event = EventDeliver(app_name="a", seq=1, event=_packet_in())
    data = encode_value(event)
    sid = wire_reference.schema_table()["PacketIn"]
    nested = b"\x0d" + wire_reference.varint(sid)
    at = data.index(nested, 1)
    forged = (data[:at] + b"\x0d" + bytes((data[at + 1] | 0x80, 0))
              + data[at + 2:])
    assert decode_value(forged) == event


def test_short_field_counts_decode_with_defaults():
    """Trailing fields missing at any depth take their defaults, and a
    shorter count is a reader of its own beside the full one."""
    frame = EventComplete(app_name="a", seq=7, output_count=2,
                          counter_deltas=(("x", 1),), log_lines=("l",),
                          trace_id=4)
    data = encode_value(frame)
    head = data[:2] + b"\x03"
    cut = len(wire_reference.encode(frame.counter_deltas)
              + wire_reference.encode(frame.log_lines)
              + wire_reference.encode(frame.trace_id))
    older = head + data[3:len(data) - cut]
    expected = EventComplete(app_name="a", seq=7, output_count=2)
    assert decode_value(older) == expected
    assert decode_value(older) == expected       # the compiled reader
    assert decode_value(data) == frame           # the full one is intact
    # Nested: an EventDeliver carrying a PacketIn that lacks buffer_id.
    event = EventDeliver(app_name="a", seq=1, event=_packet_in())
    inner = encode_value(event.event)
    shorter = inner[:2] + bytes((inner[2] - 1,)) + inner[3:-1]
    assert inner.endswith(b"\x00")              # buffer_id=None
    data = encode_value(event).replace(inner, shorter)
    assert decode_value(data) == event


# -- construction -----------------------------------------------------

def _hash(value):
    """The hash, or the error hashing raises (a frozen frame holding a
    mutable message is unhashable either way)."""
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("name", SCHEMAS)
def test_decoded_instances_equal_constructed_ones(name):
    instance = INSTANCES[name]
    decoded = decode_value(encode_value(instance))
    assert type(decoded) is type(instance)
    assert decoded == instance
    assert _hash(decoded) == _hash(instance)
    if hasattr(instance, "__dict__"):
        # Same attributes in the same order: the shared-key layout.
        assert list(vars(decoded)) == list(vars(instance))


@pytest.mark.parametrize("cls", [FlowMod, PacketOut])
def test_post_init_still_runs_on_decode(cls):
    msg = cls(actions=(Output(port=1),))
    msg.actions = [Output(port=1), Output(port=2)]    # a list on the wire
    decoded = decode_value(encode_value(msg))
    assert decoded.actions == (Output(port=1), Output(port=2))
    assert type(decoded.actions) is tuple


def test_records_decode_without_their_init(monkeypatch):
    """A record's reader stores through its slots: were the marker that
    says its ``__init__`` only stores lost, decoding would still work,
    through a keyword call per record."""
    wire = encode_value(EventDeliver(app_name="a", seq=1, event=PacketIn(
        dpid=1, in_port=2, packet=Packet(eth_src="x"))))
    calls = []
    for cls in (EventDeliver, Packet):
        monkeypatch.setattr(cls, "__init__", lambda self, *a, **k: (
            calls.append(type(self))))
    decoded = decode_value(wire)
    assert calls == []
    assert decoded.event.packet.eth_src == "x"


def _events(n: int):
    """``n`` distinct events, every str and large int its own object (a
    decoded one is; a default's is shared)."""
    return [EventDeliver(
        app_name=f"app-{i}", seq=100_000 + i, trace_id=200_000 + i,
        event=PacketIn(dpid=1 + i % 7, in_port=1 + i % 5, xid=300_000 + i,
                       packet=Packet(eth_src=f"00:00:00:00:{i >> 8:02x}:"
                                             f"{i & 255:02x}",
                                     eth_dst=f"00:00:00:01:{i >> 8:02x}:"
                                             f"{i & 255:02x}",
                                     ip_src=f"10.0.{i >> 8}.{i & 255}",
                                     ip_dst=f"10.1.{i >> 8}.{i & 255}",
                                     eth_type=0x800 + i % 2,
                                     tp_src=10_000 + i, tp_dst=80,
                                     size=1000 + i, pkt_id=400_000 + i)))
        for i in range(n)]


def _traced_bytes(build) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == 1000
    return after - before


def test_decoded_events_cost_what_constructed_ones_do():
    """Decoded events live on in the journal: a reader that gave each
    object its own dict (``o.__dict__.update``) nearly doubles them."""
    wires = [encode_value(event) for event in _events(1000)]
    constructed = _traced_bytes(lambda: _events(1000))
    decoded = _traced_bytes(lambda: [decode_value(w) for w in wires])
    assert decoded <= constructed * 1.05, (decoded, constructed)
