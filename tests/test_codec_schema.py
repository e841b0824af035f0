"""Property tests for the schema-interned wire codec.

Two contracts, checked with hypothesis over every RPC frame type:

1. **round trip** -- decode(encode(frame)) == frame, including
   OpenFlow payloads;
2. **trailing-default compatibility** -- a frame written by an
   older peer that doesn't know a trailing defaulted field (e.g.
   ``trace_id``) still decodes, with the default filled in.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.api import HostEntry, TopoView
from repro.core.appvisor import rpc
from repro.network.packet import Packet
from repro.openflow import messages as ofmsg
from repro.openflow.actions import Drop, Flood, Output
from repro.openflow.match import Match
from repro.openflow.serialization import (
    SerializationError,
    decode_message,
    decode_value,
    encode_message,
    encode_value,
)
from wire_cases import GOLDEN_PATH

# -- strategies -------------------------------------------------------

ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
small = st.integers(min_value=0, max_value=2**31)
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
names = st.text(max_size=24)
blobs = st.binary(max_size=64)

scalars = st.one_of(st.none(), st.booleans(), ints, floats, names, blobs)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(names, inner, max_size=4),
        st.sets(st.one_of(ints, names), max_size=4),
        st.sets(st.one_of(ints, names), max_size=4).map(frozenset),
    ),
    max_leaves=12,
)

packets = st.builds(
    Packet,
    eth_src=names, eth_dst=names,
    eth_type=small, vlan_id=st.none() | small,
    ip_src=st.none() | names, ip_dst=st.none() | names,
    ip_proto=st.none() | small,
    tp_src=st.none() | small, tp_dst=st.none() | small,
    size=small, payload=names, ttl=small, pkt_id=small,
)

matches = st.builds(Match, in_port=st.none() | small,
                    eth_src=st.none() | names, eth_dst=st.none() | names,
                    eth_type=st.none() | small)
actions = st.one_of(st.builds(Output, port=small), st.builds(Flood),
                    st.builds(Drop))

packet_ins = st.builds(ofmsg.PacketIn, dpid=small, in_port=small,
                       packet=packets,
                       reason=st.sampled_from(ofmsg.PacketInReason),
                       buffer_id=st.none() | small)
flow_mods = st.builds(ofmsg.FlowMod, match=matches,
                      command=st.sampled_from(ofmsg.FlowModCommand),
                      priority=small,
                      actions=st.lists(actions, max_size=3).map(tuple),
                      idle_timeout=floats)
payload_messages = st.one_of(packet_ins, flow_mods,
                             st.builds(ofmsg.PacketOut, packet=packets,
                                       in_port=st.none() | small,
                                       buffer_id=st.none() | small,
                                       actions=st.lists(
                                           actions, max_size=3).map(tuple)))

host_entries = st.builds(HostEntry, mac=names, ip=st.none() | names,
                         dpid=small, port=small)
topo_views = st.builds(
    TopoView,
    switches=st.lists(small, max_size=4).map(tuple),
    links=st.lists(st.tuples(small, small, small, small),
                   max_size=4).map(tuple),
    version=small)

int_tuples = st.lists(small, max_size=4).map(tuple)
str_tuples = st.lists(names, max_size=4).map(tuple)

#: One strategy per RPC frame type -- every frame in the protocol's
#: inventory appears here, so a new frame without a strategy is caught
#: by test_every_frame_type_is_covered below.
FRAME_STRATEGIES = {
    rpc.Register: st.builds(rpc.Register, app_name=names,
                            subscriptions=str_tuples,
                            supports_deep_restore=st.booleans(),
                            resume_from_seq=small),
    rpc.EventDeliver: st.builds(rpc.EventDeliver, app_name=names,
                                seq=small, event=payload_messages,
                                trace_id=small),
    rpc.AppOutput: st.builds(rpc.AppOutput, app_name=names, seq=small,
                             index=small, dpid=small,
                             message=payload_messages, trace_id=small),
    rpc.EventComplete: st.builds(
        rpc.EventComplete, app_name=names, seq=small, output_count=small,
        counter_deltas=st.lists(st.tuples(names, ints),
                                max_size=3).map(tuple),
        log_lines=str_tuples, trace_id=small),
    rpc.CrashReport: st.builds(rpc.CrashReport, app_name=names,
                               seq=small, error=names,
                               traceback_text=names,
                               log_lines=str_tuples, trace_id=small),
    rpc.Heartbeat: st.builds(rpc.Heartbeat, app_name=names,
                             stub_time=floats, last_seq_done=small,
                             needs_context=st.booleans()),
    rpc.RestoreCommand: st.builds(rpc.RestoreCommand, app_name=names,
                                  offending_seq=small,
                                  drop_seqs=int_tuples, trace_id=small),
    rpc.DeepRestoreCommand: st.builds(rpc.DeepRestoreCommand,
                                      app_name=names,
                                      offending_seq=small,
                                      drop_seqs=int_tuples,
                                      trace_id=small),
    rpc.RestoreAck: st.builds(rpc.RestoreAck, app_name=names,
                              restored_before_seq=small,
                              replayed_events=small, restore_cost=floats,
                              ok=st.booleans(), error=names,
                              sts_culprits=int_tuples, trace_id=small),
    rpc.ContextPush: st.builds(rpc.ContextPush,
                               topo=st.none() | topo_views,
                               hosts=st.lists(host_entries,
                                              max_size=3).map(tuple),
                               base_version=st.integers(-1, 2**31),
                               device_version=small, topo_version=small),
}

any_frame = st.one_of(*FRAME_STRATEGIES.values())


def test_every_frame_type_is_covered():
    """Every frozen dataclass in the rpc module has a strategy (so the
    property tests cannot silently skip a newly added frame type)."""
    frame_types = {
        obj for obj in vars(rpc).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == rpc.__name__
    }
    assert frame_types == set(FRAME_STRATEGIES)


@settings(max_examples=60, deadline=None)
@given(frame=any_frame)
def test_packed_round_trip(frame):
    data = rpc.encode_frame(frame)
    assert rpc.decode_frame(data) == frame


@settings(max_examples=60, deadline=None)
@given(value=values)
def test_plain_value_round_trip(value):
    assert decode_value(encode_value(value)) == value


@settings(max_examples=40, deadline=None)
@given(msg=payload_messages, xid=small)
def test_openflow_message_round_trip(msg, xid):
    msg.xid = xid
    decoded = decode_message(encode_message(msg))
    assert decoded == msg
    assert decoded.xid == xid


@settings(max_examples=40, deadline=None)
@given(frame=st.one_of(FRAME_STRATEGIES[rpc.EventDeliver],
                       FRAME_STRATEGIES[rpc.EventComplete],
                       FRAME_STRATEGIES[rpc.RestoreCommand]))
def test_trailing_default_trace_id(frame):
    """A packed frame from an older peer that never learned the
    trailing ``trace_id`` field decodes with the default (0)."""
    flds = dataclasses.fields(frame)
    assert flds[-1].name == "trace_id"
    # What an older peer would send: the same frame with one field
    # fewer -- the count byte (after the tag and the one-byte schema
    # id) decremented, the last value's bytes dropped.
    data = encode_value(frame)
    last = encode_value(frame.trace_id)
    assert data.endswith(last) and data[2] == len(flds)
    older = data[:2] + bytes([len(flds) - 1]) + data[3:-len(last)]
    assert decode_value(older) == dataclasses.replace(frame, trace_id=0)


def test_trailing_default_on_golden_vector():
    """The same compatibility rule, on bytes no current encoder made."""
    golden = json.loads(GOLDEN_PATH.read_text())["value"]
    data = bytes.fromhex(golden["schema:EventComplete"])
    frame = decode_value(data)
    last = encode_value(frame.trace_id)
    older = data[:2] + bytes([data[2] - 1]) + data[3:-len(last)]
    assert decode_value(older) == dataclasses.replace(frame, trace_id=0)
    # More fields than the decoder knows is an error, not a guess.
    newer = data[:2] + bytes([data[2] + 1]) + data[3:] + last
    with pytest.raises(SerializationError):
        decode_value(newer)
