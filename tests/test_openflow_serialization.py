"""Unit tests for the wire codec: every message type round-trips."""

import pytest

from repro.network.packet import Packet, tcp_packet
from repro.openflow.actions import Drop, Flood, Output, SetEthDst
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowRemovedReason,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    Hello,
    PacketIn,
    PacketInReason,
    PacketOut,
    PortStatsEntry,
    PortStatsReply,
    PortStatsRequest,
    PortStatus,
    PortStatusReason,
)
from repro.openflow.serialization import (
    SerializationError,
    decode_message,
    decode_value,
    encode_message,
    encode_value,
    encoded_size,
)


def roundtrip(msg):
    decoded = decode_message(encode_message(msg))
    assert decoded == msg
    assert decoded.xid == msg.xid
    return decoded


class TestMessageRoundTrips:
    def test_hello(self):
        roundtrip(Hello(version=3))

    def test_echo(self):
        roundtrip(EchoRequest(payload=b"ping"))
        roundtrip(EchoReply(payload=b"pong"))

    def test_error(self):
        roundtrip(ErrorMsg(err_type=1, code=2, reason="bad flow"))

    def test_flow_mod_full(self):
        roundtrip(FlowMod(
            match=Match(in_port=1, eth_dst="00:00:00:00:00:02", tp_dst=80),
            command=FlowModCommand.DELETE_STRICT,
            priority=1234,
            actions=(Output(3), SetEthDst(eth_dst="aa"), Flood(), Drop()),
            idle_timeout=5.5,
            hard_timeout=60.0,
            cookie=0xDEAD,
            send_flow_removed=True,
            out_port=9,
        ))

    def test_packet_out_with_packet(self):
        pkt = tcp_packet("a", "b", "1.1.1.1", "2.2.2.2", payload="hello")
        decoded = roundtrip(PacketOut(packet=pkt, in_port=2,
                                      actions=(Flood(),)))
        assert decoded.packet.payload == "hello"

    def test_packet_in(self):
        pkt = Packet(eth_src="x", eth_dst="y", payload="data")
        decoded = roundtrip(PacketIn(dpid=3, in_port=1, packet=pkt,
                                     reason=PacketInReason.ACTION))
        assert decoded.reason == PacketInReason.ACTION
        assert isinstance(decoded.reason, PacketInReason)

    def test_flow_removed(self):
        roundtrip(FlowRemoved(dpid=1, match=Match(eth_dst="d"), priority=9,
                              reason=FlowRemovedReason.IDLE_TIMEOUT,
                              duration=1.25, packet_count=10, byte_count=1000))

    def test_port_status(self):
        roundtrip(PortStatus(dpid=2, port=4, reason=PortStatusReason.MODIFY,
                             link_up=False))

    def test_barrier(self):
        roundtrip(BarrierRequest())
        roundtrip(BarrierReply())

    def test_stats_request_reply(self):
        roundtrip(FlowStatsRequest(match=Match(eth_dst="d")))
        roundtrip(FlowStatsReply(dpid=1, entries=[
            FlowStatsEntry(match=Match(eth_dst="d"), priority=1,
                           actions=(Output(1),), packet_count=5,
                           byte_count=500, duration=2.0,
                           idle_timeout=0.0, hard_timeout=0.0),
        ]))
        roundtrip(PortStatsRequest(port=None))
        roundtrip(PortStatsReply(dpid=1, entries=[
            PortStatsEntry(port=1, rx_packets=10, tx_packets=20),
        ]))


class TestWireFormat:
    def test_encoded_size_is_positive_and_stable(self):
        msg = FlowMod(match=Match(eth_dst="d"))
        assert encoded_size(msg) == len(encode_message(msg))
        assert encoded_size(msg) > 9  # header size

    def test_bigger_payload_bigger_frame(self):
        small = PacketOut(packet=Packet(payload="x"), actions=(Flood(),))
        big = PacketOut(packet=Packet(payload="x" * 500), actions=(Flood(),))
        assert encoded_size(big) > encoded_size(small)

    def test_truncated_buffer_raises(self):
        data = encode_message(Hello())
        with pytest.raises(SerializationError):
            decode_message(data[:5])
        with pytest.raises(SerializationError):
            decode_message(data[:-2])

    def test_garbage_type_id_raises(self):
        data = bytearray(encode_message(Hello()))
        data[0] = 250
        with pytest.raises(SerializationError):
            decode_message(bytes(data))


class TestValueCodec:
    def test_primitives(self):
        for value in (None, True, False, 0, -5, 2**40, 1.5, "text", b"bytes"):
            assert decode_value(encode_value(value)) == value

    def test_containers(self):
        value = [1, "two", (3, None), [True, b"x"]]
        decoded = decode_value(encode_value(value))
        assert decoded == [1, "two", (3, None), [True, b"x"]]

    def test_nested_dataclasses(self):
        value = (Match(eth_dst="d"), [Output(1), Flood()])
        assert decode_value(encode_value(value)) == value

    def test_dicts_round_trip_on_and_off_the_inlined_path(self):
        """``str`` keys and one-byte varint values are read inline; every
        other kind of key or value goes through the decoder table."""
        for value in (
                {"aa:bb": 3, "": 0, "k": 63, "neg": -1, "edge": -64},
                {"wide": 64, "wider": 4095, "big": 2**40, "low": -65},
                {1: "int key", (1, "t"): "tuple key", b"b": b"bytes key",
                 None: None, 2.5: 2.5, True: False},
                {"outer": {"inner": {"x": 1}, "n": [1, {"y": -2}]}},
                {"h\u00e9llo": 1, "\u4e16\u754c": 2},
                {}):
            decoded = decode_value(encode_value(value))
            assert decoded == value
            assert [type(k) for k in decoded] == [type(k) for k in value]

    def test_truncated_dict_entries_raise_typed_errors(self):
        data = encode_value({"key": 5})
        # tag, count, then the key: tag + u32 length + 3 bytes.
        key_length_at = 3
        lying = bytearray(data)
        lying[key_length_at:key_length_at + 4] = (200).to_bytes(4, "big")
        with pytest.raises(SerializationError, match="truncated"):
            decode_value(bytes(lying))
        for cut in range(1, len(data)):
            with pytest.raises(SerializationError):
                decode_value(data[:cut])
        wide = encode_value({"key": 5000})          # a two-byte varint
        with pytest.raises(SerializationError):
            decode_value(wide[:-1])

    def test_unregistered_dataclass_raises(self):
        from dataclasses import dataclass

        @dataclass
        class Alien:
            x: int = 1

        with pytest.raises(SerializationError):
            encode_value(Alien())

    def test_unserialisable_value_raises(self):
        with pytest.raises(SerializationError):
            encode_value(object())
