"""An independent encoder for the wire format, used only by tests.

Written from the layout in :mod:`repro.openflow.serialization`'s module
docstring, not from its code: plain recursion over ``isinstance``
checks, no tables, no caches, no generated source.  The codec's bytes
are held to this function (``test_codec_generated.py``), so a fast path
that writes a different byte than the layout says fails there, whatever
the golden vectors happen to cover.
"""

from __future__ import annotations

import dataclasses
import enum
import struct

from repro.openflow import serialization


def schema_table():
    """The codec's interned schema ids (class name -> id)."""
    return {cls.__name__: sid
            for sid, cls in enumerate(serialization._schema_classes)}


def varint(value: int) -> bytes:
    """Zigzag, then LEB128: seven bits a byte, low first, high bit set
    on every byte but the last."""
    z = value * 2 if value >= 0 else -value * 2 - 1
    out = bytearray()
    while z >= 0x80:
        out.append(z & 0x7F | 0x80)
        z >>= 7
    out.append(z)
    return bytes(out)


def _sorted(members):
    try:
        return sorted(members)
    except TypeError:
        return sorted(members, key=repr)


def _items(values) -> bytes:
    return b"".join(encode(v) for v in values)


def encode(value) -> bytes:
    """The bytes ``encode_value(value)`` must produce."""
    if isinstance(value, enum.Enum):
        # Enum ids are registration order, like schema ids; only the
        # schema table is public.
        eid = serialization._enum_classes.index(type(value))
        return b"\x0e" + varint(eid) + varint(int(value.value))
    # The precedence ladder: ``bool`` before ``int``, ``frozenset``
    # before ``set``, subclasses as their first base on it.
    if value is None:
        return b"\x00"
    if isinstance(value, bool):
        return b"\x01" + bytes((value,))
    if isinstance(value, int):
        return b"\x0f" + varint(value)
    if isinstance(value, float):
        return b"\x03" + struct.pack("!d", value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"\x04" + struct.pack("!I", len(raw)) + raw
    if isinstance(value, bytes):
        return b"\x05" + struct.pack("!I", len(value)) + value
    if isinstance(value, list):
        return b"\x06" + struct.pack("!q", len(value)) + _items(value)
    if isinstance(value, tuple):
        return b"\x07" + struct.pack("!q", len(value)) + _items(value)
    if isinstance(value, dict):
        return (b"\x0a" + varint(len(value))
                + b"".join(encode(k) + encode(v) for k, v in value.items()))
    if isinstance(value, frozenset):
        return b"\x0c" + varint(len(value)) + _items(_sorted(value))
    if isinstance(value, set):
        return b"\x0b" + varint(len(value)) + _items(_sorted(value))
    if dataclasses.is_dataclass(value):
        sid = schema_table()[type(value).__name__]
        fields = dataclasses.fields(value)
        return (b"\x0d" + varint(sid) + bytes((len(fields),))
                + _items(getattr(value, f.name) for f in fields))
    raise TypeError(f"no layout for {type(value).__name__}")


def encode_message(msg, type_id: int) -> bytes:
    """The bytes ``encode_message(msg)`` must produce: the header, then
    the body's field count and every field but ``xid``."""
    fields = [f for f in dataclasses.fields(msg) if f.name != "xid"]
    body = bytes((len(fields),)) + _items(getattr(msg, f.name)
                                          for f in fields)
    return struct.pack("!BII", type_id | 0x80, msg.xid & 0xFFFFFFFF,
                       len(body)) + body
