"""Byte-level wire format for OpenFlow messages.

The AppVisor proxy and stub live in different fault domains and talk
over a (simulated) UDP channel, so every message crossing the boundary
is serialised to bytes and parsed back (§3.1: "serialization and
de-serialization of messages ... introduce additional latency into the
control-loop").  This module provides that codec.

The format is a compact self-describing binary encoding (not the exact
OpenFlow 1.0 wire layout -- the simulator's packets carry symbolic
addresses -- but with the same structure: a fixed header carrying the
message type and xid, followed by a typed body).  Encoding real bytes
matters because the E2 latency experiment charges the RPC channel per
encoded byte.

Layout::

    header:  type_id | 0x80 (u8) | xid (u32) | body_len (u32)
    body:    field_count (u8), then the fields' tagged values in the
             message class's declaration order (``xid`` rides the header)

Tagged values: a tag byte followed by a type-specific payload.  Lists,
tuples, dicts, sets, enums, and registered dataclasses (Match, every
Action, packet classes, stats entries) nest recursively.

There is one format.  Class and enum names are interned once at
registration into small integer *schema ids*; a dataclass value is
``schema id + field count + values``, field order is the declaration
order on both sides, and ints are zigzag LEB128 varints.  Decoding
tolerates *trailing* missing fields (they take their dataclass
defaults), so adding a defaulted field keeps old captures readable.  A
dataclass or enum that was never registered has no id and cannot be
encoded: that is a :class:`SerializationError`, not a second
representation.

The codec is *compiled*: nothing walks a value generically.

- **Encode** appends to one ``bytearray`` through a ``type -> encoder``
  table keyed on each value's exact runtime class (never on field
  annotations -- nothing enforces those).  :func:`register_dataclass`
  builds a schema's encoder once: its ``tag + schema id + field count``
  prefix as ready bytes and an ``attrgetter`` over the declared field
  names.  A class met for the first time (a ``defaultdict``, a
  namedtuple, a ``str`` subclass) is resolved once through the
  precedence ladder -- ``bool`` before ``int`` ... -- and cached in the
  table.
- **Decode** is one table of ``(data, pos) -> (value, pos)`` readers
  indexed by tag byte, with one reader per registered schema behind
  ``_T_SCHEMA``.  Lengths are checked against the bytes that remain
  before anything loops over them, and any undecodable buffer raises
  :class:`SerializationError` and nothing else.

Checkpointed app state uses the same value encoding behind a one-byte
marker (:func:`encode_state_value`).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import struct
from operator import attrgetter
from typing import Callable, Dict, List, Tuple, Type

from repro.openflow import actions as _actions
from repro.openflow import messages as _messages
from repro.openflow.match import Match

# -- value tags -------------------------------------------------------

_T_NONE = 0
_T_BOOL = 1
_T_FLOAT = 3
_T_STR = 4
_T_BYTES = 5
_T_LIST = 6
_T_TUPLE = 7
_T_DICT = 10
_T_SET = 11
_T_FROZENSET = 12
#: Dataclass: varint schema id + u8 field count + values in
#: declaration order (no field names on the wire).
_T_SCHEMA = 13
#: Enum: varint enum id + varint member value.
_T_ENUM_ID = 14
#: Zigzag LEB128 integer.
_T_VARINT = 15

_HEADER = struct.Struct("!BII")
#: High bit of the header type id: set on every frame, and a header
#: without it is not one.
_PACKED_FLAG = 0x80

_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_pack_u32, _unpack_u32 = _U32.pack, _U32.unpack_from
_pack_i64, _unpack_i64 = _I64.pack, _I64.unpack_from
_pack_f64, _unpack_f64 = _F64.pack, _F64.unpack_from

_Encoder = Callable[[bytearray, object], None]
#: ``(data, pos just past the tag) -> (value, pos past the value)``.
_Decoder = Callable[[bytes, int], Tuple[object, int]]

#: Registered dataclasses (name -> class).
_dataclass_registry: Dict[str, type] = {}
#: Registered enums (name -> class).
_enum_registry: Dict[str, Type[enum.Enum]] = {}
#: Schema interning: a class's index here is its schema id, assigned
#: in registration order (import order is identical on both ends of
#: the simulated wire, so ids agree without a handshake).
_schema_classes: List[type] = []
#: Schema id -> the reader compiled for that class.
_schema_decoders: List[_Decoder] = []
_enum_classes: List[Type[enum.Enum]] = []


class SerializationError(ValueError):
    """Raised when a value or buffer cannot be (de)serialised."""


class _EncoderTable(dict):
    """Encoders by exact runtime class.

    Schemas and enums are entered at registration.  Any other class is
    resolved the first time a value of it is encoded -- its first base
    on ``_LADDER`` -- and remembered under the class itself.
    """

    def __missing__(self, cls: type) -> _Encoder:
        # Before the ladder: an ``IntEnum`` is an ``int``, and must not
        # pass for one.
        if issubclass(cls, enum.Enum):
            raise SerializationError(
                f"unregistered enum on wire: {cls.__name__}")
        for base, encode in _LADDER:
            if issubclass(cls, base):
                self[cls] = encode
                return encode
        if dataclasses.is_dataclass(cls):
            raise SerializationError(
                f"unregistered dataclass on wire: {cls.__name__}")
        raise SerializationError(
            f"unserialisable value of type {cls.__name__}")


_encoders = _EncoderTable()


def register_dataclass(cls: type) -> type:
    """Register a dataclass so it can cross the RPC boundary.

    Used by the packet model and any custom app payloads.  Returns the
    class so it can be used as a decorator.  Registration interns the
    class into the codec's schema table and compiles its encoder
    and decoder.  Registering the same class again is a no-op; a
    *different* class under a taken name is an error (the wire
    identifies schemas by name and by the id derived from it).
    """
    if not dataclasses.is_dataclass(cls):
        raise SerializationError(f"{cls.__name__} is not a dataclass")
    if _claim_name(_dataclass_registry, cls):
        names = tuple(f.name for f in dataclasses.fields(cls))
        prefix = (bytes((_T_SCHEMA,)) + _varint(len(_schema_classes))
                  + bytes((len(names),)))
        _schema_classes.append(cls)
        _encoders[cls] = _fields_encoder(prefix, names)
        _schema_decoders.append(_fields_decoder(cls, names))
    return cls


def register_enum(cls: Type[enum.Enum]) -> Type[enum.Enum]:
    """Register an enum for wire transport (also interns an enum id)."""
    if _claim_name(_enum_registry, cls):
        prefix = bytes((_T_ENUM_ID,)) + _varint(len(_enum_classes))
        _enum_classes.append(cls)

        def encode(buf: bytearray, value) -> None:
            buf += prefix
            buf += _varint(int(value.value))
        _encoders[cls] = encode
    return cls


def _claim_name(registry: Dict[str, type], cls: type) -> bool:
    """Enter ``cls`` under its name; False if it already holds it."""
    known = registry.get(cls.__name__)
    if known is None:
        registry[cls.__name__] = cls
        return True
    if known is not cls:
        raise SerializationError(
            f"wire name {cls.__name__!r} is already registered by "
            f"{known.__module__}.{known.__qualname__}")
    return False


def schema_table() -> Dict[str, int]:
    """The interned schema ids (class name -> id), for diagnostics."""
    return {cls.__name__: sid for sid, cls in enumerate(_schema_classes)}


# -- shared pieces ----------------------------------------------------

def _varint(v: int) -> bytes:
    # Zigzag so small negatives stay small, then LEB128.
    z = v * 2 if v >= 0 else -v * 2 - 1
    out = bytearray()
    while z > 0x7F:
        out.append((z & 0x7F) | 0x80)
        z >>= 7
    out.append(z)
    return bytes(out)


def _sorted_members(value):
    try:
        return sorted(value)
    except TypeError:
        return sorted(value, key=repr)


# -- encoders ---------------------------------------------------------

def _put_items(buf: bytearray, items) -> None:
    """Append each item through its class's encoder."""
    encoders = _encoders
    for item in items:
        encoders[type(item)](buf, item)


def _enc_none(buf, value):
    buf.append(_T_NONE)


def _enc_bool(buf, value):
    buf += b"\x01\x01" if value else b"\x01\x00"


#: Tag + varint of every int below 4096 (ports, dpids, counters).
_SMALL_INTS = tuple(bytes((_T_VARINT,)) + _varint(i) for i in range(4096))


def _enc_int(buf, value):
    if 0 <= value < 4096:
        buf += _SMALL_INTS[value]
        return
    buf.append(_T_VARINT)
    z = value * 2 if value >= 0 else -value * 2 - 1
    while z > 0x7F:
        buf.append((z & 0x7F) | 0x80)
        z >>= 7
    buf.append(z)


def _enc_float(buf, value):
    buf.append(_T_FLOAT)
    buf += _pack_f64(value)


def _enc_str(buf, value):
    raw = value.encode("utf-8")
    buf.append(_T_STR)
    buf += _pack_u32(len(raw))
    buf += raw


def _enc_bytes(buf, value):
    buf.append(_T_BYTES)
    buf += _pack_u32(len(value))
    buf += value


def _enc_list(buf, value):
    buf.append(_T_LIST)
    buf += _pack_i64(len(value))
    _put_items(buf, value)


def _enc_tuple(buf, value):
    buf.append(_T_TUPLE)
    buf += _pack_i64(len(value))
    _put_items(buf, value)


def _enc_dict(buf, value):
    buf.append(_T_DICT)
    buf += _varint(len(value))
    encoders = _encoders
    small = _SMALL_INTS
    # Checkpointed state is mostly ``{mac: port}`` tables of thousands
    # of entries: write those two kinds of entry without a call each.
    for k, v in value.items():
        if type(k) is str:
            raw = k.encode("utf-8")
            buf.append(_T_STR)
            buf += _pack_u32(len(raw))
            buf += raw
        else:
            encoders[type(k)](buf, k)
        if type(v) is int and 0 <= v < 4096:
            buf += small[v]
        else:
            encoders[type(v)](buf, v)


def _enc_set(buf, value):
    buf.append(_T_SET)
    buf += _varint(len(value))
    _put_items(buf, _sorted_members(value))


def _enc_frozenset(buf, value):
    buf.append(_T_FROZENSET)
    buf += _varint(len(value))
    _put_items(buf, _sorted_members(value))


#: Subclass precedence, first match wins: ``bool`` is an ``int``, so the
#: order is part of the wire format.
_LADDER: Tuple[Tuple[type, _Encoder], ...] = (
    (type(None), _enc_none),
    (bool, _enc_bool),
    (int, _enc_int),
    (float, _enc_float),
    (str, _enc_str),
    (bytes, _enc_bytes),
    (list, _enc_list),
    (tuple, _enc_tuple),
    (dict, _enc_dict),
    (frozenset, _enc_frozenset),
    (set, _enc_set),
)


def _fields_encoder(prefix: bytes, names: Tuple[str, ...]) -> _Encoder:
    """Compile an encoder: ``prefix``, then the named attributes."""
    if len(names) > 1:
        get = attrgetter(*names)
    else:       # attrgetter gives a tuple only for two names or more
        def get(value):
            return tuple(getattr(value, name) for name in names)

    def encode(buf: bytearray, value) -> None:
        buf += prefix
        _put_items(buf, get(value))
    return encode


# -- decoders ---------------------------------------------------------

def _read_varint(data, pos):
    b = data[pos]
    pos += 1
    z = b & 0x7F
    shift = 7
    while b & 0x80:
        if shift > 70:
            raise SerializationError("varint too long")
        b = data[pos]
        pos += 1
        z |= (b & 0x7F) << shift
        shift += 7
    return (-(z >> 1) - 1 if z & 1 else z >> 1), pos


def _read_items(data, pos, n):
    """``n`` values in a row.  Every value is at least its tag byte, so
    a length beyond the remaining bytes is forged or truncated: reject
    it before looping (a flipped bit must not buy a 2^63-step loop)."""
    if n > len(data) - pos:
        raise SerializationError("truncated buffer")
    decoders = _decoders
    items = []
    for _ in range(n):
        item, pos = decoders[data[pos]](data, pos + 1)
        items.append(item)
    return items, pos


def _dec_none(data, pos):
    return None, pos


def _dec_bool(data, pos):
    return bool(data[pos]), pos + 1


def _dec_float(data, pos):
    return _unpack_f64(data, pos)[0], pos + 8


def _dec_bytes(data, pos):
    start = pos + 4
    end = start + _unpack_u32(data, pos)[0]
    if end > len(data):
        raise SerializationError("truncated buffer")
    return data[start:end], end


def _dec_str(data, pos):
    raw, pos = _dec_bytes(data, pos)
    return raw.decode("utf-8"), pos


def _dec_list(data, pos):
    return _read_items(data, pos + 8, _unpack_i64(data, pos)[0])


def _dec_tuple(data, pos):
    items, pos = _read_items(data, pos + 8, _unpack_i64(data, pos)[0])
    return tuple(items), pos


def _dec_dict(data, pos):
    n, pos = _read_varint(data, pos)
    if n > len(data) - pos:
        raise SerializationError("truncated buffer")
    decoders = _decoders
    end = len(data)
    out = {}
    # The mirror of ``_enc_dict``'s two inlined kinds of entry: a ``str``
    # key and a one-byte varint value are read without a call each.
    for _ in range(n):
        tag = data[pos]
        if tag == _T_STR:
            start = pos + 5
            pos = start + _unpack_u32(data, pos + 1)[0]
            if pos > end:
                raise SerializationError("truncated buffer")
            k = data[start:pos].decode("utf-8")
        else:
            k, pos = decoders[tag](data, pos + 1)
        tag = data[pos]
        if tag == _T_VARINT and data[pos + 1] < 0x80:
            z = data[pos + 1]
            out[k] = -(z >> 1) - 1 if z & 1 else z >> 1
            pos += 2
        else:
            out[k], pos = decoders[tag](data, pos + 1)
    return out, pos


def _dec_set(data, pos):
    n, pos = _read_varint(data, pos)
    items, pos = _read_items(data, pos, n)
    return set(items), pos


def _dec_frozenset(data, pos):
    n, pos = _read_varint(data, pos)
    items, pos = _read_items(data, pos, n)
    return frozenset(items), pos


def _dec_enum_id(data, pos):
    eid, pos = _read_varint(data, pos)
    value, pos = _read_varint(data, pos)
    if eid >= len(_enum_classes):
        raise SerializationError(f"unknown enum id on wire: {eid}")
    return _enum_classes[eid](value), pos


def _dec_schema(data, pos):
    sid, pos = _read_varint(data, pos)
    if sid >= len(_schema_decoders):
        raise SerializationError(f"unknown schema id on wire: {sid}")
    return _schema_decoders[sid](data, pos)


def _fields_decoder(cls: type, names: Tuple[str, ...]) -> _Decoder:
    """Compile a reader: ``count``, then that many of ``names``' values
    in order, built into ``cls`` by keyword (messages have keyword-only
    fields).  Trailing fields absent on the wire take their declared
    defaults -- adding a defaulted field is a compatible change."""
    known = len(names)

    def decode(data, pos):
        n = data[pos]
        if n > known:
            raise SerializationError(
                f"schema {cls.__name__}: wire has {n} fields, "
                f"decoder knows {known}")
        pos += 1
        decoders = _decoders
        values = {}
        for name in names if n == known else names[:n]:
            values[name], pos = decoders[data[pos]](data, pos + 1)
        return cls(**values), pos
    return decode


def _dec_unknown(data, pos):
    raise SerializationError(f"unknown value tag: {data[pos - 1]}")


#: The reader for each tag byte.
_decoders: List[_Decoder] = [_dec_unknown] * 256
_decoders[_T_NONE] = _dec_none
_decoders[_T_BOOL] = _dec_bool
_decoders[_T_FLOAT] = _dec_float
_decoders[_T_STR] = _dec_str
_decoders[_T_BYTES] = _dec_bytes
_decoders[_T_LIST] = _dec_list
_decoders[_T_TUPLE] = _dec_tuple
_decoders[_T_DICT] = _dec_dict
_decoders[_T_SET] = _dec_set
_decoders[_T_FROZENSET] = _dec_frozenset
_decoders[_T_SCHEMA] = _dec_schema
_decoders[_T_ENUM_ID] = _dec_enum_id
_decoders[_T_VARINT] = _read_varint

#: What a malformed buffer can make the readers or a constructor raise:
#: running off the end (``IndexError``, ``struct.error``), bad UTF-8 or
#: an unknown enum member (``ValueError``), wrong or missing constructor
#: arguments and unhashable keys (``TypeError``), forged nesting depth.
_MALFORMED = (IndexError, struct.error, ValueError, TypeError,
              RecursionError)


def _typed_errors(decode):
    """The decoder's contract, applied once at each public entry: an
    undecodable buffer raises :class:`SerializationError`, nothing else."""
    @functools.wraps(decode)
    def guarded(data):
        try:
            return decode(data)
        except SerializationError:
            raise
        except _MALFORMED as exc:
            raise SerializationError(
                f"undecodable buffer: {exc!r}") from exc
    return guarded


# -- message registry -------------------------------------------------

_MESSAGE_TYPES = (
    _messages.Hello,
    _messages.EchoRequest,
    _messages.EchoReply,
    _messages.ErrorMsg,
    _messages.FlowMod,
    _messages.PacketOut,
    _messages.BarrierRequest,
    _messages.BarrierReply,
    _messages.FlowStatsRequest,
    _messages.FlowStatsReply,
    _messages.PortStatsRequest,
    _messages.PortStatsReply,
    _messages.PacketIn,
    _messages.FlowRemoved,
    _messages.PortStatus,
)

# Register the protocol's own dataclasses and enums.
register_dataclass(Match)
register_dataclass(_messages.FlowStatsEntry)
register_dataclass(_messages.PortStatsEntry)
# Messages themselves are registered as generic dataclasses too, so
# they can ride inside RPC frame payloads (see repro.core.appvisor.rpc).
for _msg_cls in _MESSAGE_TYPES:
    register_dataclass(_msg_cls)
for _action_cls in (
    _actions.Output,
    _actions.Flood,
    _actions.ToController,
    _actions.Drop,
    _actions.Enqueue,
    _actions.SetEthSrc,
    _actions.SetEthDst,
    _actions.SetIpSrc,
    _actions.SetIpDst,
):
    register_dataclass(_action_cls)
for _enum_cls in (
    _messages.FlowModCommand,
    _messages.FlowRemovedReason,
    _messages.PacketInReason,
    _messages.PortStatusReason,
):
    register_enum(_enum_cls)


_type_to_id = {cls: i for i, cls in enumerate(_MESSAGE_TYPES)}
#: Per message type id: the body's field names -- every field but
#: ``xid``, which the header carries -- and the body's compiled encoder
#: and reader.
_body_names = [tuple(f.name for f in dataclasses.fields(cls)
                     if f.name != "xid") for cls in _MESSAGE_TYPES]
_body_encoders = [_fields_encoder(bytes((len(names),)), names)
                  for names in _body_names]
_body_decoders = [_fields_decoder(cls, names)
                  for cls, names in zip(_MESSAGE_TYPES, _body_names)]


def encode_message(msg: _messages.Message) -> bytes:
    """Serialise ``msg`` to bytes (header + typed body)."""
    cls = type(msg)
    type_id = _type_to_id.get(cls)
    if type_id is None:
        raise SerializationError(f"unregistered message type: {cls.__name__}")
    buf = bytearray(_HEADER.size)
    _body_encoders[type_id](buf, msg)
    _HEADER.pack_into(buf, 0, type_id | _PACKED_FLAG, msg.xid & 0xFFFFFFFF,
                      len(buf) - _HEADER.size)
    return bytes(buf)


@_typed_errors
def decode_message(data: bytes) -> _messages.Message:
    """Parse one message from ``data`` (must contain exactly one frame)."""
    if len(data) < _HEADER.size:
        raise SerializationError("buffer shorter than header")
    type_id, xid, body_len = _HEADER.unpack_from(data)
    body = data[_HEADER.size : _HEADER.size + body_len]
    if len(body) != body_len:
        raise SerializationError("truncated body")
    if not type_id & _PACKED_FLAG:
        raise SerializationError("header lacks the format flag")
    type_id &= ~_PACKED_FLAG
    if type_id >= len(_MESSAGE_TYPES):
        raise SerializationError(f"unknown message type id: {type_id}")
    msg, _ = _body_decoders[type_id](body, 0)
    msg.xid = xid
    return msg


def encoded_size(msg: _messages.Message) -> int:
    """Wire size of ``msg`` in bytes (used by the channel latency model)."""
    return len(encode_message(msg))


def encode_value(value) -> bytes:
    """Serialise any supported value (the RPC payload codec)."""
    buf = bytearray()
    _encoders[type(value)](buf, value)
    return bytes(buf)


@_typed_errors
def decode_value(data: bytes):
    """Parse a value produced by :func:`encode_value`.

    Bytes after the one complete value are ignored.
    """
    return _decoders[data[0]](data, 1)[0]


# -- checkpoint value codec -------------------------------------------

#: First byte of a checkpoint value buffer (format byte).
_B_PACKED = b"\x01"


def encode_state_value(value) -> bytes:
    """Encode one checkpoint state value: the marker byte, then the
    value as :func:`encode_value` writes it.  A value the codec has no
    tag for raises :class:`SerializationError`."""
    buf = bytearray(_B_PACKED)
    _encoders[type(value)](buf, value)
    return bytes(buf)


@_typed_errors
def decode_state_value(buf: bytes):
    """Inverse of :func:`encode_state_value`."""
    if buf[:1] != _B_PACKED:
        raise SerializationError("state-value buffer lacks its marker byte")
    return _decoders[buf[1]](buf, 2)[0]
