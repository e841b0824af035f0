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

- **Generic values** go through two tables: encoders by exact runtime
  class (a class met first -- a namedtuple, a ``str`` subclass -- is
  resolved once through the ladder, ``bool`` before ``int`` ...) and
  ``(data, pos) -> (value, pos)`` readers by tag byte.  Lengths and ids
  are checked, negative ones too, before anything loops or indexes, and
  an undecodable buffer raises :class:`SerializationError`, nothing else.
- **Each schema** gets straight-line source, generated at registration
  and compiled as ``<codec Name>`` (``<codec Name body>`` for a message
  body): the ``tag + id + count`` prefix, then each field in order,
  small ints, None, str and ``()`` written in line, varints of up to
  three bytes, None, str, ``()`` and one-byte schema and enum ids read
  in line, the rest through the tables (field annotations never
  choose: nothing enforces them).  The list, tuple, set, frozenset and
  dict coders (``<codec list>`` ...) run the same source per item.
- **Construction** is bare -- ``object.__new__``, then a store per
  field -- for a full count of a class with no ``__post_init__`` whose
  ``__init__`` only stores: a :mod:`repro.record` through its slots'
  ``__set__``, a mutable dataclass-made one by ``o.name = v``; else a
  keyword call.  Never ``o.__dict__.update``: a record has no dict, and
  a mutable object would get its own, nearly doubling a decoded event.

Checkpointed app state uses the same value encoding behind a one-byte
marker (:func:`encode_state_value`).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import struct
from typing import Callable, Dict, List, Tuple, Type

from repro.openflow import actions as _actions
from repro.openflow import messages as _messages
from repro.openflow.match import Match
from repro.record import REGISTRY as RECORDS

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
        _encoders[cls], decode = _coders(cls, names, prefix, cls.__name__)
        _schema_decoders.append(decode)
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


def _dec_enum_id(data, pos):
    eid, pos = _read_varint(data, pos)
    value, pos = _read_varint(data, pos)
    if not 0 <= eid < len(_enum_classes):
        raise SerializationError(f"unknown enum id on wire: {eid}")
    return _enum_classes[eid](value), pos


def _dec_schema(data, pos):
    if not data[pos] & 0x81:        # a one-byte id, not negative
        return _schema_decoders[data[pos] >> 1](data, pos + 1)
    sid, pos = _read_varint(data, pos)
    if not 0 <= sid < len(_schema_decoders):
        raise SerializationError(f"unknown schema id on wire: {sid}")
    return _schema_decoders[sid](data, pos)


def _dec_unknown(data, pos):
    raise SerializationError(f"unknown value tag: {data[pos - 1]}")


#: The reader for each tag byte (the containers' are generated below).
_decoders: List[_Decoder] = [_dec_unknown] * 256
_decoders[_T_NONE] = _dec_none
_decoders[_T_BOOL] = _dec_bool
_decoders[_T_FLOAT] = _dec_float
_decoders[_T_STR] = _dec_str
_decoders[_T_BYTES] = _dec_bytes
_decoders[_T_SCHEMA] = _dec_schema
_decoders[_T_ENUM_ID] = _dec_enum_id
_decoders[_T_VARINT] = _read_varint


# -- generated coders -------------------------------------------------

#: One value of an encoder: ``_enc_int``'s, ``_enc_none``'s, ``_enc_str``'s
#: and ``_enc_tuple``'s bytes for a small int, None, a str and (), written
#: in line; the rest through ``_encoders`` (``bool`` is not ``int`` here).
_ENCODE_VALUE = """
    v = {value}
    t = type(v)
    if t is int and 0 <= v < 4096:
        buf += small[v]
    elif v is None:
        buf.append(0)
    elif t is str:
        raw = v.encode("utf-8")
        buf.append(4)
        buf += pack_u32(len(raw))
        buf += raw
    elif t is tuple and not v:
        buf += empty_tuple
    else:
        encoders[t](buf, v)"""

#: One value of a reader: varints of up to three bytes, None, str, (),
#: and a schema or enum member with a one-byte id, read in line; the
#: rest (negative ids among it) through ``_decoders``.
_DECODE_VALUE = """
    tag = data[pos]
    if tag == 15 and data[pos + 1] < 128:
        {v} = data[pos + 1] >> 1 ^ -(data[pos + 1] & 1)
        pos += 2
    elif tag == 15 and data[pos + 2] < 128:
        z = data[pos + 1] & 127 | data[pos + 2] << 7
        {v} = z >> 1 ^ -(z & 1)
        pos += 3
    elif tag == 15 and data[pos + 3] < 128:
        z = (data[pos + 1] & 127 | (data[pos + 2] & 127) << 7
             | data[pos + 3] << 14)
        {v} = z >> 1 ^ -(z & 1)
        pos += 4
    elif tag == 0:
        {v} = None
        pos += 1
    elif tag == 4:
        start = pos + 5
        pos = start + unpack_u32(data, pos + 1)[0]
        if pos > end:
            raise SerializationError("truncated buffer")
        {v} = data[start:pos].decode("utf-8")
    elif tag == 13 and not data[pos + 1] & 129:
        {v}, pos = schema_decoders[data[pos + 1] >> 1](data, pos + 2)
    elif tag == 14 and not data[pos + 1] & 129 and not data[pos + 2] & 129:
        {v} = enum_classes[data[pos + 1] >> 1]._value2member_map_.get(
            data[pos + 2] >> 1)
        if {v} is None:
            {v}, pos = decoders[14](data, pos + 1)
        else:
            pos += 3
    elif tag == 7 and data[pos + 1:pos + 9] == no_items:
        {v} = ()
        pos += 9
    else:
        {v}, pos = decoders[tag](data, pos + 1)"""

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


#: What generated code sees.
_ENV = dict(
    __name__=__name__, small=_SMALL_INTS, pack_u32=_pack_u32,
    unpack_u32=_unpack_u32, varint=_varint, read_varint=_read_varint,
    pack_i64=_pack_i64, unpack_i64=_unpack_i64,
    sorted_members=_sorted_members,
    empty_tuple=b"\x07" + _pack_i64(0), no_items=_pack_i64(0),
    encoders=_encoders, decoders=_decoders,
    schema_decoders=_schema_decoders, enum_classes=_enum_classes,
    new=object.__new__,
    SerializationError=SerializationError)


def _generate(label: str, source: str, env: dict):
    """Compile ``source``, one ``def``, as ``<codec label>`` in ``env``
    (its globals) and return the function."""
    exec(compile(source, f"<codec {label}>", "exec"), env)
    return env.pop(source[4:source.index("(")])


def _indented(source: str) -> str:
    return source.replace("\n", "\n    ")


def _container_coders(tag: int, make: str) -> Tuple[_Encoder, _Decoder]:
    """Generate the coders of a list or tuple (an ``!q`` count) or a set
    or frozenset (a varint count, members sorted): ``tag``, the count,
    then each item.  A count beyond the bytes that remain is forged or
    truncated (an item is at least its tag byte) and a negative one is
    no empty container: both are refused before the loop, so a flipped
    bit cannot buy a 2^63-step one."""
    sequence = tag in (_T_LIST, _T_TUPLE)
    encode = _generate(make, f"""\
def encode(buf, value):
    buf.append({tag})
    buf += {"pack_i64" if sequence else "varint"}(len(value))
    for item in {"" if sequence else "sorted_members"}(value):""" + _indented(
        _ENCODE_VALUE.format(value="item")), _ENV)
    decode = _generate(make, f"""\
def decode(data, pos):
    {"n = unpack_i64(data, pos)[0]; pos += 8" if sequence
     else "n, pos = read_varint(data, pos)"}
    if not 0 <= n <= len(data) - pos:
        raise SerializationError("forged or truncated length: %d" % n)
    end = len(data)
    items = []
    for _ in range(n):""" + _indented(
        _DECODE_VALUE.format(v="item") + "\n    items.append(item)")
        + f"\n    return {make}(items), pos", _ENV)
    return encode, decode


_enc_list, _decoders[_T_LIST] = _container_coders(_T_LIST, "list")
_enc_tuple, _decoders[_T_TUPLE] = _container_coders(_T_TUPLE, "tuple")
_enc_set, _decoders[_T_SET] = _container_coders(_T_SET, "set")
_enc_frozenset, _decoders[_T_FROZENSET] = _container_coders(
    _T_FROZENSET, "frozenset")

# Checkpointed state is mostly ``{mac: port}`` tables of thousands of
# entries: every key and every value takes the in-line paths.
_enc_dict = _generate("dict", """\
def encode(buf, value):
    buf.append(10)
    buf += varint(len(value))
    for key, item in value.items():""" + _indented(
    _ENCODE_VALUE.format(value="key") + _ENCODE_VALUE.format(value="item")),
    _ENV)
_decoders[_T_DICT] = _generate("dict", """\
def decode(data, pos):
    n, pos = read_varint(data, pos)
    if not 0 <= n <= len(data) - pos:
        raise SerializationError(f"forged or truncated length: {n}")
    end = len(data)
    out = {}
    for _ in range(n):""" + _indented(
    _DECODE_VALUE.format(v="key") + _DECODE_VALUE.format(v="out[key]"))
    + "\n    return out, pos", _ENV)

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


def _coders(cls: type, names: Tuple[str, ...], prefix: bytes,
            label: str) -> Tuple[_Encoder, _Decoder]:
    """Generate the encoder of ``cls`` laid out as ``prefix``, then
    ``names``' values in order, and its reader."""
    env = dict(_ENV, cls=cls, names=names, prefix=prefix, label=label,
               readers={})
    env["read"] = functools.partial(_reader, env)
    encode = _generate(label, "def encode(buf, value):\n    buf += prefix"
                       + "".join(_ENCODE_VALUE.format(value=f"value.{name}")
                                 for name in names), env)
    return encode, _reader(env, len(names))


def _reader(env: dict, n: int) -> _Decoder:
    """Compile the reader of ``n`` fields: all of the schema's, or fewer
    on first sight of such a count (see "Construction" above)."""
    cls, names = env["cls"], env["names"]
    if n > len(names):
        raise SerializationError(f"schema {cls.__name__}: wire has {n} "
                                 f"fields, decoder knows {len(names)}")
    names, values = names[:n], [f"v{i}" for i in range(n)]
    fields = dataclasses.fields(cls)
    init = getattr(cls.__init__, "__code__", None)     # dataclass-made?
    store = "o.{} = {}" if (getattr(init, "co_filename", "") == "<string>"
                            and all(f.init for f in fields)
                            and not cls.__dataclass_params__.frozen) else None
    if cls in RECORDS:                  # a generated __init__: slot stores
        env.update(("set_" + f.name, getattr(cls, f.name).__set__)
                   for f in fields)
        store = "set_{}(o, {})"
    if store and len(fields) == n and not hasattr(cls, "__post_init__"):
        build = ["o = new(cls)", *map(store.format, names, values),
                 "return o, pos"]
    else:
        build = ["return cls({}), pos".format(
            ", ".join(map("{}={}".format, names, values)))]
    reader = env["readers"][n] = _generate(env["label"], (
        f"def decode(data, pos):\n    if data[pos] != {n}:\n        return "
        "(readers.get(data[pos]) or read(data[pos]))(data, pos)\n"
        "    pos += 1\n    end = len(data)"
        + "".join(_DECODE_VALUE.format(v=v) for v in values)
        + "".join(f"\n    {line}" for line in build)), env)
    return reader


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
_body_encoders, _body_decoders = zip(*(
    _coders(cls, names, bytes((len(names),)), f"{cls.__name__} body")
    for cls, names in zip(_MESSAGE_TYPES, _body_names)))


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


def encode_state_entries(value: dict) -> dict:
    """Each entry of a dict, key -> the bytes ``_enc_dict`` writes for
    it: :func:`splice_state_dict` of them is ``encode_state_value``."""
    codes = {}
    for k, v in value.items():
        buf = bytearray()
        _encoders[type(k)](buf, k)
        _encoders[type(v)](buf, v)
        codes[k] = bytes(buf)
    return codes


def splice_state_dict(codes) -> bytes:
    """:func:`encode_state_value` of a dict whose entries encode to
    ``codes`` (a sized collection of bytes, in order), joined in C."""
    head = _B_PACKED + bytes((_T_DICT,)) + _varint(len(codes))
    return head + b"".join(codes)


@_typed_errors
def decode_state_value(buf: bytes):
    """Inverse of :func:`encode_state_value`."""
    if buf[:1] != _B_PACKED:
        raise SerializationError("state-value buffer lacks its marker byte")
    return _decoders[buf[1]](buf, 2)[0]
