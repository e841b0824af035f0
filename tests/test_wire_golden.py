"""The wire format, pinned: golden vectors, a decoder fuzz, and the
registration and error contracts.

``tests/data/wire_golden.json`` holds the bytes the codec produced
before it was compiled (see ``wire_cases.py``).  The codec may be
rebuilt for speed as often as anyone likes; these bytes may not move,
because ``sim_digest``, the committed bench reports and every HMAC stamp
are functions of them.

``tests/data/wire_retired.json`` holds the bytes of the formats that
were deleted -- the ``named`` encoding, the named-enum form an
unregistered enum rode in, the pickle state fallback, the three frames
the channel's datagram header replaced.  The vector tests keep a
``named`` column (and the retired frames' ids) for them with the
opposite expectation: the decoder refuses those bytes (it must never
take them for the wire format and hand back something else), and they
stay in the fuzz corpus.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import json
import pathlib
import pickle
import random

import pytest

import repro
import wire_cases
from repro.openflow.match import Match
from repro.openflow.messages import FlowModCommand
from repro.openflow.serialization import (
    SerializationError,
    decode_message,
    decode_state_value,
    decode_value,
    encode_message,
    encode_state_value,
    encode_value,
    register_dataclass,
    register_enum,
)
from wire_reference import schema_table
from wire_cases import RETIRED as RETIRED_SCHEMA, UNENCODABLE

GOLDEN = json.loads(wire_cases.GOLDEN_PATH.read_text())
RETIRED = {label: bytes.fromhex(hexed) for label, hexed in
           json.loads(wire_cases.RETIRED_PATH.read_text()).items()}
#: ``packed`` is the wire format; ``named`` is the deleted one, whose
#: frozen bytes must now be refused.
FORMATS = ("packed", "named")
VALUE_CASES = wire_cases.value_cases()
MESSAGE_CASES = wire_cases.message_cases()
STATE_CASES = wire_cases.state_cases()


def _ids(cases):
    return [case[0] for case in cases]


# -- golden vectors ---------------------------------------------------

def test_golden_covers_every_schema_and_message_type():
    schemas = {f"schema:{name}" for name in schema_table()}
    assert schemas <= set(GOLDEN["value"])
    assert len(GOLDEN["message"]) == 15
    assert set(GOLDEN["value"]) == _encodable(VALUE_CASES)
    assert set(GOLDEN["message"]) == set(_ids(MESSAGE_CASES))
    assert set(GOLDEN["state"]) == _encodable(STATE_CASES)


def _encodable(cases):
    return {name for name, _, decoded in cases
            if decoded is not UNENCODABLE and decoded is not RETIRED_SCHEMA}


def _refused(decode, retired: bytes, golden: bytes = None) -> None:
    """Retired bytes never decode -- unless the two formats happened to
    agree on them (``None``, a ``str``...), and then they *are* the
    wire format's bytes."""
    if retired == golden:
        return
    with pytest.raises(SerializationError):
        decode(retired)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name,value,decoded", VALUE_CASES,
                         ids=_ids(VALUE_CASES))
def test_value_vectors(name, value, decoded, fmt):
    if decoded is RETIRED_SCHEMA:
        # The schema is gone and its id now names another class: the
        # frame's old bytes must not parse as one of those.
        _refused(decode_value, RETIRED[f"{name}:{fmt}"])
        return
    if decoded is UNENCODABLE:
        with pytest.raises(SerializationError, match="unregistered enum"):
            encode_value(value)
        _refused(decode_value, RETIRED[f"{name}:{fmt}"])
        return
    golden = bytes.fromhex(GOLDEN["value"][name])
    if fmt == "named":
        _refused(decode_value, RETIRED[f"{name}:named"], golden)
        return
    assert encode_value(value) == golden
    out = decode_value(golden)
    assert out == decoded
    # ``True == 1`` and ``(1,) != [1]`` but ``defaultdict == dict``:
    # equality alone would let a bool decode as an int.
    assert _kinds(out) == _kinds(decoded)


def _kinds(value):
    """The wire-level kind of every node (subclasses fold to the base
    the wire can carry)."""
    if isinstance(value, dict):
        return ("dict", [(_kinds(k), _kinds(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        kind = "list" if isinstance(value, list) else "tuple"
        return (kind, [_kinds(v) for v in value])
    if isinstance(value, (set, frozenset)):
        return type(value).__name__
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                [_kinds(getattr(value, f.name))
                 for f in dataclasses.fields(value)])
    if isinstance(value, enum.Enum):
        return type(value).__name__
    for base in (bool, int, float, str, bytes):
        if isinstance(value, base):
            return base.__name__
    return type(value).__name__


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name,msg", MESSAGE_CASES, ids=_ids(MESSAGE_CASES))
def test_message_vectors(name, msg, fmt):
    if fmt == "named":
        # No format flag in the header: not a frame at all.
        _refused(decode_message, RETIRED[f"msg:{name}:named"])
        return
    golden = bytes.fromhex(GOLDEN["message"][name])
    assert encode_message(msg) == golden
    out = decode_message(golden)
    assert out == msg
    assert out.xid == msg.xid


@pytest.mark.parametrize("name,value,decoded", STATE_CASES,
                         ids=_ids(STATE_CASES))
def test_state_vectors(name, value, decoded):
    if decoded is UNENCODABLE:
        with pytest.raises(SerializationError, match="complex"):
            encode_state_value(value)
        _refused(decode_state_value, RETIRED[f"state:{name}"])
        return
    golden = bytes.fromhex(GOLDEN["state"][name])
    assert decode_state_value(golden) == decoded
    assert encode_state_value(value) == golden


UNPICKLED = []


def _plant():
    UNPICKLED.append(True)


class _Planted:
    """Unpickling this calls :func:`_plant`."""

    def __reduce__(self):
        return (_plant, ())


def test_state_decoder_never_unpickles():
    """``b"\\x00" + pickle`` was a state-value format until PR 17, and
    decoding it ran whatever the pickle said."""
    payload = pickle.dumps(_Planted())
    for marker in (b"\x00", b"\x01", b""):
        with pytest.raises(SerializationError):
            decode_state_value(marker + payload)
    assert not UNPICKLED
    pickle.loads(payload)
    assert UNPICKLED            # the vector was live


def test_no_channel_adjacent_module_imports_pickle():
    """A second format cannot come back to a path that decodes bytes
    off a channel without this noticing."""
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for package in ("openflow", "core/appvisor", "replication"):
        for path in sorted((root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] in ("pickle", "cPickle", "_pickle")
                       for m in modules):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []


def test_decoded_bytes_fields_are_bytes():
    """They feed ``zlib.crc32``, ``hmac`` and dict keys."""
    ship = wire_cases.schema_instances()["RecordShip"]
    out = decode_value(encode_value(ship))
    assert type(out.auth) is bytes and out.auth


def test_trailing_bytes_after_a_complete_value_are_ignored():
    """Part of the accept set today, and unreliable-channel chaos runs
    depend on it: pinned, not an oversight to fix."""
    assert decode_value(encode_value(7) + b"x") == 7
    frame = wire_cases.schema_instances()["Heartbeat"]
    assert decode_value(encode_value(frame) + b"\x00\xff") == frame


# -- registration -----------------------------------------------------

def test_reregistering_the_same_class_is_a_noop():
    before = schema_table()
    assert register_dataclass(Match) is Match
    assert register_enum(FlowModCommand) is FlowModCommand
    assert schema_table() == before


def test_a_different_class_under_a_taken_name_is_rejected():
    original = wire_cases.schema_instances()["Match"]

    @dataclasses.dataclass
    class Match:                      # noqa: F811 -- the collision
        pattern: str = ""

    with pytest.raises(SerializationError, match="already registered"):
        register_dataclass(Match)
    # Nothing moved: the original still encodes and decodes as itself,
    # and the impostor is an unregistered dataclass.
    golden = bytes.fromhex(GOLDEN["value"]["schema:Match"])
    assert encode_value(original) == golden
    assert decode_value(golden) == original
    with pytest.raises(SerializationError, match="unregistered"):
        encode_value(Match())


def test_a_different_enum_under_a_taken_name_is_rejected():
    class FlowModCommand(enum.IntEnum):   # noqa: F811
        ADD = 0

    with pytest.raises(SerializationError, match="already registered"):
        register_enum(FlowModCommand)
    golden = GOLDEN["value"]["edge:registered_intenum"]
    assert type(decode_value(bytes.fromhex(golden))).__module__ == \
        "repro.openflow.messages"


# -- typed decode errors ----------------------------------------------

MALFORMED = {
    "empty": b"",
    "bad_utf8": b"\x04\x00\x00\x00\x02\xff\xfe",
    "short_float": b"\x03\x00\x00",
    "short_str_len": b"\x04\x00\x00",
    "unknown_tag": b"\x63",
    "unknown_enum_member": b"\x0e\x00\x7e",
    "unknown_schema_id": b"\x0d\xfe\x7f\x00",
    "schema_missing_required_field": b"\x0d\x24\x00",   # Output, 0 fields
    "named_dataclass_wrong_field": (
        b"\x08\x00\x00\x00\x05Match\x01\x00\x00\x00\x03zzz\x00"),
    "unhashable_dict_key": b"\x0a\x02\x06" + b"\x00" * 8 + b"\x00",
    "unhashable_set_member": b"\x0b\x02\x0a\x00",
    "forged_list_length": b"\x06\x7f" + b"\xff" * 7 + b"\x00",
    "forged_dict_length": b"\x0a" + b"\xfe" * 9 + b"\x01",
    "varint_too_long": b"\x0f" + b"\x80" * 12 + b"\x00",
    # Negative ids and counts: a zigzag-odd id once indexed the table
    # from its end (``Output(port=1)`` with its id byte set to 0x01 read
    # as ``SetIpDst(ip_dst=1)``), and a count of -1 read as empty.
    "negative_schema_id": b"\x0d\x01\x01\x0f\x02",
    "negative_enum_id": b"\x0e\x01\x00",
    "negative_list_length": b"\x06" + b"\xff" * 8,
    "negative_dict_count": b"\x0a\x01",
    "negative_set_count": b"\x0b\x01",
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_buffers_raise_serialization_error(data):
    with pytest.raises(SerializationError):
        decode_value(data)
    with pytest.raises(SerializationError):
        decode_state_value(b"\x01" + data)


def test_a_negative_schema_id_never_indexes_from_the_end():
    """Id -1 in front of the last schema's own fields: they would fit,
    so only the id check stands between these bytes and a value."""
    instances = wire_cases.schema_instances()
    table = schema_table()
    data = bytearray(encode_value(instances[max(table, key=table.get)]))
    data[1] = 0x01                      # zigzag -1, one byte
    with pytest.raises(SerializationError, match="unknown schema id"):
        decode_value(bytes(data))


def test_malformed_message_bodies_raise_serialization_error():
    good = bytes.fromhex(GOLDEN["message"]["FlowMod"])
    for cut in range(len(good)):
        with pytest.raises(SerializationError):
            decode_message(good[:cut])
    # A field that decodes but cannot construct the message.
    header, body = good[:9], bytearray(good[9:])
    body[0] = 200                       # more fields than FlowMod has
    with pytest.raises(SerializationError):
        decode_message(header + bytes(body))


# -- decoder fuzz -----------------------------------------------------

def _vectors():
    for name, hexed in GOLDEN["value"].items():
        yield f"{name}:packed", bytes.fromhex(hexed), decode_value
    for name, hexed in GOLDEN["message"].items():
        yield f"msg:{name}:packed", bytes.fromhex(hexed), decode_message
    for name, hexed in GOLDEN["state"].items():
        # The whole buffer, marker byte included: nothing behind any
        # marker is exempt.
        yield f"state:{name}", bytes.fromhex(hexed), decode_state_value
    by_group = {"msg": decode_message, "state": decode_state_value}
    for label, data in RETIRED.items():
        yield label, data, by_group.get(label.split(":")[0], decode_value)


VECTORS = list(_vectors())


def _decodes_or_rejects(decode, data) -> None:
    """Any buffer either parses to *some* value or is rejected with the
    one typed error -- never IndexError, struct.error, UnicodeDecodeError,
    TypeError, ... (pytest reports whatever else escapes)."""
    try:
        decode(data)
    except SerializationError:
        pass


@pytest.mark.parametrize("label,data,decode", VECTORS,
                         ids=[v[0] for v in VECTORS])
def test_fuzz_prefixes_and_bit_flips(label, data, decode):
    rng = random.Random(label)
    # Every strict prefix of the short vectors, a seeded sample of the
    # long ones (the 2000-entry MAC table has 48k of them).
    cuts = range(len(data)) if len(data) <= 600 else \
        sorted(rng.sample(range(len(data)), 600))
    for cut in cuts:
        _decodes_or_rejects(decode, data[:cut])
    for _ in range(300):
        mutated = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        _decodes_or_rejects(decode, bytes(mutated))


def test_forged_lengths_are_rejected_before_looping():
    """A flipped length byte must not buy a 2^63-step loop: the length
    is checked against the bytes that remain."""
    frame = wire_cases.schema_instances()["ContextPush"]
    data = bytearray(encode_value(frame))
    at = data.index(b"\x07" + b"\x00" * 7)      # a tuple's i64 length
    data[at + 1] = 0x7F                          # now ~2^63 items
    with pytest.raises(SerializationError):
        decode_value(bytes(data))
