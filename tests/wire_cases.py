"""The values behind ``tests/data/wire_golden.json``.

The JSON file holds the bytes the codec produced for these values at
the commit *before* the codec was compiled (PR 15); the tests in
``test_wire_golden.py`` hold every later codec to them.  Running this
file (``PYTHONPATH=src python tests/wire_cases.py``) rewrites the JSON
from the checked-out codec -- only ever do that on purpose, when the
wire format is meant to change.

Three groups, ``name -> hex``:

- ``value``: ``encode_value`` -- one populated instance of every
  registered schema (which covers every ``rpc`` and
  ``replication.frames`` frame type) plus the container and precedence
  edge cases that are observable on the wire;
- ``message``: ``encode_message``, one per message type;
- ``state``: ``encode_state_value``.

A case whose expected decoding is :data:`UNENCODABLE` has no bytes: the
encoder must refuse it.

``tests/data/wire_retired.json`` is the other half of the record and is
never regenerated: the vectors the golden file held when PR 17 deleted
the ``named`` format, the named-enum form of unregistered enums and the
pickle state fallback -- ``<case>:named``, the three
``edge:unregistered_*:packed`` and ``state:pickle_fallback`` -- and,
from PR 18, ``schema:<name>:packed`` of the three frames the datagram
header replaced (:data:`RETIRED_SCHEMAS`).  No encoder writes those
bytes any more, and the decoder must refuse them.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import importlib
import json
import pathlib
import pkgutil
import sys
import typing
from typing import Dict, List, Tuple

import repro
from repro.openflow import serialization
from repro.openflow.actions import Drop, Flood, Output, SetEthDst
from repro.openflow.messages import FlowModCommand, Message, PacketInReason

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "wire_golden.json"
RETIRED_PATH = GOLDEN_PATH.with_name("wire_retired.json")

#: In place of a case's decoded value: encoding it must raise.
UNENCODABLE = object()
#: In place of a case's value: its schema no longer exists.
RETIRED = object()
#: Frames the channel's datagram layout replaced (PR 18).  Their case
#: ids stay, as refusals of the bytes they had.
RETIRED_SCHEMAS = ("FrameBatch", "SeqEnvelope", "ChannelAck")


def import_every_schema() -> None:
    """Schemas register at import; pull in every ``repro`` module so
    the schema table is the full one whatever ran before."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


# -- a populated instance of every registered schema ------------------

class _Populator:
    """Builds dataclass instances from their annotations, every scalar
    distinct so a swapped field order changes the bytes."""

    def __init__(self, classes: Dict[str, type]):
        self._classes = classes
        self._n = 0

    def _next(self) -> int:
        self._n += 1
        return self._n

    def instance(self, cls: type, depth: int = 0):
        hints = typing.get_type_hints(cls)
        kwargs = {f.name: self._field(cls, f.name, hints[f.name], depth)
                  for f in dataclasses.fields(cls)}
        return cls(**kwargs)

    def _field(self, cls: type, name: str, hint, depth: int):
        if hint is object:
            return self._payload(name, depth)
        if name == "actions":       # Tuple[Action, ...]: abstract base
            return (Output(port=self._next()), SetEthDst(eth_dst="aa:bb"),
                    Flood(), Drop())
        return self._value(hint, depth)

    def _payload(self, name: str, depth: int):
        """The ``object``-typed slots: what the stack really puts there."""
        c = self._classes
        if depth > 1:
            return None
        if name == "packet":
            return self.instance(c["Packet"], depth + 1)
        if name == "event":
            return self.instance(c["PacketIn"], depth + 1)
        if name == "message":
            return self.instance(c["FlowMod"], depth + 1)
        raise AssertionError(f"no payload rule for object field {name!r}")

    def _value(self, hint, depth: int):
        origin = typing.get_origin(hint)
        args = typing.get_args(hint)
        if origin is typing.Union:          # Optional[X]: populate X
            return self._value(args[0], depth)
        if origin is tuple:
            if len(args) == 2 and args[1] is Ellipsis:
                if args[0] is object:
                    return self._object_tuple(depth)
                return (self._value(args[0], depth),
                        self._value(args[0], depth))
            return tuple(self._value(a, depth) for a in args)
        if origin is list:
            return [self._value(args[0], depth), self._value(args[0], depth)]
        if hint is bool:
            return self._next() % 2 == 0
        if hint is int:
            # Alternate 1-byte and multi-byte varints.
            n = self._next()
            return n if n % 2 else n * 1000 + 300
        if hint is float:
            return self._next() + 0.25
        if hint is str:
            return f"s{self._next()}"
        if hint is bytes:
            return bytes([self._next() % 256, 0, 255])
        if isinstance(hint, type) and issubclass(hint, enum.Enum):
            members = list(hint)
            return members[self._next() % len(members)]
        if dataclasses.is_dataclass(hint):
            return self.instance(hint, depth + 1)
        raise AssertionError(f"no rule to populate {hint!r}")

    def _object_tuple(self, depth: int):
        """``Tuple[object, ...]``: RecordShip.inverses."""
        c = self._classes
        if depth > 0:
            return ()
        return (self.instance(c["FlowMod"], depth + 1),
                self.instance(c["Heartbeat"], depth + 1))


@functools.lru_cache(maxsize=None)
def schema_instances() -> Dict[str, object]:
    """One populated instance per registered schema, by class name
    (built once; callers only read them)."""
    import_every_schema()
    classes = {}
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not name.startswith("repro"):
            continue
        for obj in list(vars(module).values()):
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__name__ in serialization.schema_table()):
                classes[obj.__name__] = obj
    populate = _Populator(classes)
    return {name: populate.instance(classes[name])
            for name in serialization.schema_table()}


# -- container and precedence edge cases ------------------------------

class Colour(enum.Enum):
    """Never registered: has no enum id, so it cannot be encoded."""
    RED = 3


class Level(enum.IntEnum):
    """Unregistered IntEnum: must be refused as an enum, not pass for
    the ``int`` it also is."""
    HIGH = 9


class Mac(str):
    pass


Pair = collections.namedtuple("Pair", "left right")


def edge_cases() -> List[Tuple[str, object, object]]:
    """``(name, value, decoded)`` -- ``decoded`` is what the bytes parse
    back to (equal to ``value``), or :data:`UNENCODABLE`."""
    counts = collections.defaultdict(int, {"a": 1, "b": -2})
    ordered = collections.OrderedDict([("z", 1), ("a", 2)])
    same = [
        ("none", None),
        ("true", True),
        ("false", False),
        ("int_zero", 0),
        ("int_minus_one", -1),
        ("int_one_byte_max", 63),
        ("int_two_bytes", 64),
        ("int_i64_max", 2**63 - 1),
        ("int_i64_min", -(2**63)),
        ("float", 1.5),
        ("float_neg_zero", -0.0),
        ("float_inf", float("inf")),
        ("str_empty", ""),
        ("str_unicode", "héllo ✓"),
        ("str_subclass", Mac("00:00:00:00:00:01")),
        ("bytes_empty", b""),
        ("bytes", b"\x00\xffab"),
        ("list_empty", []),
        ("tuple_empty", ()),
        ("dict_empty", {}),
        ("set_empty", set()),
        ("frozenset_empty", frozenset()),
        ("list_mixed", [1, "two", (3, None), [True, b"x"], 2.5]),
        ("tuple_nested", ((1, 2), (), ((3,),))),
        ("namedtuple", Pair(1, "r")),
        ("dict_insertion_order", {"z": 1, "a": [2], 7: {"k": None}}),
        ("defaultdict", counts),
        ("ordereddict", ordered),
        ("set_ints_sorted", {30, 4, -5, 1000}),
        ("set_strs_sorted", {"b", "a", "c"}),
        ("set_mixed_sorted_by_repr", {1, "a", (2, 3)}),
        ("frozenset", frozenset({"y", "x"})),
        ("registered_intenum", FlowModCommand.DELETE_STRICT),
        ("enum_in_containers", [PacketInReason.ACTION,
                                {"k": FlowModCommand.ADD}]),
        ("bool_int_enum_precedence", (True, 1, FlowModCommand.MODIFY, 1.0)),
        ("dict_key_and_int_kinds", {"a": 4095, "b": 4096, "c": -1, 5: 63,
                                    "t": True, Mac("m"): 2**40, b"k": "v"}),
        ("dataclasses_in_containers", (Output(port=4), [Flood(), Drop()],
                                       {"act": SetEthDst(eth_dst="m")})),
    ]
    cases = [(name, value, value) for name, value in same]
    cases += [
        ("unregistered_enum", Colour.RED, UNENCODABLE),
        ("unregistered_intenum", Level.HIGH, UNENCODABLE),
        ("unregistered_enum_nested", {"c": (Colour.RED, Level.HIGH)},
         UNENCODABLE),
    ]
    return cases


def value_cases() -> List[Tuple[str, object, object]]:
    cases = [(f"schema:{name}", value, value)
             for name, value in schema_instances().items()]
    cases += [(f"schema:{name}", RETIRED, RETIRED)
              for name in RETIRED_SCHEMAS]
    cases += [(f"edge:{name}", value, decoded)
              for name, value, decoded in edge_cases()]
    return cases


def message_cases() -> List[Tuple[str, object]]:
    instances = schema_instances()
    return [(cls.__name__, instances[cls.__name__])
            for cls in Message.__subclasses__()
            if cls.__module__ == Message.__module__]


def state_cases() -> List[Tuple[str, object, object]]:
    mac_table = {f"00:00:00:00:{i >> 8:02x}:{i & 0xff:02x}": i % 48
                 for i in range(2000)}
    nested = {"hosts": {"a": (1, 2)}, "seen": {3, 1, 2},
              "rules": [Output(port=1)], "t": 0.5}
    return [
        ("mac_table_2000", mac_table, mac_table),
        ("nested_state", nested, nested),
        # No tag for complex (the case is named for what used to
        # happen to such a value).
        ("pickle_fallback", {"opaque": complex(1, 2)}, UNENCODABLE),
    ]


def generate() -> dict:
    return {
        "value": {name: serialization.encode_value(value).hex()
                  for name, value, decoded in value_cases()
                  if decoded is not UNENCODABLE
                  and decoded is not RETIRED},
        "message": {name: serialization.encode_message(msg).hex()
                    for name, msg in message_cases()},
        "state": {name: serialization.encode_state_value(value).hex()
                  for name, value, decoded in state_cases()
                  if decoded is not UNENCODABLE},
    }


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=0, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")
