"""A restore copies the kept captures only where that is exact.

:meth:`CheckpointStore.state` builds a checkpoint's state from the
values its buffers encoded wherever a key's values are all atoms
(``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes`` and tuples
of them) in a plain ``dict`` or ``list``, and decodes the key's buffers
otherwise.  Driven through whole takes, patches, folds, dedups and
restores (hypothesis), it must build
exactly what :func:`decode_state` of the buffers builds -- equal in
value, in exact type and in dict and list order, all the way down --
share no mutable object between two calls, and decode every key that
holds anything else: a set (the codec writes its members sorted), a
``defaultdict``, a ``str`` subclass, a frozen dataclass, a nested list.
"""

import copy
import dataclasses
from collections import defaultdict

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.apps import SDNApp
from repro.core.crashpad import checkpoint
from repro.core.crashpad.checkpoint import CheckpointStore, decode_state
from repro.openflow.actions import Output


class Name(str):
    """A ``str`` subclass: the codec writes it as a ``str``."""


class ValuesApp(SDNApp):
    """A tracked app whose state is whatever the machine puts in it."""

    name = "values"

    def __init__(self):
        super().__init__()
        self.values = {"xd": {"anchor": {1, 2}}}
        self.enable_dirty_tracking()

    def get_state(self):
        return dict(self.values)

    def set_state(self, state):
        self.values = dict(state)


# -- values -------------------------------------------------------------

#: The decoder reads a varint of at most ten bytes.
INTS = st.integers(min_value=-2 ** 63, max_value=2 ** 63)
ATOMS = st.one_of(
    st.none(), st.booleans(), INTS,
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.binary(max_size=4))
#: Atoms and tuples of them, nested.
PLAIN_ATOMS = st.recursive(
    ATOMS, lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8)
PLAIN = st.one_of(
    PLAIN_ATOMS,
    st.lists(PLAIN_ATOMS, max_size=5),
    st.dictionaries(PLAIN_ATOMS, PLAIN_ATOMS, max_size=8))
EXOTIC = st.one_of(
    st.sets(PLAIN_ATOMS, max_size=5),
    st.frozensets(PLAIN_ATOMS, max_size=5),
    st.dictionaries(st.text(max_size=3), INTS).map(
        lambda d: defaultdict(int, d)),
    st.text(max_size=4).map(Name),
    st.builds(Output, port=st.integers(min_value=0, max_value=2 ** 16)),
    st.lists(st.lists(PLAIN_ATOMS, max_size=3), min_size=1, max_size=3),
    st.tuples(PLAIN_ATOMS, st.lists(PLAIN_ATOMS, max_size=3)),
    st.dictionaries(st.text(max_size=3), st.sets(INTS),
                    min_size=1, max_size=3),
    st.dictionaries(st.one_of(st.text(max_size=3).map(Name),
                              st.frozensets(INTS, max_size=2),
                              st.builds(Output, port=INTS)),
                    INTS, min_size=1, max_size=3))
#: Keys that only ever hold plain values, and keys that only ever hold
#: exotic ones.  ``xd`` is a dict patched entry by entry around an
#: ``anchor`` set that never leaves it.
PLAIN_KEYS = st.sampled_from(["p0", "p1", "p2"])
EXOTIC_KEYS = st.sampled_from(["x0", "x1"])
DECODED = {"x0", "x1", "xd"}


# -- exactness ----------------------------------------------------------

def assert_exact(got, want, path="state"):
    """Equal in value, in exact type, and in dict / list order, all the
    way down (a float by ``repr``, so ``-0.0`` is not ``0.0``)."""
    assert type(got) is type(want), (path, type(got), type(want))
    if type(want) is dict:
        assert len(got) == len(want), path
        for (gk, gv), (wk, wv) in zip(got.items(), want.items()):
            assert_exact(gk, wk, f"{path} key")
            assert_exact(gv, wv, f"{path}[{wk!r}]")
    elif type(want) in (list, tuple):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_exact(g, w, f"{path}[{i}]")
    elif type(want) in (set, frozenset):
        assert sorted(map(repr, got)) == sorted(map(repr, want)), path
    elif dataclasses.is_dataclass(want):
        assert got == want, path
    else:
        assert repr(got) == repr(want), path


def mutable_ids(value, found):
    """``id``s of the mutable objects reachable from ``value``."""
    if isinstance(value, (dict, list, set)) or dataclasses.is_dataclass(value):
        found.add(id(value))
    if isinstance(value, dict):
        for key, item in value.items():
            mutable_ids(key, found)
            mutable_ids(item, found)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            mutable_ids(item, found)
    return found


def assert_copies_exactly(store, cp):
    """``store.state(cp)`` is ``decode_state`` of ``cp``'s buffers, to
    the type and the order; two calls share no mutable object; and what
    it decodes is exactly the buffers of the keys in ``DECODED``."""
    decoded = []
    original = checkpoint.decode_state_value

    def counting(buf):
        decoded.append(buf)
        return original(buf)

    checkpoint.decode_state_value = counting
    try:
        first = store.state(cp)
    finally:
        checkpoint.decode_state_value = original
    second = store.state(cp)
    oracle = decode_state(store.buffers(cp))
    assert_exact(first, oracle)
    assert_exact(second, oracle)
    assert not mutable_ids(first, set()) & mutable_ids(second, set())
    assert decoded == [buf for key, buffers in cp.buffers.items()
                       if key in DECODED for buf in buffers]


#: One value of each kind a restore must decode, whatever the
#: interleaving that brings it there.
NON_ATOMS = {
    "set": {3, 1, 2},
    "frozenset": frozenset({"b", "a"}),
    "defaultdict": defaultdict(int, {"a": 1}),
    "empty-defaultdict": defaultdict(list),
    "str-subclass": Name("x"),
    "dataclass": Output(port=3),
    "nested-list": [[1], [2]],
    "tuple-holding-a-list": (1, [2]),
    "tuple-holding-a-set": (1, (2, {3})),
    "dict-of-sets": {"a": {1}},
    "dict-keyed-by-a-subclass": {Name("k"): 1},
    "dict-keyed-by-a-frozenset": {frozenset({1}): 1},
}


@pytest.mark.parametrize("in_base", [False, True])
@pytest.mark.parametrize("kind", sorted(NON_ATOMS))
def test_each_non_atom_is_decoded(kind, in_base):
    """Whether the value arrives in a delta take or is already in the
    first, full one."""
    app, store = ValuesApp(), CheckpointStore()
    app.values["p0"] = {"plain": (1, ("nested", 2.5))}
    if in_base:
        app.values["x0"] = copy.deepcopy(NON_ATOMS[kind])
    first = store.take(app, before_seq=1, now=0.0)
    if not in_base:
        app.values["x0"] = copy.deepcopy(NON_ATOMS[kind])
        app.mark_dirty("x0")
    cp = store.take(app, before_seq=2, now=1.0)
    assert cp is not first and ("x0" in first.buffers) == in_base
    assert_copies_exactly(store, cp)


def test_a_patched_table_is_copied_with_its_patches_in_order():
    app, store = ValuesApp(), CheckpointStore()
    app.values["p0"] = {f"m{i}": i for i in range(2_000)}
    store.take(app, before_seq=1, now=0.0)
    for seq in range(2, 8):
        table = app.values["p0"]
        table[f"new{seq}"], table["m7"] = (seq, "x"), -seq
        del table[f"m{seq}"]
        for entry in (f"new{seq}", "m7", f"m{seq}"):
            app.mark_dirty("p0", entry)
        cp = store.take(app, before_seq=seq, now=float(seq))
        assert len(cp.buffers["p0"]) == seq     # the base, then patches
        assert_copies_exactly(store, cp)
        assert store.state(cp)["p0"] == table


class CopiedEqualsDecoded(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.app = ValuesApp()
        self.store = CheckpointStore(keep=5, full_every=3)
        self.references = {}        # before_seq -> state at that take
        self.seq = 0
        self.take()

    def mark(self, key, value):
        self.app.values[key] = value
        self.app.mark_dirty(key)

    @rule(key=PLAIN_KEYS, value=PLAIN)
    def put_plain(self, key, value):
        self.mark(key, value)

    @rule(key=EXOTIC_KEYS, value=EXOTIC)
    def put_exotic(self, key, value):
        self.mark(key, value)

    @rule(key=PLAIN_KEYS, entries=st.dictionaries(
        INTS, INTS, min_size=40, max_size=80))
    def put_big_table(self, key, entries):
        """A base big enough to carry a few patches before its fold."""
        self.mark(key, entries)

    @rule(key=st.sampled_from(["p0", "p1", "p2", "x0", "x1"]))
    def delete(self, key):
        if self.app.values.pop(key, None) is not None:
            self.app.mark_dirty(key)

    @rule(key=PLAIN_KEYS, entry=PLAIN_ATOMS, value=PLAIN_ATOMS)
    def set_entry(self, key, entry, value):
        table = self.app.values.get(key)
        if type(table) is dict:
            table[entry] = value
            self.app.mark_dirty(key, entry)
        else:
            self.mark(key, {entry: value})

    @rule(key=PLAIN_KEYS, data=st.data())
    def drop_entry(self, key, data):
        table = self.app.values.get(key)
        if type(table) is dict and table:
            entry = data.draw(st.sampled_from(list(table)))
            del table[entry]
            self.app.mark_dirty(key, entry)

    @rule(entry=INTS, value=PLAIN_ATOMS | EXOTIC)
    def set_anchored_entry(self, entry, value):
        self.app.values["xd"][entry] = value
        self.app.mark_dirty("xd", entry)

    @rule()
    def take(self):
        self.seq += 1
        self.references[self.seq] = copy.deepcopy(self.app.get_state())
        self.store.take(self.app, before_seq=self.seq, now=float(self.seq))

    @precondition(lambda self: self.store.count)
    @rule(data=st.data())
    def restore(self, data):
        target = data.draw(st.sampled_from(self.store.history()))
        self.store.restore(self.app, target)
        assert self.app.get_state() == self.references[target.before_seq]

    @invariant()
    def every_image_copies_exactly_what_it_decodes(self):
        for cp in self.store.history():
            assert_copies_exactly(self.store, cp)
            assert (decode_state(self.store.buffers(cp))
                    == self.references[cp.before_seq])


CopiedEqualsDecoded.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestCopiedEqualsDecoded = CopiedEqualsDecoded.TestCase
