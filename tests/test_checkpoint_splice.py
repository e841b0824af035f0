"""A fold splices the kept entry encodings, and writes what a whole
encode writes.

A dict-valued key due a fold is not re-encoded: the store keeps a
mirror of it (each entry's value and encoding, as of the newest
finalised image) and joins the encodings when the fold's copy holds
exactly the mirrored objects in the mirrored order.  Driven through
sets, in-place updates, deletes, delete-then-re-add, unmarked swaps
between equal values of different types (``1`` / ``True`` / ``1.0``,
``0.0`` / ``-0.0``), lists mutated in place, non-``str`` keys, a
``defaultdict`` and restores to the newest and to older entries
(hypothesis), every freshly written base must equal
``encode_state_value`` of the live value at its take, every
``state_size`` the sum of its buffers, and every mirror must encode
the image it stands for.
"""

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

from repro.apps import LearningSwitch, SDNApp
from repro.core.crashpad import checkpoint
from repro.core.crashpad.checkpoint import CheckpointStore, decode_state
from repro.openflow.serialization import (
    encode_state_entries,
    encode_state_value,
    splice_state_dict,
)

from test_checkpoint_entries import NullAPI, pktin


class TableApp(SDNApp):
    """A tracked app holding one dict-valued key ``t`` and a counter."""

    name = "table"

    def __init__(self, factory):
        super().__init__()
        self.factory = factory
        self.table = factory()
        self.count = 0
        self.enable_dirty_tracking()

    def get_state(self):
        return {"t": self.table, "n": self.count}

    def set_state(self, state):
        self.table = self.factory(state["t"])
        self.count = state["n"]


FACTORIES = {"dict": dict, "defaultdict": lambda *a: defaultdict(int, *a)}

#: Non-``str`` keys too; no two of them hash alike.
KEYS = st.sampled_from(["a", "b", "c", "dd", 7, 300, 5000, -2,
                        ("s", 1), b"k"])
#: Values an entry may hold; each atom in its own object, so that
#: identity and equality part where the types do.
VALUES = st.sampled_from([1, True, 1.0, 0, False, 0.0, -0.0, 4095, 4096,
                          -7, 2 ** 70, "x", "", b"\x00", None,
                          (1, "t"), ("t", (2.5, None))])
#: An equal value of another type, swapped in unmarked.  (``0.0`` and
#: ``-0.0`` are one key here: both go to ``False``.)
SWAPS = {(int, 1): True, (bool, True): 1.0, (float, 1.0): 1,
         (int, 0): -0.0, (float, 0.0): False, (bool, False): 0}
INDEX = st.integers(min_value=0, max_value=50)
OPS = st.one_of(
    st.tuples(st.just("set_entry"), KEYS, VALUES),
    st.tuples(st.just("delete_entry"), INDEX),
    st.tuples(st.just("readd_entry"), INDEX),
    st.tuples(st.just("swap_unmarked"), INDEX),
    st.tuples(st.just("grow_list"), INDEX, st.booleans()),
    st.tuples(st.just("bump")))


def assert_mirrors_encode_the_newest_image(store):
    """Each kept mirror stands for the key in the newest finalised
    image: the same entries, in order, encoded the same way."""
    for key, mirror in store._mirrors.items():
        if mirror is None:
            continue
        values, codes = mirror
        image = decode_state({key: store._prev.buffers[key]})[key]
        assert splice_state_dict(codes.values()) == encode_state_value(image)
        assert encode_state_entries(values) == codes
        assert list(values) == list(codes)


def fresh_base(entry, before, key="t"):
    """``entry``'s base for ``key`` if this entry wrote it (a fold or a
    whole encode), not shared or patched from its predecessor."""
    buffers = entry.buffers.get(key)
    if (buffers is None or len(buffers) != 1
            or (before is not None and before.buffers.get(key) is buffers)):
        return None
    return buffers[0]


class SpliceEqualsWholeEncode(RuleBasedStateMachine):
    @initialize(kind=st.sampled_from(sorted(FACTORIES)),
                entries=st.dictionaries(KEYS, VALUES, min_size=4),
                always_fold=st.booleans())
    def build(self, kind, entries, always_fold):
        self.app = TableApp(FACTORIES[kind])
        self.app.table.update(entries)
        self.store = CheckpointStore(keep=4, full_every=3)
        if always_fold:     # every dirty take of ``t`` folds
            self.store.fold_fraction = -1
        self.seq = 0
        self.take()

    def pick(self, index):
        """An entry of the table by position, or None if it is empty."""
        entries = list(self.app.table)
        return entries[index % len(entries)] if entries else None

    def set_entry(self, entry, value):
        self.app.table[entry] = value
        self.app.mark_dirty("t", entry)

    def delete_entry(self, index):
        entry = self.pick(index)
        if entry is not None:
            del self.app.table[entry]
            self.app.mark_dirty("t", entry)

    def readd_entry(self, index):
        """Delete then re-add: same entries, another order."""
        entry = self.pick(index)
        if entry is not None:
            self.set_entry(entry, self.app.table.pop(entry))

    def swap_unmarked(self, index):
        swappable = [(entry, value) for entry, value in self.app.table.items()
                     if type(value) in (int, bool, float)
                     and (type(value), value) in SWAPS]
        if swappable:
            entry, value = swappable[index % len(swappable)]
            self.app.table[entry] = SWAPS[type(value), value]

    def grow_list(self, index, mark):
        """A list value mutated in place: the same object, new bytes."""
        entry = self.pick(index)
        value = self.app.table.get(entry)
        if type(value) is not list:
            self.set_entry(entry, [0])
        else:
            value.append(len(value))
            if mark:
                self.app.mark_dirty("t", entry)

    def bump(self):
        self.app.count += 1
        self.app.mark_dirty("n")

    @rule(ops=st.lists(OPS, max_size=4))
    def step(self, ops):
        """Some changes, then a take."""
        for name, *args in ops:
            getattr(self, name)(*args)
        self.take()

    def take(self):
        """A take whose freshly written base for ``t``, if it wrote
        one, is the whole encode of the table."""
        self.seq += 1
        expected = encode_state_value(self.app.table)
        before = self.store._prev
        entry = self.store.take(self.app, before_seq=self.seq,
                                now=float(self.seq))
        base = fresh_base(entry, before)
        assert base is None or base == expected

    @precondition(lambda self: self.store.count)
    @rule()
    def restore_newest(self):
        self.store.restore(self.app, self.store.latest())

    @precondition(lambda self: self.store.count)
    @rule(data=st.data())
    def restore_any(self, data):
        target = data.draw(st.sampled_from(self.store.history()))
        self.store.restore(self.app, target)

    @invariant()
    def sizes_are_the_resum(self):
        for entry in self.store.history():
            assert entry.state_size == sum(
                len(buf) for buffers in entry.buffers.values()
                for buf in buffers)

    @invariant()
    def mirrors_encode_the_newest_image(self):
        assert_mirrors_encode_the_newest_image(self.store)


SpliceEqualsWholeEncode.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None)
TestSpliceEqualsWholeEncode = SpliceEqualsWholeEncode.TestCase


# -- a warm fold ------------------------------------------------------------

def counting_encodes(monkeypatch):
    """Values :func:`encode_state_value` is called on in the store."""
    seen = []
    original = checkpoint.encode_state_value

    def counting(value):
        seen.append(value)
        return original(value)
    monkeypatch.setattr(checkpoint, "encode_state_value", counting)
    return seen


def learn(app, store, start, count):
    for i in range(start, start + count):
        store.take(app, before_seq=i, now=float(i))
        app.handle(pktin(f"02:00:00:00:{i >> 8:02x}:{i & 0xFF:02x}",
                         port=1 + i % 3))


@pytest.mark.parametrize("restored", [False, True])
def test_a_warm_fold_splices_without_a_whole_encode(monkeypatch, restored):
    """Also after a restore to the newest entry, which keeps the
    mirrors."""
    app, store = LearningSwitch(), CheckpointStore()
    app.startup(NullAPI())
    learn(app, store, 1, 400)               # first folds build mirrors
    if restored:
        store.restore(app, store.latest())
    seen = counting_encodes(monkeypatch)
    folds = 0
    for i in range(401, 801):
        cp = store.take(app, before_seq=i, now=float(i))
        if len(cp.buffers["macs", 1]) == 1:
            folds += 1
            assert cp.buffers["macs", 1][0] == encode_state_value(
                app.mac_tables[1])
        app.handle(pktin(f"02:00:00:00:{i >> 8:02x}:{i & 0xFF:02x}",
                         port=1 + i % 3))
    assert folds >= 3
    assert not [v for v in seen if type(v) is dict], \
        "a warm fold re-encoded the whole table"


def test_a_restore_to_the_newest_entry_keeps_the_mirror():
    app, store = LearningSwitch(), CheckpointStore()
    app.startup(NullAPI())
    learn(app, store, 1, 400)
    store.restore(app, store.latest())
    assert store._mirrors["macs", 1] is not None
    older = store.history()[0]
    store.restore(app, older)
    assert not any(store._mirrors.values())
    assert store._sizes == {key: sum(map(len, buffers))
                            for key, buffers in older.buffers.items()}


def test_a_non_atom_table_is_encoded_whole_at_every_fold():
    app = TableApp(dict)
    app.table.update({f"m{i}": [i] for i in range(50)})
    store = CheckpointStore()
    for seq in range(1, 40):
        cp = store.take(app, before_seq=seq, now=float(seq))
        if len(cp.buffers["t"]) == 1:
            assert cp.buffers["t"][0] == encode_state_value(app.table)
        app.table[f"m{seq}"] = [seq, seq]
        app.mark_dirty("t", f"m{seq}")
    assert not any(store._mirrors.values())


# -- the three mistakes the machine must catch, each pinned by hand -----

def warm_table(store):
    """A ``TableApp`` whose table has folded twice under ``store``."""
    app = TableApp(dict)
    app.table.update({"a": 1, "b": 0.0, "c": "x", "d": 7})
    store.fold_fraction = -1                # every dirty take folds
    for seq, value in enumerate(("y", "z", "w"), start=1):
        app.table["c"] = value
        app.mark_dirty("t", "c")
        store.take(app, before_seq=seq, now=float(seq))
    assert store._mirrors["t"] is not None
    return app


def unmarked_swaps(app, store):
    """``1`` -> ``True`` and ``0.0`` -> ``-0.0``: equal, encoded apart."""
    app.table["a"], app.table["b"] = True, -0.0


def readd(app, store):
    """Same entries, ``a`` moved last."""
    app.table["a"] = app.table.pop("a")
    app.mark_dirty("t", "a")


def restore_older(app, store):
    store.restore(app, store.history()[0])
    assert_mirrors_encode_the_newest_image(store)


@pytest.mark.parametrize("change", [unmarked_swaps, readd, restore_older])
def test_a_fold_after_each_hazard_writes_the_whole_encode(change):
    store = CheckpointStore()
    app = warm_table(store)
    change(app, store)
    app.table["d"] += 1
    app.mark_dirty("t", "d")
    entry = store.take(app, before_seq=10, now=10.0)
    assert entry.buffers["t"] == (encode_state_value(app.table),)
    assert_mirrors_encode_the_newest_image(store)
