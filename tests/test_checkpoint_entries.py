"""Entry-level state deltas: from ``mark_dirty(key, entry)`` to restore.

The contracts under test:

- the app-side bookkeeping (an entry mark, a whole-key mark that
  sticks, the collapse that bounds it, hand-over-and-forget);
- the store captures and encodes only the named entries, lays them as
  a patch over the key's base, and folds the key once its patches
  outweigh ``fold_fraction`` of that base;
- **deleting or replacing a dict-valued key is a whole-key change**: a
  table deleted and re-learned between two takes must never be stored
  as a patch over the dead table;
- the fault-injection wrappers checkpoint flat, forward the inner
  app's tracking and round-trip through buffers;
- **equivalence** (hypothesis): whatever the interleaving of
  mutations, takes, restores, evictions and folds, a
  tracked app's store and an untracked twin's decode to the same
  states -- the ones recorded when each take was made.
"""

import copy
import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.apps import LearningSwitch, SDNApp, SpanningTreeSwitch
from repro.controller.events import SwitchLeave
from repro.core.crashpad.checkpoint import (
    DELTA,
    CheckpointError,
    CheckpointStore,
    decode_state,
)
from repro.faults import (
    ArmedCrashApp,
    Bug,
    BugKind,
    FaultyApp,
    arm_crash_on,
    crash_on,
)
from repro.network.packet import tcp_packet
from repro.openflow.messages import PacketIn
from repro.openflow.serialization import decode_state_value


class TableApp(SDNApp):
    """Dict-valued state keys plus a scalar, mutated through the
    tracking contract (``tracked=False`` is the untracked twin: same
    mutations, no marks, every key whole on every take)."""

    name = "tables"

    def __init__(self, tracked=True):
        super().__init__()
        self.tables = {}
        self.n = 0
        if tracked:
            self.enable_dirty_tracking()

    def get_state(self):
        return {"n": self.n, **self.tables}

    def set_state(self, state):
        self.n = state["n"]
        self.tables = {key: dict(value) for key, value in state.items()
                       if key != "n"}

    def set_entry(self, key, entry, value):
        if key in self.tables:
            self.tables[key][entry] = value
            self.mark_dirty(key, entry)
        else:
            self.replace(key, {entry: value})

    def drop_entry(self, key, entry):
        if self.tables.get(key, {}).pop(entry, None) is not None:
            self.mark_dirty(key, entry)

    def replace(self, key, table):
        self.tables[key] = dict(table)
        self.mark_dirty(key)

    def delete(self, key):
        if self.tables.pop(key, None) is not None:
            self.mark_dirty(key)

    def bump(self):
        self.n += 1
        self.mark_dirty("n")


class NullAPI:
    def emit(self, dpid, msg):
        pass

    def log(self, text):
        pass


def pktin(src, dst="ff", dpid=1, port=1, payload=""):
    return PacketIn(dpid=dpid, in_port=port,
                    packet=tcp_packet(src, dst, "1.1.1.1", "2.2.2.2",
                                      payload=payload))


class TestMarks:
    def test_entry_marks_accumulate_until_handed_over(self):
        app = TableApp()
        app.mark_dirty("t", "a")
        app.mark_dirty("t", "b")
        app.mark_dirty("t", "a")
        assert list(app.dirty_entries()["t"]) == ["a", "b"]
        assert app.dirty_entries() == {}          # handed over, forgotten

    def test_a_whole_key_mark_sticks(self):
        app = TableApp()
        app.mark_dirty("t", "a")
        app.mark_dirty("t")
        app.mark_dirty("t", "b")                  # does not narrow it
        assert app.dirty_entries() == {"t": None}

    def test_unconsumed_marks_collapse_to_the_whole_key(self):
        """An app nobody checkpoints holds O(keys) bookkeeping."""
        app = TableApp()
        for entry in range(10 * SDNApp.MAX_MOVED_ENTRIES):
            app.mark_dirty("t", entry)
        assert app._moved_entries == {"t": None}
        app.dirty_entries()
        app.mark_dirty("t", 1)                    # starts over once asked
        assert list(app.dirty_entries()["t"]) == [1]
        full = range(SDNApp.MAX_MOVED_ENTRIES)
        for entry in full:
            app.mark_dirty("t", entry)
        app.mark_dirty("t", 5)                    # a re-mark adds nothing
        assert list(app.dirty_entries()["t"]) == list(full)

    def test_marks_are_a_no_op_while_tracking_is_off(self):
        app = TableApp(tracked=False)
        app.set_entry("t", "a", 1)
        assert app.dirty_entries() is None


class TestPatches:
    def big_table(self, store, entries=200):
        app = TableApp()
        app.replace("t", {f"e{i:03d}": i for i in range(entries)})
        store.take(app, before_seq=1, now=0.0)
        return app

    def test_one_entry_is_one_small_patch_over_the_base(self):
        store = CheckpointStore()
        app = self.big_table(store)
        base = store.latest().buffers["t"]
        app.set_entry("t", "e007", -7)
        app.drop_entry("t", "e008")
        cp = store.take(app, before_seq=2, now=1.0)
        assert cp.kind == DELTA
        assert cp.buffers["t"][:-1] == base        # laid over, not rewritten
        assert decode_state_value(cp.buffers["t"][-1]) == (
            {"e007": -7}, ("e008",))
        assert cp.size == len(cp.buffers["t"][-1]) < len(base[0]) / 20
        assert cp.state_size == store.history()[0].state_size + cp.size
        assert decode_state(store.buffers(cp)) == app.get_state()

    def test_a_deferred_patch_captures_entries_not_the_table(self):
        """The patch a take keeps is the named entries' values at the
        take, not the live table: a later write reaches no image."""
        store = CheckpointStore()
        app = self.big_table(store)
        app.set_entry("t", "e001", -1)
        cp = store.take(app, before_seq=2, now=1.0)
        patch = cp.captures["t"][-1]
        assert patch == ({"e001": -1}, ())
        reference = copy.deepcopy(app.get_state())
        app.set_entry("t", "e001", -2)             # after the take
        assert patch == ({"e001": -1}, ())
        assert decode_state(store.buffers(cp)) == reference
        assert store.state(cp) == reference

    def test_a_replaced_value_is_re_encoded_whole(self):
        store = CheckpointStore()
        app = self.big_table(store)
        app.replace("t", {"only": 1})
        cp = store.take(app, before_seq=2, now=1.0)
        assert len(cp.buffers["t"]) == 1
        assert decode_state(store.buffers(cp))["t"] == {"only": 1}

    def test_an_app_without_dirty_entries_is_whole_key(self):
        class StateOnly:
            name = "state-only"

            def __init__(self):
                self.table = {"a": 1}

            def get_state(self):
                return {"t": self.table}

        app, store = StateOnly(), CheckpointStore()
        store.take(app, before_seq=1, now=0.0)
        app.table["b"] = 2
        cp = store.take(app, before_seq=2, now=1.0)
        assert len(cp.buffers["t"]) == 1
        assert decode_state(store.buffers(cp)) == {"t": {"a": 1, "b": 2}}

    def test_a_key_is_folded_once_patches_outweigh_the_fraction(self):
        store = CheckpointStore(keep=256)
        app = self.big_table(store)
        folds = 0
        for seq in range(2, 200):
            app.set_entry("t", f"new{seq}", seq)
            cp = store.take(app, before_seq=seq, now=float(seq))
            base, *patches = cp.buffers["t"]
            if not patches:
                folds += 1
            else:
                # The rule looks at the patches already laid, so the
                # bound is the fraction plus the one patch that crossed it.
                assert (sum(map(len, patches[:-1]))
                        <= store.fold_fraction * len(base))
            assert decode_state(store.buffers(cp)) == app.get_state()
        assert folds >= 3

    def test_a_failed_take_loses_no_change(self):
        """Marks are consumed by the take that asked; if that take
        dies, the next one trusts no mark and encodes every key whole."""
        store = CheckpointStore()
        app = self.big_table(store)
        app.set_entry("t", "e001", -1)
        app.replace("u", {"x": object()})          # outside the contract
        with pytest.raises(CheckpointError):
            store.take(app, before_seq=2, now=1.0)
        app.replace("u", {"x": 1})
        cp = store.take(app, before_seq=3, now=2.0)
        assert len(cp.buffers["t"]) == 1
        assert decode_state(store.buffers(cp))["t"]["e001"] == -1
        assert decode_state(store.buffers(cp)) == app.get_state()

    def test_a_restore_drops_the_crashed_handlers_marks(self):
        """What the handler that crashed marked is rolled back with
        the state it described: the next take patches only what the
        replay marked over the restored image."""
        store = CheckpointStore()
        app = self.big_table(store)
        first = store.latest()
        app.set_entry("t", "e005", -5)             # the crashed handler
        store.restore(app, first)
        app.set_entry("t", "e007", 77)             # the replay
        cp = store.take(app, before_seq=2, now=1.0)
        assert decode_state_value(cp.buffers["t"][-1]) == ({"e007": 77}, ())
        assert store.state(cp) == app.get_state()


class TestDeletedTablesAreWholeKey:
    """The satellite fix: between two takes a table dies and is
    re-learned.  An implementation that patches it over the dead
    table's base resurrects the dead entries at restore."""

    def test_store_level_delete_and_recreate_between_takes(self):
        app, store = TableApp(), CheckpointStore()
        app.replace("t", {"dead1": 1, "dead2": 2})
        store.take(app, before_seq=1, now=0.0)
        app.delete("t")
        app.set_entry("t", "live", 3)              # recreates the key
        app.set_entry("t", "live", 4)              # an entry mark after it
        cp = store.take(app, before_seq=2, now=1.0)
        replica = TableApp()
        store.restore(replica, cp)
        assert replica.tables == {"t": {"live": 4}}

    def test_learning_switch_leave_then_relearn_restores_one_mac(self):
        app, store = LearningSwitch(), CheckpointStore()
        app.startup(NullAPI())
        for mac in ("a", "b", "c"):
            app.handle(pktin(mac))
        store.take(app, before_seq=1, now=0.0)
        app.handle(SwitchLeave(dpid=1))
        app.handle(pktin("d"))
        cp = store.take(app, before_seq=2, now=1.0)
        replica = LearningSwitch()
        store.restore(replica, cp)
        assert replica.mac_tables == {1: {"d": 1}}

    def test_spanning_tree_flush_then_relearn_restores_one_mac(self):
        app, store = SpanningTreeSwitch(), CheckpointStore()
        for mac in ("a", "b", "c"):
            app._learn(pktin(mac))
        store.take(app, before_seq=1, now=0.0)
        app._topology_change_flush()
        app._learn(pktin("d"))
        cp = store.take(app, before_seq=2, now=1.0)
        replica = SpanningTreeSwitch()
        store.restore(replica, cp)
        assert replica.mac_tables == {1: {"d": 1}}


class TestWrappersCheckpointFlat:
    """``FaultyApp`` / ``ArmedCrashApp``: the inner state flat beside
    namespaced keys, the inner tracking forwarded, and a round trip
    through buffers into a *fresh* wrapper."""

    def make_faulty(self):
        bugs = [Bug("flaky", BugKind.BENIGN, payload_marker="MAYBE",
                    deterministic=False, probability=0.5),
                Bug("rot", BugKind.STATE_CORRUPTION, payload_marker="ROT")]
        return FaultyApp(LearningSwitch(), bugs, seed=7)

    def test_faulty_app_round_trips_through_buffers(self):
        app, store = self.make_faulty(), CheckpointStore()
        app.startup(NullAPI())
        store.take(app, before_seq=1, now=0.0)
        for i in range(12):
            app.handle(pktin(f"m{i}", payload="MAYBE"))
        app.handle(pktin("x", payload="ROT"))
        cp = store.take(app, before_seq=2, now=1.0)
        assert 0 < len(app.fired_log) < 13 and app.corrupted

        fresh = self.make_faulty()
        fresh.set_state(decode_state(store.buffers(cp)))
        assert fresh.fired_log == app.fired_log
        assert (fresh.event_count, fresh.events_handled) == (13, 13)
        assert fresh.corrupted
        assert fresh.inner.mac_tables == app.inner.mac_tables
        assert fresh.inner.events_handled == 13
        assert ([fresh.rng.random() for _ in range(5)]
                == [app.rng.random() for _ in range(5)])

    def test_faulty_app_state_is_flat_and_tracked_like_the_inner_app(self):
        app = crash_on(LearningSwitch(), payload_marker="BOOM")
        store = CheckpointStore()
        app.startup(NullAPI())
        assert app._moved_entries is app.inner._moved_entries
        app.handle(pktin("a"))
        store.take(app, before_seq=1, now=0.0)
        skipped = store.encodes_skipped
        app.handle(pktin("b"))
        cp = store.take(app, before_seq=2, now=1.0)
        assert ("macs", 1) in cp.buffers and ("faulty", "rng_state") in cp.buffers
        assert len(cp.buffers["macs", 1]) == 2          # one MAC: one patch
        # A deterministic bug never draws: the 625-int RNG state, like
        # every key the event did not touch, is not re-encoded.
        assert len(cp.buffers["faulty", "rng_state"]) == 1
        assert cp.buffers["faulty", "rng_state"] \
            is store.history()[0].buffers["faulty", "rng_state"]
        assert store.encodes_skipped - skipped >= 5
        assert cp.size < 100

    def test_the_rng_is_snapshotted_only_when_it_may_have_moved(self):
        """``get_state`` re-reads ``rng.getstate()`` only after a
        non-deterministic bug's ``fires()`` or a ``set_state``; the
        value it hands out is always the RNG's own state."""
        app, calls = self.make_faulty(), []
        original = app.rng.getstate

        def counting():
            calls.append(1)
            return original()
        app.rng.getstate = counting
        app.startup(NullAPI())
        snapshot = app.get_state()["faulty", "rng_state"]
        assert (snapshot, len(calls)) == (original(), 1)
        assert app.get_state()["faulty", "rng_state"] is snapshot
        assert len(calls) == 1
        for i in range(6):      # the "flaky" bug draws on each event
            app.handle(pktin(f"m{i}", payload="MAYBE"))
            assert app.get_state()["faulty", "rng_state"] == original()
        assert len(calls) == 7
        app.set_state(self.make_faulty().get_state())
        assert app.get_state()["faulty", "rng_state"] == original()
        assert len(calls) == 8

        steady = crash_on(LearningSwitch(), payload_marker="BOOM")
        steady.startup(NullAPI())
        snapshot = steady.get_state()["faulty", "rng_state"]
        for i in range(5):      # a deterministic bug never draws
            steady.handle(pktin(f"m{i}"))
            assert steady.get_state()["faulty", "rng_state"] is snapshot

    def test_an_untracked_inner_app_leaves_the_wrapper_untracked(self):
        class Plain(SDNApp):
            name = "plain"

        app = crash_on(Plain(), payload_marker="BOOM")
        app.handle(pktin("a"))
        assert app.dirty_entries() is None

    def test_armed_crash_app_round_trips_with_and_without_inner(self):
        for inner in (LearningSwitch, lambda: None):
            app, store = arm_crash_on(inner()), CheckpointStore()
            app.startup(NullAPI())
            store.take(app, before_seq=1, now=0.0)
            app.handle(pktin("a", payload="ARM-A"))
            app.handle(pktin("b"))
            cp = store.take(app, before_seq=2, now=1.0)
            assert cp.kind == DELTA and ("armed", "armed") in cp.buffers

            fresh = ArmedCrashApp(inner())
            fresh.set_state(decode_state(store.buffers(cp)))
            assert fresh.armed == {"ARM-A"}
            assert fresh.events_handled == 2
            if fresh.inner is not None:
                assert fresh.inner.mac_tables == {1: {"a": 1, "b": 1}}
                assert fresh.inner.events_handled == 2


KEYS = st.sampled_from(["t0", "t1", "t2"])
ENTRIES = st.integers(min_value=0, max_value=11)
VALUES = st.integers(min_value=-5, max_value=5)


class TrackedEqualsUntracked(RuleBasedStateMachine):
    """Two stores over the same history: one sees a tracked app (entry
    patches, folds), the other an untracked twin (every key whole).  ``keep=5`` and 12-entry tables
    make evictions and folds routine rather than rare."""

    @initialize()
    def build(self):
        self.apps = (TableApp(tracked=True), TableApp(tracked=False))
        self.stores = (CheckpointStore(keep=5, full_every=3),
                       CheckpointStore(keep=5, full_every=3))
        self.references = {}        # before_seq -> state at that take
        self.seq = 0
        self.take()

    def both(self, mutate):
        for app in self.apps:
            mutate(app)

    @rule(key=KEYS, entry=ENTRIES, value=VALUES)
    def set_entry(self, key, entry, value):
        self.both(lambda app: app.set_entry(key, entry, value))

    @rule(key=KEYS, entry=ENTRIES)
    def drop_entry(self, key, entry):
        self.both(lambda app: app.drop_entry(key, entry))

    @rule(key=KEYS)
    def delete_key(self, key):
        self.both(lambda app: app.delete(key))

    @rule(key=KEYS, table=st.dictionaries(ENTRIES, VALUES, max_size=12))
    def replace_or_recreate_key(self, key, table):
        self.both(lambda app: app.replace(key, table))

    @rule()
    def bump_scalar(self):
        self.both(TableApp.bump)

    @rule()
    def take(self):
        self.seq += 1
        self.references[self.seq] = copy.deepcopy(self.apps[0].get_state())
        assert self.apps[1].get_state() == self.references[self.seq]
        for app, store in zip(self.apps, self.stores):
            store.take(app, before_seq=self.seq, now=float(self.seq))

    @rule(entry=st.integers(min_value=100, max_value=10 ** 6))
    def enough_takes_to_evict_and_fold(self, entry):
        for i in range(6):
            self.both(lambda app: app.set_entry("t0", entry + i, i))
            self.take()

    @precondition(lambda self: self.common_seqs())
    @rule(data=st.data())
    def restore(self, data):
        seq = data.draw(st.sampled_from(self.common_seqs()))
        for app, store in zip(self.apps, self.stores):
            target = next(cp for cp in store.history()
                          if cp.before_seq == seq)
            store.restore(app, target)
            assert app.get_state() == self.references[seq]

    def common_seqs(self):
        """Takes both stores still hold."""
        held = [{cp.before_seq for cp in store.history()}
                for store in self.stores]
        return sorted(held[0] & held[1])

    @invariant()
    def no_patch_without_its_base(self):
        """A patched key is the previous entry's buffers for that key,
        unchanged or with one patch appended -- never a patch over a
        base the store does not hold.  (The untracked twin never
        patches at all.)"""
        history = self.stores[0].history()
        for previous, cp in zip(history, history[1:]):
            for key, buffers in cp.buffers.items():
                assert len(buffers) == 1 or previous.buffers.get(key) in (
                    buffers, buffers[:-1])
        for cp in self.stores[1].history():
            assert all(len(bufs) == 1 for bufs in cp.buffers.values())

    def teardown(self):
        for store in self.stores:
            for cp in store.history():
                assert (decode_state(store.buffers(cp))
                        == self.references[cp.before_seq])


TrackedEqualsUntracked.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestTrackedEqualsUntracked = TrackedEqualsUntracked.TestCase


def test_a_patch_keeps_marking_order():
    """Entry marks are an ordered set, not a ``set``: a patch's bytes
    must not depend on the process's string hash seed."""
    app, store = TableApp(), CheckpointStore()
    app.replace("t", {})
    store.take(app, before_seq=1, now=0.0)
    rng = random.Random(5)
    marked = [f"entry-{rng.randrange(1000)}" for _ in range(20)]
    for entry in marked:
        app.set_entry("t", entry, 1)
    patch = store.take(app, before_seq=2, now=1.0).buffers["t"][-1]
    assert list(decode_state_value(patch)[0]) == list(dict.fromkeys(marked))
