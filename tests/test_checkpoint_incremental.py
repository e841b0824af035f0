"""Incremental checkpointing: delta chains, dedup, and retention.

The contract under test (§4.1 + §5): a delta-chain checkpoint must be
*restore-equivalent* to the full image a non-incremental store would
have taken at the same point -- for every prefix of the chain, across
dedup skips, and across retention truncating a chain's base away.
"""

import pickle

import pytest

from repro.apps import LearningSwitch
from repro.core.crashpad.checkpoint import (
    DEDUP,
    DELTA,
    FULL,
    CheckpointError,
    CheckpointStore,
    decode_state,
)


class DictApp:
    """Minimal app with a dict state and scripted mutations."""

    name = "dictapp"

    def __init__(self):
        self.state = {"a": 0, "table": {}}

    def get_state(self):
        return {k: v for k, v in self.state.items()}

    def set_state(self, state):
        self.state = dict(state)


def reference_blob(app):
    """What a non-incremental store would have written."""
    return pickle.dumps(app.get_state(), protocol=pickle.HIGHEST_PROTOCOL)


def drive(app, store, mutations):
    """Apply each mutation then checkpoint; collect (cp, reference)."""
    taken = []
    for seq, mutate in enumerate(mutations, start=1):
        mutate(app.state)
        checkpoint = store.take(app, before_seq=seq, now=float(seq))
        taken.append((checkpoint, reference_blob(app)))
    return taken


MUTATIONS = [
    lambda s: s.__setitem__("a", 1),
    lambda s: s["table"].__setitem__("x", [1, 2]),
    lambda s: None,                       # unchanged -> dedup
    lambda s: s["table"]["x"].append(3),  # nested in-place mutation
    lambda s: s.__setitem__("b", {"n": 0}),
    lambda s: None,                       # unchanged again
    lambda s: s.pop("a"),                 # key removal
    lambda s: s["b"].__setitem__("n", 7),
    lambda s: s.__setitem__("c", "end"),
]


class TestDeltaChains:
    def test_restore_from_delta_equals_restore_from_full_every_prefix(self):
        app = DictApp()
        store = CheckpointStore(keep=64, full_every=4)
        taken = drive(app, store, MUTATIONS)
        kinds = {cp.kind for cp, _ in taken}
        assert kinds == {FULL, DELTA, DEDUP}  # the chain actually mixed
        for checkpoint, reference in taken:
            assert (decode_state(store.buffers(checkpoint))
                    == pickle.loads(reference)), checkpoint.kind
        # Restore truncates the abandoned future, so walk newest-first:
        # each target is still retained when its turn comes.
        for checkpoint, reference in reversed(taken):
            replica = DictApp()
            store.restore(replica, checkpoint)
            assert replica.get_state() == pickle.loads(reference)

    def test_full_image_cadence(self):
        app = DictApp()
        store = CheckpointStore(keep=64, full_every=3)
        # Every take sees a changed state, so none dedups.
        mutations = [lambda s, i=i: s.__setitem__("k", i) for i in range(9)]
        taken = [cp for cp, _ in drive(app, store, mutations)]
        assert [cp.kind for cp in taken] == [
            FULL, DELTA, DELTA, FULL, DELTA, DELTA, FULL, DELTA, DELTA]

    def test_restore_opens_a_fresh_chain(self):
        app = DictApp()
        store = CheckpointStore(keep=64, full_every=8)
        taken = drive(app, store, MUTATIONS[:4])
        store.restore(app, taken[1][0])
        app.state["post"] = True
        after = store.take(app, before_seq=99, now=9.0)
        # Entries after the restored one describe an abandoned future;
        # diffing against them would corrupt the next materialisation.
        assert after.kind == FULL
        assert decode_state(store.buffers(after)) == app.get_state()

    def test_non_dict_state_is_a_checkpoint_error(self):
        class TupleApp:
            name = "tup"

            def get_state(self):
                return (1, 2)

        store = CheckpointStore(full_every=8)
        with pytest.raises(CheckpointError, match="tup.*tuple, not a dict"):
            store.take(TupleApp(), before_seq=1, now=0.0)
        assert store.count == 0

    def test_unencodable_value_names_the_app_and_key(self):
        app = DictApp()
        app.state["weights"] = {"w": complex(1, 2)}
        store = CheckpointStore(full_every=8)
        with pytest.raises(CheckpointError,
                           match="dictapp.*'weights'.*complex"):
            store.take(app, before_seq=1, now=0.0)
        assert store.count == 0


class TestDedup:
    def test_unchanged_state_costs_only_the_hash(self):
        app = DictApp()
        store = CheckpointStore(full_every=8)
        store.take(app, before_seq=1, now=0.0)
        repeat = store.take(app, before_seq=2, now=0.0)
        assert repeat.kind == DEDUP
        assert repeat.size == 0
        assert repeat.buffers == store.history()[0].buffers
        assert repeat.cost == pytest.approx(
            repeat.state_size * store.hash_per_byte_cost)
        assert store.dedup_hits == 1
        # A dedup entry still restores to the (unchanged) state.
        replica = DictApp()
        store.restore(replica, repeat)
        assert replica.get_state() == app.get_state()

    def test_changed_state_writes_a_delta_not_a_dedup(self):
        app = DictApp()
        store = CheckpointStore(full_every=8)
        store.take(app, before_seq=1, now=0.0)
        app.state["a"] += 1
        changed = store.take(app, before_seq=2, now=0.0)
        assert changed.kind == DELTA
        assert store.dedup_hits == 0


class TestRestoreTruncation:
    def test_dedup_take_after_restore_restores_the_restored_state(self):
        # Regression: take {x:1} (full), take {x:2} (delta), restore to
        # the first, take the unchanged state (dedup).  The dedup entry
        # must alias the *restored* chain, not the abandoned delta --
        # restoring from it has to yield {x:1}, never {x:2}.
        app = DictApp()
        store = CheckpointStore(keep=64, full_every=8)
        app.state = {"x": 1}
        first = store.take(app, before_seq=1, now=1.0)
        app.state = {"x": 2}
        second = store.take(app, before_seq=2, now=2.0)
        assert first.kind == FULL and second.kind == DELTA
        store.restore(app, first)
        assert app.get_state() == {"x": 1}
        again = store.take(app, before_seq=3, now=3.0)
        assert again.kind == DEDUP
        replica = DictApp()
        store.restore(replica, again)
        assert replica.get_state() == {"x": 1}

    def test_restore_drops_the_abandoned_future(self):
        app = DictApp()
        store = CheckpointStore(keep=64, full_every=4)
        taken = drive(app, store, MUTATIONS)
        target = taken[2][0]
        store.restore(app, target)
        history = store.history()
        assert history[-1] is target
        assert len(history) == 3
        assert store.latest_before(10 ** 9) is target
        assert store.total_bytes == sum(cp.size for cp in history)

    def test_latest_before_prefers_the_newest_duplicate(self):
        app = DictApp()
        store = CheckpointStore(keep=64, full_every=8)
        taken = drive(app, store, MUTATIONS[:3])
        store.restore(app, taken[0][0])
        retaken = store.take(app, before_seq=1, now=9.0)
        assert store.latest_before(1) is retaken
        replica = DictApp()
        store.restore(replica, retaken)
        assert replica.get_state() == pickle.loads(taken[0][1])


class TestRetention:
    def test_chain_truncation_past_keep_still_restores(self):
        app = DictApp()
        store = CheckpointStore(keep=3, full_every=8)
        taken = drive(app, store, MUTATIONS)
        survivors = store.history()
        assert len(survivors) == 3
        assert store.evicted_count == len(MUTATIONS) - 3
        # The oldest survivor was mid-chain before eviction; it must
        # have been promoted to a self-contained image.
        assert survivors[0].kind == FULL
        references = {id(cp): ref for cp, ref in taken}
        for survivor in survivors:
            assert (decode_state(store.buffers(survivor))
                    == pickle.loads(references[id(survivor)]))

    def test_retained_bytes_tracks_live_entries_only(self):
        app = DictApp()
        store = CheckpointStore(keep=3, full_every=4)
        drive(app, store, MUTATIONS)
        live = sum(cp.size for cp in store.history())
        assert store.total_bytes == live
        assert store.bytes_written >= store.total_bytes
        assert store.stats()["retained_bytes"] == live
        assert store.stats()["evicted"] == store.evicted_count

    def test_evicted_entries_leave_as_self_contained_images(self):
        # Single-entry evictions always promote the next survivor
        # first, so whatever leaves the store is (by then) FULL and
        # still materialisable on its own.
        app = DictApp()
        store = CheckpointStore(keep=2, full_every=8)
        taken = drive(app, store, MUTATIONS[:5])
        evicted = taken[1][0]
        assert evicted not in store.history()
        assert evicted.kind == FULL
        assert (decode_state(store.buffers(evicted))
                == pickle.loads(taken[1][1]))

    def test_materialize_rejects_foreign_deltas(self):
        from repro.core.crashpad.checkpoint import Checkpoint

        store = CheckpointStore(full_every=8)
        store.take(DictApp(), before_seq=1, now=0.0)
        foreign = Checkpoint(before_seq=9, taken_at=0.0, kind=DELTA)
        with pytest.raises(CheckpointError):
            store.buffers(foreign)


class TestCostModel:
    def test_delta_cheaper_than_full_for_large_state(self):
        app = DictApp()
        app.state["bulk"] = list(range(4000))
        store = CheckpointStore(full_every=8)
        full = store.take(app, before_seq=1, now=0.0)
        app.state["a"] = 1  # one small key changes
        delta = store.take(app, before_seq=2, now=0.0)
        assert full.kind == FULL and delta.kind == DELTA
        assert store.cost_of(delta) < store.cost_of(full) / 3

    def test_restore_cost_charges_the_chain_bytes(self):
        app = LearningSwitch()
        store = CheckpointStore(full_every=8)
        first = store.take(app, before_seq=1, now=0.0)
        for seq in range(2, 6):
            app.mac_tables.setdefault(seq, {})[f"m{seq}"] = seq
            last = store.take(app, before_seq=seq, now=0.0)
        # An image holds every buffer a restore reads -- the bytes the
        # entries since the first added are in its state_size, once.
        chain_bytes = sum(c.size for c in store.history()[1:])
        assert last.state_size == first.state_size + chain_bytes
        expected = store.base_cost + last.state_size * store.per_byte_cost
        assert store.restore_cost_of(last) == pytest.approx(expected)
        assert store.restore_cost_of(first) == pytest.approx(
            store.base_cost + first.state_size * store.per_byte_cost)
