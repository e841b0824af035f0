"""The checkpoint value codec and the double-serialization regression.

Taking a checkpoint used to serialise every state value twice -- once
for the dedup hash, once for the stored image.  The store now encodes
each key exactly once per take and reuses those buffers for hashing,
diffing, *and* the stored blob; ``value_encodes``/``value_decodes``
count codec invocations so the property is pinned, not assumed.

Also covers the value codec itself: restore-equivalence with a
reference copy of the state, the state-value codec (the wire codec
behind a marker byte -- there is no fallback encoding), and the
per-changed-byte delta cost model.
"""

import copy

import pytest

from repro.core.crashpad.checkpoint import (
    DEDUP,
    DELTA,
    FULL,
    CheckpointStore,
    decode_state,
)
from repro.openflow.serialization import (
    SerializationError,
    decode_state_value,
    encode_state_value,
)


class DictApp:
    name = "dictapp"

    def __init__(self):
        self.state = {"macs": {}, "count": 0}

    def get_state(self):
        return {k: v for k, v in self.state.items()}

    def set_state(self, state):
        self.state = dict(state)


def test_take_encodes_each_key_exactly_once():
    """N takes of a K-key state = N*K encodes, zero decodes -- the
    double-serialization regression pin."""
    app = DictApp()
    store = CheckpointStore()
    keys = len(app.get_state())
    takes = 6
    for seq in range(1, takes + 1):
        app.state["count"] = seq          # differs -> never dedup'd
        store.take(app, before_seq=seq, now=float(seq))
    assert store.value_encodes == takes * keys
    assert store.value_decodes == 0


def test_dedup_take_still_encodes_once():
    """A dedup'd take must hash (hence encode) but store nothing --
    and still never encode a key twice."""
    app = DictApp()
    store = CheckpointStore()
    keys = len(app.get_state())
    store.take(app, before_seq=1, now=1.0)
    second = store.take(app, before_seq=2, now=2.0)  # unchanged state
    assert second.kind == DEDUP
    assert store.value_encodes == 2 * keys
    assert store.value_decodes == 0


def test_restore_equivalence_with_reference_state():
    """Every entry's buffers decode to, and restore() reinstates, the
    same state a plain deep copy recorded."""
    app = DictApp()
    store = CheckpointStore(full_every=3)
    snapshots = []
    for seq in range(1, 8):
        app.state["macs"][f"02:00:00:00:00:{seq:02x}"] = seq
        app.state["count"] = seq
        store.take(app, before_seq=seq, now=float(seq))
        snapshots.append(copy.deepcopy(app.get_state()))
    for checkpoint, expect in zip(store.history(), snapshots):
        assert decode_state(store.buffers(checkpoint)) == expect
    # Restore the oldest, then confirm the app actually holds it.
    store.restore(app, store.history()[0])
    assert app.get_state() == snapshots[0]


def test_delta_cost_is_per_changed_byte_with_no_freeze_constant():
    """A delta pays the hash pass, the changed bytes' encode and the
    blob write -- no fixed per-delta freeze -- the source of the
    appvisor.event speedup the span-diff gate pins."""
    app = DictApp()
    store = CheckpointStore()
    store.take(app, before_seq=1, now=1.0)
    app.state["count"] = 1
    delta = store.take(app, before_seq=2, now=2.0)
    assert delta.kind == DELTA
    changed_bytes = len(encode_state_value(1))
    assert delta.cost == pytest.approx(
        delta.state_size * store.hash_per_byte_cost
        + changed_bytes * store.encode_per_byte_cost
        + delta.size * store.per_byte_cost)
    assert delta.cost < 1e-4      # the pickle model charged a 2 ms freeze


def test_state_value_codec_round_trip_and_rejection():
    """encode_state_value is the wire codec behind a marker byte; a
    value the wire format cannot express has no other encoding."""
    packable = {"a": [1, 2.5, "x"], "b": (None, True)}
    buf = encode_state_value(packable)
    assert buf[:1] == b"\x01"
    assert decode_state_value(buf) == packable

    unpackable = {"cls": DictApp}      # a class object: not wire-safe
    with pytest.raises(SerializationError, match="type"):
        encode_state_value(unpackable)


def test_stats_reports_codec_and_counts():
    app = DictApp()
    store = CheckpointStore()
    store.take(app, before_seq=1, now=1.0)
    stats = store.stats()
    assert stats["value_encodes"] == len(app.get_state())
    assert stats["value_decodes"] == 0
    assert stats["taken"] == 1


def test_full_promotion_on_eviction_reuses_buffers():
    """Evicting a chain base folds deltas at the buffer level: no
    value decode, and one re-encode only for keys the promotion has to
    rewrite -- here, none."""
    app = DictApp()
    store = CheckpointStore(keep=2, full_every=10)
    for seq in range(1, 6):
        app.state["count"] = seq
        store.take(app, before_seq=seq, now=float(seq))
    encodes_after_takes = 5 * len(app.get_state())
    assert store.value_encodes == encodes_after_takes
    assert store.value_decodes == 0
    # The surviving head must still materialise correctly.
    head = store.history()[0]
    assert head.kind == FULL
    assert decode_state(store.buffers(head))["count"] in range(1, 6)
