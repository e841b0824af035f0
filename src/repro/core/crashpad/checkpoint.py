"""Checkpoint/restore of SDN-App state (CRIU substitute).

The paper's prototype uses CRIU to checkpoint the whole app process
(JVM) before dispatching every message (§4.1).  Our substitute encodes
the app's state dict -- same semantics (a full, restorable image of
the app's mutable state at a point in time) -- and charges a modelled
cost in simulated time, proportional to image size, so the E7
checkpoint-frequency experiment measures a real trade-off.

Checkpoints are **incremental** (the §5 direction: "rather than
checkpointing after every event, we can checkpoint after every few
events" -- we go further and make each checkpoint itself cheap), and
the unit of change is the one the app reports, carried unchanged from
``mark_dirty`` to restore:

- **key -> base + patches.**  Every state key is stored as a tuple of
  buffers: a *base* (the whole value, encoded) followed by zero or
  more *patches* (``(entries set, entries gone)`` of a dict-valued
  key, encoded the same way).  A key the previous image holds and the
  app's marks (:meth:`~repro.apps.base.SDNApp.dirty_entries`) do not
  name is never touched: the new entry shares the previous entry's
  tuple and ``encodes_skipped`` counts the skip.  A key that moved at
  entries the app named (:meth:`~repro.apps.base.SDNApp.mark_dirty`
  ``(key, entry)``) gets one more patch holding just those entries.
  Anything else -- a scalar, an untracked app, a key created, deleted
  or replaced since the previous take, a take whose marks do not
  cover everything since the previous image -- is re-encoded whole
  into a fresh base.  :func:`decode_state` decodes the base and
  applies the patches in order.
- **fold.**  Patches make a restore read bytes a whole image would not
  hold, so a dirty key whose patches already outweigh
  ``fold_fraction`` of its base is *folded*: spliced from the kept
  entry encodings, whole only on a failed check.  Restore cost stays
  within that fraction (plus the patches still in flight) of a full
  image, bounded by sizes the store can see rather than by a setting.
- **an image is its buffer map.**  A :class:`Checkpoint`
  holds its resolved ``{key: buffers}`` map.  Tuples and ``bytes`` are
  shared between neighbouring entries, so an entry costs O(keys) beyond
  the bytes it newly wrote (``size``), and nothing downstream ever
  reassembles anything: :meth:`CheckpointStore.buffers` hands the map
  out, eviction past ``keep`` promotes the new oldest entry by
  relabelling it, and :class:`~repro.core.guard.ControllerGuard`
  decodes it (:func:`decode_state`).  :meth:`CheckpointStore.state`,
  which restores and STS probes load, copies what each buffer encoded,
  kept beside it, where that is exact, and decodes elsewhere.
- The *kinds* survive as the cost model's view of the same entries:
  nothing changed and nothing removed is a zero-byte **dedup** entry
  (only the verify pass is charged); every ``full_every``-th changed
  entry is charged as a **full** dump of the state (CRIU's periodic
  base image) and counts its whole state size as written; the rest are
  **deltas** charged over the bytes they produced, the CRIU
  ``--track-mem`` incremental-dump analogue.
- restore also *truncates*: entries newer than the restored checkpoint
  describe a future the rollback abandoned, and are dropped so later
  takes and :meth:`CheckpointStore.latest_before` can never resurrect
  that timeline's state.

There is **one take path**, and it is synchronous, as the paper's
checkpoint before every message is: :meth:`CheckpointStore.take` walks
the state once -- sharing a clean key's buffers, encoding a patch over
a named entry's key, splicing or encoding the rest whole (the one
place a state value is encoded) -- and charges the whole modelled cost
to the event path.  The §5 relaxation, checkpointing every few events
and replaying the rest, is the stub's ``checkpoint_interval``.

The modelled verify cost covers only the bytes the take produced plus
a per-key check of the marks: checkpoint cost is O(what changed), not
O(app state), and a take the app marked nothing for shares every
buffer and dedups without touching a single value.  Apps without
dirty tracking have every key encoded whole.  What a take keeps of a
value is a one-level copy, which matches the bundled apps' state
layout: values are at most one level of mutable container whose
elements are immutable or replaced (never mutated) in place.

Every buffer, patches included, comes from the wire codec in
:mod:`repro.openflow.serialization` (schema-interned field names,
varint ints) and is produced **once**.  That codec is the only state
encoding: a state that is not a dict, or holds a value the codec has
no tag for, breaks the :meth:`~repro.apps.base.SDNApp.get_state`
contract and the take raises :class:`CheckpointError` naming the app
and the key.  Because encoding is an in-process userspace pass over
what changed -- not a freeze-the-world incremental dump -- delta takes
charge ``encode_per_byte_cost`` over the bytes produced and no fixed
freeze constant, which is what makes per-event checkpointing cheap
enough for the E19 load envelope.

A checkpoint taken *before* event ``seq`` is keyed by ``before_seq``:
it captures the state produced by events ``1 .. seq-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Dict, List, Optional, Tuple

from repro.openflow.serialization import (
    SerializationError,
    decode_state_value,
    encode_state_entries,
    encode_state_value,
    splice_state_dict,
)

#: One state key's stored form: its base buffer, then its patches.
Buffers = Tuple[bytes, ...]


class CheckpointError(RuntimeError):
    """State could not be snapshotted or restored."""


def encode_state_key(owner: str, key, value) -> bytes:
    """One state value as the buffer every snapshot stores.  A value
    the codec has no tag for is a typed error naming owner and key."""
    try:
        return encode_state_value(value)
    except (SerializationError, UnicodeEncodeError, RecursionError) as exc:
        raise CheckpointError(
            f"cannot snapshot {owner}: state key {key!r} "
            f"({type(value).__name__}) is outside the get_state "
            f"contract: {exc}") from exc


def _patched(value, patches):
    """``value`` with each ``(changed, gone)`` patch laid over it."""
    for changed, gone in patches:
        for entry in gone:
            value.pop(entry, None)
        value.update(changed)
    return value


def decode_state(buffers: Dict[object, Buffers]) -> dict:
    """The state a per-key buffer map encodes -- each key's base with
    its patches applied in order: fresh objects on every call, so no
    two restores (or STS probes) share a mutable value."""
    return {key: _patched(decode_state_value(base),
                          map(decode_state_value, patches))
            for key, (base, *patches) in buffers.items()}


#: Immutable, and decoded back as the very same type.
_ATOMS = frozenset({type(None), bool, int, float, str, bytes})


def _atoms(values) -> bool:
    """Is every one of ``values`` an atom, or a tuple of atoms?"""
    kinds = set(map(type, values))
    return kinds <= _ATOMS or (kinds <= _ATOMS | {tuple} and all(
        _atoms(v) for v in values if type(v) is tuple))


def _copyable(value) -> bool:
    """Does a one-level copy of this capture build what decoding its
    buffer does?  Only atoms in a plain ``dict`` or ``list`` -- not a set
    (the codec sorts it), a subclass, a dataclass, a nested container."""
    kind = type(value)
    if kind is dict:
        return _atoms(value.values()) and _atoms(value)
    return _atoms(value if kind is list else (value,))


#: Checkpoint kinds, as the cost model charges them: a dump of the
#: whole state, the bytes that changed since the previous entry, or a
#: zero-byte alias for an unchanged state.
FULL = "full"
DELTA = "delta"
DEDUP = "dedup"


def _mirror(value: dict):
    """(values, encodings) of ``value``'s entries in its order, if all
    are atoms -- the same objects then mean the same bytes -- else None."""
    if _atoms(value.values()) and _atoms(value):
        return dict(value), encode_state_entries(value)
    return None


def _laid(mirror, changed: dict, gone: tuple):
    """``mirror`` with the patch ``(changed, gone)`` laid over it, or
    None if it cannot be."""
    if not (_atoms(changed.values()) and _atoms(changed)):
        return None
    try:
        codes = encode_state_entries(changed)
    except UnicodeEncodeError:      # the whole encode names the key
        return None
    values, kept = mirror
    for entry in gone:
        values.pop(entry, None)
        kept.pop(entry, None)
    values.update(changed)
    kept.update(codes)
    return mirror


def _splice(mirror, value: dict) -> Optional[bytes]:
    """``encode_state_value(value)`` joined from ``mirror`` if ``value``
    holds its very objects in its order (by identity: ``1 == True`` and
    ``0.0 == -0.0`` encode apart), else None."""
    values, codes = mirror
    if (len(values) == len(value) and all(map(is_, values, value))
            and all(map(is_, values.values(), value.values()))):
        return splice_state_dict(codes.values())
    return None


def _shallow_copy(value):
    """One-level copy of a state value a take keeps.

    Deep enough for the bundled apps' state contract (one level of
    mutable container holding immutables / never-mutated values) and
    cheap enough to sit on the event critical path.
    """
    if isinstance(value, (dict, list, set)):
        return value.copy()     # a defaultdict stays one
    return value


@dataclass
class Checkpoint:
    """One snapshot of an app's state.

    An entry *is* its ``buffers`` map (key -> base buffer and patches;
    tuples and bytes shared with the neighbouring entries).
    """

    before_seq: int
    taken_at: float
    kind: str = FULL
    #: Bytes this entry added to the store: what it newly wrote (0 for
    #: dedup; a full image counts its whole state), or, once eviction
    #: has made it the oldest entry, the whole image it now anchors.
    size: int = 0
    #: Total size of the state's per-key buffers, patches included
    #: (what restoring this entry reads).
    state_size: int = 0
    #: Modelled sim-time cost charged on the event path when this
    #: checkpoint was taken.
    cost: float = 0.0
    #: The image: key -> (base, *patches).  Read-only.
    buffers: Optional[Dict[object, Buffers]] = field(default=None, repr=False)
    #: What those encode: key -> (base value, *(changed, gone)),
    #: private; :meth:`CheckpointStore.state` copies from them.
    captures: Optional[Dict[object, tuple]] = field(default=None, repr=False)


class CheckpointStore:
    """Holds recent checkpoints for one app, with a cost model.

    ``base_cost`` models CRIU's fixed freeze/dump overhead for a full
    image and ``per_byte_cost`` the image-size-proportional part;
    ``hash_per_byte_cost`` is what the verify pass charges per
    (re-)encoded byte -- it stands for CRIU's check of the pages it
    re-dumped; no host code hashes -- and deltas are charged
    ``encode_per_byte_cost`` over the bytes they produced (userspace
    incremental encode, no freeze).  With dirty tracking the verify
    pass covers only those bytes plus
    ``version_check_per_key_cost`` per key (the check of the marks).
    All costs are in simulated seconds, and all five are constants of
    the model (class attributes), not settings; so is
    ``fold_fraction``, the share of a key's base its patches may reach
    before the key is re-encoded whole.  ``keep`` bounds
    retention (rollbacks only ever reach back a bounded number of
    events -- §5 discusses reading "a history of snapshots");
    ``full_every`` is how often a changed entry is charged as a full
    dump.

    ``metrics`` (optional :class:`~repro.metrics.collector.
    MetricsCollector`) mirrors take/skip/byte counters into the
    Prometheus exposition.
    """

    base_cost = 0.010
    per_byte_cost = 1e-7
    hash_per_byte_cost = 2e-9
    encode_per_byte_cost = 5e-9
    version_check_per_key_cost = 5e-8
    fold_fraction = 1 / 32

    def __init__(self, keep: int = 16, full_every: int = 8, metrics=None):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        if full_every < 1:
            raise ValueError("full_every must be >= 1")
        self.keep = keep
        self.full_every = full_every
        self.metrics = metrics
        self._checkpoints: List[Checkpoint] = []
        #: Entry of the most recent state (take or restore): what the
        #: next take shares clean keys with, lays patches over and
        #: diffs against.
        self._prev: Optional[Checkpoint] = None
        #: As of ``_prev``: per key, its buffers' bytes and its
        #: :func:`_mirror` (None, or missing, if it has none).
        self._sizes: Dict[object, int] = {}
        self._mirrors: Dict[object, tuple] = {}
        #: Do the app's marks cover every change since ``_prev``?  True
        #: only after a take or restore that received marks; a take
        #: clears it before asking for them, so one that dies after
        #: consuming them leaves the next take encoding every key whole.
        self._marks_whole = False
        #: Entries since (and including) the last full image; the next
        #: changed entry is a full one when it reaches ``full_every``.
        self._chain_len = 0
        #: Newest event seq the owning stub has reported
        #: (:meth:`note_seq`); drives the checkpoint-lag stat.
        self._last_seq = 0
        self.taken_count = 0
        self.restored_count = 0
        self.full_count = 0
        self.delta_count = 0
        self.dedup_hits = 0
        self.evicted_count = 0
        #: Bytes currently retained across live checkpoints (eviction
        #: subtracts; use :attr:`bytes_written` for the cumulative I/O).
        self.total_bytes = 0
        self.bytes_written = 0
        self.total_cost = 0.0
        #: Value-codec invocation counts.  ``value_encodes`` is the
        #: serialize-call count the double-serialization regression
        #: test pins: one encode per *dirty* state key per take (the
        #: whole value or one patch), none for the stored image.
        self.value_encodes = 0
        self.value_decodes = 0
        #: Keys whose encode was skipped because their version (and so
        #: their value) had not moved since the previous take.
        self.encodes_skipped = 0

    # -- snapshot --------------------------------------------------------

    @staticmethod
    def _marks_of(app):
        """What the app's optional ``dirty_entries()`` hands over, or
        None if it has none (conservative path)."""
        source = getattr(app, "dirty_entries", None)
        return source() if callable(source) else None

    def note_seq(self, seq: int) -> None:
        """The stub reports every event seq it sees, so checkpoint lag
        (events since the last image) is computable here."""
        if seq > self._last_seq:
            self._last_seq = seq

    def _fold_due(self, key) -> bool:
        """Do ``key``'s patches already outweigh ``fold_fraction`` of
        its base, as of the previous image?"""
        base = len((self._prev.buffers.get(key) or (b"",))[0])
        return self._sizes.get(key, 0) - base > self.fold_fraction * base

    def take(self, app, before_seq: int, now: float) -> Checkpoint:
        """Snapshot ``app`` prior to event ``before_seq``.

        One pass over the state: a key of the previous image that the
        app's marks (``dirty_entries()``) do not name shares that
        image's buffers; a dict-valued key whose moved entries the app
        named gets one more patch holding just those entries, unless
        it is due a fold; the rest is spliced from the kept entry
        encodings or encoded whole.  Returns the checkpoint; its
        modelled cost -- the verify pass over what was encoded, plus
        the check of the marks, plus the write -- is available via
        :meth:`cost_of` and accumulated in :attr:`total_cost`.
        """
        self.note_seq(before_seq)
        trusted, self._marks_whole = self._marks_whole, False
        try:
            state = app.get_state()
            # Asked on every take, used or not: the marks are "since
            # the store last asked".
            moved = self._marks_of(app)
        except Exception as exc:  # noqa: BLE001 - fault boundary: app code
            raise CheckpointError(f"cannot snapshot {app.name}: {exc}") from exc
        if not isinstance(state, dict):
            raise CheckpointError(
                f"cannot snapshot {app.name}: get_state() returned "
                f"{type(state).__name__}, not a dict")

        prev, kept = ((self._prev.buffers, self._prev.captures)
                      if self._prev is not None else ({}, {}))
        # Keys the marks can vouch for: none unless they cover every
        # change since the previous image.
        prev_keys = prev if trusted and moved is not None else ()
        buffers: Dict[object, Buffers] = {}
        captures: Dict[object, tuple] = {}
        sizes, resized = self._sizes, {}
        encoded = written = skipped = 0
        for key, value in state.items():
            known = key in prev_keys
            if known and key not in moved:
                buffers[key] = prev[key]
                captures[key] = kept[key]
                skipped += 1
                continue
            entries = moved.get(key) if known else None
            mirror = self._mirrors.get(key)
            patched = entries is not None and isinstance(value, dict)
            if patched:
                changed = {e: value[e] for e in entries if e in value}
                gone = tuple(e for e in entries if e not in value)
            fold = patched and self._fold_due(key)
            if patched and not fold:
                patch = (changed, gone)
                buf = encode_state_key(app.name, key, patch)
                buffers[key] = prev[key] + (buf,)
                captures[key] = kept[key] + (patch,)
                written += len(buf)
                resized[key] = sizes[key] + len(buf)
                mirror = _laid(mirror, changed, gone) if mirror else None
            else:
                # A copy, so later in-place mutations by the app leak
                # into no restore (a defaultdict stays one).
                value = _shallow_copy(value)
                mirror = (_laid(mirror, changed, gone)
                          if fold and mirror else None)
                buf = _splice(mirror, value) if mirror else None
                if buf is None:
                    buf = encode_state_key(app.name, key, value)
                    mirror = _mirror(value) if fold else None
                buffers[key] = (buf,)
                captures[key] = (value,)
                if prev.get(key) != (buf,):
                    written += len(buf)
                resized[key] = len(buf)
            self._mirrors[key] = mirror
            self.value_encodes += 1
            encoded += len(buf)
        self.encodes_skipped += skipped
        entry = Checkpoint(before_seq=before_seq, taken_at=now, kind=DELTA,
                           buffers=buffers, captures=captures)
        # The predecessor's size, adjusted for the keys that moved.
        state_size = self._prev.state_size if self._prev is not None else 0
        for key in prev.keys() - buffers.keys():      # keys removed
            state_size -= sizes.pop(key)
            self._mirrors.pop(key, None)
        for key, size in resized.items():
            state_size += size - sizes.get(key, 0)
        sizes.update(resized)
        entry.state_size = state_size
        version_cost = (len(state) * self.version_check_per_key_cost
                        if moved is not None else 0.0)
        cost = encoded * self.hash_per_byte_cost + version_cost
        diffable = bool(self._checkpoints) and self._prev is not None
        if diffable and not written and len(buffers) == len(prev):
            # Unchanged since the last checkpoint (nothing written means
            # every key is the predecessor's; as many keys means none
            # was removed): record the position, share the
            # predecessor's image, charge only the verify pass.
            entry.kind = DEDUP
            self.dedup_hits += 1
        elif diffable and self._chain_len < self.full_every:
            # Userspace incremental encode: pay per changed byte, no
            # freeze-the-world constant.
            entry.size = written
            cost += written * (self.encode_per_byte_cost
                               + self.per_byte_cost)
            self._chain_len += 1
            self.delta_count += 1
        else:
            entry.kind = FULL
            entry.size = entry.state_size
            cost += self.base_cost + entry.size * self.per_byte_cost
            self._chain_len = 1
            self.full_count += 1
        entry.cost = cost
        self._prev = entry
        self.total_bytes += entry.size
        self.bytes_written += entry.size
        if self.metrics is not None and entry.size:
            self.metrics.inc("checkpoint.bytes_written", entry.size)
        self._marks_whole = moved is not None
        self._checkpoints.append(entry)
        if len(self._checkpoints) > self.keep:
            self._evict(len(self._checkpoints) - self.keep)
        self.taken_count += 1
        self.total_cost += entry.cost
        if self.metrics is not None:
            self.metrics.inc("checkpoint.taken")
        return entry

    def drain(self) -> Tuple[List[Checkpoint], float]:
        """A no-op kept as a public name: every take is encoded when it
        is taken, so nothing waits to be drained.  Returns ``([], 0.0)``."""
        return [], 0.0

    def flush(self) -> float:
        """A no-op kept as a public name: every entry holds its image
        from the take on.  Returns 0.0."""
        return 0.0

    def _evict(self, count: int) -> None:
        """Drop the ``count`` oldest entries.  Every entry holds its
        whole image, so nothing is stranded; the new oldest entry is
        relabelled a full image and owns, for the retained-bytes
        count, everything it shared with the entries just dropped.
        Nothing is written."""
        survivor = self._checkpoints[count]
        self.total_bytes += survivor.state_size - survivor.size
        survivor.size = survivor.state_size
        survivor.kind = FULL
        for old in self._checkpoints[:count]:
            self.total_bytes -= old.size
        self.evicted_count += count
        del self._checkpoints[:count]

    def cost_of(self, checkpoint: Checkpoint) -> float:
        """Simulated seconds this checkpoint cost to take."""
        return checkpoint.cost

    def restore_cost_of(self, checkpoint: Checkpoint) -> float:
        """Simulated seconds a restore from ``checkpoint`` costs: one
        load of its image, patches included."""
        return self.base_cost + checkpoint.state_size * self.per_byte_cost

    # -- restore -----------------------------------------------------------

    def _index_of(self, checkpoint: Checkpoint) -> int:
        """Identity-based position lookup (dataclass ``==`` compares by
        value, and duplicate ``before_seq`` takes are legal)."""
        for idx, entry in enumerate(self._checkpoints):
            if entry is checkpoint:
                return idx
        raise CheckpointError(
            f"checkpoint before_seq={checkpoint.before_seq} "
            "is not in this store")

    def latest_before(self, seq: int) -> Optional[Checkpoint]:
        """Newest checkpoint with ``before_seq`` <= ``seq``.

        ``before_seq`` is monotonic in the store (takes use the stub's
        increasing seq counter and restore truncates a suffix), so the
        reverse scan prefers the newest entry among duplicates -- the
        one whose state the current timeline actually produced.
        """
        for entry in reversed(self._checkpoints):
            if entry.before_seq <= seq:
                return entry
        return None

    def buffers(self, checkpoint: Checkpoint) -> Dict[object, Buffers]:
        """The image at ``checkpoint``: per key its base buffer and
        patches -- what :func:`decode_state` turns back into the state.
        The map is the entry's own, shared with its neighbours: read
        it, never write it."""
        if checkpoint.buffers is None:
            raise CheckpointError(
                f"checkpoint before_seq={checkpoint.before_seq} "
                "holds no image")
        return checkpoint.buffers

    def state(self, checkpoint: Checkpoint) -> dict:
        """:func:`decode_state` of ``checkpoint``'s buffers, copied from
        its captures where that is exact (:func:`_copyable`)."""
        buffers = self.buffers(checkpoint)
        state = {}
        for key, (base, *patches) in checkpoint.captures.items():
            if _copyable(base) and all(_copyable(changed) and _atoms(gone)
                                       for changed, gone in patches):
                state[key] = _patched(_shallow_copy(base), patches)
            else:
                state[key] = decode_state({key: buffers[key]})[key]
        return state

    def restore(self, app, checkpoint: Checkpoint) -> None:
        """Load ``checkpoint`` into ``app`` (the CRIU restore).

        Entries newer than the restored one are dropped: they describe
        a future the rollback abandoned, and leaving them in place
        would let a later dedup take alias their (stale) image -- or a
        later :meth:`latest_before` pick one -- silently restoring the
        pre-rollback timeline's state.
        """
        try:
            state = self.state(checkpoint)
        except SerializationError as exc:
            raise CheckpointError(
                f"corrupt checkpoint for {app.name}: {exc}"
            ) from exc
        # The buffers this restore stands for, copied or decoded.
        self.value_decodes += sum(map(len, checkpoint.buffers.values()))
        app.set_state(state)
        self.restored_count += 1
        self._truncate_after(checkpoint)
        # The next take shares, patches and diffs (and dedups) against
        # the *restored* image, not the image of the last take (which
        # the rollback just discarded).  A dedup may alias the restored
        # entry -- truncation just made it the newest -- which is
        # exactly the state an unchanged take would re-capture.
        if checkpoint is not self._prev:    # mirrors, sizes: the newest's
            self._mirrors = {}
            self._sizes = {key: sum(map(len, buffers))
                           for key, buffers in checkpoint.buffers.items()}
        self._prev = checkpoint
        # Drain the marks: the app holds exactly the restored image, so
        # what the crashed handler marked goes, and the next take
        # encodes what replay marks over that image.
        self._marks_whole = self._marks_of(app) is not None
        # Charge the next changed-state take as a fresh full image.
        self._chain_len = self.full_every

    def _truncate_after(self, checkpoint: Checkpoint) -> None:
        """Drop every entry newer than ``checkpoint`` (the abandoned
        future), keeping retention accounting consistent."""
        try:
            cut = self._index_of(checkpoint) + 1
        except CheckpointError:
            # Restoring a checkpoint no longer in the store (evicted):
            # everything retained that post-dates it is abandoned.
            # before_seq is monotonic, so this still removes a suffix.
            cut = 0
            while (cut < len(self._checkpoints)
                   and (self._checkpoints[cut].before_seq
                        <= checkpoint.before_seq)):
                cut += 1
        for entry in self._checkpoints[cut:]:
            self.total_bytes -= entry.size
        del self._checkpoints[cut:]

    @property
    def count(self) -> int:
        return len(self._checkpoints)

    def latest(self) -> Optional[Checkpoint]:
        return self._checkpoints[-1] if self._checkpoints else None

    def oldest(self) -> Optional[Checkpoint]:
        return self._checkpoints[0] if self._checkpoints else None

    def history(self) -> List[Checkpoint]:
        """All retained checkpoints, oldest first (§5: "a history of
        snapshots" for multi-event failure recovery)."""
        return list(self._checkpoints)

    def checkpoint_lag(self) -> int:
        """Events since the last image -- the NetLog tail a crash right
        now would have to replay."""
        latest = self.latest()
        if latest is None:
            return self._last_seq
        return max(0, self._last_seq - latest.before_seq)

    def stats(self) -> Dict[str, object]:
        """Counters for experiment reporting (E7's cost columns)."""
        return {
            "taken": self.taken_count,
            "full": self.full_count,
            "delta": self.delta_count,
            "dedup_hits": self.dedup_hits,
            "evicted": self.evicted_count,
            "retained_bytes": self.total_bytes,
            "bytes_written": self.bytes_written,
            "total_cost": self.total_cost,
            "value_encodes": self.value_encodes,
            "value_decodes": self.value_decodes,
            "encodes_skipped": self.encodes_skipped,
            "checkpoint_lag": self.checkpoint_lag(),
        }
