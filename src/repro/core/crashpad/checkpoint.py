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
  key, encoded the same way).  A key whose version has not moved since
  the previous take is never touched: the new entry shares the
  previous entry's tuple and ``encodes_skipped`` counts the skip.  A
  key that moved at entries the app named
  (:meth:`~repro.apps.base.SDNApp.mark_dirty` ``(key, entry)``) gets
  one more patch holding just those entries.  Anything else -- a
  scalar, an untracked app, a key created, deleted or replaced since
  the previous take, a take with no baseline to trust -- is re-encoded
  whole into a fresh base.  :func:`decode_state` decodes the base and
  applies the patches in order.
- **fold.**  Patches make a restore read bytes a whole image would not
  hold, so a dirty key whose patches already outweigh
  ``fold_fraction`` of its base is *folded*: re-encoded whole from the
  live value, exactly like any whole-dirty key.  Restore cost stays
  within that fraction (plus the patches still in flight) of a full
  image, bounded by sizes the store can see rather than by a setting.
- **an image is its buffer map.**  A finalised :class:`Checkpoint`
  holds its resolved ``{key: buffers}`` map.  Tuples and ``bytes`` are
  shared between neighbouring entries, so an entry costs O(keys) beyond
  the bytes it newly wrote (``size``), and nothing downstream ever
  reassembles anything: :meth:`CheckpointStore.buffers` hands the map
  out, eviction past ``keep`` promotes the new oldest entry by
  relabelling it, and :meth:`restore`, the STS probes of
  :mod:`repro.core.crashpad.sts` and
  :class:`~repro.core.guard.ControllerGuard` all go through
  :func:`decode_state`.
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

There is **one take path**.  :meth:`CheckpointStore.take` *captures*:
per state key a ``_SAME`` marker (the key is clean), a ``_Patch`` (the
named entries' current values), or the value.
:meth:`CheckpointStore._finalize` turns a capture into an image -- it
is the only place a state value is encoded -- and the two flavours of
take differ only in *when* it runs:

- ``take()`` finalises at once and the whole modelled cost is the
  event-path ``cost``;
- ``take(defer=True)`` (what the stub asks for unless it needs a
  durable image) shallow-copies the whole-dirty values (a patch is
  already a copy of just its entries), appends a *pending* entry and
  leaves the encode to :meth:`drain` (wired into the stub's heartbeat
  tick).  The event path pays only the capture cost; the
  encode/verify/write cost accrues to ``deferred_cost`` and a
  ``crashpad.encode`` span instead of the ``appvisor.event`` span.
  Deferring needs a clean/dirty baseline and a predecessor to diff
  against; without them the take is synchronous anyway.

The modelled verify cost covers only the bytes the take produced plus
a per-key version compare: checkpoint cost is O(what changed), not
O(app state), and a take whose entire version map is unchanged is an
all-``_SAME`` capture that dedups without touching a single value.
Apps without version tracking have every key captured whole; apps that
expose only ``state_versions()`` are tracked per key.

Pending entries are not durable: a crash before the drain drops them
(:meth:`drop_pending`) and recovery falls back to the previous durable
image plus a longer NetLog tail replay; planned consumers (restore,
failover promotion, eviction, :meth:`~CheckpointStore.buffers`) force a
:meth:`flush` first.  The capture contract matches the bundled apps'
state layout: values are at most one level of mutable container whose
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
from typing import Dict, List, Optional, Tuple

from repro.openflow.serialization import (
    SerializationError,
    decode_state_value,
    encode_state_value,
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


def decode_state(buffers: Dict[object, Buffers]) -> dict:
    """The state a per-key buffer map encodes -- each key's base with
    its patches applied in order: fresh objects on every call, so no
    two restores (or STS probes) share a mutable value."""
    state = {}
    for key, (base, *patches) in buffers.items():
        value = decode_state_value(base)
        for patch in patches:
            changed, gone = decode_state_value(patch)
            for entry in gone:
                value.pop(entry, None)
            value.update(changed)
        state[key] = value
    return state


#: Checkpoint kinds, as the cost model charges them: a dump of the
#: whole state, the bytes that changed since the previous entry, or a
#: zero-byte alias for an unchanged state.
FULL = "full"
DELTA = "delta"
DEDUP = "dedup"


class _Same:
    """Capture marker: this key's value is the previous entry's."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<same>"


_SAME = _Same()


class _Patch:
    """Capture marker: the previous entry's value for this dict-valued
    key, with these entries set and these gone."""

    __slots__ = ("changed", "gone")

    def __init__(self, value: dict, entries):
        self.changed = {e: value[e] for e in entries if e in value}
        self.gone = tuple(e for e in entries if e not in value)


def _shallow_copy(value):
    """One-level copy of a captured state value.

    Deep enough for the bundled apps' state contract (one level of
    mutable container holding immutables / never-mutated values) and
    cheap enough to sit on the event critical path.
    """
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, list):
        return list(value)
    if isinstance(value, set):
        return set(value)
    return value


@dataclass
class Checkpoint:
    """One snapshot of an app's state.

    A finalised entry *is* its ``buffers`` map (key -> base buffer and
    patches; tuples and bytes shared with the neighbouring entries).
    A **pending** entry has not been encoded yet: ``capture`` holds the
    per-key markers (``_SAME``, a ``_Patch``, or a shallow-copied
    value) until :meth:`CheckpointStore.drain` finalises it.  Pending
    entries are not durable -- a crash drops them.
    """

    before_seq: int
    taken_at: float
    kind: str = FULL
    #: Bytes this entry added to the store: what it newly wrote (0 for
    #: dedup; a full image counts its whole state), or, once eviction
    #: has made it the oldest entry, the whole image it now anchors.
    size: int = 0
    #: Total size of the state's per-key buffers, patches included
    #: (what restoring this entry reads; 0 while pending).
    state_size: int = 0
    #: Modelled sim-time cost charged on the event path when this
    #: checkpoint was taken (for deferred takes: the capture only).
    cost: float = 0.0
    #: True until a deferred take's encode has been drained.
    pending: bool = False
    #: The capture until it is finalised: key -> marker | value.
    capture: Optional[dict] = field(default=None, repr=False)
    #: The image once it is: key -> (base, *patches).  Read-only.
    buffers: Optional[Dict[object, Buffers]] = field(default=None, repr=False)
    #: Modelled background cost of the deferred encode (0 for
    #: synchronous takes, where everything is in ``cost``).
    encode_cost: float = 0.0


class CheckpointStore:
    """Holds recent checkpoints for one app, with a cost model.

    ``base_cost`` models CRIU's fixed freeze/dump overhead for a full
    image and ``per_byte_cost`` the image-size-proportional part;
    ``hash_per_byte_cost`` is what the verify pass charges per
    (re-)encoded byte -- it stands for CRIU's check of the pages it
    re-dumped; no host code hashes -- and deltas are charged
    ``encode_per_byte_cost`` over the bytes they produced (userspace
    incremental encode, no freeze).  With version tracking the verify
    pass covers only those bytes plus
    ``version_check_per_key_cost`` per key.  Deferred takes
    charge ``capture_base_cost`` + ``capture_per_key_cost`` per dirty
    key on the event path and everything else in the background drain.
    All costs are in simulated seconds, and all seven are constants of
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
    capture_base_cost = 2e-5
    capture_per_key_cost = 1e-6
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
        #: Pending (not yet encoded) entries, FIFO -- always a suffix
        #: of ``_checkpoints``.
        self._pending: List[Checkpoint] = []
        #: Buffer map of the most recent *finalised* state (take,
        #: drain, or restore): what the next finalise shares clean
        #: keys with, lays patches over and diffs against.
        self._prev_buffers: Optional[Dict[object, Buffers]] = None
        #: (version map, key set) of the most recent *take* (pending
        #: included), the clean/dirty baseline for the next; None when
        #: the app tracks no versions or the take it described is gone.
        #: Only ever set where ``_prev_buffers`` is (or will be, by
        #: the drain of the pending take) set for the same keys.
        self._baseline: Optional[Tuple[Dict[object, int], frozenset]] = None
        #: Whose state this is (learnt at :meth:`take`), so an encode
        #: that fails later, in :meth:`drain`, can still name the app.
        self._app_name = ""
        #: Entries since (and including) the last full image; the next
        #: changed entry is a full one when it reaches ``full_every``.
        #: Advanced at finalise time so deferred entries classify in
        #: FIFO order.
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
        #: Deferred-encoding accounting: entries finalised in drains,
        #: their background cost, and entries lost to a crash.
        self.deferred_takes = 0
        self.deferred_drains = 0
        self.deferred_cost = 0.0
        self.pending_dropped = 0

    # -- snapshot --------------------------------------------------------

    @staticmethod
    def _tracking_of(app, name: str):
        """What the app's optional ``name`` tracking method reports, or
        None if it has none (conservative path)."""
        source = getattr(app, name, None)
        return source() if callable(source) else None

    @staticmethod
    def _baseline_of(versions, state):
        """What the next take compares versions against, as of now."""
        if versions is None:
            return None
        return dict(versions), frozenset(state)

    def note_seq(self, seq: int) -> None:
        """The stub reports every event seq it sees, so checkpoint lag
        (events since the last durable image) is computable here."""
        if seq > self._last_seq:
            self._last_seq = seq

    def _fold_due(self, key) -> bool:
        """Do ``key``'s patches already outweigh ``fold_fraction`` of
        its base?  Judged on the last finalised image -- the sizes the
        store can see; a pending base or patch counts once encoded."""
        base, *patches = self._prev_buffers.get(key) or (b"",)
        return sum(map(len, patches)) > self.fold_fraction * len(base)

    def take(self, app, before_seq: int, now: float,
             defer: bool = False) -> Checkpoint:
        """Snapshot ``app`` prior to event ``before_seq``.

        Captures the state -- per key ``_SAME`` when the app's version
        map vouches it has not moved since the previous take, a
        ``_Patch`` when the app named the entries that did (and the
        key is due no fold), else the value -- and finalises the
        capture at once, or with ``defer`` leaves that to :meth:`drain`
        (deferring needs version tracking on the app and a predecessor
        to diff against; without them the take is synchronous anyway).
        Returns the checkpoint; its modelled (event-path) cost is
        available via :meth:`cost_of` and accumulated in
        :attr:`total_cost`.
        """
        self.note_seq(before_seq)
        self._app_name = app.name
        try:
            state = app.get_state()
            versions = self._tracking_of(app, "state_versions")
            # Asked on every take, used or not: the marks are "since
            # the store last asked".
            moved = self._tracking_of(app, "dirty_entries") or {}
        except Exception as exc:  # noqa: BLE001 - fault boundary: app code
            raise CheckpointError(f"cannot snapshot {app.name}: {exc}") from exc
        if not isinstance(state, dict):
            raise CheckpointError(
                f"cannot snapshot {app.name}: get_state() returned "
                f"{type(state).__name__}, not a dict")

        baseline = self._baseline if versions is not None else None
        defer = defer and baseline is not None and bool(self._checkpoints)
        if not defer:
            self.flush()
        prev_versions, prev_keys = baseline or ({}, ())
        # Whole values are shallow-copied only when their encode waits,
        # so later in-place mutations by the app cannot leak into it.
        capture: Dict[object, object] = {}
        dirty = 0
        for key, value in state.items():
            known = key in prev_keys
            if known and versions.get(key) == prev_versions.get(key):
                capture[key] = _SAME
                continue
            entries = moved.get(key) if known else None
            if (entries is not None and isinstance(value, dict)
                    and not self._fold_due(key)):
                capture[key] = _Patch(value, entries)
            else:
                capture[key] = _shallow_copy(value) if defer else value
            dirty += 1
        version_cost = (len(state) * self.version_check_per_key_cost
                        if versions is not None else 0.0)
        checkpoint = Checkpoint(before_seq=before_seq, taken_at=now,
                                kind=DELTA, pending=defer, capture=capture)
        if defer:
            checkpoint.cost = (self.capture_base_cost
                               + dirty * self.capture_per_key_cost
                               + version_cost)
            self.deferred_takes += 1
            self._pending.append(checkpoint)
        else:
            checkpoint.cost = self._finalize(checkpoint, version_cost)
        self._baseline = self._baseline_of(versions, state)
        self._checkpoints.append(checkpoint)
        if len(self._checkpoints) > self.keep:
            # The survivor of an eviction must hold its image.
            self.flush()
            self._evict(len(self._checkpoints) - self.keep)
        self.taken_count += 1
        self.total_cost += checkpoint.cost
        if self.metrics is not None:
            self.metrics.inc("checkpoint.taken")
        return checkpoint

    def _finalize(self, entry: Checkpoint,
                  version_cost: float = 0.0) -> float:
        """Turn ``entry``'s capture into its image: share the
        predecessor's buffers for ``_SAME`` keys, lay an encoded patch
        over them for ``_Patch`` keys, encode the rest whole (the one
        place a state value is encoded), classify.  Returns the
        modelled cost -- the verify pass reads what was encoded, plus
        ``version_cost``, plus the write."""
        prev = self._prev_buffers or {}
        buffers: Dict[object, Buffers] = {}
        encoded = written = skipped = 0
        for key, marker in entry.capture.items():
            whole = marker is not _SAME and type(marker) is not _Patch
            if not whole and key not in prev:
                raise CheckpointError(
                    f"capture at before_seq={entry.before_seq} "
                    "references a key with no predecessor buffer")
            if marker is _SAME:
                buffers[key] = prev[key]
                skipped += 1
                continue
            if whole:
                buf = encode_state_key(self._app_name, key, marker)
                buffers[key] = (buf,)
                if prev.get(key) != (buf,):
                    written += len(buf)
            else:
                buf = encode_state_key(self._app_name, key,
                                       (marker.changed, marker.gone))
                buffers[key] = prev[key] + (buf,)
                written += len(buf)
            self.value_encodes += 1
            encoded += len(buf)
        self.encodes_skipped += skipped
        entry.capture = None
        entry.pending = False
        entry.buffers = buffers
        entry.state_size = sum(len(buf) for bufs in buffers.values()
                               for buf in bufs)
        cost = encoded * self.hash_per_byte_cost + version_cost
        diffable = bool(self._checkpoints) and self._prev_buffers is not None
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
            entry.kind = DELTA
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
        self._prev_buffers = buffers
        self.total_bytes += entry.size
        self.bytes_written += entry.size
        if self.metrics is not None and entry.size:
            self.metrics.inc("checkpoint.bytes_written", entry.size)
        return cost

    def drain(self) -> Tuple[List[Checkpoint], float]:
        """Finalise every pending entry, oldest first.  Returns the
        finalised entries and their total modelled background cost --
        the ``crashpad.encode`` span."""
        finalized: List[Checkpoint] = []
        cost = 0.0
        while self._pending:
            entry = self._pending[0]
            entry.encode_cost = self._finalize(entry)
            del self._pending[0]
            self.total_cost += entry.encode_cost
            self.deferred_cost += entry.encode_cost
            self.deferred_drains += 1
            cost += entry.encode_cost
            finalized.append(entry)
        return finalized, cost

    def flush(self) -> float:
        """Force every pending entry durable now (restore, failover
        promotion, eviction, or any consumer that needs the image)."""
        _, cost = self.drain()
        return cost

    def drop_pending(self) -> int:
        """Crash semantics: deferred captures that never drained die
        with the process.  Recovery then starts from the newest
        *durable* entry and replays the correspondingly longer NetLog
        tail.  Returns how many entries were dropped."""
        if not self._pending:
            return 0
        dropped = len(self._pending)
        pending = set(map(id, self._pending))
        self._checkpoints = [c for c in self._checkpoints
                             if id(c) not in pending]
        self._pending.clear()
        self.pending_dropped += dropped
        # The clean/dirty baseline described a dropped take (and the
        # entry marks it consumed went with it); the next take must
        # not skip or patch against it.  (Restore re-pairs the
        # baseline right after, on the crash path.)
        self._baseline = None
        if self.metrics is not None:
            self.metrics.inc("checkpoint.pending_dropped", dropped)
        return dropped

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
        """Simulated seconds this checkpoint cost to take (the event-
        path share; a deferred take's encode cost is background)."""
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

    def latest_durable(self) -> Optional[Checkpoint]:
        """Newest entry whose image exists (pending entries do not)."""
        for entry in reversed(self._checkpoints):
            if not entry.pending:
                return entry
        return None

    def buffers(self, checkpoint: Checkpoint) -> Dict[object, Buffers]:
        """The image at ``checkpoint``: per key its base buffer and
        patches -- what :func:`decode_state` turns back into the state.
        The map is the entry's own, shared with its neighbours: read
        it, never write it."""
        if checkpoint.pending:
            self.flush()
        if checkpoint.buffers is None:
            raise CheckpointError(
                f"checkpoint before_seq={checkpoint.before_seq} "
                "holds no image")
        return checkpoint.buffers

    def restore(self, app, checkpoint: Checkpoint) -> None:
        """Load ``checkpoint`` into ``app`` (the CRIU restore).

        Entries newer than the restored one are dropped: they describe
        a future the rollback abandoned, and leaving them in place
        would let a later dedup take alias their (stale) image -- or a
        later :meth:`latest_before` pick one -- silently restoring the
        pre-rollback timeline's state.

        Pending entries are flushed first: a *planned* restore needs
        the image.  (Crash recovery calls :meth:`drop_pending` before
        picking its target, so this flush is a no-op there.)
        """
        self.flush()
        buffers = self.buffers(checkpoint)
        try:
            state = decode_state(buffers)
        except SerializationError as exc:
            raise CheckpointError(
                f"corrupt checkpoint for {app.name}: {exc}"
            ) from exc
        self.value_decodes += sum(map(len, buffers.values()))
        app.set_state(state)
        self.restored_count += 1
        self._truncate_after(checkpoint)
        # The next take shares, patches and diffs (and dedups) against
        # the *restored* image, not the image of the last take (which
        # the rollback just discarded).  A dedup may alias the restored
        # entry -- truncation just made it the newest -- which is
        # exactly the state an unchanged take would re-capture.
        self._prev_buffers = buffers
        # Re-pair the version baseline with the restored buffers: the
        # version map survives set_state untouched (it is bookkeeping
        # about the state, not state), so pairing it with the restored
        # buffers *now* absorbs any version bumped by the handler that
        # crashed mid-run.  Replay bumps versions and marks entries for
        # everything it touches, which the next take then captures over
        # the restored image; entry marks left from before the rollback
        # can only widen that capture, never narrow it.
        self._baseline = self._baseline_of(
            self._tracking_of(app, "state_versions"), state)
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

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def latest(self) -> Optional[Checkpoint]:
        return self._checkpoints[-1] if self._checkpoints else None

    def oldest(self) -> Optional[Checkpoint]:
        return self._checkpoints[0] if self._checkpoints else None

    def history(self) -> List[Checkpoint]:
        """All retained checkpoints, oldest first (§5: "a history of
        snapshots" for multi-event failure recovery)."""
        return list(self._checkpoints)

    def checkpoint_lag(self) -> int:
        """Events since the last *durable* image -- the NetLog tail a
        crash right now would have to replay."""
        durable = self.latest_durable()
        if durable is None:
            return self._last_seq
        return max(0, self._last_seq - durable.before_seq)

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
            "pending": len(self._pending),
            "pending_dropped": self.pending_dropped,
            "deferred_takes": self.deferred_takes,
            "deferred_drains": self.deferred_drains,
            "deferred_cost": self.deferred_cost,
            "checkpoint_lag": self.checkpoint_lag(),
        }
