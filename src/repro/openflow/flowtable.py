"""Priority-ordered flow table with timeouts and counters.

The flow table is the switch-side state that NetLog must be able to
roll back *exactly*, including idle/hard timeouts and per-entry
counters -- the paper calls out that "while it is possible to undo a
flow delete event ... the flow timeout and flow counters cannot be
restored" without extra bookkeeping, which NetLog's counter-cache
provides (:mod:`repro.core.netlog.counter_cache`).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import compress, count
from operator import attrgetter, is_not
from typing import Dict, List, Optional, Tuple

from repro.openflow.actions import Action, Enqueue, Output
from repro.openflow.match import MATCH_FIELDS, Match
from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowRemovedReason,
)


@dataclass
class FlowEntry:
    """One installed flow rule.

    ``installed_at`` / ``last_hit_at`` are simulator timestamps used to
    evaluate hard and idle timeouts; ``packet_count`` / ``byte_count``
    are the counters statistics replies report.
    """

    match: Match
    priority: int
    actions: Tuple[Action, ...]
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: int = 0
    send_flow_removed: bool = False
    installed_at: float = 0.0
    last_hit_at: float = 0.0
    packet_count: int = 0
    byte_count: int = 0

    def hit(self, packet, now: float) -> None:
        """Account a packet against this entry."""
        self.packet_count += 1
        self.byte_count += getattr(packet, "size", 0)
        self.last_hit_at = now

    def is_expired(self, now: float) -> Optional[FlowRemovedReason]:
        """Return the expiry reason if this entry has timed out, else None."""
        if self.hard_timeout > 0 and now - self.installed_at >= self.hard_timeout:
            return FlowRemovedReason.HARD_TIMEOUT
        if self.idle_timeout > 0 and now - self.last_hit_at >= self.idle_timeout:
            return FlowRemovedReason.IDLE_TIMEOUT
        return None

    def remaining_hard_timeout(self, now: float) -> float:
        """Hard timeout remaining at ``now`` (0 if permanent).

        NetLog re-installs deleted entries with the *remaining* timeout,
        not the original one, so restored entries expire when the
        originals would have.
        """
        if self.hard_timeout <= 0:
            return 0.0
        return max(0.0, self.hard_timeout - (now - self.installed_at))

    def same_rule(self, match: Match, priority: int) -> bool:
        """Strict identity: same match and same priority (OFPFC_*_STRICT)."""
        return self.priority == priority and self.match == match

    def clone(self) -> "FlowEntry":
        """Deep-enough copy used for pre-state snapshots (actions are immutable)."""
        return FlowEntry(
            match=self.match,
            priority=self.priority,
            actions=self.actions,
            idle_timeout=self.idle_timeout,
            hard_timeout=self.hard_timeout,
            cookie=self.cookie,
            send_flow_removed=self.send_flow_removed,
            installed_at=self.installed_at,
            last_hit_at=self.last_hit_at,
            packet_count=self.packet_count,
            byte_count=self.byte_count,
        )


def _deadline(entry: FlowEntry) -> Optional[float]:
    """A lower bound on the first instant ``entry.is_expired`` holds
    (None for a permanent entry).  ``is_expired`` subtracts where this
    adds, so the bound leaves room for the two roundings."""
    due = math.inf
    if entry.hard_timeout > 0:
        due = entry.installed_at + entry.hard_timeout
    if entry.idle_timeout > 0:
        due = min(due, entry.last_hit_at + entry.idle_timeout)
    return due - 1e-9 * (1.0 + abs(due)) if due < math.inf else None


_MATCH_ROW = attrgetter(*MATCH_FIELDS)
_PACKET_ROW = attrgetter(*MATCH_FIELDS[1:])
_NONES = (None,) * len(MATCH_FIELDS)


def _classify(match: Match) -> tuple:
    """``(shape, key)``: which of ``MATCH_FIELDS`` ``match`` constrains
    (a tuple of bools) and its values there."""
    row = _MATCH_ROW(match)
    shape = tuple(map(is_not, row, _NONES))
    return shape, tuple(compress(row, shape))


def _packet_row(packet, in_port: Optional[int]) -> tuple:
    """``packet``'s value for every match field; a missing attribute
    reads as None, as in :meth:`Match.matches`."""
    try:
        return (in_port, *_PACKET_ROW(packet))
    except AttributeError:
        return (in_port, *[getattr(packet, f, None) for f in MATCH_FIELDS[1:]])


@dataclass
class FlowTable:
    """A single OpenFlow table: priority-ordered lookup plus mutation.

    Entries are kept sorted by descending priority (ties broken by
    insertion order, matching hardware behaviour closely enough for the
    invariant checker to be deterministic).  ``entries`` is that order,
    for reading: only this class's methods change it.  No operation on
    one rule or one packet scans it; three structures stand beside it:

    - a tuple-space index (Srinivasan et al., SIGCOMM '99),
      ``(-priority, shape) -> {key: (entries, in table order)}``: a
      shape is the fields a match constrains, its key their values;
    - a heap of expiry deadlines.  A deadline only ever moves later (a
      hit, a stats refresh), so a popped one is checked exactly and
      pushed back if its entry is still live;
    - ``(-priority, rank)`` per entry, parallel to ``entries``, where
      ``rank`` counts insertions: ``bisect`` finds any entry's place.
    """

    entries: List[FlowEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        given, self.entries = self.entries, []
        self._groups: List[tuple] = []       # (-priority, shape), sorted
        self._index: Dict[tuple, Dict[tuple, tuple]] = {}
        self._places: List[tuple] = []
        self._ranks_of: Dict[int, int] = {}  # id(entry) -> rank
        self._heap: List[tuple] = []         # (deadline, rank, entry)
        self._ranks = count()
        for entry in sorted(given, key=lambda e: -e.priority):
            self.insert(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    # -- lookup --------------------------------------------------------

    def lookup(self, packet, in_port: int) -> Optional[FlowEntry]:
        """Highest-priority entry matching ``packet`` on ``in_port``
        (between shapes at one priority, the earlier in table order)."""
        if not self._groups:
            return None
        row = _packet_row(packet, in_port)
        best = best_rank = None
        for group in self._groups:
            if best is not None and -group[0] < best.priority:
                break
            bucket = self._index[group].get(tuple(compress(row, group[1])))
            if bucket:
                rank = self._ranks_of[id(bucket[0])]
                if best is None or rank < best_rank:
                    best, best_rank = bucket[0], rank
        return best

    def find(self, match: Match, priority: Optional[int] = None) -> List[FlowEntry]:
        """Entries whose match is a subset of ``match`` (non-strict select).

        With ``priority`` given, restrict to strict (exact match+priority)
        identity -- the OFPFC_*_STRICT selection rule.
        """
        if priority is not None:
            return list(self._rule(_classify(match), priority))
        return [e for e in self.entries if e.match.is_subset_of(match)]

    def _rule(self, shape_key: tuple, priority: int) -> tuple:
        shape, key = shape_key
        return self._index.get((-priority, shape), {}).get(key, ())

    # -- mutation (FlowMod semantics) ----------------------------------

    def apply_flow_mod(self, mod: FlowMod, now: float) -> List[FlowEntry]:
        """Apply a FlowMod; return the entries *removed or overwritten*.

        The returned pre-state entries are exactly what NetLog needs to
        compute the inverse of ``mod`` (see
        :func:`repro.openflow.inversion.invert`).
        """
        cmd = mod.command
        if cmd == FlowModCommand.ADD:
            return self._add(mod, now)
        if cmd in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
            return self._modify(mod, now, strict=cmd == FlowModCommand.MODIFY_STRICT)
        if cmd in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT):
            return self._delete(mod, strict=cmd == FlowModCommand.DELETE_STRICT)
        raise ValueError(f"unknown FlowMod command: {cmd!r}")

    def _add(self, mod: FlowMod, now: float) -> List[FlowEntry]:
        shape_key = _classify(mod.match)
        displaced = self._rule(shape_key, mod.priority)
        for entry in displaced:
            self.remove(entry, shape_key)
        entry = FlowEntry(
            match=mod.match,
            priority=mod.priority,
            actions=mod.actions,
            idle_timeout=mod.idle_timeout,
            hard_timeout=mod.hard_timeout,
            cookie=mod.cookie,
            send_flow_removed=mod.send_flow_removed,
            installed_at=now,
            last_hit_at=now,
        )
        self.insert(entry, shape_key)
        return [e.clone() for e in displaced]

    def _modify(self, mod: FlowMod, now: float, strict: bool) -> List[FlowEntry]:
        targets = self.find(mod.match, mod.priority if strict else None)
        if not targets:
            # OpenFlow 1.0: MODIFY with no matching entry behaves as ADD.
            self._add(mod, now)
            return []
        snapshots = [e.clone() for e in targets]
        for entry in targets:
            entry.actions = mod.actions
            entry.cookie = mod.cookie
        return snapshots

    def _delete(self, mod: FlowMod, strict: bool) -> List[FlowEntry]:
        targets = self.find(mod.match, mod.priority if strict else None)
        if mod.out_port is not None:
            def forwards_to(entry):
                return any(
                    isinstance(a, (Output, Enqueue)) and a.port == mod.out_port
                    for a in entry.actions
                )

            targets = [e for e in targets if forwards_to(e)]
        snapshots = [e.clone() for e in targets]
        for entry in targets:
            self.remove(entry)
        return snapshots

    def insert(self, entry: FlowEntry, shape_key: Optional[tuple] = None) -> None:
        """Place ``entry`` after every entry of its priority or higher."""
        rank = next(self._ranks)
        shape, key = shape_key or _classify(entry.match)
        group = (-entry.priority, shape)
        if group not in self._index:
            self._index[group] = {}
            insort(self._groups, group)
        keyed = self._index[group]
        keyed[key] = keyed.get(key, ()) + (entry,)
        at = bisect_right(self._places, (group[0], rank))
        self._places.insert(at, (group[0], rank))
        self.entries.insert(at, entry)
        self._ranks_of[id(entry)] = rank
        due = _deadline(entry)
        if due is not None:
            heapq.heappush(self._heap, (due, rank, entry))

    def remove(self, entry: FlowEntry, shape_key: Optional[tuple] = None) -> None:
        """Take ``entry`` -- this object, not an equal one -- out."""
        rank = self._ranks_of.pop(id(entry))
        at = bisect_left(self._places, (-entry.priority, rank))
        del self._places[at], self.entries[at]
        shape, key = shape_key or _classify(entry.match)
        group = (-entry.priority, shape)
        keyed = self._index[group]
        bucket = keyed.pop(key)
        if len(bucket) > 1:
            keyed[key] = tuple(e for e in bucket if e is not entry)
        elif not keyed:
            del self._index[group]
            self._groups.remove(group)
        # Deadlines of removed entries linger until popped; a table that
        # is never swept (a backup's shadow) drops them here instead.
        if len(self._heap) > 2 * len(self.entries) + 64:
            self._heap = [item for item in self._heap if self._holds(item)]
            heapq.heapify(self._heap)

    def _holds(self, item: tuple) -> bool:
        """Is this heap item's entry still in the table, as inserted?"""
        return self._ranks_of.get(id(item[2])) == item[1]

    # -- timeouts --------------------------------------------------------

    def expire(self, now: float, dpid: int = 0) -> List[FlowRemoved]:
        """Remove expired entries; return FlowRemoved messages to emit,
        in table order.

        FlowRemoved is only generated for entries installed with
        ``send_flow_removed`` (the OFPFF_SEND_FLOW_REM flag).
        """
        heap = self._heap
        if not heap or heap[0][0] > now:
            return []
        due, live = [], []
        while heap and heap[0][0] <= now:
            item = heapq.heappop(heap)
            if not self._holds(item):
                continue
            _, rank, entry = item
            reason = entry.is_expired(now)
            if reason is None:
                live.append((rank, entry))
            else:
                due.append((-entry.priority, rank, entry, reason))
        for rank, entry in live:
            heapq.heappush(heap, (_deadline(entry), rank, entry))
        removed_msgs = []
        # Table order; ranks are unique, so no two entries are compared.
        for _, _, entry, reason in sorted(due):
            self.remove(entry)
            if entry.send_flow_removed:
                removed_msgs.append(
                    FlowRemoved(
                        dpid=dpid,
                        match=entry.match,
                        priority=entry.priority,
                        reason=reason,
                        cookie=entry.cookie,
                        duration=now - entry.installed_at,
                        packet_count=entry.packet_count,
                        byte_count=entry.byte_count,
                        idle_timeout=entry.idle_timeout,
                    )
                )
        return removed_msgs

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> List[FlowEntry]:
        """Deep copy of all entries (consistency checks, fingerprints)."""
        return [e.clone() for e in self.entries]

    def fingerprint(self, include_counters: bool = False) -> tuple:
        """Hashable summary of table contents for byte-identity checks.

        E4 (NetLog rollback) asserts that post-rollback fingerprints --
        *including counters*, courtesy of the counter-cache -- equal the
        pre-transaction fingerprints.
        """
        rows = []
        for e in sorted(self.entries, key=lambda e: (-e.priority, str(e.match))):
            row = (e.match, e.priority, e.actions, e.idle_timeout, e.hard_timeout)
            if include_counters:
                row += (e.packet_count, e.byte_count)
            rows.append(row)
        return tuple(rows)
