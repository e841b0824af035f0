"""The linear flow table: the reference oracle for the indexed one.

``FlowTable`` below is the class :mod:`repro.openflow.flowtable` held
before the table was indexed, verbatim: a priority-ordered list that
every operation scans.  ``reconcile_stats`` and ``forget_rule`` are the
bodies of ``TransactionManager.note_flow_stats`` / ``note_flow_removed``
from the same time, which rewrote ``entries`` themselves.
``tests/test_flowtable_index.py`` drives this and the indexed table
through the same operations; ``benchmarks/flowtable_cost.py`` times
both.  Keep it as it is: it is what "unchanged behaviour" means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.openflow.flowtable import FlowEntry
from repro.openflow.match import Match
from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    FlowRemoved,
)


@dataclass
class FlowTable:
    """A single OpenFlow table: priority-ordered lookup plus mutation.

    Entries are kept sorted by descending priority (ties broken by
    insertion order, matching hardware behaviour closely enough for the
    invariant checker to be deterministic).
    """

    entries: List[FlowEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    # -- lookup --------------------------------------------------------

    def lookup(self, packet, in_port: int) -> Optional[FlowEntry]:
        """Highest-priority entry matching ``packet`` on ``in_port``."""
        for entry in self.entries:
            if entry.match.matches(packet, in_port):
                return entry
        return None

    def find(self, match: Match, priority: Optional[int] = None) -> List[FlowEntry]:
        """Entries whose match is a subset of ``match`` (non-strict select).

        With ``priority`` given, restrict to strict (exact match+priority)
        identity -- the OFPFC_*_STRICT selection rule.
        """
        if priority is not None:
            return [e for e in self.entries if e.same_rule(match, priority)]
        return [e for e in self.entries if e.match.is_subset_of(match)]

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
        displaced = [
            e for e in self.entries if e.same_rule(mod.match, mod.priority)
        ]
        for entry in displaced:
            self.entries.remove(entry)
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
        self._insert_sorted(entry)
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
            from repro.openflow.actions import Enqueue, Output

            def forwards_to(entry):
                return any(
                    isinstance(a, (Output, Enqueue)) and a.port == mod.out_port
                    for a in entry.actions
                )

            targets = [e for e in targets if forwards_to(e)]
        snapshots = [e.clone() for e in targets]
        for entry in targets:
            self.entries.remove(entry)
        return snapshots

    def _insert_sorted(self, entry: FlowEntry) -> None:
        idx = len(self.entries)
        for i, existing in enumerate(self.entries):
            if existing.priority < entry.priority:
                idx = i
                break
        self.entries.insert(idx, entry)

    # -- timeouts --------------------------------------------------------

    def expire(self, now: float, dpid: int = 0) -> List[FlowRemoved]:
        """Remove expired entries; return FlowRemoved messages to emit.

        FlowRemoved is only generated for entries installed with
        ``send_flow_removed`` (the OFPFF_SEND_FLOW_REM flag).
        """
        removed_msgs = []
        survivors = []
        for entry in self.entries:
            reason = entry.is_expired(now)
            if reason is None:
                survivors.append(entry)
                continue
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
        self.entries = survivors
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


def forget_rule(table: FlowTable, match: Match, priority: int) -> None:
    """``note_flow_removed``'s shadow step."""
    table.entries = [
        e for e in table.entries if not e.same_rule(match, priority)
    ]


def reconcile_stats(table: FlowTable, reply, now: float,
                    grace: float) -> None:
    """``note_flow_stats`` on one table, with ``STATS_GRACE`` as
    ``grace``."""
    # (match, priority) -> the first entry in table order with it,
    # which is the one a strict lookup finds.
    by_rule: Dict[tuple, FlowEntry] = {}
    for entry in table.entries:
        by_rule.setdefault((entry.match, entry.priority), entry)
    reported_ids = set()
    for stat in reply.entries:
        rule = (stat.match, stat.priority)
        entry = by_rule.get(rule)
        if entry is None:
            entry = by_rule[rule] = FlowEntry(
                match=stat.match,
                priority=stat.priority,
                actions=stat.actions,
                idle_timeout=stat.idle_timeout,
                hard_timeout=stat.hard_timeout,
                cookie=stat.cookie,
                installed_at=now - stat.duration,
                last_hit_at=now,
                packet_count=stat.packet_count,
                byte_count=stat.byte_count,
            )
            table._insert_sorted(entry)
        else:
            if stat.packet_count > entry.packet_count:
                entry.last_hit_at = now
            entry.packet_count = stat.packet_count
            entry.byte_count = stat.byte_count
        reported_ids.add(id(entry))
    cutoff = now - grace
    table.entries = [
        e for e in table.entries
        if id(e) in reported_ids or e.installed_at >= cutoff
    ]
