"""The counter-cache (§3.2).

"While it is possible to undo a flow delete event, by adding the flow
back to the network, the flow timeout and flow counters cannot be
restored.  Consequently, NetLog stores and maintains the timeout and
counter information of a flow table entry before deleting it. ...  For
counters, it stores the old counter values in a counter-cache and
updates the counter value in messages (viz., statistics reply) to the
correct one based on values from its counter-cache."

The cache is keyed by (dpid, match, priority).  When NetLog restores a
deleted entry, the hardware counters restart from zero; the cache
remembers the pre-delete values and :meth:`patch_flow_stats` adds them
back into statistics replies before apps see them, so applications
observe counters as if the delete/re-add round trip never happened.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.openflow.inversion import CounterRecord
from repro.openflow.match import Match
from repro.openflow.messages import FlowStatsReply
from repro.record import replace

CacheKey = Tuple[int, Match, int]


class CounterCache:
    """Preserved counters for restored flow entries."""

    def __init__(self):
        self._cache: Dict[CacheKey, CounterRecord] = {}
        self.patches_applied = 0

    @staticmethod
    def _key(dpid: int, match: Match, priority: int) -> CacheKey:
        return (dpid, match, priority)

    def store(self, record: CounterRecord) -> None:
        """Remember a record; repeated restores accumulate counters."""
        key = self._key(record.dpid, record.match, record.priority)
        existing = self._cache.get(key)
        if existing is not None:
            record = replace(
                record,
                packet_count=existing.packet_count + record.packet_count,
                byte_count=existing.byte_count + record.byte_count,
                original_installed_at=existing.original_installed_at,
            )
        self._cache[key] = record

    def lookup(self, dpid: int, match: Match,
               priority: int) -> Optional[CounterRecord]:
        return self._cache.get(self._key(dpid, match, priority))

    def forget(self, dpid: int, match: Match, priority: int) -> None:
        """Drop a record (the entry expired for real or was deleted by
        the app itself, so its history is no longer ours to report)."""
        self._cache.pop(self._key(dpid, match, priority), None)

    def patch_flow_stats(self, reply: FlowStatsReply) -> FlowStatsReply:
        """Return a reply with cached counters folded into each entry.

        The reply object itself is not mutated; NetLog hands apps a
        corrected copy while the controller keeps the raw one.
        """
        if not self._cache:
            return reply
        patched_entries = []
        patched_any = False
        for entry in reply.entries:
            record = self.lookup(reply.dpid, entry.match, entry.priority)
            if record is None:
                patched_entries.append(entry)
                continue
            patched_any = True
            self.patches_applied += 1
            patched_entries.append(
                dataclasses.replace(
                    entry,
                    packet_count=entry.packet_count + record.packet_count,
                    byte_count=entry.byte_count + record.byte_count,
                )
            )
        if not patched_any:
            return reply
        return FlowStatsReply(dpid=reply.dpid, entries=patched_entries,
                              xid=reply.xid)

    def patch_counts(self, dpid: int, match: Match, priority: int,
                     packet_count: int, byte_count: int) -> Tuple[int, int]:
        """Corrected (packets, bytes) for one entry's raw counters."""
        record = self.lookup(dpid, match, priority)
        if record is None:
            return packet_count, byte_count
        return (packet_count + record.packet_count,
                byte_count + record.byte_count)
