"""The write-ahead log of network-state-altering operations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.openflow.inversion import CounterRecord
from repro.openflow.messages import Message


@dataclass
class NetLogRecord:
    """One logged operation: the message, and what undoes it."""

    txn_id: int
    dpid: int
    message: Message
    inverse_messages: List[Message]
    counter_records: List[CounterRecord]
    applied_at: float


@dataclass
class WriteAheadLog:
    """Append-only log, queryable per transaction.

    The log is the audit trail problem tickets reference ("the rules
    installed" -- §2.2) and the source of truth for rollback.
    """

    records: List[NetLogRecord] = field(default_factory=list)
    max_records: Optional[int] = 100_000
    #: Optional Telemetry; appends are counted and head-trims surface
    #: as trace events (a trim silently shortens the audit trail).
    telemetry: Optional[object] = field(default=None, repr=False,
                                        compare=False)

    def append(self, record: NetLogRecord) -> None:
        self.records.append(record)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("netlog.wal.appends")
        if self.max_records is not None and len(self.records) > self.max_records:
            # Trim the oldest committed prefix; aborts always touch the
            # tail, so trimming the head is safe.
            excess = len(self.records) - self.max_records
            del self.records[:excess]
            if self.telemetry is not None and self.telemetry.enabled:
                self.telemetry.tracer.event("netlog.wal.trim",
                                            dropped=excess)

    def for_transaction(self, txn_id: int) -> List[NetLogRecord]:
        return [r for r in self.records if r.txn_id == txn_id]

    def drop_transaction(self, txn_id: int) -> int:
        """Remove a rolled-back transaction's records; returns count."""
        before = len(self.records)
        self.records = [r for r in self.records if r.txn_id != txn_id]
        return before - len(self.records)

    def __len__(self) -> int:
        return len(self.records)
