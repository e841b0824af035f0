"""Event journal for checkpoint-every-k recovery (§5).

"Rather than checkpointing after every event, we can checkpoint after
every few events.  When we do roll back to the last checkpoint, we can
replay all events since that checkpoint."

The journal records the events delivered since the oldest retained
checkpoint so the stub can rebuild state: restore the newest checkpoint
at-or-before the offending event, then re-run the journalled events
(output-suppressed -- their effects already committed) up to, but
excluding, the offending one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass
class JournalEntry:
    seq: int
    event: object


class EventJournal:
    """Bounded in-order journal of delivered events."""

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._entries: List[JournalEntry] = []

    def record(self, seq: int, event) -> None:
        self._entries.append(JournalEntry(seq=seq, event=event))
        if len(self._entries) > self.max_entries:
            del self._entries[: len(self._entries) - self.max_entries]

    def events_between(self, from_seq: int, before_seq: int) -> List[JournalEntry]:
        """Entries with ``from_seq <= seq < before_seq`` (replay set)."""
        return [e for e in self._entries if from_seq <= e.seq < before_seq]

    def remove(self, seq: int) -> None:
        """Drop one event (the offending one: it will never be replayed)."""
        self._entries = [e for e in self._entries if e.seq != seq]

    def truncate_before(self, seq: int) -> None:
        """Drop entries older than ``seq`` (superseded by a checkpoint)."""
        self._entries = [e for e in self._entries if e.seq >= seq]

    def last_seq(self) -> int:
        return self._entries[-1].seq if self._entries else 0
