"""The flight recorder: the last N trace events, always on hand.

Like an aircraft's black box, the recorder keeps a bounded ring of
recent telemetry so that *when* something fails, the failure artefact
ships with its immediate history: the controller attaches a dump to
every :class:`~repro.controller.core.CrashRecord`, and the AppVisor
proxy attaches one to every Crash-Pad problem ticket.  The bound makes
the cost model simple -- memory is O(capacity) no matter how long the
deployment runs, and a dump is at most ``capacity`` events.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.telemetry.tracer import json_safe


class FlightRecorder:
    """A bounded ring buffer of recent trace events."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: Deque[Dict[str, object]] = deque(maxlen=capacity)
        #: Lifetime count, including events the ring has since evicted.
        self.total_recorded = 0

    def record(self, time: float, kind: str, name: str,
               tags: Optional[Dict[str, object]] = None) -> None:
        """Append one event; the oldest falls off past ``capacity``."""
        self._events.append({
            "time": time,
            "kind": kind,
            "name": name,
            "tags": {k: json_safe(v) for k, v in (tags or {}).items()},
        })
        self.total_recorded += 1

    def dump(self) -> List[Dict[str, object]]:
        """The retained events, oldest first, as JSON-safe dicts.

        Each call returns fresh copies, so a dump attached to a crash
        artefact stays frozen while the ring keeps rolling.  When the
        ring has evicted events, the dump leads with a
        ``flight.truncated`` meta entry carrying the evicted count --
        a silently shortened history would read as "nothing happened
        before this", which is exactly wrong for forensics.
        """
        out = [dict(event, tags=dict(event["tags"]))
               for event in self._events]
        dropped = self.total_recorded - len(self._events)
        if dropped > 0:
            oldest = out[0]["time"] if out else 0.0
            out.insert(0, {
                "time": oldest,
                "kind": "meta",
                "name": "flight.truncated",
                "tags": {"truncated": dropped},
            })
        return out

    def __len__(self) -> int:
        return len(self._events)
