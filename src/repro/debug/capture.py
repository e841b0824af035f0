"""Event capture: record what the controller actually ingested.

An :class:`EventCapture` registers on
:attr:`~repro.controller.core.Controller.ingest_taps` and snapshots
every switch message that survives the LLDP filter, in ingestion
order, together with the trace id dispatch used for it.  The snapshot
deep-copies the message so later mutation of packets or flow tables
cannot retroactively change the recording.

LLDP probes are deliberately absent: replay regenerates discovery
traffic from its own fresh network, so capturing probes would only
add noise the minimizer has to delete again.  Controller-level events
(SwitchJoin/Leave, AppCrashed) are likewise regenerated by the replay
stack rather than recorded.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List


@dataclass
class CapturedEvent:
    """One ingested switch message, frozen at capture time."""

    index: int
    time: float
    dpid: int
    event: object
    trace_id: int


class EventCapture:
    """A tap on the controller's ingestion point."""

    def __init__(self):
        self.events: List[CapturedEvent] = []

    def attach(self, controller) -> "EventCapture":
        controller.ingest_taps.append(self._tap)
        return self

    def _tap(self, time: float, dpid: int, msg, trace_id: int) -> None:
        self.events.append(CapturedEvent(
            index=len(self.events),
            time=time,
            dpid=dpid,
            event=copy.deepcopy(msg),
            trace_id=trace_id,
        ))

    def __len__(self) -> int:
        return len(self.events)
