"""Fail-stop failure detection (§4.1).

"The proxy uses communication failures with the stub to detect that
the SDN-App has crashed.  To further help the proxy in detecting
crashes quickly, the stub also sends periodic heart beat messages."

Three signals feed the detector:

- **crash reports** -- the stub explicitly reports an exception (fast
  path; handled directly by the proxy, not here);
- **event timeouts** -- a dispatched event got no response within
  ``event_timeout`` (communication failure);
- **heartbeat loss** -- no heartbeat within ``heartbeat_timeout``
  (catches hangs, where the process is wedged but never reports).

A fourth signal *reclassifies* the other two: **channel faults**.  A
channel that exhausts its retry budget reports the fault
here; while a fault is recent (``channel_fault_window``), silence from
the app is attributed to the link, not the process -- the suspicion
comes back with reason ``"channel-fault"`` and Crash-Pad must *not*
restore a healthy app over a bad network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.record import record


@dataclass
class AppHealth:
    """Liveness bookkeeping for one app.

    ``inflight`` maps outstanding event seqs to dispatch times --
    several events may be in flight at once when the proxy runs the §5
    concurrency lanes.
    """

    last_heartbeat: float = 0.0
    inflight: Dict[int, float] = field(default_factory=dict)
    responses: int = 0
    heartbeats: int = 0
    #: When the app's channel last exhausted a retry budget (-inf when
    #: it never has), and how many times it has.
    channel_fault_at: float = float("-inf")
    channel_faults: int = 0


@record
class Suspicion:
    """One failure suspicion raised by the detector."""

    app_name: str
    reason: str  # "event-timeout" | "heartbeat-loss" | "channel-fault"
    inflight_seq: Optional[int]
    silent_for: float


class FailureDetector:
    """Timeout-based failure detector for AppVisor stubs."""

    def __init__(self, heartbeat_timeout: float = 0.35,
                 event_timeout: float = 0.5,
                 channel_fault_window: float = 1.0):
        self.heartbeat_timeout = heartbeat_timeout
        self.event_timeout = event_timeout
        #: For how long after a channel fault the app's silence is
        #: blamed on the link rather than the process.
        self.channel_fault_window = channel_fault_window
        self._health: Dict[str, AppHealth] = {}
        self.suspicions_raised = 0
        #: Optional Telemetry; suspicions become trace events (the
        #: "detect" edge of the recovery timeline).  The AppVisor proxy
        #: binds this to the deployment's telemetry at composition.
        self.telemetry = None

    def register(self, app_name: str, now: float) -> None:
        self._health[app_name] = AppHealth(last_heartbeat=now)

    def forget(self, app_name: str) -> None:
        self._health.pop(app_name, None)

    # -- signal intake ----------------------------------------------------

    def record_dispatch(self, app_name: str, seq: int, now: float) -> None:
        health = self._health.setdefault(app_name, AppHealth(last_heartbeat=now))
        health.inflight[seq] = now

    def record_response(self, app_name: str, now: float,
                        seq: Optional[int] = None) -> None:
        health = self._health.get(app_name)
        if health is None:
            return
        if seq is None:
            health.inflight.clear()
        else:
            health.inflight.pop(seq, None)
        health.responses += 1
        # A response proves the process is alive; treat it as a heartbeat.
        health.last_heartbeat = now

    def record_heartbeat(self, app_name: str, now: float) -> None:
        health = self._health.get(app_name)
        if health is None:
            return
        health.heartbeats += 1
        health.last_heartbeat = max(health.last_heartbeat, now)

    def record_channel_fault(self, app_name: str, now: float) -> None:
        """The app's channel exhausted a retry budget just now."""
        health = self._health.get(app_name)
        if health is None:
            return
        health.channel_fault_at = now
        health.channel_faults += 1

    def clear(self, app_name: str, now: float) -> None:
        """Reset after recovery: the app is freshly alive."""
        self._health[app_name] = AppHealth(last_heartbeat=now)

    # -- detection -----------------------------------------------------------

    def suspects(self, now: float) -> List[Suspicion]:
        """Apps that look dead right now."""
        suspicions = []
        for name, health in self._health.items():
            # A recent retry-budget exhaustion means the *link* is the
            # prime suspect: the timeouts below would fire on a healthy
            # app whose frames simply are not getting through, so their
            # verdict is reclassified rather than suppressed.
            lossy_link = (now - health.channel_fault_at
                          <= self.channel_fault_window)
            overdue = [(seq, t) for seq, t in health.inflight.items()
                       if now - t > self.event_timeout]
            if overdue:
                seq, dispatched_at = min(overdue, key=lambda item: item[1])
                suspicions.append(Suspicion(
                    app_name=name,
                    reason="channel-fault" if lossy_link else "event-timeout",
                    inflight_seq=seq,
                    silent_for=now - dispatched_at,
                ))
                continue
            if now - health.last_heartbeat > self.heartbeat_timeout:
                oldest = (min(health.inflight) if health.inflight else None)
                suspicions.append(Suspicion(
                    app_name=name,
                    reason="channel-fault" if lossy_link else "heartbeat-loss",
                    inflight_seq=oldest,
                    silent_for=now - health.last_heartbeat,
                ))
        self.suspicions_raised += len(suspicions)
        if suspicions and self.telemetry is not None and self.telemetry.enabled:
            for suspicion in suspicions:
                self.telemetry.tracer.event(
                    "crashpad.suspicion", app=suspicion.app_name,
                    reason=suspicion.reason, seq=suspicion.inflight_seq,
                    silent_for=suspicion.silent_for,
                )
        return suspicions
