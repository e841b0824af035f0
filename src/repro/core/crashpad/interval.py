"""Interval (fuzzy) checkpoint policy.

The paper checkpoints before *every* event (§4.1) -- maximally safe,
maximally expensive.  §5 floats the relaxation this module implements:
"rather than checkpointing after every event, we can checkpoint after
every few events", recovering the skipped span from the NetLog.  The
recovery side already exists (Crash-Pad restores the newest checkpoint
at or before the offending event and replays the journal tail up to,
but excluding, it); the policy here decides *when* a take is due.

``interval=N`` takes a checkpoint every N events -- SMaRtLight's
periodic-checkpoint-plus-log-replay shape.  The cost is bounded
recovery work (a tail of at most N-1 replayed events), never safety:
the NetLog holds every event since the last durable image, so restore
+ tail replay is state-identical to per-event checkpointing (the E6
equivalence property, extended to intervals by the interval-crash
tests).

The **adaptive** mode prices that recovery work by risk: while the
:class:`~repro.telemetry.health.HealthWatchdog` reports an elevated
crash probability -- or a crash actually happened moments ago -- the
policy tightens to per-event checkpointing, and it also forces a take
whenever the un-checkpointed tail outgrows ``max_tail`` (bounding both
replay time and journal growth between durable images).
"""

from __future__ import annotations

from typing import Callable, Optional


class CheckpointPolicy:
    """Decides when an app stub's next checkpoint is due.

    One instance per app stub (it tracks that app's crash recency).

    The health source (:meth:`attach_health`) is a zero-argument
    callable returning a health score in [0, 1] (1 = healthy), typically
    ``HealthWatchdog.health_score``; scores below ``HEALTH_THRESHOLD``
    count as elevated risk.  ``RISK_WINDOW`` is how long (sim seconds)
    after a crash the policy stays tightened.
    """

    RISK_WINDOW = 2.0
    HEALTH_THRESHOLD = 0.8

    def __init__(self, interval: int = 1, adaptive: bool = False,
                 max_tail: int = 64):
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if max_tail < 1:
            raise ValueError("max_tail must be >= 1")
        self.interval = interval
        self.adaptive = adaptive
        self.max_tail = max_tail
        self.health_source: Optional[Callable[[], float]] = None
        self._last_crash_at: Optional[float] = None
        #: Takes forced by the tail bound (observability).
        self.tail_forced = 0

    def attach_health(self, source: Callable[[], float]) -> None:
        """Wire a watchdog's health score in."""
        self.health_source = source

    def note_crash(self, now: float) -> None:
        """An app crash happened: tighten (adaptive mode) for a while.

        The first crash is the cheapest predictor of the next one --
        crash loops and flurries of related failures are exactly when
        a short recovery tail matters most.
        """
        self._last_crash_at = now

    def elevated_risk(self, now: float) -> bool:
        """True when recent history or the watchdog predicts trouble."""
        if (self._last_crash_at is not None
                and now - self._last_crash_at <= self.RISK_WINDOW):
            return True
        if self.health_source is not None:
            try:
                score = self.health_source()
            except Exception:
                return False
            if score is not None and score < self.HEALTH_THRESHOLD:
                return True
        return False

    def effective_interval(self, now: float) -> int:
        """The interval in force right now (1 while risk is elevated)."""
        if self.adaptive and self.elevated_risk(now):
            return 1
        return self.interval

    def due(self, events_since_checkpoint: int, now: float,
            tail_length: int = 0) -> bool:
        """Is a checkpoint due before the next event?

        ``events_since_checkpoint`` counts events since the last take
        (durable or pending); ``tail_length`` is the events since the
        last *durable* image -- the replay a crash right now would pay.
        """
        if events_since_checkpoint >= self.effective_interval(now):
            return True
        if tail_length >= self.max_tail:
            self.tail_forced += 1
            return True
        return False
