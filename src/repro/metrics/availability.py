"""Availability accounting.

Tracks up/down transitions per entity (an app, the controller, a host
pair) and integrates uptime over a window -- the metric the paper
cares most about ("availability is of utmost concern -- second only to
security").
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class AvailabilityTracker:
    """Transition-based uptime integration."""

    def __init__(self):
        # entity -> list of (time, up) transitions, in time order.
        self._transitions: Dict[str, List[Tuple[float, bool]]] = {}

    def set_up(self, entity: str, up: bool, now: float) -> None:
        """Record a state transition (idempotent for repeated states)."""
        transitions = self._transitions.setdefault(entity, [(0.0, True)])
        if transitions[-1][1] == up:
            return
        transitions.append((now, up))

    def mark_down(self, entity: str, now: float) -> None:
        self.set_up(entity, False, now)

    def mark_up(self, entity: str, now: float) -> None:
        self.set_up(entity, True, now)

    def fraction_up(self, entity: str, start: float, end: float) -> float:
        """Fraction of [start, end] the entity was up (1.0 if unknown)."""
        if end <= start:
            return 1.0
        transitions = self._transitions.get(entity)
        if not transitions:
            return 1.0
        up_time = 0.0
        for i, (t, up) in enumerate(transitions):
            seg_start = max(t, start)
            seg_end = end if i + 1 >= len(transitions) else min(
                transitions[i + 1][0], end)
            if up and seg_end > seg_start:
                up_time += seg_end - seg_start
        return up_time / (end - start)
