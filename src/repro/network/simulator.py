"""Discrete-event simulation engine.

A minimal, deterministic event loop: events are ``(time, seq, fn)``
triples ordered by time with FIFO tie-breaking, so two events scheduled
for the same instant fire in scheduling order.  All randomness in the
simulation flows through :attr:`Simulator.rng` (a seeded
``random.Random``), which keeps whole experiments reproducible.
"""

from __future__ import annotations

import itertools
import random
from heapq import heappop, heappush
from math import inf
from typing import Callable


class CancelledEvent:
    """Sentinel stored in the heap for cancelled events."""


_CANCELLED = CancelledEvent()


class Simulator:
    """The simulation clock and event queue.

    Typical use::

        sim = Simulator(seed=42)
        sim.schedule(0.5, lambda: print("fired at", sim.now))
        sim.run()
    """

    def __init__(self, seed: int = 0):
        self._queue = []
        self._seq = itertools.count()
        self._events = {}
        self.now = 0.0
        self.rng = random.Random(seed)
        self._events_processed = 0

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args) -> int:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time.

        Returns an event id usable with :meth:`cancel`.  Negative
        delays are clamped to "now" (still FIFO-ordered after events
        already scheduled for now).
        """
        eid = next(self._seq)
        now = self.now
        entry = [now + delay if delay > 0.0 else now, eid, fn, args]
        self._events[eid] = entry
        heappush(self._queue, entry)
        return eid

    def schedule_at(self, when: float, fn: Callable, *args) -> int:
        """Run ``fn(*args)`` at absolute simulated time ``when``."""
        # ``schedule(when - now)`` spelled out, a call saved: the event
        # fires at ``now + (when - now)``, which is not always ``when``
        # to the last bit and is the instant every recorded run has.
        eid = next(self._seq)
        now = self.now
        delay = when - now
        entry = [now + delay if delay > 0.0 else now, eid, fn, args]
        self._events[eid] = entry
        heappush(self._queue, entry)
        return eid

    def cancel(self, eid: int) -> bool:
        """Cancel a pending event; returns False if it already fired."""
        entry = self._events.pop(eid, None)
        if entry is None:
            return False
        entry[2] = _CANCELLED
        return True

    def every(self, interval: float, fn: Callable, *args) -> Callable[[], None]:
        """Run ``fn`` every ``interval`` seconds until the returned
        stopper callable is invoked."""
        stopped = [False]
        holder = [None]

        def tick():
            fn(*args)
            if not stopped[0]:      # ``fn`` may have stopped it
                holder[0] = self.schedule(interval, tick)

        holder[0] = self.schedule(interval, tick)

        def stop():
            stopped[0] = True
            if holder[0] is not None:
                self.cancel(holder[0])

        return stop

    # -- execution -----------------------------------------------------

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the queue; returns the number of events processed.

        ``max_events`` is a runaway-loop backstop, not a pacing knob.
        """
        return self._run(inf, max_events)

    def run_until(self, when: float, max_events: int = 10_000_000) -> int:
        """Process events with time <= ``when``; clock ends at ``when``."""
        processed = self._run(when, max_events)
        self.now = max(self.now, when)
        return processed

    def run_for(self, duration: float, max_events: int = 10_000_000) -> int:
        """Advance the clock by ``duration`` seconds."""
        return self.run_until(self.now + duration, max_events)

    def _run(self, when: float, max_events: int) -> int:
        """The loop: pop and run events due by ``when``.  A cancelled
        entry is dropped as it surfaces and counts for nothing."""
        queue, events = self._queue, self._events
        processed = 0
        while queue and queue[0][0] <= when and processed < max_events:
            at, eid, fn, args = heappop(queue)
            if fn is _CANCELLED:
                continue
            del events[eid]
            self.now = at
            fn(*args)
            self._events_processed += 1
            processed += 1
        return processed

    # -- introspection ---------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live (uncancelled) events still queued."""
        return len(self._events)

    @property
    def events_processed(self) -> int:
        return self._events_processed
