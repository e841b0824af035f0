"""Network-level fault injection: the chaos plane for channels.

The existing injectors (:mod:`repro.faults.bugs`,
:mod:`repro.faults.injector`) break the *application*; this module
breaks the *network underneath it*.  A :class:`ChaosProfile` attaches
to any :class:`~repro.core.appvisor.channel.UdpChannel` (proxy<->stub
RPC or replication shipping alike) and perturbs every datagram put on
the wire:

- **loss** -- independent per-datagram drops, plus **burst loss**
  (a drop opens a window in which several consecutive datagrams die,
  the pattern real congested links actually show);
- **duplication** -- the datagram arrives twice;
- **reordering** -- a datagram is held back ``reorder_delay`` so later
  traffic overtakes it;
- **delay jitter** -- a uniform random extra delay on every delivery;
- **corruption** -- a byte of the payload is flipped in flight
  (exercising codec error handling and the reliable layer's CRC);
- **partitions** -- timed windows in which nothing gets through, in
  one direction or both (the split-brain / heal scenarios E16 and E17
  study).

All randomness flows through the profile's own seeded RNG, so a run
with the same seed and the same profile is bit-identical -- chaos is
deterministic here, which is what makes crash forensics replayable.

Composability: a profile perturbs bytes on the wire and knows nothing
about frames, so it stacks cleanly under batching, the reliable layer,
and app-level :class:`~repro.faults.injector.FaultyApp` injection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class PartitionWindow:
    """A timed interval during which the link drops everything.

    ``side`` restricts the partition to datagrams *sent by* that side
    ("proxy" or "stub" for RPC channels, "primary"-facing sides map the
    same way on replication channels); ``None`` cuts both directions.
    """

    start: float
    end: float
    side: Optional[str] = None

    def covers(self, now: float, side: str) -> bool:
        if not (self.start <= now < self.end):
            return False
        return self.side is None or self.side == side


class ChaosProfile:
    """Seeded, composable datagram perturbation.

    Probabilities are independent per datagram and evaluated in a fixed
    order (partition, loss, burst, duplicate, corrupt, reorder, jitter)
    so that a given seed always produces the same fault schedule.
    """

    def __init__(self, seed: int = 0, *,
                 loss: float = 0.0,
                 burst_loss: float = 0.0,
                 burst_len: int = 4,
                 duplicate: float = 0.0,
                 reorder: float = 0.0,
                 reorder_delay: float = 0.002,
                 jitter: float = 0.0,
                 corrupt: float = 0.0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.loss = loss
        #: Probability a datagram *opens* a loss burst; while a burst is
        #: live, every datagram (either direction) is dropped.
        self.burst_loss = burst_loss
        self.burst_len = burst_len
        self.duplicate = duplicate
        self.reorder = reorder
        self.reorder_delay = reorder_delay
        #: Max uniform extra delay added to every delivery.
        self.jitter = jitter
        self.corrupt = corrupt
        self.partitions: List[PartitionWindow] = []
        self._burst_remaining = 0
        # Observability: what the profile actually did.
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.corrupted = 0
        self.partition_drops = 0

    # -- configuration -----------------------------------------------------

    def partition(self, start: float, duration: float,
                  side: Optional[str] = None) -> PartitionWindow:
        """Cut the link during ``[start, start + duration)``."""
        window = PartitionWindow(start=start, end=start + duration,
                                 side=side)
        self.partitions.append(window)
        return window

    def is_partitioned(self, now: float, side: str) -> bool:
        return any(w.covers(now, side) for w in self.partitions)

    # -- the hook ----------------------------------------------------------

    def perturb(self, now: float, side: str,
                data: bytes) -> List[Tuple[float, bytes]]:
        """Decide the fate of one datagram sent by ``side`` at ``now``.

        Returns a list of ``(extra_delay, payload)`` deliveries: empty
        means dropped, two entries mean duplicated, and a payload may
        come back corrupted.  The channel charges transmission once and
        schedules each delivery independently.
        """
        if self.is_partitioned(now, side):
            self.partition_drops += 1
            self.dropped += 1
            return []
        if self._burst_remaining > 0:
            self._burst_remaining -= 1
            self.dropped += 1
            return []
        if self.loss > 0 and self.rng.random() < self.loss:
            self.dropped += 1
            return []
        if self.burst_loss > 0 and self.rng.random() < self.burst_loss:
            # This datagram opens the burst and is its first casualty.
            self._burst_remaining = max(0, self.burst_len - 1)
            self.dropped += 1
            return []
        payload = data
        if self.corrupt > 0 and self.rng.random() < self.corrupt:
            payload = self._flip_byte(payload)
            self.corrupted += 1
        base = 0.0
        if self.reorder > 0 and self.rng.random() < self.reorder:
            # Held back: anything sent in the next reorder_delay
            # overtakes it.
            base = self.reorder_delay * (1.0 + self.rng.random())
            self.reordered += 1
        if self.jitter > 0:
            base += self.rng.random() * self.jitter
        deliveries = [(base, payload)]
        if self.duplicate > 0 and self.rng.random() < self.duplicate:
            extra = base + self.rng.random() * max(
                self.jitter, self.reorder_delay)
            deliveries.append((extra, payload))
            self.duplicated += 1
        return deliveries

    def _flip_byte(self, data: bytes) -> bytes:
        if not data:
            return data
        pos = self.rng.randrange(len(data))
        flipped = data[pos] ^ (1 << self.rng.randrange(8))
        return data[:pos] + bytes((flipped,)) + data[pos + 1:]

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "corrupted": self.corrupted,
            "partition_drops": self.partition_drops,
        }
