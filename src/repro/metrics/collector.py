"""Counters and latency recorders."""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of an ascending,
    non-empty sequence: the smallest sample with at least ``p`` % of
    the samples at or below it -- always a recorded value, which suits
    control-loop experiments that record tens of samples."""
    if not ordered:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError("percentile must be in [0, 100]")
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def rounded_index_percentile(ordered: Sequence[float], p: float) -> float:
    """The sample at index ``round(p % of (n - 1))`` of an ascending
    sequence; 0.0 when it is empty.  A second rule only because two
    things are *defined* by it: the medians committed in
    ``BENCH_PR8.json`` (span-diff's gate) and the EWMA baselines the
    ``HealthWatchdog`` compares a sweep's p95 against.  New code uses
    :func:`percentile`."""
    if not ordered:
        return 0.0
    rank = int(round(p / 100.0 * (len(ordered) - 1)))
    return ordered[max(0, min(len(ordered) - 1, rank))]


class LatencyRecorder:
    """Collects samples; reports mean/percentiles.

    Percentiles are :func:`percentile` (nearest rank) over the sorted
    samples.  The sorted order is cached between records, so a
    ``summary()`` (three percentile reads) sorts once, not three times.

    With ``max_samples`` the recorder keeps only the newest N samples
    (a sliding window) while ``count``/``sum``/``mean`` stay *totals*
    over everything ever recorded -- sustained load runs (hours of sim
    time, millions of events) need bounded memory, and percentiles
    over a recent window are what a live dashboard wants anyway.
    """

    def __init__(self, name: str = "", max_samples: Optional[int] = None):
        self.name = name
        self.max_samples = max_samples
        if max_samples is None:
            self.samples: Sequence[float] = []
        else:
            from collections import deque

            self.samples = deque(maxlen=max_samples)
        self._count = 0
        self._total = 0.0
        self._sorted: Optional[List[float]] = None

    def record(self, value: float) -> None:
        self.samples.append(value)
        self._count += 1
        self._total += value
        self._sorted = None

    def _ordered(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self.samples)
        return self._sorted

    @property
    def count(self) -> int:
        """Total samples ever recorded (not just the retained window)."""
        return self._count

    @property
    def sum(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        if not self._count:
            return math.nan
        return self._total / self._count

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else math.nan

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else math.nan

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, p in [0, 100]; nan with no samples."""
        if not self.samples:
            return math.nan
        return percentile(self._ordered(), p)

    def histogram(self, buckets: Sequence[float]) -> List[Tuple[float, int]]:
        """Cumulative counts per upper bound, Prometheus ``le`` style.

        Returns ``(bound, samples <= bound)`` for each bound in sorted
        order, always terminated by an ``(inf, count)`` bucket.
        """
        ordered = self._ordered()
        result = [(bound, bisect.bisect_right(ordered, bound))
                  for bound in sorted(buckets)]
        result.append((math.inf, len(ordered)))
        return result

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "min": self.minimum,
            "max": self.maximum,
        }


class MetricsCollector:
    """A named bag of counters and latency recorders.

    ``max_samples`` bounds every recorder to a sliding window of that
    many samples (see :class:`LatencyRecorder`); the default keeps
    everything, as before.
    """

    def __init__(self, max_samples: Optional[int] = None):
        self.max_samples = max_samples
        self.counters: Dict[str, int] = {}
        self.recorders: Dict[str, LatencyRecorder] = {}
        #: Last-write-wins instantaneous values (e.g. checkpoint lag:
        #: events since the last durable image) -- not cumulative.
        self.gauges: Dict[str, float] = {}

    def inc(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        recorder = self.recorders.get(name)
        if recorder is None:
            recorder = self.recorders[name] = LatencyRecorder(
                name, max_samples=self.max_samples)
        recorder.record(value)

    def recorder(self, name: str) -> Optional[LatencyRecorder]:
        return self.recorders.get(name)

    def snapshot(self) -> Dict[str, object]:
        doc = {
            "counters": dict(self.counters),
            "timers": {name: r.summary() for name, r in self.recorders.items()},
        }
        if self.gauges:
            doc["gauges"] = dict(self.gauges)
        return doc
