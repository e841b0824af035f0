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


class LatencyRecorder:
    """Collects samples; reports mean/percentiles.

    Every sample is kept, so each figure it reports -- percentiles
    (:func:`percentile`, nearest rank), ``minimum``, ``maximum`` and
    the histogram's counts -- is over the same samples as ``count``.
    The sorted order is cached between records, so a ``summary()``
    (three percentile reads) sorts once, not three times.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []
        self._total = 0.0
        self._sorted: Optional[List[float]] = None

    def record(self, value: float) -> None:
        self.samples.append(value)
        self._total += value
        self._sorted = None

    def _ordered(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self.samples)
        return self._sorted

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def sum(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        if not self.samples:
            return math.nan
        return self._total / len(self.samples)

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
    """A named bag of counters and latency recorders."""

    def __init__(self):
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
            recorder = self.recorders[name] = LatencyRecorder(name)
        recorder.record(value)

    def snapshot(self) -> Dict[str, object]:
        doc = {
            "counters": dict(self.counters),
            "timers": {name: r.summary() for name, r in self.recorders.items()},
        }
        if self.gauges:
            doc["gauges"] = dict(self.gauges)
        return doc
