"""A streaming log-bucketed histogram for sustained-load latency.

Sustained runs observe millions of samples; keeping them all (the
:class:`~repro.metrics.collector.LatencyRecorder` default) is O(n)
memory and O(n log n) to quantile.  This histogram is O(buckets)
forever: fixed log-spaced boundaries, one counter each, quantiles read
off the cumulative distribution.  Quantile answers are the *upper
bound* of the containing bucket, clamped to the exact ``max`` (no
quantile can exceed the largest sample) -- deterministic,
reproducible, and within one bucket ratio (~12%) of the true value,
which is tighter than run-to-run noise on any real benchmark.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence


class StreamingHistogram:
    """Log-bucketed counts over ``[low, high)`` seconds.

    ``growth`` is the per-bucket ratio (1.12 ~= 60 buckets per decade
    pair); samples below ``low`` land in bucket 0, samples at or above
    ``high`` in the overflow bucket (whose "bound" is ``high``).
    """

    def __init__(self, low: float = 1e-6, high: float = 60.0,
                 growth: float = 1.12):
        if not (0 < low < high):
            raise ValueError("need 0 < low < high")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.low = low
        self.high = high
        self.growth = growth
        self._log_low = math.log(low)
        self._log_growth = math.log(growth)
        nbuckets = int(math.ceil((math.log(high) - self._log_low)
                                 / self._log_growth)) + 2
        self.bounds: List[float] = [
            low * growth ** i for i in range(nbuckets - 1)
        ] + [high]
        self.counts: List[int] = [0] * nbuckets
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        if value < self.low:
            idx = 0
        elif value >= self.high:
            idx = len(self.counts) - 1
        else:
            idx = 1 + int((math.log(value) - self._log_low)
                          / self._log_growth)
            idx = min(idx, len(self.counts) - 1)
        self.counts[idx] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """The upper bound of the bucket containing quantile ``q``
        (q in [0, 1]), never above ``max``; NaN when empty."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for idx, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                return min(self.bounds[min(idx, len(self.bounds) - 1)],
                           self.max)
        return self.max

    def summary(self, quantiles: Sequence[float] = (0.5, 0.99, 0.999),
                ) -> Dict[str, float]:
        out: Dict[str, float] = {"count": self.count}
        if self.count:
            out["mean"] = self.mean
            out["max"] = self.max
        for q in quantiles:
            label = ("p" + f"{q * 100:g}".replace(".", "_"))
            out[label] = self.quantile(q)
        return out
