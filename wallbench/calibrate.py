"""The speed-calibration kernel.

The sandbox this benchmark runs in changes speed by a factor of up to
two from minute to minute (measured over 15 minutes while building
this: a fixed stretch of the monolithic workload took between 1x and
2.05x its best time, with nothing else running in the VM).  That is
more than any bound worth gating on, so every run times a small fixed
pure-Python kernel interleaved with the work it measures and reports
host times *scaled to a reference speed*: the speed at which one kernel
call takes ``REFERENCE_KERNEL_S``.  A run made while the box is 30%
slow sees a kernel 30% slow and is scaled back; a change that makes the
stack itself faster or slower moves the reported number exactly as it
moves the stopwatch, because the kernel is frozen with the benchmark.
The raw, unscaled times are printed beside the scaled ones.  Each
sample is timed on both clocks: host times are scaled by the kernel's
host time, CPU times by its CPU time.

The kernel has two halves of about equal cost, because the box slows
down in two ways.  A busy sibling hyperthread slows plain bytecode; a
busy neighbour VM slows memory.  ``_compute`` is cache-resident dict,
heap, bytes and object work; ``_memory`` chases string-keyed dict
entries and churns small objects across a pool of a few megabytes, the
way the simulator walks its tables.  Over the same 15 minutes, dividing
7-second stretches of stack time by the kernel's time left 2.6% of
scatter (standard deviation) out of 9.5%; the compute half alone left
3.5%.
"""

from __future__ import annotations

import heapq
import os
from time import perf_counter, process_time

#: Reference speed: one kernel call takes this long.  The median over
#: 40 runs (ten seeds of each workload) on the box that froze the
#: workloads, so a scaled time is what a stopwatch reads there on an
#: ordinary minute.
REFERENCE_KERNEL_S = 0.0045

_POOL = 40_000


class _Cell:
    __slots__ = ("a", "b", "link")

    def __init__(self, a, b, link=None):
        self.a = a
        self.b = b
        self.link = link


class Kernel:
    """A fixed amount of interpreter work per call.  Owns the pool its
    memory half walks; build one per run."""

    def __init__(self):
        resident = _resident_mb()
        self._cells = [_Cell(i, i * 7) for i in range(_POOL)]
        self._by_name = {
            f"02:00:{(i >> 16) & 255:02x}:{(i >> 8) & 255:02x}:{i & 255:02x}":
            cell for i, cell in enumerate(self._cells)}
        self._names = list(self._by_name)
        self._heap = [(float(i * 2654435761 % 1000003), i)
                      for i in range(5000)]
        heapq.heapify(self._heap)
        self._x = 12345
        #: What the pool added to the process's resident set: the run
        #: takes it back out of ``peak_rss_mb``.
        self.rss_mb = max(0.0, _resident_mb() - resident)

    def _compute(self, n: int = 2000) -> int:
        counts = {}
        heap = []
        buf = bytearray()
        push, pop = heapq.heappush, heapq.heappop
        for i in range(n):
            key = (i * 2654435761) & 0x3FF
            counts[key] = counts.get(key, 0) + 1
            push(heap, (key, i))
            if len(heap) > 64:
                pop(heap)
            buf += key.to_bytes(2, "big")
            cell = _Cell(i, key)
            if isinstance(cell.a, int):
                counts[key] += cell.b & 1
        return len(buf) + len(counts) + len(heap)

    def _memory(self, n: int = 700) -> int:
        x = self._x
        cells, by_name, names = self._cells, self._by_name, self._names
        heap = self._heap
        push, pop = heapq.heappush, heapq.heappop
        buf = bytearray()
        total = 0
        for i in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            j = x % _POOL
            cell = by_name[names[j]]
            cell.b += 1
            total += cell.a
            cells[(j * 31) % _POOL] = _Cell(i, x, cell)
            when, _ = pop(heap)
            push(heap, (when + float(x % 1000), i))
            buf += x.to_bytes(4, "big")
        self._x = x
        return total + len(buf)

    def timed(self) -> tuple:
        """(host seconds, CPU seconds) one kernel call took, each from
        its own clock: host times are scaled by the first, CPU times by
        the second, so a descheduled kernel sample cannot leak into a
        CPU figure.  The checksum is consumed so no part can be
        skipped."""
        cpu_start = process_time()
        start = perf_counter()
        checksum = self._compute() + self._memory()
        took = perf_counter() - start
        cpu_took = process_time() - cpu_start
        if checksum < 0:
            raise AssertionError("kernel checksum went negative")
        return took, cpu_took


def _resident_mb() -> float:
    """This process's current resident set (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def speed_factor(kernel_seconds) -> float:
    """How much slower than the reference the box ran while
    ``kernel_seconds`` were sampled (>1 = slower); divide host times
    by it.  The mean, not the median: a slow spell that covers part of
    the samples inflates what they bracket by that part, and the mean
    kernel by the same part."""
    return sum(kernel_seconds) / len(kernel_seconds) / REFERENCE_KERNEL_S


def local_factors(kernel_seconds, reach: int = 3):
    """One speed factor per sample, from the samples within ``reach``
    of it: a slow spell that covers part of a run is scaled out of the
    slices it covers, not smeared over all of them."""
    return [speed_factor(kernel_seconds[max(0, i - reach):i + reach + 1])
            for i in range(len(kernel_seconds))]
