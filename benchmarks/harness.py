"""Shared helpers for the benchmark harness.

Every benchmark follows the same pattern:

1. build the deployment(s) under test;
2. run the experiment once inside ``benchmark.pedantic`` (wall-clock
   cost is reported by pytest-benchmark; the *results* are simulated
   metrics);
3. print the table/series the paper's artifact corresponds to (visible
   with ``pytest -s``), attach it to ``benchmark.extra_info``;
4. assert the paper's qualitative *shape* (who wins, roughly by how
   much) -- absolute numbers are simulator-dependent and not asserted.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from repro.controller.monolithic import MonolithicRuntime
from repro.core.runtime import LegoSDNRuntime
from repro.metrics.collector import percentile  # noqa: F401 - for the experiments
from repro.network.net import Network


def run_once(benchmark, fn: Callable):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


def span_durations(telemetry, name: str) -> List[float]:
    """Durations (sim seconds) of every completed span named ``name``."""
    if not telemetry.enabled:
        return []
    return [span.duration for span in telemetry.tracer.spans
            if span.name == name]


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence]) -> str:
    """Render and print a fixed-width table; returns the text."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    text = "\n".join(lines)
    print(text)
    return text


def build_monolithic(topology, app_factories, seed: int = 0,
                     auto_restart: bool = False, restart_delay: float = 0.5,
                     warmup: float = 1.0):
    """A started monolithic deployment."""
    net = Network(topology, seed=seed)
    runtime = MonolithicRuntime(net.controller, auto_restart=auto_restart,
                                restart_delay=restart_delay)
    for factory in app_factories:
        runtime.launch_app(factory)
    net.start()
    net.run_for(warmup)
    return net, runtime


def build_legosdn(topology, apps, seed: int = 0, warmup: float = 1.0,
                  telemetry=None, **runtime_kwargs):
    """A started LegoSDN deployment (optionally with telemetry)."""
    net = Network(topology, seed=seed, telemetry=telemetry)
    runtime = LegoSDNRuntime(net.controller, **runtime_kwargs)
    for app in apps:
        runtime.launch_app(app)
    net.start()
    net.run_for(warmup)
    return net, runtime
