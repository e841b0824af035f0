"""The sustained-load harness (E19).

Synthesises 10^5-10^6-host universes and gravity/hotspot/churn traffic
matrices, drives the full sharded control stack on the simulated clock
for minutes of sim time under a memory ceiling, and reports
events/sec, latency percentiles, bytes/event, and peak RSS -- with a
``--check`` regression gate against a committed baseline.

- :mod:`repro.bench.synth` -- O(1)-memory host universes + traffic mixes;
- :mod:`repro.bench.loadgen` -- the sim-clock PacketIn injector;
- :mod:`repro.bench.hist` -- bounded-memory streaming latency histogram;
- :mod:`repro.bench.harness` -- scenarios, presets, the run loop,
  reports, and the regression gate.

CLI: ``repro bench --preset e19-100k`` (see ``repro bench --help``).
"""

from repro.bench.harness import (
    PRESETS,
    BenchReport,
    BenchScenario,
    check_report,
    default_memory_probe,
    run_scenario,
)
from repro.bench.hist import StreamingHistogram
from repro.bench.loadgen import LoadGenerator
from repro.bench.synth import HostRef, HostUniverse, TrafficMix

__all__ = [
    "PRESETS",
    "BenchReport",
    "BenchScenario",
    "HostRef",
    "HostUniverse",
    "LoadGenerator",
    "StreamingHistogram",
    "TrafficMix",
    "check_report",
    "default_memory_probe",
    "run_scenario",
]
