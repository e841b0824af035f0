"""Telemetry: tracing, flight recording, and metrics export.

The paper's claims are *temporal* -- crashes are contained within a
bounded recovery window, transactions roll back before anyone sees
partial state -- so this layer makes the stack's timeline observable.
One :class:`Telemetry` object composes the three pieces:

- a :class:`~repro.telemetry.tracer.Tracer` producing nestable spans
  at the four seams (controller dispatch, AppVisor RPC, NetLog
  transactions, Crash-Pad recovery);
- a :class:`~repro.telemetry.recorder.FlightRecorder` ring of the last
  N events, dumped into crash records and problem tickets;
- a :class:`~repro.metrics.collector.MetricsCollector` fed per-seam
  latency series, exportable as Prometheus text or JSON
  (:mod:`repro.telemetry.export`).

Telemetry is **disabled by default** and the disabled object is inert:
its tracer is the shared no-op :data:`~repro.telemetry.tracer.NULL_TRACER`
and instrumented sites guard tag construction behind
``telemetry.enabled``, so the hot paths stay benchmark-neutral.  Opt in
per deployment::

    telemetry = Telemetry(enabled=True)
    net = Network(topo, telemetry=telemetry)
    ...
    print(telemetry.tracer.to_dicts())
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.metrics.collector import MetricsCollector
from repro.telemetry.export import prometheus_text, trace_dict, trace_json
from repro.telemetry.health import Anomaly, HealthWatchdog
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.tracer import NULL_TRACER, NullTracer, SpanRecord, Tracer

__all__ = [
    "Anomaly",
    "FlightRecorder",
    "HealthWatchdog",
    "NullTracer",
    "SpanRecord",
    "Telemetry",
    "Tracer",
    "prometheus_text",
    "trace_dict",
    "trace_json",
]


class Telemetry:
    """Tracer + flight recorder + metrics, wired together."""

    def __init__(self, enabled: bool = False,
                 clock: Optional[Callable[[], float]] = None,
                 flight_capacity: int = 128, max_spans: int = 20_000,
                 replica_id: Optional[str] = None,
                 shard_id: Optional[int] = None):
        self.enabled = enabled
        #: Everything but the identity tags: what a sibling is built with.
        self._settings = dict(flight_capacity=flight_capacity,
                              max_spans=max_spans)
        self.metrics = MetricsCollector()
        self.recorder = FlightRecorder(capacity=flight_capacity)
        self.replica_id = replica_id
        self.shard_id = shard_id
        if enabled:
            self.tracer: object = Tracer(
                clock=clock, recorder=self.recorder,
                metrics=self.metrics, max_spans=max_spans,
                replica_id=replica_id, shard_id=shard_id,
            )
        else:
            self.tracer = NULL_TRACER

    def sibling(self, replica_id: str,
                shard_id: Optional[int] = None) -> "Telemetry":
        """A fresh Telemetry configured as this one is, for another
        replica of the same deployment (the clock is bound by the
        Controller it is given to)."""
        return Telemetry(enabled=self.enabled, replica_id=replica_id,
                         shard_id=shard_id, **self._settings)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at the deployment's (simulated) clock.

        Called by the Controller at construction, so a Telemetry can be
        created before the Simulator it will observe.
        """
        if self.enabled:
            self.tracer.clock = clock

    def set_replica(self, replica_id: str) -> None:
        """Tag all subsequent spans/events with a controller replica id.

        Replicated deployments (:mod:`repro.replication`) call this so
        traces from different replicas stay attributable after a merge.
        """
        self.replica_id = replica_id
        if self.enabled:
            self.tracer.replica_id = replica_id

    def set_shard(self, shard_id: int) -> None:
        """Tag all subsequent spans/events (and minted trace ids) with
        a shard id.  Sharded deployments (:mod:`repro.shard`) call this
        for every replica's telemetry so merged traces from K replica
        sets stay attributable -- and so trace ids minted by same-named
        replicas on different shards can never collide."""
        self.shard_id = shard_id
        if self.enabled:
            self.tracer.shard_id = shard_id

    def flight_dump(self) -> list:
        """The flight recorder's retained events (empty when disabled)."""
        return self.recorder.dump()
