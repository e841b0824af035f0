"""Structured tracing over the simulated clock.

A :class:`Tracer` produces **spans** -- named, tagged intervals of
simulated time -- at the stack's four seams (controller dispatch,
AppVisor RPC, NetLog transactions, Crash-Pad recovery).  Spans nest:
a NetLog transaction opened while the controller is dispatching a
PacketIn records the dispatch span as its parent, so a finished trace
reconstructs the causal timeline of one control-loop transit.

Spans also carry a **trace id**: the identity of the control-loop
event whose handling produced them.  The controller mints one at
ingestion (:meth:`Tracer.mint_trace`); everything downstream -- RPC
frames, NetLog transactions, replication shipping, retransmissions,
Crash-Pad recoveries -- propagates it rather than minting again, so
spans from every layer (and every replica) sharing a ``trace_id``
assemble into one causal tree (:mod:`repro.telemetry.causal`).
The ambient context lives in :attr:`Tracer.current_trace`; entering a
span with an explicit or inherited trace id sets it for the dynamic
extent, and split-phase completions restore it from the stashed id.

Two span shapes exist because the stack has two kinds of duration:

- synchronous work uses ``with tracer.span(name, **tags):`` (parented
  off the enclosing span via the tracer's stack);
- split-phase work -- an event delivered now and completed by a later
  RPC frame, a recovery started at detection and finished at the
  RestoreAck -- uses :meth:`Tracer.record_span` with an explicit start
  time, passing the stashed ``parent_id``/``trace_id`` explicitly
  (whatever span happens to be open at completion time is causally
  unrelated).

Tracing is **off by default**: every instrumented component holds a
:data:`NULL_TRACER` unless the operator opted in, and the null paths
cost one attribute load plus a truthiness check -- cheap enough that
the tier-1 latency benchmarks cannot see the difference.

Span retention is a **ring**: the newest ``max_spans`` spans are kept
and the oldest evicted (counted in :attr:`Tracer.dropped` and the
``trace.spans_dropped`` metric), so a long-lived ``repro serve``
deployment holds O(max_spans) memory no matter how long it runs.
"""

from __future__ import annotations

import itertools
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional


def json_safe(value):
    """Coerce a tag value to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


@dataclass
class SpanRecord:
    """One finished span: a named, tagged interval of simulated time."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    tags: Dict[str, object] = field(default_factory=dict)
    status: str = "ok"
    #: The control-loop event this span belongs to (None = untraced
    #: background work: heartbeats, context pushes, discovery).
    trace_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "tags": {k: json_safe(v) for k, v in self.tags.items()},
        }


class _NullSpan:
    """The reusable no-op context manager the null tracer hands out."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set_tag(self, key, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Does nothing, as fast as possible.

    Instrumented hot paths check ``tracer.enabled`` before building
    tag dicts, so the disabled cost is one attribute load per seam.
    """

    enabled = False
    #: Always None: the null tracer carries no trace context.  Class
    #: attribute on purpose -- the shared instance must stay stateless,
    #: so propagation sites never *assign* it without an enabled check.
    current_trace = None

    def span(self, name: str, trace_id: Optional[int] = None,
             **tags) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **tags) -> None:
        pass

    def record_span(self, name: str, start: float, status: str = "ok",
                    parent_id: Optional[int] = None,
                    trace_id: Optional[int] = None, **tags) -> None:
        return None

    def mint_trace(self) -> int:
        return 0

    def to_dicts(self) -> List[dict]:
        return []


#: The shared stateless no-op tracer every component starts with.
NULL_TRACER = NullTracer()


class _ActiveSpan:
    """An open span; finishes (and records itself) on ``__exit__``."""

    __slots__ = ("tracer", "name", "tags", "span_id", "parent_id",
                 "trace_id", "start", "_prev_trace")

    def __init__(self, tracer: "Tracer", name: str,
                 trace_id: Optional[int], tags: Dict[str, object]):
        self.tracer = tracer
        self.name = name
        self.tags = tags
        self.span_id = next(tracer._ids)
        self.parent_id = None
        self.trace_id = trace_id
        self.start = 0.0
        self._prev_trace: Optional[int] = None

    def __enter__(self) -> "_ActiveSpan":
        tracer = self.tracer
        stack = tracer._stack
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            if self.trace_id is None:
                self.trace_id = parent.trace_id
        if self.trace_id is None:
            self.trace_id = tracer.current_trace
        self.start = tracer.clock()
        self._prev_trace = tracer.current_trace
        tracer.current_trace = self.trace_id
        stack.append(self)
        return self

    def set_tag(self, key, value) -> None:
        self.tags[key] = value

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self.tracer
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        tracer.current_trace = self._prev_trace
        status = "ok"
        if exc_type is not None:
            status = "error"
            self.tags.setdefault("error", f"{exc_type.__name__}: {exc}")
        tracer._finish(SpanRecord(
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            start=self.start,
            end=tracer.clock(),
            tags=self.tags,
            status=status,
            trace_id=self.trace_id,
        ))
        return False  # never swallow exceptions


class Tracer:
    """Collects spans and point events against a supplied clock."""

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 recorder=None, metrics=None, max_spans: int = 20_000,
                 replica_id: Optional[str] = None,
                 shard_id: Optional[int] = None):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        #: Returns the current (simulated) time; rebindable so the
        #: tracer can be created before the Simulator exists.
        self.clock = clock or (lambda: 0.0)
        #: Optional FlightRecorder mirroring every finished span/event.
        self.recorder = recorder
        #: Optional MetricsCollector fed per-span-name latency series.
        self.metrics = metrics
        self.max_spans = max_spans
        #: Which controller replica produced this trace.  Replicated
        #: deployments run one tracer per replica; merged dumps stay
        #: attributable because every span/event carries the id.
        self.replica_id = replica_id
        #: Which shard this tracer's replica set belongs to (None for
        #: unsharded deployments).  Folded into minted trace ids --
        #: every shard runs replicas named r0..rN, so the replica crc
        #: alone collides across shards.
        self.shard_id = shard_id
        #: Retained spans, a ring: past ``max_spans`` the OLDEST span
        #: is evicted (recent history always survives a long run).
        self.spans: Deque[SpanRecord] = deque(maxlen=max_spans)
        #: Spans evicted from the ring, lifetime.
        self.dropped = 0
        #: The ambient trace id: spans and transactions opened while it
        #: is set inherit it unless given an explicit one.
        self.current_trace: Optional[int] = None
        self._stack: List[_ActiveSpan] = []
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # -- trace context -----------------------------------------------------

    def mint_trace(self) -> int:
        """A fresh trace id for one control-loop event at ingestion.

        Replicated deployments mint from per-replica tracers; the id is
        offset by a hash of the replica id so ids stay globally unique
        when traces from several replicas are merged (a backup's
        recovery spans must never collide with the primary's events).
        Sharded deployments add the shard id as a distinct (exact, not
        hashed) field above the replica hash: every shard names its
        replicas r0..rN, so without the shard bits two shards' primaries
        would mint identical ids.
        """
        base = 0
        if self.shard_id is not None:
            base |= (int(self.shard_id) & 0xFFFF) << 48
        if self.replica_id is not None:
            base |= (zlib.crc32(self.replica_id.encode("utf-8"))
                     & 0xFFFF) << 32
        return base + next(self._trace_ids)

    # -- producing ---------------------------------------------------------

    def span(self, name: str, trace_id: Optional[int] = None,
             **tags) -> _ActiveSpan:
        """Open a nested span; use as a context manager.

        ``trace_id`` pins the span to a trace explicitly; otherwise it
        inherits from the enclosing span, then from
        :attr:`current_trace`.
        """
        return _ActiveSpan(self, name, trace_id, tags)

    def record_span(self, name: str, start: float, status: str = "ok",
                    parent_id: Optional[int] = None,
                    trace_id: Optional[int] = None, **tags) -> SpanRecord:
        """Record a split-phase span that started at ``start``.

        Used where no call frame brackets the interval (an event
        completing via a later RPC frame, a recovery finishing at the
        RestoreAck).  Pass the stashed ``parent_id``/``trace_id`` from
        when the work *began* -- whatever span happens to be open at
        completion time is causally unrelated, so nothing is inherited
        from the stack.  ``trace_id`` falls back to the ambient
        :attr:`current_trace` (set by the frame handler that carried
        the completion).
        """
        if trace_id is None:
            trace_id = self.current_trace
        record = SpanRecord(
            span_id=next(self._ids), parent_id=parent_id, name=name,
            start=start, end=self.clock(), tags=tags, status=status,
            trace_id=trace_id,
        )
        self._finish(record)
        return record

    def event(self, name: str, **tags) -> None:
        """Record a point-in-time trace event (no duration)."""
        if self.replica_id is not None:
            tags.setdefault("replica", self.replica_id)
        if self.shard_id is not None:
            tags.setdefault("shard", self.shard_id)
        if self.current_trace is not None:
            tags.setdefault("trace", self.current_trace)
        if self.recorder is not None:
            self.recorder.record(self.clock(), "event", name, tags)
        if self.metrics is not None:
            self.metrics.inc(f"trace.events.{name}")

    def _finish(self, record: SpanRecord) -> None:
        if self.replica_id is not None:
            record.tags.setdefault("replica", self.replica_id)
        if self.shard_id is not None:
            record.tags.setdefault("shard", self.shard_id)
        if len(self.spans) == self.max_spans:
            self.dropped += 1
            if self.metrics is not None:
                self.metrics.inc("trace.spans_dropped")
        self.spans.append(record)
        if self.recorder is not None:
            flight_tags = dict(record.tags)
            flight_tags["duration"] = record.duration
            if record.trace_id is not None:
                flight_tags["trace"] = record.trace_id
            if record.status != "ok":
                flight_tags["status"] = record.status
            self.recorder.record(record.end, "span", record.name, flight_tags)
        if self.metrics is not None:
            self.metrics.observe(f"span.{record.name}", record.duration)

    # -- consuming ------------------------------------------------------------

    def spans_named(self, name: str) -> List[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def span_names(self) -> List[str]:
        """Distinct span names seen, sorted (the covered seams)."""
        return sorted({s.name for s in self.spans})

    def to_dicts(self) -> List[dict]:
        return [s.to_dict() for s in self.spans]
