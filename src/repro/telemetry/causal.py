"""Causal trees and critical-path analysis over trace-linked spans.

Propagation (:mod:`repro.telemetry.tracer` and the frame plumbing in
:mod:`repro.core.appvisor.rpc`) stamps every span a control-loop event
produces -- controller dispatch, NetLog transactions, RPC datagrams,
retransmissions, checkpoint freezes, Crash-Pad recoveries, replication
ships -- with the ``trace_id`` minted at ingestion.  This module turns
those flat, cross-process span lists back into per-event **causal
trees** and answers the question flat telemetry cannot: *where did
this event's latency actually go?*

Tree assembly uses two signals, in order:

1. explicit ``parent_id`` links, when parent and child belong to the
   same trace (the tracer's stack discipline produces these for
   synchronous spans);
2. **interval containment** for split-phase spans recorded with no
   parent (an ``appvisor.rpc`` datagram span, a retransmission backoff,
   a checkpoint freeze): the smallest same-trace span whose interval
   encloses the child adopts it.

Spans nothing encloses become roots -- typically the outermost
``appvisor.event`` round trip or the ``controller.dispatch`` span.

Critical-path extraction walks each tree the way Jaeger's critical
path view does: descend from the span that finished last, attribute
any interval not covered by a child to the enclosing span's **self
time**, and recurse.  The result is an exact partition of the root's
wall-clock duration across components, so "p95 inflated 8x under 30%
loss" decomposes into "…and 86% of that is retransmission backoff on
the proxy<->stub channel".

Inputs are either :class:`~repro.telemetry.tracer.SpanRecord` objects
or their ``to_dict()`` form, so the analyzer runs equally on a live
tracer and on a ``/trace.json`` / ``repro trace`` dump loaded from
disk.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Tolerance for interval comparisons: sim timestamps are floats that
#: went through arithmetic, so strict containment uses a small slack.
_EPS = 1e-12


def _as_dict(span) -> dict:
    """Normalise a SpanRecord or an exported dict to the dict shape."""
    if isinstance(span, dict):
        return span
    return span.to_dict()


def group_by_trace(spans: Iterable) -> Dict[int, List[dict]]:
    """Spans bucketed by ``trace_id`` (untraced spans are skipped)."""
    traces: Dict[int, List[dict]] = {}
    for span in spans:
        d = _as_dict(span)
        tid = d.get("trace_id")
        if not tid:
            continue
        traces.setdefault(tid, []).append(d)
    return traces


class SpanNode:
    """One span in a causal tree."""

    __slots__ = ("span", "children", "parent")

    def __init__(self, span: dict):
        self.span = span
        self.children: List["SpanNode"] = []
        self.parent: Optional["SpanNode"] = None

    @property
    def name(self) -> str:
        return self.span["name"]

    @property
    def start(self) -> float:
        return self.span["start"]

    @property
    def end(self) -> float:
        return self.span["end"]

    @property
    def duration(self) -> float:
        return self.end - self.start


def build_trace_tree(spans: Iterable) -> List[SpanNode]:
    """Assemble one trace's spans into a forest of causal trees.

    Returns the roots, each with ``children`` ordered by start time.
    """
    nodes = [SpanNode(_as_dict(span)) for span in spans]
    by_span_id = {n.span["span_id"]: n for n in nodes
                  if n.span.get("span_id") is not None}
    # Pass 1: explicit parent links (same trace only -- the span_id map
    # is already restricted to this trace's spans).
    for node in nodes:
        pid = node.span.get("parent_id")
        parent = by_span_id.get(pid) if pid is not None else None
        if parent is not None and parent is not node:
            node.parent = parent
    # Pass 2: containment fallback for orphans.  Candidates sorted by
    # duration so the first enclosing span found is the smallest one.
    by_duration = sorted(nodes, key=lambda n: n.duration)
    for node in nodes:
        if node.parent is not None:
            continue
        for candidate in by_duration:
            if candidate is node:
                continue
            if (candidate.start <= node.start + _EPS
                    and node.end <= candidate.end + _EPS
                    and candidate.duration >= node.duration - _EPS):
                # Guard against adopting our own descendant (identical
                # intervals would otherwise create a cycle).
                anc = candidate
                while anc is not None and anc is not node:
                    anc = anc.parent
                if anc is node:
                    continue
                node.parent = candidate
                break
    roots: List[SpanNode] = []
    for node in nodes:
        if node.parent is not None:
            node.parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes:
        node.children.sort(key=lambda n: (n.start, n.end))
    roots.sort(key=lambda n: (n.start, n.end))
    return roots


def critical_path(root: SpanNode) -> List[Tuple[SpanNode, float]]:
    """The root's critical path as ``(node, self_time)`` segments.

    The Jaeger-style walk: start at the moment the root finished and
    move backwards; whenever a child's interval covers the current
    frontier the path descends into it, and any frontier interval no
    child covers is the enclosing span's own (self) time.  The
    self-times partition the root's duration exactly.
    """
    out: List[Tuple[SpanNode, float]] = []
    _walk(root, root.end, out)
    return out


def _walk(node: SpanNode, frontier: float,
          out: List[Tuple[SpanNode, float]]) -> None:
    cursor = min(node.end, frontier)
    for child in sorted(node.children, key=lambda c: c.end, reverse=True):
        child_end = min(child.end, cursor)
        if child_end <= child.start + _EPS:
            continue  # finished after the frontier moved past it
        if child_end < cursor - _EPS:
            # The stretch between this child finishing and the frontier
            # is time the parent spent on its own.
            out.append((node, cursor - child_end))
        _walk(child, child_end, out)
        cursor = max(child.start, node.start)
    if cursor > node.start + _EPS:
        out.append((node, cursor - node.start))


class CriticalPathAnalysis:
    """Aggregated self-time attribution across many traces."""

    def __init__(self, attribution: Dict[str, Dict[str, float]],
                 trace_count: int, total_time: float):
        #: span name -> {"total": s, "count": n, "fraction": 0..1}.
        self.attribution = attribution
        self.trace_count = trace_count
        #: Sum of all root durations analysed (the denominator).
        self.total_time = total_time

    def top(self, n: int = 10) -> List[Tuple[str, Dict[str, float]]]:
        ranked = sorted(self.attribution.items(),
                        key=lambda kv: kv[1]["total"], reverse=True)
        return ranked[:n]

    def render(self, top: int = 10) -> str:
        """A fixed-width attribution table for the CLI."""
        lines = [
            f"critical-path attribution over {self.trace_count} traces "
            f"({self.total_time * 1000:.2f} ms on the path)",
            f"{'component':<32} {'self ms':>10} {'share':>7} {'segs':>6}",
        ]
        for name, entry in self.top(top):
            lines.append(
                f"{name:<32} {entry['total'] * 1000:>10.3f} "
                f"{entry['fraction'] * 100:>6.1f}% {int(entry['count']):>6}"
            )
        return "\n".join(lines)


def analyze(spans: Iterable,
            trace_ids: Optional[Sequence[int]] = None) -> CriticalPathAnalysis:
    """Critical-path attribution aggregated per span name.

    Builds a causal tree per trace, extracts each root's critical
    path, and sums the self-times by span name -- the per-component
    latency breakdown the ``repro trace critical-path`` command
    prints.  ``trace_ids`` restricts the analysis; default is every
    trace present in ``spans``.
    """
    traces = group_by_trace(spans)
    if trace_ids is not None:
        traces = {tid: traces[tid] for tid in trace_ids if tid in traces}
    attribution: Dict[str, Dict[str, float]] = {}
    total_time = 0.0
    for tid, trace_spans in traces.items():
        for root in build_trace_tree(trace_spans):
            total_time += root.duration
            for node, self_time in critical_path(root):
                entry = attribution.setdefault(
                    node.name, {"total": 0.0, "count": 0, "fraction": 0.0})
                entry["total"] += self_time
                entry["count"] += 1
    if total_time > 0:
        for entry in attribution.values():
            entry["fraction"] = entry["total"] / total_time
    return CriticalPathAnalysis(attribution, len(traces), total_time)
