"""Minimal causal sequences: STS-style ddmin over captured runs (§5).

"Using its event logs, LegoSDN can determine the minimal causal
sequence of events that led to the crash."  The checkpoint-level
variant lives in :mod:`repro.core.crashpad.sts` (scratch replicas of
one app), and so does :func:`ddmin`, the one minimiser both run; this
module is the whole-deployment version: each probe is a
full :meth:`~repro.debug.replay.ReplayHarness.replay` of an event
subsequence, and a subsequence "causes" the failure when its replay
reproduces the recording's :class:`FailureSignature`.

The search is seeded by the failing event's causal trace: events
sharing the offending trace id (the offender itself plus any
re-delivered collateral the tracer linked to it) are probed first as a
candidate sequence, and only when that cheap guess fails does the
search fall back to delta debugging over the full capture.  Everything
is deterministic -- the probe order is a pure function of the capture,
and every replay re-seeds from the recording's config -- so the same
recording always minimizes to the same sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.crashpad.sts import ddmin
from repro.debug.capture import CapturedEvent
from repro.debug.replay import Recording, ReplayHarness
from repro.debug.signature import FailureSignature


class MinimizationError(RuntimeError):
    """There is nothing to minimize: the recording is clean, or its
    full captured sequence replays to another signature."""

    def __init__(self, message: str,
                 replayed: Optional[FailureSignature] = None):
        super().__init__(message)
        #: What the full sequence replayed to (None: it was not replayed).
        self.replayed = replayed


class _Prober:
    """Replays subsequences, caching signatures by index tuple."""

    def __init__(self, harness: ReplayHarness, target):
        self.harness = harness
        self.target = target
        self.probes = 0
        self._cache = {}

    def replayed(self, events: List[CapturedEvent]) -> FailureSignature:
        key = tuple(e.index for e in events)
        if key not in self._cache:
            self.probes += 1
            self._cache[key] = self.harness.replay(events).signature
        return self._cache[key]

    def test(self, events: List[CapturedEvent]) -> bool:
        return self.replayed(events).matches(self.target)


@dataclass
class MinimizedRepro:
    """The shortest reproducing sequence, plus how to run it."""

    original_length: int
    #: JSON-safe step rows: event description, dpid, recording trace
    #: id, and the top-3 critical-path self-time summary from the
    #: verification replay.
    steps: List[dict]
    config: dict
    signature: dict
    probes: int
    #: The live captured events (for a standalone ``replay()`` call);
    #: excluded from :meth:`to_dict`.
    minimal_events: List[CapturedEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def to_dict(self) -> dict:
        return {
            "original_length": self.original_length,
            "minimized_length": len(self.steps),
            "steps": [dict(s) for s in self.steps],
            "config": self.config,
            "signature": dict(self.signature),
            "probes": self.probes,
        }

    def render(self) -> str:
        lines = [
            f"minimized repro: {len(self.steps)} of "
            f"{self.original_length} captured event(s) "
            f"({self.probes} replay probes)",
        ]
        for step in self.steps:
            lines.append(f"  step {step['step']}: s{step['dpid']} "
                         f"{step['event']} (trace {step['trace_id']})")
            for entry in step.get("critical_path", []):
                lines.append(
                    f"      {entry['name']:<30} "
                    f"{entry['self_ms']:>8.3f} ms "
                    f"{entry['share'] * 100:>5.1f}%")
        sig = self.signature
        detail = f": {sig['exception']}" if sig.get("exception") else ""
        lines.append(f"  reproduces: {sig['kind']} "
                     f"[{sig['failure_kind']}] in {sig['app']}{detail}")
        return "\n".join(lines)


def _describe_event(captured: CapturedEvent) -> str:
    packet = getattr(captured.event, "packet", None)
    payload = getattr(packet, "payload", "") or ""
    name = captured.event.type_name
    return f"{name}({payload})" if payload else name


def _step_rows(minimal: List[CapturedEvent], result) -> List[dict]:
    """Per-step rows with critical-path attribution from the
    verification replay (replay trace ids line up with injection order
    because replay injects nothing else)."""
    from repro.telemetry.causal import analyze

    telemetry = result.stack.telemetry
    spans = telemetry.tracer.to_dicts() if telemetry else []
    replayed = result.capture.events if result.capture else []
    rows = []
    for i, captured in enumerate(minimal):
        top = []
        if i < len(replayed):
            analysis = analyze(spans, trace_ids=[replayed[i].trace_id])
            top = [
                {"name": name,
                 "self_ms": round(entry["total"] * 1000, 3),
                 "share": round(entry["fraction"], 4)}
                for name, entry in analysis.top(3)
            ]
        rows.append({
            "step": i,
            "dpid": captured.dpid,
            "event": _describe_event(captured),
            "trace_id": captured.trace_id,
            "critical_path": top,
        })
    return rows


def minimize_failure(recording: Recording,
                     harness: Optional[ReplayHarness] = None,
                     attach: bool = True) -> MinimizedRepro:
    """Shrink ``recording`` to its minimal causal sequence.

    Probes the causal-trace guess first, then ddmin over the full
    capture; verifies the final sequence with one more (captured)
    replay whose spans provide the per-step critical-path summary.
    With ``attach`` (the default) the result is written onto the
    recording's problem ticket as ``ticket.minimized``.
    """
    if not recording.signature.failed:
        raise MinimizationError("recording has no failure to minimize")
    harness = harness or recording.harness
    events = list(recording.events)
    prober = _Prober(harness, recording.signature)
    replayed = prober.replayed(events)
    if not replayed.matches(recording.signature):
        raise MinimizationError(
            "full captured sequence did not reproduce the failure "
            f"({recording.signature.describe()}; replayed: "
            f"{replayed.describe()}); the run is nondeterministic "
            "beyond the replay config", replayed)
    failing_trace = recording.ticket.trace_id if recording.ticket else 0
    causal = [e for e in events
              if failing_trace and e.trace_id == failing_trace]
    if causal and len(causal) < len(events) and prober.test(causal):
        minimal = ddmin(causal, prober.test)
    else:
        minimal = ddmin(events, prober.test)
    verification = harness.replay(minimal, capture=True)
    repro = MinimizedRepro(
        original_length=len(events),
        steps=_step_rows(minimal, verification),
        config=recording.config,
        signature=recording.signature.to_dict(),
        probes=prober.probes,
        minimal_events=minimal,
    )
    if attach and recording.ticket is not None:
        recording.ticket.minimized = repro.to_dict()
    return repro
