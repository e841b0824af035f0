"""A live health watchdog over the telemetry stream.

The :class:`HealthWatchdog` is the stack's always-on observer: it runs
a periodic sweep on the simulated clock and turns the raw telemetry
feed (spans, counters, ground-truth snapshots) into **typed anomaly
events** plus a single rolling **health score** -- the numbers an
operator's ``/healthz`` endpoint and the experiment harnesses read.

Per sweep it:

- folds freshly finished spans into rolling per-name windows and
  maintains p50/p95/p99 over the last ``WINDOW`` seconds;
- compares each name's current p95 against an exponentially weighted
  baseline of its own history and flags a sustained blow-up as a
  ``latency-regression``;
- watches the ``channel.retransmits`` counter's rate and flags a
  ``retransmit-storm`` when retries per second cross the threshold
  (the signature of a lossy proxy<->stub or replication channel);
- checks every finished ``crashpad.recovery`` span against the
  recovery SLO and flags ``recovery-slo-burn`` when a recovery window
  exceeded it;
- optionally runs an :class:`~repro.invariants.checker.InvariantChecker`
  sweep over a fresh :class:`~repro.invariants.graph.NetSnapshot`
  (``snapshot_provider``) and flags each new ``invariant-violation``
  (deduplicated, so a persistent loop is one anomaly, not one per
  sweep).

Every anomaly is recorded as a ``watchdog.<kind>`` trace event (which
lands in the FlightRecorder, so crash tickets carry the anomaly
timeline) and counted in the ``watchdog.anomalies`` metric.  The
health score starts at 1.0 and subtracts each anomaly's severity with
an exponential time decay, so a burst of trouble drops the score
sharply and a quiet network heals back toward 1.0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.metrics.collector import rounded_index_percentile


@dataclass
class Anomaly:
    """One typed finding from a watchdog sweep."""

    kind: str
    at: float
    severity: float
    detail: str
    tags: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "at": self.at,
            "severity": self.severity,
            "detail": self.detail,
            "tags": dict(self.tags),
        }


class HealthWatchdog:
    """Periodic telemetry sweeps -> anomalies + a rolling health score."""

    #: Severity charged per anomaly kind (score subtraction at t=0).
    SEVERITIES = {
        "latency-regression": 0.15,
        "retransmit-storm": 0.25,
        "recovery-slo-burn": 0.3,
        "byzantine-divergence": 0.4,
        "invariant-violation": 0.5,
    }
    #: Exponential decay half-life for an anomaly's score impact (s).
    DECAY_HALF_LIFE = 5.0
    #: Retained anomalies (ring; the payload reports the newest).
    MAX_ANOMALIES = 256
    #: Seconds between sweeps, and the span history each one judges.
    INTERVAL = 0.25
    WINDOW = 2.0
    #: EWMA weight for folding a sweep's p95 into the baseline.
    BASELINE_ALPHA = 0.2
    #: p95 must exceed ``LATENCY_FACTOR`` x baseline to regress.
    LATENCY_FACTOR = 3.0

    def __init__(self, telemetry, sim,
                 min_samples: int = 8,
                 retransmit_rate_threshold: float = 40.0,
                 recovery_slo: float = 0.25,
                 snapshot_provider: Optional[Callable[[], object]] = None):
        self.telemetry = telemetry
        self.sim = sim
        #: Minimum samples in the window before a name is judged.
        self.min_samples = min_samples
        #: Retransmissions/second across all channels that count as a
        #: storm (E17's 30%-loss run produces hundreds).
        self.retransmit_rate_threshold = retransmit_rate_threshold
        #: Max tolerable crash-to-recovered window, seconds.
        self.recovery_slo = recovery_slo
        #: Zero-arg callable returning a fresh NetSnapshot (ground
        #: truth) for invariant sweeps; None disables them.
        self.snapshot_provider = snapshot_provider
        self.anomalies: Deque[Anomaly] = deque(maxlen=self.MAX_ANOMALIES)
        self.sweeps = 0
        #: span name -> deque of (end_time, duration) within window.
        self._windows: Dict[str, Deque[Tuple[float, float]]] = {}
        #: span name -> EWMA baseline of the windowed p95.
        self._baselines: Dict[str, float] = {}
        #: Names currently flagged as regressed (re-flag only after
        #: they recover -- one anomaly per episode, not per sweep).
        self._regressed: set = set()
        self._last_span_id = 0
        self._last_retransmits = 0
        self._last_sweep_at: Optional[float] = None
        self._seen_violations: set = set()
        self._stop = sim.every(self.INTERVAL, self.sweep)

    def stop(self) -> None:
        self._stop()

    # -- sweeping ----------------------------------------------------------

    def sweep(self) -> None:
        """One watchdog pass; runs every ``INTERVAL`` on the sim clock."""
        now = self.sim.now
        self.sweeps += 1
        fresh = self._ingest_new_spans()
        self._trim_windows(now)
        self._check_latency(now)
        self._check_retransmits(now)
        self._check_recoveries(fresh, now)
        self._check_invariants(now)
        self._last_sweep_at = now

    def _ingest_new_spans(self) -> List:
        """Spans finished since the last sweep (ring-buffer cursor).

        Span ids are monotonic and the tracer appends in completion
        order, so everything newer than the cursor sits at the tail.
        """
        tracer = self.telemetry.tracer
        if not getattr(tracer, "enabled", False):
            return []
        fresh: List = []
        for record in reversed(tracer.spans):
            if record.span_id <= self._last_span_id:
                break
            fresh.append(record)
        if fresh:
            self._last_span_id = fresh[0].span_id
            fresh.reverse()
        for record in fresh:
            window = self._windows.get(record.name)
            if window is None:
                window = self._windows[record.name] = deque()
            window.append((record.end, record.duration))
        return fresh

    def _trim_windows(self, now: float) -> None:
        cutoff = now - self.WINDOW
        for window in self._windows.values():
            while window and window[0][0] < cutoff:
                window.popleft()

    def _check_latency(self, now: float) -> None:
        for name, window in self._windows.items():
            if len(window) < self.min_samples:
                continue
            ordered = sorted(d for _, d in window)
            p95 = rounded_index_percentile(ordered, 95)
            baseline = self._baselines.get(name)
            if baseline is None:
                self._baselines[name] = p95
                continue
            if (p95 > baseline * self.LATENCY_FACTOR
                    and p95 > 1e-9 and name not in self._regressed):
                self._regressed.add(name)
                self._emit(Anomaly(
                    kind="latency-regression", at=now,
                    severity=self.SEVERITIES["latency-regression"],
                    detail=(f"{name} p95 {p95 * 1000:.2f} ms vs baseline "
                            f"{baseline * 1000:.2f} ms "
                            f"(x{p95 / max(baseline, 1e-12):.1f})"),
                    tags={"span": name, "p95": p95, "baseline": baseline},
                ))
            elif p95 <= baseline * self.LATENCY_FACTOR:
                self._regressed.discard(name)
            # Baseline learns slowly, and only from non-anomalous
            # sweeps -- a storm must not teach the watchdog that storm
            # latency is normal.
            if name not in self._regressed:
                self._baselines[name] = (
                    (1 - self.BASELINE_ALPHA) * baseline
                    + self.BASELINE_ALPHA * p95)

    def _check_retransmits(self, now: float) -> None:
        total = self.telemetry.metrics.counters.get("channel.retransmits", 0)
        delta = total - self._last_retransmits
        self._last_retransmits = total
        if self._last_sweep_at is None:
            return
        elapsed = max(now - self._last_sweep_at, 1e-9)
        rate = delta / elapsed
        if rate > self.retransmit_rate_threshold:
            self._emit(Anomaly(
                kind="retransmit-storm", at=now,
                severity=self.SEVERITIES["retransmit-storm"],
                detail=(f"{rate:.0f} retransmits/s over the last "
                        f"{elapsed * 1000:.0f} ms "
                        f"(threshold {self.retransmit_rate_threshold:.0f}/s)"),
                tags={"rate": rate, "delta": delta},
            ))

    def _check_recoveries(self, fresh: List, now: float) -> None:
        for record in fresh:
            if record.name != "crashpad.recovery":
                continue
            if record.duration > self.recovery_slo:
                self._emit(Anomaly(
                    kind="recovery-slo-burn", at=now,
                    severity=self.SEVERITIES["recovery-slo-burn"],
                    detail=(f"recovery of {record.tags.get('app', '?')} took "
                            f"{record.duration * 1000:.1f} ms "
                            f"(SLO {self.recovery_slo * 1000:.0f} ms)"),
                    tags={"app": record.tags.get("app"),
                          "duration": record.duration,
                          "trace": record.trace_id},
                ))

    def _check_invariants(self, now: float) -> None:
        if self.snapshot_provider is None:
            return
        from repro.invariants.checker import InvariantChecker

        snapshot = self.snapshot_provider()
        violations = InvariantChecker(snapshot).check_all()
        for violation in violations:
            key = (violation.kind,
                   violation.probe.pair if violation.probe is not None
                   else violation.detail)
            if key in self._seen_violations:
                continue
            self._seen_violations.add(key)
            severity = self.SEVERITIES["invariant-violation"]
            if violation.critical:
                severity = min(1.0, severity * 2)
            self._emit(Anomaly(
                kind="invariant-violation", at=now, severity=severity,
                detail=str(violation),
                tags={"invariant": violation.kind,
                      "critical": violation.critical},
            ))
        if not violations:
            # All clear: a future reappearance is a new episode.
            self._seen_violations.clear()

    def _emit(self, anomaly: Anomaly) -> None:
        self.anomalies.append(anomaly)
        if self.telemetry.enabled:
            self.telemetry.tracer.event(
                f"watchdog.{anomaly.kind}",
                severity=anomaly.severity, detail=anomaly.detail,
                **{k: v for k, v in anomaly.tags.items()
                   if isinstance(v, (str, int, float, bool, type(None)))})
        self.telemetry.metrics.inc("watchdog.anomalies")
        self.telemetry.metrics.inc(f"watchdog.{anomaly.kind}")
        # Invariant violations the sweep finds escalate every guarded
        # replica set's mode policy (byzantine-divergence reports come
        # *from* a set, which has already escalated itself).
        if anomaly.kind == "invariant-violation":
            for replicas in getattr(self, "_guarded_replicas", ()):
                replicas.mode_policy.note_anomaly(
                    self.sim.now, replicas.epoch,
                    anomaly.kind, anomaly.detail)

    # -- reporting ---------------------------------------------------------

    def health_score(self, now: Optional[float] = None) -> float:
        """1.0 = healthy; anomalies subtract severity, decaying in time."""
        if now is None:
            now = self.sim.now
        burden = 0.0
        for anomaly in self.anomalies:
            age = max(0.0, now - anomaly.at)
            burden += anomaly.severity * (0.5 ** (age / self.DECAY_HALF_LIFE))
        return max(0.0, min(1.0, 1.0 - burden))

    def note_byzantine(self, detail: str, suspicion: str = "divergence",
                       **tags) -> None:
        """Externally reported Byzantine evidence (from the replica
        set's signature checks, digest comparisons, and vote counting).

        Unlike the sweep checks, these are push-style: the replication
        layer sees a lying replica the instant a vote conflicts, so it
        reports in line rather than waiting for the next sweep.  The
        anomaly scores on ``/healthz`` like any other and -- through
        :meth:`guard_replication` -- escalates the guarded set's mode
        policy.
        """
        self._emit(Anomaly(
            kind="byzantine-divergence", at=self.sim.now,
            severity=self.SEVERITIES["byzantine-divergence"],
            detail=detail,
            tags={"suspicion": suspicion, **tags},
        ))

    def guard_replication(self, replicas) -> None:
        """Wire a :class:`~repro.replication.replicaset.ReplicaSet`'s
        Byzantine suspicions through this watchdog: the set's reports
        land here as ``byzantine-divergence`` anomalies, and
        watchdog-observed invariant violations escalate the set's mode
        policy in return -- the full adaptive loop of the paper's
        divergence-triggered mode switch.
        """
        replicas.watchdog = self
        self._guarded_replicas = getattr(self, "_guarded_replicas", [])
        self._guarded_replicas.append(replicas)

    @staticmethod
    def status_of(score: float) -> str:
        if score >= 0.9:
            return "healthy"
        if score >= 0.5:
            return "degraded"
        return "critical"

    def rolling_percentiles(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for name, window in sorted(self._windows.items()):
            if not window:
                continue
            ordered = sorted(d for _, d in window)
            out[name] = {
                "count": len(ordered),
                "p50": rounded_index_percentile(ordered, 50),
                "p95": rounded_index_percentile(ordered, 95),
                "p99": rounded_index_percentile(ordered, 99),
            }
        return out

    def anomaly_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for anomaly in self.anomalies:
            counts[anomaly.kind] = counts.get(anomaly.kind, 0) + 1
        return counts

    def healthz_payload(self, recent: int = 20) -> Dict[str, object]:
        """The ``/healthz`` detail document."""
        score = self.health_score()
        newest = list(self.anomalies)[-recent:]
        return {
            "score": round(score, 4),
            "status": self.status_of(score),
            "sim_time": self.sim.now,
            "sweeps": self.sweeps,
            "anomaly_total": len(self.anomalies),
            "anomaly_counts": self.anomaly_counts(),
            "anomalies": [a.to_dict() for a in reversed(newest)],
            "rolling": self.rolling_percentiles(),
        }
