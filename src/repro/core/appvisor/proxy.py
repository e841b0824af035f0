"""The AppVisor proxy: the controller-side half of the isolation layer.

"The former [proxy] runs as an SDN-App in the controller ... The proxy
dispatches the messages it receives from the controller to the stub,
which in turn delivers it to the SDN-App. ... The proxy in turn
registers itself for these message types with the controller and
maintains the per-application subscriptions in a table." (§4.1)

The proxy is also where LegoSDN's other two abstractions plug in:

- every event an app handles becomes a **NetLog transaction** (eager
  apply + rollback in ``netlog`` mode, or the §4.1 delay-buffer in
  ``buffer`` mode);
- detected failures are routed to **Crash-Pad**, which decides the
  compromise policy; the proxy executes it (restore, skip, or
  transform-and-redeliver).

The proxy's controller listener never lets an exception escape, which
severs the app->controller fate-sharing relationship by construction.
"""

from __future__ import annotations

import enum
import itertools
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.controller.api import Command
from repro.controller.events import AppCrashed
from repro.core.appvisor import rpc
from repro.core.crashpad.detector import FailureDetector
from repro.core.crashpad.recovery import CrashPad
from repro.core.netlog.buffer import DelayBuffer
from repro.core.netlog.transaction import Transaction, TransactionManager
from repro.openflow.messages import FlowRemoved, FlowStatsReply


def _violation_key(violation):
    """Stable identity for differential attribution: the invariant kind
    plus the affected probe pair (detail strings carry path listings
    that can shift when unrelated rules change)."""
    if violation.probe is not None:
        return (violation.kind, violation.probe.pair)
    return (violation.kind, violation.detail)


class AppStatus(enum.Enum):
    UP = "up"
    RECOVERING = "recovering"
    DEAD = "dead"  # No-Compromise verdict or unrecoverable restore


@dataclass
class Inflight:
    """The event an app is processing right now."""

    seq: int
    event: object
    txn: Optional[Transaction]
    dispatched_at: float
    #: Causal identity minted at controller ingestion; echoed on every
    #: frame the event produces (0 = untraced).
    trace_id: int = 0


@dataclass
class AppRecord:
    """Everything the proxy tracks per hosted app."""

    name: str
    subscriptions: frozenset
    endpoint: object
    status: AppStatus = AppStatus.UP
    queue: Deque = field(default_factory=deque)
    #: In-flight events keyed by lane.  Serial mode uses one constant
    #: lane; §5 concurrency lanes key by originating switch, letting
    #: events from different switches overlap in the pipeline while
    #: each lane stays FIFO.
    inflights: Dict[object, Inflight] = field(default_factory=dict)
    last_seq: int = 0
    crash_count: int = 0
    recoveries: int = 0
    events_dispatched: int = 0
    events_completed: int = 0
    events_skipped: int = 0
    events_transformed: int = 0
    byzantine_count: int = 0
    deep_restores: int = 0
    supports_deep_restore: bool = False
    #: The last DEEP_RESTORE_THRESHOLD crash instants, oldest first.
    crash_times: Deque[float] = field(default_factory=lambda: deque(
        maxlen=AppVisorProxy.DEEP_RESTORE_THRESHOLD))
    #: Suspicions the detector attributed to a lossy channel rather
    #: than the app -- silence Crash-Pad deliberately did NOT treat as
    #: a crash (no restore of a healthy app over a bad link).
    channel_suspicions: int = 0
    #: When the current recovery began (failure detection time), for
    #: the crashpad.recovery telemetry span.
    recovery_started_at: float = 0.0
    #: Trace id of the failure that triggered the current recovery, so
    #: the crashpad.recovery span (recorded split-phase at the
    #: RestoreAck) attaches to the offending event's causal tree.
    recovery_trace_id: int = 0
    #: The topology and device-table versions the stub was last sent
    #: (-1 = it holds nothing: the next ContextPush is a full one).
    pushed_topo_version: int = -1
    pushed_device_version: int = -1
    #: ContextPushes that carried the whole host table.
    full_pushes: int = 0


class ProxyShutdown(RuntimeError):
    """Raised into the controller when a critical "No-Compromise"
    invariant is violated and the operator chose shutdown (§5)."""


class AppVisorProxy:
    """The subscription table, dispatcher, and failure-handling driver."""

    LISTENER_NAME = "appvisor-proxy"
    #: Types the proxy always wants, for shadow-table upkeep and
    #: counter-cache patching, regardless of app subscriptions.
    INTERNAL_TYPES = frozenset({"FlowRemoved", "SwitchLeave", "SwitchJoin",
                                "FlowStatsReply"})
    #: Seconds between failure-detection sweeps (and context pushes).
    CHECK_INTERVAL = 0.05

    def __init__(self, controller, mode: str = "netlog",
                 crashpad: Optional[CrashPad] = None,
                 byzantine_check: bool = False,
                 shutdown_on_critical: bool = False,
                 parallel_lanes: bool = False):
        if mode not in ("netlog", "buffer"):
            raise ValueError(f"mode must be 'netlog' or 'buffer', not {mode!r}")
        self.parallel_lanes = parallel_lanes
        self.controller = controller
        self.sim = controller.sim
        self.telemetry = controller.telemetry
        self.mode = mode
        self.manager = TransactionManager(controller)
        self.buffer = DelayBuffer(self.manager)
        self.crashpad = crashpad or CrashPad()
        self.detector = FailureDetector()
        # The proxy is the composition point: the decision engine and
        # the detector observe through the deployment's telemetry.
        self.crashpad.telemetry = self.telemetry
        self.detector.telemetry = self.telemetry
        self.byzantine_check = byzantine_check
        self.shutdown_on_critical = shutdown_on_critical
        self.apps: Dict[str, AppRecord] = {}
        self.internal_errors: List[str] = []
        self._listener_registered = False
        self._register_listener()
        self._stop_tick = self.sim.every(self.CHECK_INTERVAL, self._tick)

    # -- controller listener ------------------------------------------------

    def _register_listener(self) -> None:
        types = set(self.INTERNAL_TYPES)
        for record in self.apps.values():
            types.update(record.subscriptions)
        if self._listener_registered:
            self.controller.unregister_listener(self.LISTENER_NAME)
        self.controller.register_listener(
            self.LISTENER_NAME, types, self.controller_event
        )
        self._listener_registered = True

    def controller_event(self, event) -> Command:
        """The proxy's listener: fan events out to subscribed stubs.

        Wrapped so that *nothing* -- not even a proxy bug -- propagates
        into the controller's dispatch loop.
        """
        try:
            self._handle_controller_event(event)
        except Exception:  # noqa: BLE001 - the proxy must never kill the host
            self.internal_errors.append(traceback.format_exc())
        return Command.CONTINUE

    def _handle_controller_event(self, event) -> None:
        type_name = event.type_name
        # Shadow-table upkeep.
        if isinstance(event, FlowRemoved):
            self.manager.note_flow_removed(event.dpid, event.match, event.priority)
        elif type_name == "SwitchLeave":
            self.manager.note_switch_reset(event.dpid)
        elif type_name == "SwitchJoin":
            self.manager.note_switch_join(event.dpid)
        # Counter-cache patching: apps observe corrected statistics.
        if isinstance(event, FlowStatsReply):
            # Raw counters first: the shadow reconciles against what the
            # switch actually reported, not the cache-corrected view.
            self.manager.note_flow_stats(event)
            event = self.manager.counter_cache.patch_flow_stats(event)
        # The controller's dispatch span is open right now: its trace
        # id travels with the queued event (dispatch may happen later,
        # from a different call frame, when the lane frees up).
        tracer = self.telemetry.tracer
        trace_id = (tracer.current_trace or 0) if tracer.enabled else 0
        for record in self.apps.values():
            if type_name not in record.subscriptions:
                continue
            if record.status is AppStatus.DEAD:
                continue
            record.queue.append((event, trace_id))
            self._pump(record)

    # -- stub attachment --------------------------------------------------------

    def attach_stub(self, stub, channel) -> None:
        """Wire a stub's channel into the proxy and start the stub."""
        endpoint = channel.proxy_end
        endpoint.on_frame(lambda frame: self.on_frame(endpoint, frame))
        stub.connect(channel.stub_end)

    def adopt_stub(self, stub, channel) -> None:
        """Take over an already-running stub (controller failover).

        Unlike :meth:`attach_stub`, the app is not started again: the
        stub keeps its state, checkpoints, and journal, re-registers
        with this proxy, and resumes seq numbering where it stopped.
        """
        endpoint = channel.proxy_end
        endpoint.on_frame(lambda frame: self.on_frame(endpoint, frame))
        stub.reattach(channel.stub_end)

    def shutdown(self) -> None:
        """Permanently detach this proxy (its controller died).

        Stops the detection tick and forgets every app so the dead
        deployment can never send restore traffic to stubs that have
        since re-attached to a promoted backup's proxy.  Unflushed
        proxy-side batches are dropped too: a dead process's send
        queue never reaches the wire.
        """
        self._stop_tick()
        for record in self.apps.values():
            self.detector.forget(record.name)
            record.endpoint.drop_pending()
        self.apps.clear()
        if self._listener_registered and not self.controller.crashed:
            self.controller.unregister_listener(self.LISTENER_NAME)
            self._listener_registered = False

    # -- frame handling ------------------------------------------------------------

    def on_frame(self, endpoint, frame) -> None:
        """Receive one frame, inside the frame's trace context.

        The stub echoes the originating event's trace id on every frame,
        so anything this handler does downstream (commits, crash
        handling, re-dispatch) inherits the causal identity via the
        tracer's ambient context.
        """
        tracer = self.telemetry.tracer
        if tracer.enabled:
            tid = getattr(frame, "trace_id", 0)
            prev = tracer.current_trace
            tracer.current_trace = tid or prev
            try:
                self._dispatch_frame(endpoint, frame)
            finally:
                tracer.current_trace = prev
        else:
            self._dispatch_frame(endpoint, frame)

    def _dispatch_frame(self, endpoint, frame) -> None:
        rpc.trace_frame(self.telemetry, "recv", frame)
        if isinstance(frame, rpc.Register):
            self._on_register(endpoint, frame)
            return
        record = self.apps.get(frame.app_name)
        if record is None:
            return
        if isinstance(frame, rpc.Heartbeat):
            self.detector.record_heartbeat(record.name, self.sim.now)
            if frame.needs_context:
                # A push the stub's mirror builds on never reached it;
                # the next tick sends the whole table.
                record.pushed_device_version = -1
        elif isinstance(frame, rpc.AppOutput):
            self._on_output(record, frame)
        elif isinstance(frame, rpc.EventComplete):
            self._on_complete(record, frame)
        elif isinstance(frame, rpc.CrashReport):
            self._handle_failure(record, kind="fail-stop",
                                 error=frame.error,
                                 traceback_text=frame.traceback_text,
                                 logs=frame.log_lines,
                                 offending_seq=frame.seq)
        elif isinstance(frame, rpc.RestoreAck):
            self._on_restore_ack(record, frame)

    def _on_register(self, endpoint, frame: rpc.Register) -> None:
        record = AppRecord(
            name=frame.app_name,
            subscriptions=frozenset(frame.subscriptions),
            endpoint=endpoint,
            supports_deep_restore=frame.supports_deep_restore,
            last_seq=frame.resume_from_seq,
        )
        self.apps[frame.app_name] = record
        self.detector.register(frame.app_name, self.sim.now)
        self._register_listener()
        self._push_context(record)
        # Late joiners still learn the current switch set: synthesize
        # SwitchJoin for every switch already connected (FloodLight
        # apps similarly receive switchAdded callbacks on registration).
        if "SwitchJoin" in record.subscriptions:
            from repro.controller.events import SwitchJoin

            tracer = self.telemetry.tracer
            for dpid in self.controller.connected_dpids():
                # Synthesized events are real control-loop work: each
                # gets its own trace, same as controller ingestion.
                tid = tracer.mint_trace() if tracer.enabled else 0
                record.queue.append((SwitchJoin(dpid), tid))
            self._pump(record)

    # -- dispatch -------------------------------------------------------------------

    def _pump(self, record: AppRecord) -> None:
        """Dispatch queued events into every free lane, in queue order.

        Serial mode has one lane (FIFO per app, the FloodLight
        pipeline), so only the queue's head can go, and only when
        nothing is in flight.  With §5 concurrency lanes, events key by
        the originating switch -- "these events are often handled by
        different threads" -- and controller-level events share a
        dedicated lane.
        """
        if record.status is not AppStatus.UP or not record.queue:
            return
        if not self.parallel_lanes:
            if not record.inflights:
                self._dispatch(record, 0, *record.queue.popleft())
            return
        busy = set(record.inflights)
        remaining: Deque = deque()
        for event, tid in record.queue:
            lane = getattr(event, "dpid", "controller")
            if lane in busy:
                remaining.append((event, tid))
                continue
            busy.add(lane)
            self._dispatch(record, lane, event, tid)
        record.queue = remaining

    def _dispatch(self, record: AppRecord, lane, event, tid: int) -> None:
        """Send one event to the app's stub as in flight in ``lane``."""
        record.last_seq += 1
        seq = record.last_seq
        txn = None
        if self.mode == "netlog":
            txn = self.manager.begin(record.name, event.type_name,
                                     trace_id=tid or None)
        record.inflights[lane] = Inflight(
            seq=seq, event=event, txn=txn, dispatched_at=self.sim.now,
            trace_id=tid)
        record.events_dispatched += 1
        self.detector.record_dispatch(record.name, seq, self.sim.now)
        deliver = rpc.EventDeliver(
            app_name=record.name, seq=seq, event=event, trace_id=tid,
        )
        rpc.trace_frame(self.telemetry, "send", deliver)
        record.endpoint.send(deliver)

    @staticmethod
    def _inflight_by_seq(record: AppRecord, seq: int):
        """(lane, Inflight) for an outstanding seq, or (None, None)."""
        for lane, inflight in record.inflights.items():
            if inflight.seq == seq:
                return lane, inflight
        return None, None

    def _on_output(self, record: AppRecord, frame: rpc.AppOutput) -> None:
        _, inflight = self._inflight_by_seq(record, frame.seq)
        if inflight is None:
            return  # stale output from an aborted event
        if self.mode == "netlog":
            self.manager.apply(inflight.txn, frame.dpid, frame.message)
        else:
            self.buffer.hold(record.name, frame.seq, frame.dpid, frame.message)

    def _on_complete(self, record: AppRecord, frame: rpc.EventComplete) -> None:
        lane, inflight = self._inflight_by_seq(record, frame.seq)
        if inflight is None:
            return
        self.detector.record_response(record.name, self.sim.now, seq=frame.seq)
        if self.telemetry.enabled:
            # The event round trip is split-phase (EventDeliver out,
            # EventComplete back), so it is recorded with an explicit
            # start rather than a context manager.
            self.telemetry.tracer.record_span(
                "appvisor.event", start=inflight.dispatched_at,
                trace_id=inflight.trace_id or None,
                app=record.name, seq=frame.seq,
                event=inflight.event.type_name,
                outputs=frame.output_count,
            )
            self.telemetry.metrics.observe(
                f"app.{record.name}.event_latency",
                self.sim.now - inflight.dispatched_at,
            )
        for counter_name, delta in frame.counter_deltas:
            self.controller.counters.inc(f"{record.name}.{counter_name}", delta)
        violations = self._finish_transaction(record, inflight, frame)
        if violations:
            record.byzantine_count += 1
            self._handle_failure(
                record, kind="byzantine",
                error="; ".join(str(v) for v in violations[:3]),
                violations=violations,
                offending_seq=frame.seq,
            )
            return
        record.events_completed += 1
        del record.inflights[lane]
        self._pump(record)

    def _finish_transaction(self, record, inflight, frame):
        """Commit/flush the event's outputs; returns byzantine violations
        *attributable to this transaction*.

        Attribution is differential: a violation counts against this
        transaction only if it exists WITH the transaction's effects
        and vanishes WITHOUT them.  Pre-existing violations (another
        app's still-unrolled-back damage) must not get this app's
        transaction aborted -- the paper assumes the last event caused
        the failure, but with several apps in flight the proxy must not
        cross-attribute.
        """
        if self.mode == "netlog":
            if not (self.byzantine_check and inflight.txn.records):
                self.manager.commit(inflight.txn)
                return []
            topo = self.controller.topology.view()
            hosts = self.controller.devices.all()
            violations = self.crashpad.check_byzantine(
                self.manager.current_tables(), topo, hosts
            )
            if not violations:
                self.manager.commit(inflight.txn)
                return []
            # Differential attribution: apply this txn's inverses to a
            # scratch copy -- the world as it would be without the txn.
            undo_ops = [
                (rec.dpid, inverse)
                for rec in reversed(inflight.txn.records)
                for inverse in rec.inverse_messages
            ]
            without = self.crashpad.check_byzantine(
                self.manager.preview_tables(undo_ops), topo, hosts
            )
            without_keys = {_violation_key(v) for v in without}
            ours = [v for v in violations
                    if _violation_key(v) not in without_keys]
            if ours:
                self.manager.abort(inflight.txn)
            else:
                self.manager.commit(inflight.txn)
            return ours
        # buffer mode: vet the preview BEFORE anything touches a switch.
        pending = self.buffer.pending(record.name, frame.seq)
        if self.byzantine_check and pending:
            topo = self.controller.topology.view()
            hosts = self.controller.devices.all()
            preview = self.manager.preview_tables(pending)
            violations = self.crashpad.check_byzantine(preview, topo, hosts)
            if violations:
                baseline = self.crashpad.check_byzantine(
                    self.manager.current_tables(), topo, hosts)
                baseline_keys = {_violation_key(v) for v in baseline}
                ours = [v for v in violations
                        if _violation_key(v) not in baseline_keys]
                if ours:
                    self.buffer.discard(record.name, frame.seq)
                    return ours
        self.buffer.flush(record.name, frame.seq,
                          event_desc=inflight.event.type_name)
        return []

    # -- failure handling -----------------------------------------------------------

    def _critical_path_summary(self, trace_id: int, top: int = 3) -> list:
        """Top critical-path self-time rows for one trace, for the
        ticket (§3.3 made actionable: where the failing event's latency
        actually sat).  Runs on the failure path only -- never per
        event -- so the span scan's cost is irrelevant."""
        if not self.telemetry.enabled or not trace_id:
            return []
        from repro.telemetry.causal import analyze

        analysis = analyze(self.telemetry.tracer.to_dicts(),
                           trace_ids=[trace_id])
        return [
            {"name": name,
             "self_time": round(entry["total"], 9),
             "share": round(entry["fraction"], 4),
             "count": int(entry["count"])}
            for name, entry in analysis.top(top)
        ]

    def _handle_failure(self, record: AppRecord, kind: str, error: str = "",
                        traceback_text: str = "", logs=(),
                        violations=None,
                        offending_seq: Optional[int] = None) -> None:
        """A failure was detected: roll back, ticket, decide, recover.

        ``offending_seq`` pinpoints which in-flight event failed (§5:
        "we can pin-point which event causes the thread to crash");
        None means the process died between events (heartbeat loss
        while idle).  Any *other* in-flight events are collateral: their
        transactions are aborted and the events re-queued for delivery
        after recovery.
        """
        if record.status is not AppStatus.UP:
            return  # already being handled
        if self.telemetry.enabled:
            self.telemetry.tracer.event(
                "crashpad.failure", app=record.name, kind=kind,
                seq=offending_seq, error=error,
            )
        # Identify the offending in-flight event (if any) and separate
        # it from innocent-bystander lanes.
        offending_inflight = None
        if offending_seq is not None:
            lane, offending_inflight = self._inflight_by_seq(
                record, offending_seq)
            if offending_inflight is not None:
                del record.inflights[lane]
        elif len(record.inflights) == 1:
            # Unattributed failure with exactly one candidate.
            lane, offending_inflight = next(iter(record.inflights.items()))
            del record.inflights[lane]
        offending_event = (offending_inflight.event
                           if offending_inflight else None)
        # The failure belongs to the offending event's trace; a silent
        # death between events falls back to the ambient context (the
        # frame or sweep that detected it).
        offending_trace = (offending_inflight.trace_id
                           if offending_inflight
                           else (self.telemetry.tracer.current_trace or 0))
        wal_excerpt: List[str] = []
        if offending_inflight is not None:
            if self.mode == "netlog" and offending_inflight.txn is not None:
                wal_excerpt = [
                    f"s{rec.dpid}: {rec.message.type_name} {rec.message.match}"
                    for rec in offending_inflight.txn.records
                ]
                self.manager.abort(offending_inflight.txn)
            else:
                self.buffer.discard(record.name, offending_inflight.seq)
        # Collateral lanes: undo their partial effects and remember
        # them for re-delivery (fresh seqs) after the restore.
        collateral = sorted(record.inflights.values(), key=lambda i: i.seq)
        drop_seqs = tuple(i.seq for i in collateral)
        for inflight in collateral:
            if self.mode == "netlog" and inflight.txn is not None:
                self.manager.abort(inflight.txn)
            else:
                self.buffer.discard(record.name, inflight.seq)
        record.inflights.clear()
        record.crash_count += 1
        record.crash_times.append(self.sim.now)
        topo = self._transformation_view()
        decision = self.crashpad.decide(record.name, offending_event, topo)
        self.crashpad.tickets.create(
            app_name=record.name,
            time=self.sim.now,
            failure_kind=kind,
            offending_event=repr(offending_event),
            exception=error,
            traceback_text=traceback_text,
            app_logs=list(logs),
            wal_excerpt=wal_excerpt,
            recovery_policy=decision.policy.value,
            recovery_note=decision.note,
            flight_records=self.telemetry.flight_dump(),
            trace_id=offending_trace,
            critical_path=self._critical_path_summary(offending_trace),
        )
        self.controller.dispatch(AppCrashed(app_name=record.name, reason=kind))
        if self.shutdown_on_critical and violations and \
                self.crashpad.has_critical(violations):
            # §5: a "No-Compromise" invariant was violated -- the
            # operator prefers shutting the whole network down over
            # running it unsafely.  This is the one failure LegoSDN
            # *deliberately* lets reach the controller.
            record.status = AppStatus.DEAD
            self.detector.forget(record.name)
            self.controller.crash(
                ProxyShutdown(
                    f"critical invariant violated by {record.name}: {error}"
                ),
                culprit=f"{self.LISTENER_NAME}/no-compromise-invariant",
            )
            return
        if decision.lets_app_die:
            record.status = AppStatus.DEAD
            self.detector.forget(record.name)
            return
        # Recover: restore the checkpoint, then skip or transform.
        record.status = AppStatus.RECOVERING
        record.recovery_started_at = self.sim.now
        record.recovery_trace_id = offending_trace
        if offending_inflight is not None:
            restore_seq = offending_inflight.seq
        elif offending_seq is not None:
            # The stub named an event this proxy never dispatched: it
            # re-attached already dead of it.  The replay must skip it.
            restore_seq = offending_seq
        else:
            restore_seq = record.last_seq + 1
        self.detector.clear(record.name, self.sim.now)
        # Collateral events are re-delivered first (their original
        # order) under their own traces, preceded by any transformation
        # of the offending one (which stays on the offender's trace --
        # the replacement IS that event, equivalence-transformed).
        for inflight in reversed(collateral):
            record.queue.appendleft((inflight.event, inflight.trace_id))
        if decision.replacement_events:
            record.events_transformed += 1
            record.queue.extendleft(
                (ev, offending_trace)
                for ev in reversed(decision.replacement_events))
        elif offending_event is not None:
            record.events_skipped += 1
        if self._recovery_is_futile(record) and self._stub_has_replica(record):
            # §5: the app keeps dying right after every recovery, so
            # its checkpointed state may be poisoned by earlier events
            # -- escalate to the STS-guided deep restore.  Only stubs
            # with a replica factory can run the search; others keep
            # using plain restores (every recovery still succeeds, the
            # bug just keeps being skipped).
            record.deep_restores += 1
            command = rpc.DeepRestoreCommand(
                app_name=record.name, offending_seq=restore_seq,
                drop_seqs=drop_seqs, trace_id=offending_trace,
            )
        else:
            command = rpc.RestoreCommand(
                app_name=record.name, offending_seq=restore_seq,
                drop_seqs=drop_seqs, trace_id=offending_trace,
            )
        rpc.trace_frame(self.telemetry, "send", command)
        record.endpoint.send(command)

    #: Escalate to a deep (STS-guided) restore when an app crashes this
    #: many times within DEEP_RESTORE_WINDOW seconds -- the signature of
    #: a cumulative bug whose poison survives plain restores (§5).
    DEEP_RESTORE_THRESHOLD = 3
    DEEP_RESTORE_WINDOW = 2.0

    def _recovery_is_futile(self, record: AppRecord) -> bool:
        # Crash instants never decrease, so the window holds the
        # threshold's worth exactly when the oldest one kept is in it.
        times = record.crash_times
        return (len(times) == times.maxlen
                and times[0] >= self.sim.now - self.DEEP_RESTORE_WINDOW)

    @staticmethod
    def _stub_has_replica(record: AppRecord) -> bool:
        return record.supports_deep_restore

    #: How far back (seconds) to look for just-removed links when
    #: reconstructing the pre-failure topology for transformations.
    TRANSFORM_LOOKBACK = 1.0

    def _transformation_view(self):
        """The topology as the failed app knew it.

        The live view has already dropped the failed switch's links, so
        fold recently removed links back in -- the equivalence
        transformation decomposes a SwitchLeave into exactly those
        LinkRemoved events.
        """
        topo_service = self.controller.topology
        view = topo_service.view()
        recent = topo_service.removed_links_since(
            self.sim.now - self.TRANSFORM_LOOKBACK
        )
        if not recent:
            return view
        links = set(view.links) | set(recent)
        switches = set(view.switches)
        for dpid_a, _, dpid_b, _ in recent:
            switches.update((dpid_a, dpid_b))
        from repro.controller.api import TopoView

        return TopoView(switches=tuple(sorted(switches)),
                        links=tuple(sorted(links)),
                        version=view.version)

    def _on_restore_ack(self, record: AppRecord, frame: rpc.RestoreAck) -> None:
        if record.status is not AppStatus.RECOVERING:
            return
        if self.telemetry.enabled:
            # Detection -> checkpoint restore -> replay -> back up: the
            # paper's recovery window, end to end.
            self.telemetry.tracer.record_span(
                "crashpad.recovery", start=record.recovery_started_at,
                status="ok" if frame.ok else "error",
                trace_id=record.recovery_trace_id or None,
                app=record.name, ok=frame.ok,
                replayed=frame.replayed_events,
                restore_cost=frame.restore_cost,
                deep=bool(frame.sts_culprits),
            )
            self.telemetry.metrics.observe(
                f"app.{record.name}.recovery_time",
                self.sim.now - record.recovery_started_at,
            )
        if not frame.ok:
            record.status = AppStatus.DEAD
            self.detector.forget(record.name)
            return
        record.status = AppStatus.UP
        record.recoveries += 1
        self.detector.clear(record.name, self.sim.now)
        self._pump(record)

    def note_channel_fault(self, app_name: str, fault) -> None:
        """The app's channel exhausted its retry budget (link trouble).

        Wired by the runtime to ``UdpChannel.on_fault``.  The detector
        remembers the fault so the next detection sweep attributes the
        app's silence to the link instead of declaring it dead.
        """
        self.detector.record_channel_fault(app_name, self.sim.now)
        record = self.apps.get(app_name)
        if record is not None and fault.side == "proxy":
            # Something this proxy sent was given up on, perhaps a
            # ContextPush -- and a stub cannot miss what nothing
            # follows.  Assume its mirror is behind: send the table.
            record.pushed_device_version = -1
        if self.telemetry.enabled:
            self.telemetry.tracer.event(
                "appvisor.channel_fault", app=app_name,
                side=fault.side, seq=fault.seq, attempts=fault.attempts,
            )

    # -- periodic work -----------------------------------------------------------------

    def _tick(self) -> None:
        """Failure detection sweep + context pushes."""
        now = self.sim.now
        for suspicion in self.detector.suspects(now):
            record = self.apps.get(suspicion.app_name)
            if record is None or record.status is not AppStatus.UP:
                continue
            if suspicion.reason == "channel-fault":
                # The app is (probably) fine; the link is not.  A
                # restore would discard healthy state and re-deliver
                # events into the same bad channel -- do nothing and
                # let the retry layer / the operator handle the link.
                record.channel_suspicions += 1
                continue
            kind = ("hang" if suspicion.reason == "heartbeat-loss"
                    else "fail-stop-silent")
            self._handle_failure(
                record, kind=kind,
                error=f"{suspicion.reason} (silent for "
                      f"{suspicion.silent_for * 1000:.0f} ms)",
                offending_seq=suspicion.inflight_seq,
            )
        for record in self.apps.values():
            self._push_context(record)

    def _push_context(self, record: AppRecord) -> None:
        """Bring the stub's topology/host mirror up to date: what
        changed since its last push, or the whole table when no delta
        can say it -- a stub that just (re-)registered, a device-table
        reset, a stub whose heartbeat reported a gap."""
        topology = self.controller.topology
        devices = self.controller.devices
        topo_moved = topology.version != record.pushed_topo_version
        if not topo_moved and devices.version == record.pushed_device_version:
            return
        changed = devices.changes_since(record.pushed_device_version)
        full = changed is None
        push = rpc.ContextPush(
            topo=topology.view() if full or topo_moved else None,
            hosts=devices.entries() if full else changed,
            base_version=-1 if full else record.pushed_device_version,
            device_version=devices.version,
            topo_version=topology.version,
        )
        record.full_pushes += full
        record.pushed_topo_version = topology.version
        record.pushed_device_version = devices.version
        rpc.trace_frame(self.telemetry, "send", push)
        record.endpoint.send(push)

    # -- introspection -------------------------------------------------------------------

    def record(self, app_name: str) -> Optional[AppRecord]:
        return self.apps.get(app_name)

    def live_apps(self) -> List[str]:
        return sorted(
            name for name, record in self.apps.items()
            if record.status is AppStatus.UP
        )

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-app counters for experiment reporting."""
        return {
            name: {
                "dispatched": record.events_dispatched,
                "completed": record.events_completed,
                "crashes": record.crash_count,
                "recoveries": record.recoveries,
                "skipped": record.events_skipped,
                "transformed": record.events_transformed,
                "byzantine": record.byzantine_count,
                "deep_restores": record.deep_restores,
                "channel_suspicions": record.channel_suspicions,
            }
            for name, record in self.apps.items()
        }
