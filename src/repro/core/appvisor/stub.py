"""The AppVisor stub: the stand-alone host for one SDN-App (§4.1).

"The stub is a stand-alone Java application that launches an SDN-App.
Once started the stub connects to the proxy and registers the SDN-App,
and its subscriptions ... The stub is a light-weight wrapper around
the actual SDN-App and converts all calls from the SDN-App to the
controller to messages which are then delivered to the proxy."

The stub also implements Crash-Pad's mechanics on the app side:

- a checkpoint is taken before dispatching an event into the sandbox
  (every event by default; every ``checkpoint_interval`` events with
  the §5 replay extension), with the modelled CRIU cost charged in
  simulated time;
- on a RestoreCommand it reloads the right checkpoint, replays the
  journalled events with outputs suppressed, and revives the sandbox.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.controller.api import AppAPI, HostEntry, TopoView
from repro.core.appvisor import rpc
from repro.core.appvisor.isolation import (
    ResourceLimitExceeded,
    ResourceLimits,
    SandboxProcess,
)
from repro.core.crashpad.checkpoint import CheckpointError, CheckpointStore
from repro.core.crashpad.replay import EventJournal
from repro.core.crashpad.sts import (
    find_minimal_causal_sequence,
    pick_rollback_checkpoint,
)


class StubAPI(AppAPI):
    """The app's view of the controller, implemented over RPC.

    Emissions stream to the proxy as AppOutput frames; reads are served
    from caches the proxy pushes (ContextPush), so the app never blocks
    on a synchronous remote call.
    """

    def __init__(self, stub: "AppVisorStub"):
        self.stub = stub

    def now(self) -> float:
        return self.stub.sim.now

    def emit(self, dpid: int, msg) -> None:
        self.stub._app_emit(dpid, msg)

    def topology(self) -> TopoView:
        return self.stub.topo_cache

    def host_location(self, mac: str) -> Optional[HostEntry]:
        return self.stub.host_cache.get(mac)

    def hosts(self) -> Dict[str, HostEntry]:
        return dict(self.stub.host_cache)

    def switches(self) -> Tuple[int, ...]:
        return self.stub.topo_cache.switches

    def log(self, text: str) -> None:
        self.stub._app_log(text)

    def counter_inc(self, name: str, delta: int = 1) -> None:
        self.stub.pending_counters[name] = (
            self.stub.pending_counters.get(name, 0) + delta
        )


class AppVisorStub:
    """Hosts one SDN-App in a sandbox behind the RPC channel."""

    #: Modelled cost of replaying one journalled event during restore.
    REPLAY_EVENT_COST = 0.0005
    #: Hard bound on events since the last *durable* image, whatever the
    #: interval: it caps both the replay a crash pays and the journal
    #: kept between images.
    MAX_TAIL = 64

    def __init__(self, sim, app,
                 checkpoint_interval: int = 1,
                 heartbeat_interval: float = 0.1,
                 limits: Optional[ResourceLimits] = None,
                 replica_factory=None,
                 telemetry=None):
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.sim = sim
        self.app = app
        #: Optional Telemetry; when enabled the stub records one
        #: ``appvisor.checkpoint`` span per checkpoint freeze (the
        #: span-diff harness's checkpoint segment) and one
        #: ``crashpad.encode`` span per background drain of deferred
        #: checkpoint encodes.
        self.telemetry = telemetry
        self.api = StubAPI(self)
        self.sandbox = SandboxProcess(app, limits)
        self.checkpoints = CheckpointStore(
            metrics=telemetry.metrics if telemetry is not None else None)
        #: Events between checkpoints (1 = the paper's per-event mode;
        #: more = the §5 "every few events" relaxation, the skipped span
        #: recovered by journal replay).
        self.checkpoint_interval = checkpoint_interval
        self.heartbeat_interval = heartbeat_interval
        self.journal = EventJournal()
        self.endpoint = None
        self.topo_cache = TopoView()
        self.host_cache: Dict[str, HostEntry] = {}
        #: The controller device-table version ``host_cache`` mirrors:
        #: the only base a ContextPush delta may be laid over.  -1 = no
        #: usable base (nothing pushed yet, a new proxy whose versions
        #: mean something else, a delta that had to be dropped); the
        #: cache keeps serving reads, and every heartbeat asks for a
        #: full table until one arrives.
        self.device_version = -1
        #: Deltas dropped because their base was not the one held.
        self.context_gaps = 0
        self.pending_counters: Dict[str, int] = {}
        self.pending_logs: List[str] = []
        self.app_log: List[str] = []
        self.suppress_output = False
        self.current_seq = 0
        self.last_seq_done = 0
        self.heartbeats_sent = 0
        self.events_processed = 0
        self.restores_done = 0
        #: Zero-arg factory building a scratch replica of the app for
        #: STS probe runs (§5, multi-event failures).  When None the
        #: stub cannot minimise cumulative bugs and a crashing replay
        #: fails the restore.
        self.replica_factory = replica_factory
        self.sts_runs = 0
        self._output_index = 0
        #: Trace id of the event currently in the sandbox; everything
        #: the app emits while handling it echoes this id back.
        self._current_trace = 0
        self._stop_heartbeat = None
        self._last_delivered: Optional[tuple] = None  # (seq, event)
        #: The report of the crash the sandbox is dead of (None once a
        #: restore revived it): said again on re-attach, because the
        #: first telling may have died with its channel or its proxy.
        self._crash_report: Optional[rpc.CrashReport] = None
        #: Background-drain spans emitted (observability).
        self.drains_done = 0
        #: Seqs delivered but not yet processed (the checkpoint-cost
        #: window).  Checkpoints are only taken at quiescence so their
        #: before_seq labelling stays exact under concurrency lanes.
        self._pending_process: set = set()

    # -- wiring ----------------------------------------------------------

    def connect(self, endpoint) -> None:
        """Attach to the channel, start the app, register with the proxy."""
        self.endpoint = endpoint
        endpoint.on_frame(self._on_frame)
        self.app.startup(self.api)
        endpoint.send(rpc.Register(
            app_name=self.app.name,
            subscriptions=tuple(self.app.subscriptions),
            supports_deep_restore=self.replica_factory is not None,
        ))
        self._stop_heartbeat = self.sim.every(
            self.heartbeat_interval, self._heartbeat
        )

    def reattach(self, endpoint) -> None:
        """Re-register with a new proxy after a controller failover.

        The stub (and the app inside it) survives the primary's death:
        state, checkpoints, and journal are kept, and the Register frame
        carries ``resume_from_seq`` so the new proxy continues the seq
        numbering where the old one stopped.  The app is NOT restarted
        -- that is the whole point of decoupling its fate from the
        controller's.
        """
        self.endpoint = endpoint
        endpoint.on_frame(self._on_frame)
        # The new proxy mirrors another controller's tables: its
        # version numbers are not the old one's.
        self.device_version = -1
        # Resume past every seq this stub has ever seen, including
        # events still waiting out a checkpoint freeze.
        resume = max(self.current_seq, self.last_seq_done,
                     max(self._pending_process, default=0))
        endpoint.send(rpc.Register(
            app_name=self.app.name,
            subscriptions=tuple(self.app.subscriptions),
            supports_deep_restore=self.replica_factory is not None,
            resume_from_seq=resume,
        ))
        if self._crash_report is not None:
            endpoint.send(self._crash_report)
        # Promotion is a durability point: whatever follower state the
        # new primary builds from this stub must reflect a real image,
        # so deferred encodes are force-flushed -- after the Register,
        # so a state that will not encode is reported to a proxy that
        # knows the app.
        self._flush_checkpoints()

    def shutdown(self) -> None:
        if self._stop_heartbeat is not None:
            self._stop_heartbeat()
            self._stop_heartbeat = None
        if self.sandbox.alive:
            self._flush_checkpoints()
        self.sandbox.stop()

    def _flush_checkpoints(self) -> None:
        """Force pending encodes durable; a capture that cannot be
        encoded is the app's failure, exactly as in the heartbeat drain."""
        try:
            self.checkpoints.flush()
        except CheckpointError as exc:
            self._snapshot_failed(self.last_seq_done, exc,
                                  self._current_trace)

    def _heartbeat(self) -> None:
        """Periodic liveness beacon -- stops the moment the process dies.

        Also the idle slot where deferred checkpoint encodes drain: a
        dead process cannot drain (its captures died with it), which is
        exactly the alive-check ordering below.
        """
        if not self.sandbox.alive or self.endpoint is None:
            return
        self._drain_checkpoints()
        self.heartbeats_sent += 1
        self.endpoint.send(rpc.Heartbeat(
            app_name=self.app.name,
            stub_time=self.sim.now,
            last_seq_done=self.last_seq_done,
            needs_context=self.device_version < 0,
        ))

    def _drain_checkpoints(self) -> None:
        """Finalise deferred checkpoint encodes off the event path.

        The modelled encode cost lands in a ``crashpad.encode`` span --
        visible in ``repro trace critical-path`` as moved-off-path work,
        not vanished work -- instead of inside ``appvisor.event``.
        """
        if self.checkpoints.pending_count == 0:
            self._update_lag_gauge()
            return
        try:
            entries, cost = self.checkpoints.drain()
        except CheckpointError as exc:
            # No event is in the sandbox; the state that would not
            # encode is the one the last completed event left behind.
            self._snapshot_failed(self.last_seq_done, exc,
                                  self._current_trace)
            return
        self.drains_done += 1
        self._record_encode_span(len(entries), cost)
        self._update_lag_gauge()

    def _record_encode_span(self, entries: int, cost: float) -> None:
        """Emit the background-encode work as a ``crashpad.encode``
        span (scheduled ``cost`` ahead: record_span stamps end=now at
        call time, so the span gets its modelled duration)."""
        if (entries <= 0 or self.telemetry is None
                or not self.telemetry.enabled):
            return
        start = self.sim.now
        tracer = self.telemetry.tracer
        self.sim.schedule(
            cost,
            lambda: tracer.record_span(
                "crashpad.encode", start,
                app=self.app.name, entries=entries),
        )

    def _update_lag_gauge(self) -> None:
        """Export this app's checkpoint lag (events a crash right now
        would replay) as a gauge."""
        if self.telemetry is None or not self.telemetry.enabled:
            return
        self.telemetry.metrics.set_gauge(
            f"checkpoint.lag.{self.app.name}",
            self.checkpoints.checkpoint_lag(),
        )

    # -- frame handling ------------------------------------------------------

    def _on_frame(self, frame) -> None:
        if isinstance(frame, rpc.EventDeliver):
            self._on_event(frame)
        elif isinstance(frame, rpc.DeepRestoreCommand):
            self._on_deep_restore(frame)
        elif isinstance(frame, rpc.RestoreCommand):
            self._on_restore(frame)
        elif isinstance(frame, rpc.ContextPush):
            self._on_context(frame)

    def _on_context(self, push: rpc.ContextPush) -> None:
        """Refresh the topology/host mirror from a full push, or lay a
        delta over the one version it was cut against."""
        if push.base_version < 0:
            self.host_cache = {h.mac: h for h in push.hosts}
        elif (push.base_version != self.device_version
              or (push.topo is None
                  and push.topo_version != self.topo_cache.version)):
            # A push this one builds on never arrived (the reliable
            # channel delivers in order or abandons): applying it would
            # leave holes nobody knows about.  Drop it; the next
            # heartbeat asks for the full table.
            self.device_version = -1
            self.context_gaps += 1
            return
        else:
            for entry in push.hosts:
                self.host_cache[entry.mac] = entry
        if push.topo is not None:
            self.topo_cache = push.topo
        self.device_version = push.device_version

    # -- event processing -------------------------------------------------------

    def _on_event(self, frame: rpc.EventDeliver) -> None:
        if not self.sandbox.alive:
            return  # silence; the proxy's detector will notice
        seq = frame.seq
        self.checkpoints.note_seq(seq)
        checkpoint_cost = 0.0
        checkpoint_kind = None
        if self._checkpoint_due(seq) and not self._pending_process:
            # Encode off the event path unless a durable image is needed
            # now: a state-size cap is enforced on the exact image size,
            # and the tail bound promises bounded replay, which only a
            # *durable* image delivers (the synchronous take flushes any
            # pending encodes along the way).
            defer = (self.sandbox.limits.max_state_bytes is None
                     and self.checkpoints.checkpoint_lag() < self.MAX_TAIL)
            drained_before = self.checkpoints.deferred_drains
            cost_before = self.checkpoints.deferred_cost
            try:
                checkpoint = self.checkpoints.take(
                    self.app, seq, self.sim.now, defer=defer)
                self.sandbox.check_state_size(checkpoint.state_size)
            except (CheckpointError, ResourceLimitExceeded) as exc:
                self._snapshot_failed(seq, exc, frame.trace_id)
                return
            checkpoint_cost = self.checkpoints.cost_of(checkpoint)
            checkpoint_kind = checkpoint.kind
            # A sync take or eviction may have flushed pending encodes
            # inside take(); that work is background-priced (it never
            # delays this event) but must still show up in the trace
            # as a crashpad.encode span, not vanish.
            self._record_encode_span(
                self.checkpoints.deferred_drains - drained_before,
                self.checkpoints.deferred_cost - cost_before)
            # Keep journal entries back to the OLDEST retained
            # checkpoint: deep (STS-guided) recovery may roll that far.
            oldest = self.checkpoints.oldest()
            self.journal.truncate_before(oldest.before_seq)
        self.journal.record(seq, frame.event)
        self._pending_process.add(seq)
        # The checkpoint freeze delays processing -- this is the §4.1
        # per-event overhead E7 measures (incremental checkpoints make
        # most freezes delta- or hash-priced rather than full dumps).
        self.sim.schedule(checkpoint_cost, self._process, seq, frame.event,
                          self.sim.now, checkpoint_kind, frame.trace_id)

    def _snapshot_failed(self, seq: int, exc: Exception,
                         trace_id: int) -> None:
        """The app's state could not be imaged: it broke the
        ``get_state`` contract or a resource cap.  That is the app's
        failure, not the controller's -- the process dies and Crash-Pad
        hears of it like any other crash."""
        if self.sandbox.alive:      # a breached cap already killed it
            self.sandbox.kill(str(exc))
        self._report_crash(rpc.CrashReport(
            app_name=self.app.name, seq=seq, error=str(exc),
            trace_id=trace_id,
        ))

    def _report_crash(self, report: rpc.CrashReport) -> None:
        self._crash_report = report
        self.endpoint.send(report)

    def _checkpoint_due(self, seq: int) -> bool:
        """Is a take due before event ``seq``?  Every
        ``checkpoint_interval`` events since the last take (durable or
        pending), or as soon as the un-imaged tail reaches MAX_TAIL."""
        latest = self.checkpoints.latest()
        if latest is None:
            return True
        return (seq - latest.before_seq >= self.checkpoint_interval
                or self.checkpoints.checkpoint_lag() >= self.MAX_TAIL)

    def _process(self, seq: int, event, freeze_start: Optional[float] = None,
                 checkpoint_kind: Optional[str] = None,
                 trace_id: int = 0) -> None:
        self._pending_process.discard(seq)
        if (checkpoint_kind is not None and self.telemetry is not None
                and self.telemetry.enabled):
            # The checkpoint freeze that just ended, as a span: the
            # checkpoint segment of the event critical path.
            self.telemetry.tracer.record_span(
                "appvisor.checkpoint", start=freeze_start,
                trace_id=trace_id or None,
                app=self.app.name, seq=seq, kind=checkpoint_kind,
            )
        if not self.sandbox.alive:
            return
        self.current_seq = seq
        self._current_trace = trace_id
        self._output_index = 0
        self.pending_logs = []
        self.pending_counters = {}
        self._last_delivered = (seq, event)
        outcome = self.sandbox.deliver(event)
        if outcome.ok:
            self.last_seq_done = seq
            self.events_processed += 1
            self.endpoint.send(rpc.EventComplete(
                app_name=self.app.name,
                seq=seq,
                output_count=self._output_index,
                counter_deltas=tuple(sorted(self.pending_counters.items())),
                log_lines=tuple(self.pending_logs),
                trace_id=trace_id,
            ))
        elif outcome.status == "crashed":
            self._report_crash(rpc.CrashReport(
                app_name=self.app.name,
                seq=seq,
                error=outcome.error,
                traceback_text=outcome.traceback_text,
                log_lines=tuple(self.pending_logs),
                trace_id=trace_id,
            ))
        # hung: say nothing -- heartbeats have stopped too.

    # -- app-facing hooks ----------------------------------------------------------

    def _app_emit(self, dpid: int, msg) -> None:
        if self.suppress_output or self.endpoint is None:
            return
        self.endpoint.send(rpc.AppOutput(
            app_name=self.app.name,
            seq=self.current_seq,
            index=self._output_index,
            dpid=dpid,
            message=msg,
            trace_id=self._current_trace,
        ))
        self._output_index += 1

    def _app_log(self, text: str) -> None:
        self.app_log.append(text)
        self.pending_logs.append(text)

    # -- restore -----------------------------------------------------------------

    def _on_restore(self, frame: rpc.RestoreCommand) -> None:
        offending = frame.offending_seq
        # Deferred captures that never drained died with the crashed
        # process: recovery starts from the newest *durable* image and
        # replays the correspondingly longer journal tail.
        self.checkpoints.drop_pending()
        checkpoint = self.checkpoints.latest_before(offending)
        if checkpoint is None:
            self.endpoint.send(rpc.RestoreAck(
                app_name=self.app.name, restored_before_seq=0,
                replayed_events=0, restore_cost=0.0,
                ok=False, error="no usable checkpoint",
                trace_id=frame.trace_id,
            ))
            return
        # The offending event is never replayed (it would crash again),
        # and invalidated in-flight events will be re-delivered fresh.
        self.journal.remove(offending)
        for seq in frame.drop_seqs:
            self.journal.remove(seq)
        self._pending_process.clear()
        replayed, failed_entry = self._restore_and_replay(checkpoint, offending)
        cost = (self.checkpoints.restore_cost_of(checkpoint)
                + replayed * self.REPLAY_EVENT_COST)
        culprits: tuple = ()
        error = ""
        ok = True
        if failed_entry is not None:
            # A journalled event crashed during replay: the failure is
            # cumulative (§5).  Run the STS-style search to find and
            # prune the causal events, then retry once.
            culprits, probes = self._minimise_cumulative_bug(
                checkpoint, failed_entry)
            cost += probes * self.REPLAY_EVENT_COST
            if culprits:
                self.sts_runs += 1
                for seq in culprits:
                    self.journal.remove(seq)
                replayed, failed_entry = self._restore_and_replay(
                    checkpoint, offending)
                cost += replayed * self.REPLAY_EVENT_COST
            if failed_entry is not None:
                ok = False
                error = ("replay crashed"
                         + ("" if self.replica_factory else
                            " (no replica factory for STS minimisation)"))
        self.pending_counters = {}
        self.pending_logs = []
        self.restores_done += 1
        ack = rpc.RestoreAck(
            app_name=self.app.name,
            restored_before_seq=checkpoint.before_seq,
            replayed_events=replayed, restore_cost=cost,
            ok=ok, error=error, sts_culprits=tuple(culprits),
            trace_id=frame.trace_id,
        )
        # The restore (CRIU load + replay) takes time; delay the ack.
        self.sim.schedule(cost, self.endpoint.send, ack)

    def _restore_and_replay(self, checkpoint, offending_seq: int):
        """Load the checkpoint and replay every journalled event.

        The offending event and any invalidated in-flight events were
        already removed from the journal, so the replay set is exactly
        the events that *completed* -- including ones with seqs after
        the offending event (concurrency lanes can complete younger
        events before an older lane's crash surfaces; their effects
        were committed and must be reconstructed).

        Returns ``(replayed_count, failed_entry_or_None)``.
        """
        self.checkpoints.restore(self.app, checkpoint)
        self.sandbox.revive()
        self._crash_report = None
        replay_entries = self.journal.events_between(
            checkpoint.before_seq, float("inf")
        )
        self.suppress_output = True
        replayed = 0
        failed_entry = None
        for entry in replay_entries:
            outcome = self.sandbox.deliver(entry.event)
            if not outcome.ok:
                failed_entry = entry
                break
            replayed += 1
        self.suppress_output = False
        return replayed, failed_entry

    def _minimise_cumulative_bug(self, checkpoint, failed_entry):
        """Find the minimal causal event set behind a replay crash.

        Returns ``(culprit_seqs, probe_runs)``; empty culprits when no
        replica factory is configured.
        """
        if self.replica_factory is None:
            return (), 0
        history = [
            (entry.seq, entry.event)
            for entry in self.journal.events_between(
                checkpoint.before_seq, failed_entry.seq)
        ]
        result = find_minimal_causal_sequence(
            self.replica_factory,
            self.checkpoints.buffers(checkpoint),
            history=history,
            offending=(failed_entry.seq, failed_entry.event),
        )
        return result.culprit_seqs, result.probe_runs

    # -- deep restore: the §5 cumulative-bug path -------------------------

    def _on_deep_restore(self, frame: rpc.DeepRestoreCommand) -> None:
        """STS-guided rollback through the checkpoint history.

        Plain restores keep failing because every recent checkpoint
        carries poisoned state.  Find the events that poisoned it,
        prune them from the journal, and roll back to the newest
        checkpoint that replays clean without them.
        """
        offending = frame.offending_seq
        self.checkpoints.drop_pending()
        self.journal.remove(offending)
        for seq in frame.drop_seqs:
            self.journal.remove(seq)
        self._pending_process.clear()
        if self.replica_factory is None or not self.checkpoints.count:
            self._send_deep_ack(offending, ok=False, cost=0.0,
                                error="deep restore unavailable "
                                      "(no replica factory)",
                                trace_id=frame.trace_id)
            return
        history = self.checkpoints.history()
        oldest = history[0]
        journal_events = [
            (entry.seq, entry.event)
            for entry in self.journal.events_between(
                oldest.before_seq, offending)
        ]
        # The last crash happened on the event the proxy told us about;
        # the stub saw it too (it is the last delivered one).  Use the
        # oldest checkpoint as the search base so the causal set can
        # reach back across checkpoints.
        offending_entry = (
            self._last_delivered[1]
            if self._last_delivered and self._last_delivered[0] == offending
            else None
        )
        if offending_entry is None:
            self._send_deep_ack(offending, ok=False, cost=0.0,
                                error="no offending event recorded",
                                trace_id=frame.trace_id)
            return
        result = find_minimal_causal_sequence(
            self.replica_factory, self.checkpoints.buffers(oldest),
            history=journal_events,
            offending=(offending, offending_entry),
        )
        if result.single_event:
            # Not cumulative after all: the offending event alone
            # reproduces the crash, so the ordinary restore-and-skip
            # recovery is both sufficient and cheaper.
            checkpoint = self.checkpoints.latest_before(offending)
            replayed, failed_entry = self._restore_and_replay(
                checkpoint, offending)
            cost = (self.checkpoints.restore_cost_of(checkpoint)
                    + (replayed + result.probe_runs)
                    * self.REPLAY_EVENT_COST)
            self.restores_done += 1
            self._send_deep_ack(
                offending, ok=failed_entry is None, cost=cost,
                error="" if failed_entry is None else "replay crashed",
                restored_before_seq=checkpoint.before_seq,
                replayed=replayed, trace_id=frame.trace_id,
            )
            return
        culprits = [seq for seq in result.culprit_seqs if seq != offending]
        for seq in culprits:
            self.journal.remove(seq)
        safe_before_seq = pick_rollback_checkpoint(
            self.replica_factory,
            [(c.before_seq, self.checkpoints.buffers(c))
             for c in history],
            journal_events,
            offending=(offending, offending_entry),
            culprit_seqs=culprits,
        )
        if safe_before_seq is None:
            self._send_deep_ack(offending, ok=False, cost=0.0,
                                error="no clean checkpoint in history",
                                culprits=culprits,
                                trace_id=frame.trace_id)
            return
        checkpoint = next(c for c in history
                          if c.before_seq == safe_before_seq)
        replayed, failed_entry = self._restore_and_replay(
            checkpoint, offending)
        cost = (self.checkpoints.restore_cost_of(checkpoint)
                + (replayed + result.probe_runs) * self.REPLAY_EVENT_COST)
        self.sts_runs += 1
        self.restores_done += 1
        self.pending_counters = {}
        self.pending_logs = []
        self._send_deep_ack(
            offending,
            ok=failed_entry is None,
            cost=cost,
            error="" if failed_entry is None else "replay crashed after STS",
            culprits=culprits,
            restored_before_seq=checkpoint.before_seq,
            replayed=replayed,
            trace_id=frame.trace_id,
        )

    def _send_deep_ack(self, offending: int, ok: bool, cost: float,
                       error: str = "", culprits=(),
                       restored_before_seq: int = 0,
                       replayed: int = 0, trace_id: int = 0) -> None:
        ack = rpc.RestoreAck(
            app_name=self.app.name,
            restored_before_seq=restored_before_seq,
            replayed_events=replayed,
            restore_cost=cost,
            ok=ok,
            error=error,
            sts_culprits=tuple(culprits),
            trace_id=trace_id,
        )
        self.sim.schedule(cost, self.endpoint.send, ack)
