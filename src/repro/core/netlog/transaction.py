"""Network-wide transactions with all-or-nothing semantics.

The :class:`TransactionManager` is the controller-side heart of
NetLog.  It keeps a *shadow* flow table per switch (the controller's
authoritative view of what it has installed), and for every
state-altering message an app emits it:

1. applies the message to the shadow table, capturing the displaced
   pre-state;
2. computes the inverse via the inversion algebra
   (:mod:`repro.openflow.inversion`);
3. appends a :class:`~repro.core.netlog.log.NetLogRecord` to the WAL;
4. forwards the message to the real switch.

Aborting a transaction replays the inverses in reverse order (to both
the shadow and the real switches) and parks the lost counters in the
counter-cache.  The shadow tables double as the input to the byzantine
invariant check: Crash-Pad can vet what an app *did* without touching
the network.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.netlog.counter_cache import CounterCache
from repro.core.netlog.log import NetLogRecord, WriteAheadLog
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.inversion import invert
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, Message


class TxnState(enum.Enum):
    OPEN = "open"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """The operations one app emitted while handling one event."""

    txn_id: int
    app_name: str
    event_desc: str
    opened_at: float
    state: TxnState = TxnState.OPEN
    records: List[NetLogRecord] = field(default_factory=list)
    passthrough_count: int = 0  # non-state-altering messages (PacketOut)
    #: Causal identity of the event whose handling opened this txn;
    #: carried onto commit/rollback spans and replication ship frames.
    trace_id: Optional[int] = None
    #: Cross-shard transaction this local txn is a participant branch
    #: of (None for ordinary single-shard transactions).  Set by the
    #: CrossShardTxnManager so a shard's open-txn rollback and the
    #: coordinator's compensation can recognise each other's work.
    cross_id: Optional[int] = None

    @property
    def size(self) -> int:
        return len(self.records)


class TransactionManager:
    """Controller-side NetLog."""

    def __init__(self, controller):
        self.controller = controller
        self.sim = controller.sim
        self.telemetry = controller.telemetry
        self.shadow: Dict[int, FlowTable] = {}
        #: Switches seen leaving and not yet back.
        self.switches_left: Set[int] = set()
        self.wal = WriteAheadLog(telemetry=self.telemetry)
        self.counter_cache = CounterCache()
        self._txn_ids = itertools.count(1)
        self.open_txns: Dict[int, Transaction] = {}
        self.committed = 0
        self.aborted = 0
        #: Replication hooks.  ``on_apply(txn, record)`` fires for every
        #: WAL append; ``on_resolve(txn, outcome)`` fires at commit
        #: ("commit") or abort ("abort").  The ReplicaSet's log shipper
        #: subscribes here so backups shadow the NetLog as it grows.
        self.on_apply: List = []
        self.on_resolve: List = []

    # -- shadow maintenance ------------------------------------------------

    def shadow_table(self, dpid: int) -> FlowTable:
        table = self.shadow.get(dpid)
        if table is None:
            table = self.shadow[dpid] = FlowTable()
        # Lazy expiry keeps the shadow in step with real switch sweeps.
        table.expire(self.sim.now, dpid=dpid)
        return table

    def note_flow_removed(self, dpid: int, match: Match, priority: int) -> None:
        """A FlowRemoved arrived: the entry is gone for real.

        Mirror the removal in the shadow and drop any cached counters
        -- the entry's history ended legitimately.
        """
        table = self.shadow.get(dpid)
        if table is not None:
            for entry in table.find(match, priority):
                table.remove(entry)
        self.counter_cache.forget(dpid, match, priority)

    def note_switch_reset(self, dpid: int) -> None:
        """A switch died or rebooted: its tables are empty now."""
        self.shadow[dpid] = FlowTable()
        self.switches_left.add(dpid)

    def note_switch_join(self, dpid: int) -> None:
        """A switch is (back) up.  One this NetLog saw leave comes back
        empty: whatever was written to it meanwhile never reached it.
        Any other join -- start-up, a controller reboot re-announcing a
        switch -- keeps the shadow."""
        if dpid in self.switches_left:
            self.switches_left.discard(dpid)
            self.shadow[dpid] = FlowTable()

    #: Shadow entries younger than this are never pruned by a stats
    #: reconcile: the FlowMod that created them may still be in flight
    #: to the switch, so their absence from a reply proves nothing.
    STATS_GRACE = 0.05

    def note_flow_stats(self, reply) -> None:
        """Reconcile the shadow with a flow-stats reply from the switch.

        The controller never sees data-plane hits, so shadow idle
        clocks drift: lazy expiry can drop an entry that live traffic
        is keeping alive on the real switch, and conversely a rule the
        switch swept (without OFPFF_SEND_FLOW_REM) lingers in the
        shadow forever.  Stats polling is the control plane's window
        onto switch truth -- the same reconciliation a production
        flow-rule store runs.  Three rules:

        - a counter advance proves activity: refresh the idle clock;
        - a reported rule missing from the shadow is re-adopted
          (it was prematurely expired here);
        - a shadow rule the switch no longer reports is dropped,
          unless it was written within :data:`STATS_GRACE` and may
          simply not have reached the switch yet.
        """
        now = self.sim.now
        table = self.shadow.get(reply.dpid)
        if table is None:
            table = self.shadow[reply.dpid] = FlowTable()
        reported_ids = set()
        for stat in reply.entries:
            # The first entry in table order with the rule, which is the
            # one a strict lookup finds.
            entry = next(iter(table.find(stat.match, stat.priority)), None)
            if entry is None:
                entry = FlowEntry(
                    match=stat.match,
                    priority=stat.priority,
                    actions=stat.actions,
                    idle_timeout=stat.idle_timeout,
                    hard_timeout=stat.hard_timeout,
                    cookie=stat.cookie,
                    installed_at=now - stat.duration,
                    last_hit_at=now,
                    packet_count=stat.packet_count,
                    byte_count=stat.byte_count,
                )
                table.insert(entry)
            else:
                if stat.packet_count > entry.packet_count:
                    entry.last_hit_at = now
                entry.packet_count = stat.packet_count
                entry.byte_count = stat.byte_count
            reported_ids.add(id(entry))
        cutoff = now - self.STATS_GRACE
        for entry in [e for e in table.entries
                      if id(e) not in reported_ids and e.installed_at < cutoff]:
            table.remove(entry)

    def adopt_shadow(self, tables: Dict[int, FlowTable]) -> None:
        """Seed the shadow from a replicated copy (controller failover).

        A promoted backup replayed the shipped NetLog into its own
        tables; adopting them gives the new primary's NetLog the same
        pre-state the old primary had, so inversions computed after the
        failover stay exact.
        """
        self.shadow = {
            dpid: FlowTable(entries=table.snapshot())
            for dpid, table in tables.items()
        }

    # -- transaction lifecycle ------------------------------------------------

    def begin(self, app_name: str, event_desc: str = "",
              trace_id: Optional[int] = None,
              cross_id: Optional[int] = None) -> Transaction:
        if trace_id is None and self.telemetry.enabled:
            trace_id = self.telemetry.tracer.current_trace
        txn = Transaction(
            txn_id=next(self._txn_ids),
            app_name=app_name,
            event_desc=event_desc,
            opened_at=self.sim.now,
            trace_id=trace_id,
            cross_id=cross_id,
        )
        self.open_txns[txn.txn_id] = txn
        if self.telemetry.enabled:
            self.telemetry.tracer.event(
                "netlog.txn.open", txn=txn.txn_id, app=app_name,
                event=event_desc, trace=trace_id,
            )
        return txn

    def apply(self, txn: Transaction, dpid: int, msg: Message) -> None:
        """Apply one app-emitted message under ``txn``."""
        if txn.state is not TxnState.OPEN:
            raise ValueError(f"transaction {txn.txn_id} is {txn.state.value}")
        if not msg.alters_network_state():
            txn.passthrough_count += 1
            self.controller.send_to_switch(dpid, msg)
            return
        now = self.sim.now
        table = self.shadow_table(dpid)
        pre_state = table.apply_flow_mod(msg, now)
        inversion = invert(msg, pre_state, dpid, now)
        record = NetLogRecord(
            txn_id=txn.txn_id,
            dpid=dpid,
            message=msg,
            inverse_messages=inversion.messages,
            counter_records=inversion.counter_records,
            applied_at=now,
        )
        self.wal.append(record)
        txn.records.append(record)
        self.controller.send_to_switch(dpid, msg)
        for callback in self.on_apply:
            callback(txn, record)

    def commit(self, txn: Transaction) -> None:
        """Make the transaction's effects permanent."""
        if txn.state is not TxnState.OPEN:
            return
        txn.state = TxnState.COMMITTED
        self.open_txns.pop(txn.txn_id, None)
        self.committed += 1
        if self.telemetry.enabled:
            # Open -> commit is split-phase (the app streams outputs in
            # between), so the span carries an explicit start.
            self.telemetry.tracer.record_span(
                "netlog.txn", start=txn.opened_at, txn=txn.txn_id,
                trace_id=txn.trace_id,
                app=txn.app_name, outcome="commit", ops=txn.size,
            )
        # Deletes were intentional: drop any counter history we held
        # for the entries this transaction removed.
        for record in txn.records:
            if isinstance(record.message, FlowMod) and record.message.command in (
                FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT,
            ):
                for cr in record.counter_records:
                    self.counter_cache.forget(cr.dpid, cr.match, cr.priority)
        for callback in self.on_resolve:
            callback(txn, "commit")

    def abort(self, txn: Transaction) -> int:
        """Undo everything: inverses in reverse order, counters cached.

        Returns the number of inverse messages sent.  Safe to call on
        an already-aborted transaction (idempotent, returns 0).
        """
        if txn.state is not TxnState.OPEN:
            return 0
        txn.state = TxnState.ABORTED
        self.open_txns.pop(txn.txn_id, None)
        self.aborted += 1
        sent = 0
        now = self.sim.now
        for record in reversed(txn.records):
            for inverse in record.inverse_messages:
                self.shadow_table(record.dpid).apply_flow_mod(inverse, now)
                self.controller.send_to_switch(record.dpid, inverse)
                sent += 1
            for cr in record.counter_records:
                self.counter_cache.store(cr)
        if self.telemetry.enabled:
            self.telemetry.tracer.record_span(
                "netlog.txn", start=txn.opened_at, txn=txn.txn_id,
                trace_id=txn.trace_id,
                app=txn.app_name, outcome="rollback", ops=txn.size,
                inverses_sent=sent,
            )
        for callback in self.on_resolve:
            callback(txn, "abort")
        return sent

    # -- byzantine-check support ----------------------------------------------

    def preview_tables(self, ops) -> Dict[int, FlowTable]:
        """Shadow copies with ``ops`` (an iterable of (dpid, msg))
        applied -- what the network WOULD look like.  Used by the
        buffer-mode byzantine check to vet output before it touches
        any switch."""
        preview: Dict[int, FlowTable] = {
            dpid: FlowTable(entries=table.snapshot())
            for dpid, table in self.shadow.items()
        }
        now = self.sim.now
        for dpid, msg in ops:
            if not msg.alters_network_state():
                continue
            table = preview.get(dpid)
            if table is None:
                table = preview[dpid] = FlowTable()
            table.apply_flow_mod(msg, now)
        return preview

    def current_tables(self) -> Dict[int, FlowTable]:
        """The shadow view (for post-apply byzantine checks)."""
        return dict(self.shadow)
