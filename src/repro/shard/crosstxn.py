"""Two-phase cross-shard NetLog transactions (presumed abort).

See :mod:`repro.core.netlog.crossshard` for the protocol description.
The manager here is the coordinator-side driver: it partitions a
write-set by owning shard, opens one local NetLog transaction per
participant shard (phase 1, *prepare* -- the writes hit shadow, WAL,
switches, and ship to that shard's backups immediately), then commits
or aborts every branch (phase 2, *decide*).

Failure handling rides entirely on machinery that already exists:

- **coordinator crash before prepare**: nothing was applied; the
  envelope aborts vacuously.
- **coordinator crash after prepare**: each branch is an OPEN local
  transaction.  The per-envelope decision deadline (armed at prepare
  time, conceptually each participant's own timer) aborts the branch
  through plain NetLog inversion -- and if the participant's primary
  dies too, the shipped inverses make the branch an *orphan* its
  promoted backup rolls back.  Silence means abort.
- **participant crash mid-commit**: branches that already committed
  are undone with *compensation* transactions (the recorded inverses
  applied as a fresh committed txn), the dead shard's branch dies as
  an orphan at its failover, and both shards land back on the
  pre-envelope state -- the NetLog-inversion consistency E18's abort
  tests assert.

Epoch fencing backstops all of it: a superseded participant primary
that still tries to touch its switches writes with a stale epoch and
is rejected at delivery.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.core.netlog.crossshard import (
    CrossTxnEnvelope,
    CrossTxnParticipant,
    CrossTxnState,
)
from repro.core.netlog.transaction import TxnState


class CrossShardTxnManager:
    """Drives two-phase commits across a ShardCoordinator's shards."""

    #: How long a prepared branch may wait for a decision before
    #: the presumed-abort timer inverts it.  Models the
    #: participant-side timer, so it keeps running even when the
    #: coordinator "process" is crashed.
    DECISION_TIMEOUT = 0.5

    def __init__(self, coordinator):
        self.coordinator = coordinator
        self.sim = coordinator.sim
        self._ids = itertools.count(1)
        self.envelopes: Dict[int, CrossTxnEnvelope] = {}
        self.committed = 0
        self.aborted = 0
        self.compensations = 0
        self.crashed = False

    # -- coordinator fault injection ---------------------------------------

    def crash(self) -> None:
        """The coordinator process dies: no new envelopes, no decisions.

        Branch deadlines keep running -- they model the *participants'*
        presumed-abort timers, which a dead coordinator cannot stop.
        """
        self.crashed = True

    def recover(self) -> None:
        self.crashed = False

    # -- the protocol ------------------------------------------------------

    def _manager(self, shard_id: int):
        """The shard's current NetLog manager, or None if its primary
        is dead or mid-failover."""
        handle = self.coordinator.shard(shard_id)
        primary = handle.replicas.primary
        if (primary is None or not primary.is_live
                or primary.runtime is None):
            return None
        return primary.runtime.proxy.manager

    def execute(self, app_name: str, writes: List[Tuple[int, object]],
                trace_id: Optional[int] = None,
                halt_after_prepare: bool = False) -> CrossTxnEnvelope:
        """Run one cross-shard transaction to a terminal state.

        ``writes`` is a flat ``[(dpid, message), ...]`` list; the
        manager groups it by owning shard.  ``halt_after_prepare``
        stops after phase 1 (fault-injection hook: the envelope is
        left PREPARED exactly as a coordinator crash between phases
        would leave it, and the presumed-abort deadline is armed).
        """
        env = CrossTxnEnvelope(
            cross_id=next(self._ids),
            app_name=app_name,
            opened_at=self.sim.now,
            trace_id=trace_id,
        )
        self.envelopes[env.cross_id] = env
        if self.crashed:
            env.state = CrossTxnState.ABORTED
            env.abort_reason = "coordinator crashed before prepare"
            self.aborted += 1
            return env

        by_shard: Dict[int, List[Tuple[int, object]]] = {}
        for dpid, msg in writes:
            shard_id = self.coordinator.shard_of_dpid(dpid)
            by_shard.setdefault(shard_id, []).append((dpid, msg))

        # Phase 1: prepare every branch.
        for shard_id in sorted(by_shard):
            manager = self._manager(shard_id)
            if manager is None:
                env.abort_reason = f"shard {shard_id} has no live primary"
                self._abort(env)
                return env
            txn = manager.begin(app_name, f"cross:{env.cross_id}",
                                trace_id=trace_id, cross_id=env.cross_id)
            part = CrossTxnParticipant(
                shard_id=shard_id, txn=txn, manager=manager,
                writes=tuple(by_shard[shard_id]))
            env.participants.append(part)
            try:
                for dpid, msg in by_shard[shard_id]:
                    manager.apply(txn, dpid, msg)
            except Exception as exc:  # noqa: BLE001 - abort, don't die
                env.abort_reason = (
                    f"prepare failed on shard {shard_id}: {exc}")
                self._abort(env)
                return env
        env.state = CrossTxnState.PREPARED
        # The participants' presumed-abort timers: decision or death.
        self.sim.schedule(self.DECISION_TIMEOUT, self._deadline,
                          env.cross_id)

        if halt_after_prepare or self.crashed:
            return env
        self.decide(env)
        return env

    def decide(self, env: CrossTxnEnvelope) -> CrossTxnEnvelope:
        """Phase 2: commit every branch, compensating on a lost one."""
        if env.state is not CrossTxnState.PREPARED:
            return env
        if self.crashed:
            return env  # a dead coordinator decides nothing
        for part in env.participants:
            manager = self._manager(part.shard_id)
            if (manager is not part.manager
                    or part.txn.state is not TxnState.OPEN):
                # The branch is gone: its primary died (failover will
                # orphan-roll it back from the shipped inverses) or it
                # was already aborted by a deadline.  Undo what this
                # envelope already committed elsewhere.
                env.abort_reason = (
                    f"shard {part.shard_id} lost its branch mid-commit")
                return self._compensate(env)
            manager.commit(part.txn)
            part.committed = True
        env.state = CrossTxnState.COMMITTED
        env.decided_at = self.sim.now
        self.committed += 1
        self._note_outcome(env)
        return env

    def _deadline(self, cross_id: int) -> None:
        """Presumed abort: a prepared envelope with no decision yet."""
        env = self.envelopes.get(cross_id)
        if env is None or env.state is not CrossTxnState.PREPARED:
            return
        if not env.abort_reason:
            env.abort_reason = "decision timeout (coordinator silent)"
        self._abort(env)

    def _abort(self, env: CrossTxnEnvelope) -> None:
        """Invert every still-reachable OPEN branch; terminal ABORTED."""
        for part in env.participants:
            manager = self._manager(part.shard_id)
            if (manager is part.manager
                    and part.txn.state is TxnState.OPEN):
                manager.abort(part.txn)
            # else: the branch's shard failed over -- its promotion
            # already rolled the orphan back from shipped inverses.
        env.state = CrossTxnState.ABORTED
        env.decided_at = self.sim.now
        self.aborted += 1
        self._note_outcome(env)

    def _compensate(self, env: CrossTxnEnvelope) -> CrossTxnEnvelope:
        """Undo committed branches, abort open ones; terminal state.

        Each committed branch is reversed by a *fresh committed
        transaction* applying the recorded inverses in reverse order
        -- compensation, not rollback, because the original commit
        already resolved and shipped.  The envelope ends COMPENSATED
        when any branch had to be compensated, plain ABORTED otherwise.
        """
        compensated_any = False
        for part in env.participants:
            manager = self._manager(part.shard_id)
            if part.committed:
                if manager is None:
                    continue  # shard headless; its failover converges it
                comp = manager.begin(
                    env.app_name, f"cross-comp:{env.cross_id}",
                    trace_id=env.trace_id, cross_id=env.cross_id)
                for record in reversed(part.txn.records):
                    for inverse in record.inverse_messages:
                        manager.apply(comp, record.dpid, inverse)
                manager.commit(comp)
                part.compensated = True
                compensated_any = True
                self.compensations += 1
            elif (manager is part.manager
                    and part.txn.state is TxnState.OPEN):
                manager.abort(part.txn)
        env.state = (CrossTxnState.COMPENSATED if compensated_any
                     else CrossTxnState.ABORTED)
        env.decided_at = self.sim.now
        self.aborted += 1
        self._note_outcome(env)
        return env

    # -- telemetry ---------------------------------------------------------

    def _note_outcome(self, env: CrossTxnEnvelope) -> None:
        telemetry = self.coordinator.telemetry
        if not telemetry.enabled:
            return
        telemetry.metrics.inc(f"crossshard.{env.state.value}")
        telemetry.tracer.record_span(
            "shard.cross_txn", start=env.opened_at,
            trace_id=env.trace_id,
            status="ok" if env.state is CrossTxnState.COMMITTED else "error",
            cross_id=env.cross_id, outcome=env.state.value,
            shards=len(env.participants), reason=env.abort_reason)

    def stats(self) -> Dict[str, int]:
        return {
            "committed": self.committed,
            "aborted": self.aborted,
            "compensations": self.compensations,
            "open": sum(1 for env in self.envelopes.values()
                        if env.state in (CrossTxnState.PREPARING,
                                         CrossTxnState.PREPARED)),
        }
