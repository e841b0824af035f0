"""Rollback execution and verification helpers.

:class:`~repro.core.netlog.transaction.TransactionManager.abort` does
the actual undo; this module adds the operator-facing conveniences the
E4 experiment uses: rolling back *several* transactions in reverse
commit order (e.g. everything an app did since its last checkpoint)
and verifying that a rollback really restored the pre-state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.core.netlog.transaction import Transaction, TransactionManager, TxnState
from repro.openflow.flowtable import FlowTable


@dataclass
class RollbackReport:
    """What a (multi-)transaction rollback did."""

    transactions_rolled_back: int
    inverse_messages_sent: int
    counters_cached: int


class RollbackExecutor:
    """Drives rollbacks through a :class:`TransactionManager`."""

    def __init__(self, manager: TransactionManager):
        self.manager = manager

    def rollback_all(self, txns: Iterable[Transaction]) -> RollbackReport:
        """Abort several transactions, newest first.

        Reverse order matters: inverses assume the state the *later*
        transactions left behind has already been undone.
        """
        ordered = sorted(txns, key=lambda t: t.txn_id, reverse=True)
        total_sent = 0
        rolled = 0
        cached_before = len(self.manager.counter_cache)
        for txn in ordered:
            sent = self.manager.abort(txn)
            if sent or txn.state is TxnState.ABORTED:
                rolled += 1
            total_sent += sent
        return RollbackReport(
            transactions_rolled_back=rolled,
            inverse_messages_sent=total_sent,
            counters_cached=len(self.manager.counter_cache) - cached_before,
        )


def fingerprint_tables(tables: Dict[int, FlowTable],
                       include_counters: bool = False) -> Tuple:
    """Order-independent fingerprint of a set of flow tables.

    E4 takes a fingerprint before a faulty transaction and asserts the
    post-rollback fingerprint matches exactly.
    """
    return tuple(
        (dpid, tables[dpid].fingerprint(include_counters=include_counters))
        for dpid in sorted(tables)
    )


def tables_equal(a: Dict[int, FlowTable], b: Dict[int, FlowTable],
                 include_counters: bool = False) -> bool:
    """Structural equality of two table sets (used in rollback tests)."""
    keys = set(a) | set(b)
    for dpid in keys:
        fp_a = a[dpid].fingerprint(include_counters) if dpid in a else ()
        fp_b = b[dpid].fingerprint(include_counters) if dpid in b else ()
        if fp_a != fp_b:
            return False
    return True
