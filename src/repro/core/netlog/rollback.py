"""Comparing flow-table sets before and after a rollback.

:meth:`~repro.core.netlog.transaction.TransactionManager.abort` does
the undo.  These helpers say whether it worked:
:func:`fingerprint_tables` reduces a set of tables to a comparable
value (E4 takes one before a faulty transaction and compares it after
the rollback), and :func:`tables_equal` compares two sets directly
(Fig. 1 compares the monolithic and LegoSDN tables with it, and the
chaos tests NetLog's shadow of each switch with the switch's own
table).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.openflow.flowtable import FlowTable


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
    """Structural equality of two table sets."""
    keys = set(a) | set(b)
    for dpid in keys:
        fp_a = a[dpid].fingerprint(include_counters) if dpid in a else ()
        fp_b = b[dpid].fingerprint(include_counters) if dpid in b else ()
        if fp_a != fp_b:
            return False
    return True
