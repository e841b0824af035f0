"""NetLog: network-wide transactions (§3.2).

The paper's insight: every state-altering control message is
invertible given the switch's pre-state.  NetLog keeps a *shadow* copy
of each switch's flow table on the controller side, computes the
inverse of every message as it is applied, and groups the messages an
app emits while handling one event into a transaction with
all-or-nothing semantics.  Aborting a transaction replays the inverses
in reverse order; a counter-cache preserves the counters and timeouts
a delete/re-add cycle would otherwise lose.

Two implementations are provided, mirroring the paper:

- :class:`~repro.core.netlog.transaction.TransactionManager` -- the
  full NetLog design (eager apply + rollback on abort).
- :class:`~repro.core.netlog.buffer.DelayBuffer` -- the §4.1 prototype
  short-cut (hold messages until the app finishes, then apply).
"""

from repro.core.netlog.buffer import DelayBuffer
from repro.core.netlog.counter_cache import CounterCache
from repro.core.netlog.transaction import (
    NetLogRecord, Transaction, TransactionManager, TxnState)

__all__ = [
    "CounterCache",
    "DelayBuffer",
    "NetLogRecord",
    "Transaction",
    "TransactionManager",
    "TxnState",
]
