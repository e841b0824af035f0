"""The §4.1 prototype variant: a delay buffer.

"In the place of NetLog, our prototype contains a simple buffer that
delays the actions generated by an application from being installed on
the switch, until it is confirmed that the processing completed
without failure."

The buffer holds an app's emissions until the proxy learns the event
was handled successfully; a crash simply discards the buffer, so
nothing ever needs rolling back.  The price -- the reason the authors
call it "not practical in a real-world environment" -- is that every
rule installation is delayed by a full event-handling round trip,
which the E4/E8 ablation measures against full NetLog.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.netlog.transaction import Transaction, TransactionManager
from repro.openflow.messages import Message

BufferKey = Tuple[str, int]  # (app_name, event seq)


class DelayBuffer:
    """Holds per-event output batches until completion is confirmed."""

    def __init__(self, manager: TransactionManager):
        self.manager = manager
        self._buffers: Dict[BufferKey, List[Tuple[int, Message]]] = {}
        self.discarded = 0

    def hold(self, app_name: str, seq: int, dpid: int, msg: Message) -> None:
        """Buffer one emission from ``app_name`` handling event ``seq``."""
        self._buffers.setdefault((app_name, seq), []).append((dpid, msg))

    def pending(self, app_name: str, seq: int) -> List[Tuple[int, Message]]:
        return list(self._buffers.get((app_name, seq), []))

    def flush(self, app_name: str, seq: int, event_desc: str = "",
              commit: bool = True) -> Transaction:
        """The event completed: apply the whole batch as one transaction.

        Routing through the TransactionManager keeps the shadow tables,
        the transaction's records and the ship stream accurate.  Pass
        ``commit=False`` to leave the transaction open so a byzantine
        verdict can still abort it; the caller must then commit or
        abort explicitly.
        """
        ops = self._buffers.pop((app_name, seq), [])
        txn = self.manager.begin(app_name, event_desc or f"seq={seq}")
        for dpid, msg in ops:
            self.manager.apply(txn, dpid, msg)
        if commit:
            self.manager.commit(txn)
        return txn

    def discard(self, app_name: str, seq: int) -> int:
        """The event failed: drop the batch; nothing reached the network."""
        ops = self._buffers.pop((app_name, seq), [])
        if ops:
            self.discarded += 1
        return len(ops)
