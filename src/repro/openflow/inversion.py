"""The NetLog inversion algebra.

The paper's key insight (§3.2): *"each control message that modifies
network state is invertible: for every state altering control message,
A, there exists another control message, B, that undoes A's state
change."*  The inverse generally depends on the switch's state at the
moment A was applied (e.g. undoing a DELETE requires the deleted
entries), so :func:`invert` takes the *pre-state* -- the displaced or
removed entries that :meth:`FlowTable.apply_flow_mod` returns.

Undoing is imperfect: timeouts and counters are lost by a plain
re-add.  Following the paper, the inversion result therefore carries
:class:`CounterRecord` entries for NetLog's counter-cache, and re-adds
use the *remaining* hard timeout rather than the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.openflow.flowtable import FlowEntry
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, Message
from repro.record import record


@record
class CounterRecord:
    """Preserved counter/timeout state for one restored flow entry.

    NetLog stores these in its counter-cache and patches statistics
    replies so that applications observe counters as if the
    delete/re-add round trip never happened (§3.2).
    """

    dpid: int
    match: Match
    priority: int
    packet_count: int
    byte_count: int
    original_installed_at: float
    idle_timeout: float
    hard_timeout: float


@dataclass
class InversionResult:
    """Inverse messages plus counter-cache records for one logged op."""

    messages: List[Message]
    counter_records: List[CounterRecord]


def invert(
    mod: FlowMod, pre_state: List[FlowEntry], dpid: int, now: float
) -> InversionResult:
    """Compute the inverse of ``mod`` given the displaced pre-state.

    ``pre_state`` is the list of entries that ``mod`` removed or
    overwrote, captured by :meth:`FlowTable.apply_flow_mod` at apply
    time.  Returns the messages that, applied in order, restore the
    flow table to its pre-``mod`` contents.
    """
    if not isinstance(mod, FlowMod):
        raise TypeError(f"only FlowMod messages are invertible, got {mod.type_name}")
    cmd = mod.command
    if cmd == FlowModCommand.ADD:
        return _invert_add(mod, pre_state, dpid, now)
    if cmd in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
        return _invert_modify(mod, pre_state, dpid, now)
    if cmd in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT):
        return _invert_delete(mod, pre_state, dpid, now)
    raise ValueError(f"unknown FlowMod command: {cmd!r}")


def _restore_flow_mod(entry: FlowEntry, now: float) -> FlowMod:
    """Build the ADD that reinstates ``entry`` with its remaining lifetime."""
    return FlowMod(
        match=entry.match,
        command=FlowModCommand.ADD,
        priority=entry.priority,
        actions=entry.actions,
        idle_timeout=entry.idle_timeout,
        hard_timeout=entry.remaining_hard_timeout(now),
        cookie=entry.cookie,
        send_flow_removed=entry.send_flow_removed,
    )


def _counter_record(entry: FlowEntry, dpid: int) -> CounterRecord:
    return CounterRecord(
        dpid=dpid,
        match=entry.match,
        priority=entry.priority,
        packet_count=entry.packet_count,
        byte_count=entry.byte_count,
        original_installed_at=entry.installed_at,
        idle_timeout=entry.idle_timeout,
        hard_timeout=entry.hard_timeout,
    )


def _invert_add(mod, pre_state, dpid, now) -> InversionResult:
    """ADD^-1 = strict delete of the added rule, then re-add whatever it displaced."""
    messages: List[Message] = [
        FlowMod(
            match=mod.match,
            command=FlowModCommand.DELETE_STRICT,
            priority=mod.priority,
        )
    ]
    records = []
    for entry in pre_state:
        messages.append(_restore_flow_mod(entry, now))
        records.append(_counter_record(entry, dpid))
    return InversionResult(messages, records)


def _invert_modify(mod, pre_state, dpid, now) -> InversionResult:
    """MODIFY^-1 = strict modify back to each entry's previous action list.

    A MODIFY that matched nothing behaved as an ADD (empty pre-state),
    so its inverse is the ADD inverse.
    """
    if not pre_state:
        return _invert_add(mod, [], dpid, now)
    messages = [
        FlowMod(
            match=entry.match,
            command=FlowModCommand.MODIFY_STRICT,
            priority=entry.priority,
            actions=entry.actions,
            cookie=entry.cookie,
        )
        for entry in pre_state
    ]
    return InversionResult(messages, [])


def _invert_delete(mod, pre_state, dpid, now) -> InversionResult:
    """DELETE^-1 = re-add every removed entry (remaining timeouts, cached counters)."""
    messages = [_restore_flow_mod(entry, now) for entry in pre_state]
    records = [_counter_record(entry, dpid) for entry in pre_state]
    return InversionResult(messages, records)
