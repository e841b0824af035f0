"""OpenFlow controller<->switch message set.

Mirrors the OpenFlow-1.0 message types the LegoSDN components exercise.
All messages are dataclasses with a transaction id (``xid``) so that
request/reply pairs (echo, barrier, stats) can be correlated -- the
AppVisor proxy relies on this to route replies back to the right stub.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.openflow.actions import Action
from repro.openflow.match import Match

_xid_counter = itertools.count(1)


def next_xid() -> int:
    """Allocate a fresh transaction id (monotonic, process-wide)."""
    return next(_xid_counter)


def reset_xid_counter() -> None:
    """Restart xid allocation at 1.

    For reproducible-byte harness runs only (varint-encoded xids change
    length with magnitude, so two otherwise-identical runs in one
    process would differ in wire bytes); never call this mid-deployment.
    """
    global _xid_counter
    _xid_counter = itertools.count(1)


class FlowModCommand(enum.IntEnum):
    """Flow-table modification commands (OFPFC_*)."""

    ADD = 0
    MODIFY = 1
    MODIFY_STRICT = 2
    DELETE = 3
    DELETE_STRICT = 4


class FlowRemovedReason(enum.IntEnum):
    """Why a flow entry was removed (OFPRR_*)."""

    IDLE_TIMEOUT = 0
    HARD_TIMEOUT = 1
    DELETE = 2


class PacketInReason(enum.IntEnum):
    """Why a packet was punted to the controller (OFPR_*)."""

    NO_MATCH = 0
    ACTION = 1


class PortStatusReason(enum.IntEnum):
    """Port status change reasons (OFPPR_*)."""

    ADD = 0
    DELETE = 1
    MODIFY = 2


@dataclass
class Message:
    """Base class: every message carries a transaction id."""

    xid: int = field(default_factory=next_xid, kw_only=True)

    @property
    def type_name(self) -> str:
        return type(self).__name__

    def alters_network_state(self) -> bool:
        """True for messages NetLog must log (they mutate switch state)."""
        return False


# -- symmetric / session messages ------------------------------------


@dataclass
class Hello(Message):
    """Connection handshake."""

    version: int = 1


@dataclass
class EchoRequest(Message):
    """Liveness probe (also reused by the AppVisor heartbeat)."""

    payload: bytes = b""


@dataclass
class EchoReply(Message):
    payload: bytes = b""


@dataclass
class ErrorMsg(Message):
    """Error notification from switch to controller."""

    err_type: int = 0
    code: int = 0
    reason: str = ""


# -- controller -> switch --------------------------------------------


@dataclass
class FlowMod(Message):
    """Add/modify/delete flow table entries.

    This is the state-altering message at the heart of NetLog: every
    FlowMod has a computable inverse given the switch's pre-state (see
    :mod:`repro.openflow.inversion`).
    """

    match: Match = field(default_factory=Match)
    command: FlowModCommand = FlowModCommand.ADD
    priority: int = 100
    actions: Tuple[Action, ...] = ()
    idle_timeout: float = 0.0  # 0 = permanent
    hard_timeout: float = 0.0
    cookie: int = 0
    send_flow_removed: bool = False
    out_port: Optional[int] = None  # DELETE filter

    def __post_init__(self):
        self.actions = tuple(self.actions)

    def alters_network_state(self) -> bool:
        return True


@dataclass
class PacketOut(Message):
    """Inject a packet into the dataplane via a switch.

    Either carry the packet inline (``packet``) or reference one the
    switch buffered at PacketIn time (``buffer_id``) -- the buffered
    form keeps the payload off the control channel, which is the whole
    point of OpenFlow's buffer_id mechanism.
    """

    packet: object = None
    in_port: Optional[int] = None
    actions: Tuple[Action, ...] = ()
    buffer_id: Optional[int] = None

    def __post_init__(self):
        self.actions = tuple(self.actions)


@dataclass
class BarrierRequest(Message):
    """Fence: the switch completes all prior messages before replying.

    NetLog uses barriers to establish transaction commit points.
    """


@dataclass
class FlowStatsRequest(Message):
    match: Match = field(default_factory=Match)


@dataclass
class PortStatsRequest(Message):
    port: Optional[int] = None  # None = all ports


# -- switch -> controller --------------------------------------------


@dataclass
class PacketIn(Message):
    """A packet punted to the controller (table miss or explicit action)."""

    dpid: int = 0
    in_port: int = 0
    packet: object = None
    reason: PacketInReason = PacketInReason.NO_MATCH
    buffer_id: Optional[int] = None


@dataclass
class FlowRemoved(Message):
    """Notification that a flow entry expired or was deleted."""

    dpid: int = 0
    match: Match = field(default_factory=Match)
    priority: int = 0
    reason: FlowRemovedReason = FlowRemovedReason.IDLE_TIMEOUT
    cookie: int = 0
    duration: float = 0.0
    packet_count: int = 0
    byte_count: int = 0
    idle_timeout: float = 0.0


@dataclass
class PortStatus(Message):
    """Port up/down/add/remove notification."""

    dpid: int = 0
    port: int = 0
    reason: PortStatusReason = PortStatusReason.MODIFY
    link_up: bool = True


@dataclass
class BarrierReply(Message):
    pass


@dataclass
class FlowStatsEntry:
    """One row of a flow-stats reply."""

    match: Match
    priority: int
    actions: Tuple[Action, ...]
    packet_count: int
    byte_count: int
    duration: float
    idle_timeout: float
    hard_timeout: float
    cookie: int = 0


@dataclass
class FlowStatsReply(Message):
    dpid: int = 0
    entries: List[FlowStatsEntry] = field(default_factory=list)


@dataclass
class PortStatsEntry:
    """One row of a port-stats reply."""

    port: int
    rx_packets: int = 0
    tx_packets: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0
    rx_dropped: int = 0
    tx_dropped: int = 0


@dataclass
class PortStatsReply(Message):
    dpid: int = 0
    entries: List[PortStatsEntry] = field(default_factory=list)
