"""The proxy<->stub RPC protocol.

"The stub is a light-weight wrapper around the actual SDN-App and
converts all calls from the SDN-App to the controller to messages
which are then delivered to the proxy. ... In other words, the stub
and proxy implement a simple RPC-like mechanism." (§4.1)

Every frame is a registered dataclass serialised with the byte codec
from :mod:`repro.openflow.serialization`, so crossing the boundary has
a real, measurable wire cost (charged by the channel's latency model).

Event-scoped frames carry a ``trace_id``: the causal identity the
controller minted when the originating event entered dispatch.  The
stub echoes it back on everything the event produced (outputs,
completion, crash reports, restore acks), so both sides' telemetry
spans -- and the channel's retransmission spans for the datagrams in
between -- assemble into one causal tree per event
(:mod:`repro.telemetry.causal`).  ``trace_id=0`` means untraced
(telemetry off, or background frames like heartbeats).

Frame inventory (direction):

==================  ===========  =========================================
Frame               Direction    Purpose
==================  ===========  =========================================
Register            stub->proxy  announce app + subscriptions
EventDeliver        proxy->stub  deliver one subscribed event
AppOutput           stub->proxy  one message the app emitted (streamed)
EventComplete       stub->proxy  the event was handled successfully
CrashReport         stub->proxy  the app raised; diagnostics attached
Heartbeat           stub->proxy  periodic liveness beacon; also where the
                                 stub says it needs a full ContextPush
RestoreCommand      proxy->stub  restore to pre-event checkpoint
DeepRestoreCommand  proxy->stub  STS-guided restore (cumulative bugs)
RestoreAck          stub->proxy  restore finished (replay stats attached)
ContextPush         proxy->stub  what changed in the host table and the
                                 topology since the stub's last push
==================  ===========  =========================================

How frames are laid into datagrams (one frame or a tick's batch, the
sequence/ack/CRC header) is the channel's business:
:mod:`repro.core.appvisor.channel`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.controller.api import HostEntry, TopoView
from repro.openflow.serialization import (
    decode_value,
    encode_value,
    register_dataclass,
)
from repro.record import record


@register_dataclass
@record
class Register:
    app_name: str
    subscriptions: Tuple[str, ...]
    #: Whether the stub can run STS deep restores (it has a replica
    #: factory for probe runs).
    supports_deep_restore: bool = False
    #: Highest event seq this stub has already been delivered.  0 for a
    #: fresh launch; a stub re-registering with a promoted backup after
    #: a controller failover passes its last seq so the new proxy
    #: continues numbering instead of colliding with the stub's
    #: journal/checkpoint history.
    resume_from_seq: int = 0


@register_dataclass
@record
class EventDeliver:
    app_name: str
    seq: int
    event: object
    trace_id: int = 0


@register_dataclass
@record
class AppOutput:
    """One emission, streamed as the app produces it.

    Streaming (rather than batching into EventComplete) is what makes
    mid-transaction crashes real: when the app dies after emitting k of
    n messages, the proxy has already applied k -- and NetLog must roll
    them back.
    """

    app_name: str
    seq: int
    index: int
    dpid: int
    message: object
    trace_id: int = 0


@register_dataclass
@record
class EventComplete:
    app_name: str
    seq: int
    output_count: int
    counter_deltas: Tuple[Tuple[str, int], ...] = ()
    log_lines: Tuple[str, ...] = ()
    trace_id: int = 0


@register_dataclass
@record
class CrashReport:
    app_name: str
    seq: int
    error: str
    traceback_text: str = ""
    log_lines: Tuple[str, ...] = ()
    trace_id: int = 0


@register_dataclass
@record
class Heartbeat:
    app_name: str
    stub_time: float
    last_seq_done: int
    #: The stub holds no version a :class:`ContextPush` delta could be
    #: laid over (it just re-attached, or had to drop a delta cut
    #: against a push the channel abandoned): send it the full table.
    needs_context: bool = False


@register_dataclass
@record
class RestoreCommand:
    """Restore the app to its state before ``offending_seq``.

    ``drop_seqs`` lists other in-flight events invalidated by the
    failure (concurrency lanes): the proxy re-delivers them with fresh
    seqs, so the stub must forget their journal entries.
    """

    app_name: str
    offending_seq: int
    drop_seqs: Tuple[int, ...] = ()
    trace_id: int = 0


@register_dataclass
@record
class DeepRestoreCommand:
    """Escalated recovery for cumulative bugs (§5).

    Issued when plain restore-and-skip keeps failing (the app crashes
    again right after every recovery, i.e. its *checkpointed state* is
    poisoned).  The stub runs the STS search over its checkpoint
    history and journal, prunes the causal events, and rolls back to
    the newest checkpoint that replays clean.
    """

    app_name: str
    offending_seq: int
    drop_seqs: Tuple[int, ...] = ()
    trace_id: int = 0


@register_dataclass
@record
class RestoreAck:
    app_name: str
    restored_before_seq: int
    replayed_events: int
    restore_cost: float
    ok: bool = True
    error: str = ""
    #: Event seqs the STS search identified as a cumulative bug's
    #: causal set (pruned from future replays).  Empty for the common
    #: single-event case.
    sts_culprits: Tuple[int, ...] = ()
    trace_id: int = 0


@register_dataclass
@record
class ContextPush:
    """The controller's host table and topology, as of ``device_version``
    / ``topo_version`` -- in full, or as what changed.

    A *full* push (``base_version`` < 0) replaces the stub's host cache
    with ``hosts``; the proxy sends one when a stub registers (launch,
    re-attach after a controller failover), after the device table was
    reset, when the channel reports it gave up on a datagram, and when
    a heartbeat says the stub needs one.  Otherwise the
    push is a *delta*: ``hosts`` holds the newest entry of every MAC
    that changed after device version ``base_version``, to be laid over
    exactly that version; ``topo`` rides along only when the topology's
    version moved (None = still ``topo_version``).  A stub that does
    not hold the base -- the channel abandoned an earlier push -- drops
    the delta and asks for a full table on its next heartbeat, so what
    is sent is decided by what the receiver observably holds.
    """

    topo: Optional[TopoView]
    hosts: Tuple[HostEntry, ...]
    base_version: int = -1
    device_version: int = 0
    topo_version: int = 0


def encode_frame(frame) -> bytes:
    """Serialise a frame for the wire."""
    return encode_value(frame)


def decode_frame(data: bytes):
    """Parse a frame off the wire."""
    return decode_value(data)


def frame_label(frame) -> str:
    """The frame's wire-protocol name, for telemetry tagging."""
    return type(frame).__name__


def trace_frame(telemetry, direction: str, frame) -> None:
    """Record one frame crossing the proxy<->stub RPC boundary.

    ``direction`` is ``"send"`` or ``"recv"`` from the caller's point
    of view.  A no-op (one attribute check) when telemetry is off, so
    the RPC hot path stays benchmark-neutral.
    """
    if not telemetry.enabled:
        return
    label = frame_label(frame)
    telemetry.tracer.event(
        f"appvisor.rpc.{direction}",
        frame=label,
        app=getattr(frame, "app_name", ""),
        seq=getattr(frame, "seq", None),
        trace=getattr(frame, "trace_id", 0) or None,
    )
    telemetry.metrics.inc(f"rpc.{direction}.{label}")


def frame_trace_ids(frames: Iterable) -> Tuple[int, ...]:
    """Distinct non-zero trace ids carried by one datagram's frames.

    The reliability layer stores these per datagram so retransmissions
    attach to the event(s) whose frames the datagram carries -- a
    retransmit never mints a trace id of its own.
    """
    seen = []
    for frame in frames:
        tid = getattr(frame, "trace_id", 0)
        if tid and tid not in seen:
            seen.append(tid)
    return tuple(seen)
