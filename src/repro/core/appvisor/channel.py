"""The simulated UDP channel between proxy and stub.

"The proxy and stub communicate with each other using UDP."  (§4.1)

A frame is encoded exactly once, in :meth:`ChannelEndpoint.send`.  What
travels is a *datagram*: a fixed header followed by the encodings of
the frames aboard, each behind its length.  With ``batch=True`` every
frame a side sends at one sim instant rides one datagram, flushed on
the tick boundary (``BATCH_WINDOW`` past the first send; one
``base_delay`` and one chaos roll for the lot); unbatched, a datagram
carries one frame; an acknowledgement is a header and nothing else.
The byte counters, the CRC, the retransmit buffer and the wire all use
that one buffer of frame records.

========  =====  =====================================================
field     bytes  meaning (network byte order)
========  =====  =====================================================
crc       4      CRC-32 of every byte after it, header fields included
kind      1      1 = data, 2 = ack
seq       4      data: this datagram's number, per direction, from 1;
                 ack: cumulative -- every data seq at or below it was
                 delivered, or skipped under an advanced floor
floor     4      data: the lowest seq the sender still guarantees to
                 deliver (it gave up on everything below); ack: 0
records   rest   data only, once per frame: u32 length, then that many
                 bytes of the frame's encoding
========  =====  =====================================================

Delivery takes ``base_delay`` plus a per-byte transmission cost (the
paper's §3.1 caveat -- "serialization and de-serialization of
messages, and the communication protocol overhead introduce additional
latency into the control-loop" -- made measurable: E2 reads these costs
off the channel).  The wire itself is faultless; a
:class:`~repro.faults.netfaults.ChaosProfile` on ``channel.chaos`` is
the one place a datagram is dropped or perturbed (loss, burst loss,
duplication, reordering, jitter, corruption, timed partitions),
identically for data and acks.

The datagrams carry a TCP-like reliability layer: cumulative acks,
retransmission with exponential backoff + seeded jitter under a
``retry_budget``, receiver-side dedup and an in-order reorder buffer,
so loss, duplication, reordering and corruption degrade into latency:
every frame reaches the handler exactly once, in send order.  A
datagram that exhausts its budget is *abandoned*: the sender advances
``floor`` past the gap and raises a :class:`ChannelFault` through
``on_fault`` -- the signal the crashpad FailureDetector uses to tell
"channel lossy" apart from "app dead".

What a receiver refuses, and the counter it lands in:

=====================================  ===========================
received                               counted as
=====================================  ===========================
shorter than a header; CRC mismatch    ``corrupt_rejected`` (no ack:
(any flipped bit, header or records);  the sender's retransmission
unknown kind; a record running past    delivers a clean copy)
the datagram; an undecodable frame
data seq already delivered or held     ``dup_datagrams_dropped``
                                       (re-acked)
data seq below the sender's floor      nothing: the gap is skipped,
                                       the cursor moves past it
=====================================  ===========================
"""

from __future__ import annotations

import random
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.appvisor.rpc import (
    decode_frame,
    encode_frame,
    frame_trace_ids,
)
from repro.openflow.serialization import SerializationError

_CRC = struct.Struct("!I")
#: The header fields the CRC covers: kind, seq, floor.
_FIELDS = struct.Struct("!BII")
HEADER_SIZE = _CRC.size + _FIELDS.size
_LENGTH = struct.Struct("!I")
_DATA, _ACK = 1, 2

#: How long the first pending frame of a batch waits for company.  0.0
#: still batches: the flush is scheduled as a fresh sim event, which
#: fires after every same-instant send already queued.
BATCH_WINDOW = 0.0
#: Retransmit timer: the first timeout, doubled per attempt up to the
#: cap -- an RTO for a sub-millisecond localhost hop, not an Internet
#: path.
RTO_INITIAL = 0.01
RTO_MAX = 0.08
#: Each backoff is stretched by a seeded uniform draw in
#: [0, RTO_JITTER] to de-synchronise retries.
RTO_JITTER = 0.25


def pack_datagram(kind: int, seq: int, floor: int,
                  records: bytes = b"") -> bytes:
    """Header + ``records``, checksummed (the module docstring's table)."""
    rest = _FIELDS.pack(kind, seq, floor) + records
    return _CRC.pack(zlib.crc32(rest)) + rest


def pack_records(encodings) -> bytes:
    """Each frame encoding behind its u32 length."""
    return b"".join([_LENGTH.pack(len(data)) + data for data in encodings])


def unpack_datagram(data: bytes):
    """``(kind, seq, floor, [frame encoding, ...])`` of an intact
    datagram; anything else -- truncated, a flipped bit anywhere, an
    unknown kind, a record overrunning the buffer -- is a
    :class:`SerializationError`."""
    if len(data) < HEADER_SIZE:
        raise SerializationError("datagram shorter than its header")
    if _CRC.unpack_from(data)[0] != zlib.crc32(memoryview(data)[_CRC.size:]):
        raise SerializationError("datagram checksum mismatch")
    kind, seq, floor = _FIELDS.unpack_from(data, _CRC.size)
    if kind not in (_DATA, _ACK):
        raise SerializationError(f"unknown datagram kind {kind}")
    records, pos, end = [], HEADER_SIZE, len(data)
    while pos < end:
        if end - pos < _LENGTH.size:
            raise SerializationError("truncated frame record")
        start = pos + _LENGTH.size
        pos = start + _LENGTH.unpack_from(data, pos)[0]
        if pos > end:
            raise SerializationError("frame record overruns the datagram")
        records.append(data[start:pos])
    return kind, seq, floor, records


@dataclass(frozen=True)
class ChannelFault:
    """A reliability failure on one direction of a channel.

    Raised through ``UdpChannel.on_fault`` when a datagram exhausts its
    retry budget -- the channel itself (not the process behind it) is
    the thing misbehaving.  ``seq`` is the highest abandoned sequence
    number; everything at or below it that was still unacked has been
    given up on.
    """

    side: str
    seq: int
    attempts: int
    at: float


@dataclass
class _Unacked:
    """One data datagram awaiting acknowledgement."""

    #: The datagram's frame records: what ``bytes_sent`` counted and
    #: what every (re)transmission puts behind a fresh header.
    payload: bytes
    attempts: int = 0
    next_at: float = 0.0
    #: Trace ids of the events whose frames this datagram carries --
    #: captured at first transmit so retransmission spans attach to the
    #: causing event's tree instead of minting fresh identities.
    trace_ids: tuple = ()
    #: Frame type names aboard (for retransmit-span attribution;
    #: control frames like Register carry no trace context by design).
    kinds: tuple = ()
    #: When the datagram last went on the wire; a retransmit span
    #: covers [last_sent_at, now] -- the backoff the event waited out.
    last_sent_at: float = 0.0


@dataclass
class _SendState:
    """Per-direction sender half of the reliability layer."""

    next_seq: int = 0
    #: Lowest seq this sender still guarantees (1 + highest abandoned).
    floor: int = 1
    unacked: Dict[int, _Unacked] = field(default_factory=dict)
    timer_id: Optional[int] = None


@dataclass
class _RecvState:
    """Per-direction receiver half: cursor + reorder buffer."""

    #: Highest seq delivered (or skipped under an advanced floor).
    cursor: int = 0
    #: Out-of-order datagrams held until the gap below them fills:
    #: seq -> (frame encodings, payload bytes, sent_at).
    buffer: Dict[int, tuple] = field(default_factory=dict)


class ChannelEndpoint:
    """One side of the channel: send frames, receive via a handler."""

    def __init__(self, channel: "UdpChannel", side: str):
        self._channel = channel
        self._side = side
        self.handler: Optional[Callable] = None
        #: Hand the handler each frame's received encoding as well
        #: (``handler(frame, raw=...)``): the replication layer verifies
        #: its MACs over the bytes that arrived, not over a re-encoding.
        self.raw_frames = False
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_recv = 0
        self.bytes_recv = 0

    @property
    def channel(self) -> "UdpChannel":
        """The channel this endpoint is one side of (for byte_stats)."""
        return self._channel

    def on_frame(self, handler: Callable) -> None:
        """Install the receive handler for this endpoint."""
        self.handler = handler

    def send(self, frame, *, seal=None) -> None:
        """Serialise and transmit ``frame`` to the peer endpoint.

        This is the frame's one encoding; ``seal``, when given, maps
        those bytes to the ones that travel (the replication layer
        stamps its MAC there).  There is deliberately no return value:
        a send either arrives exactly once or surfaces as a
        :class:`ChannelFault`.
        """
        data = encode_frame(frame)
        if seal is not None:
            data = seal(data)
        self.frames_sent += 1
        if self._channel.batch:
            self._channel._enqueue(self._side, (data, frame))
        else:
            self._channel._ship(self._side, [(data, frame)])

    def drop_pending(self) -> int:
        """Discard this side's unflushed frames (its process died)."""
        return self._channel.drop_pending(self._side)


class UdpChannel:
    """A bidirectional, delayed, reliable datagram channel."""

    def __init__(self, sim, base_delay: float = 0.0002,
                 per_byte_delay: float = 2e-8, seed: int = 0,
                 batch: bool = False,
                 retry_budget: int = 8,
                 chaos=None,
                 telemetry=None, span_name: str = "appvisor.rpc"):
        self.sim = sim
        self.base_delay = base_delay
        self.per_byte_delay = per_byte_delay
        self.rng = random.Random(seed)
        self.batch = batch
        #: Retransmissions allowed per datagram before it is abandoned
        #: and a ChannelFault raised.
        self.retry_budget = retry_budget
        #: Optional ChaosProfile perturbing every datagram on the wire.
        self.chaos = chaos
        #: Callbacks invoked with a ChannelFault when a datagram
        #: exhausts its retry budget.
        self.on_fault: List[Callable[[ChannelFault], None]] = []
        #: Optional Telemetry; when enabled each delivered datagram
        #: records one ``span_name`` span covering its time on the wire
        #: (tagged with frame and byte counts), the span-diff harness's
        #: RPC segment.
        self.telemetry = telemetry
        self.span_name = span_name
        self.proxy_end = ChannelEndpoint(self, "proxy")
        self.stub_end = ChannelEndpoint(self, "stub")
        self.datagrams_delivered = 0
        self.datagrams_lost = 0
        self.bytes_carried = 0
        self.batches_flushed = 0
        self.frames_batched = 0
        self.retransmits = 0
        self.dup_datagrams_dropped = 0
        self.corrupt_rejected = 0
        self.acks_sent = 0
        self.abandoned = 0
        self.faults_raised = 0
        # Per-direction transmit serialisation: the sender's interface
        # puts one datagram on the wire at a time, so a burst of sends
        # drains at per_byte_delay line rate and ordering is inherent
        # (a small datagram can never overtake a big one).
        self._tx_free_at = {"proxy": 0.0, "stub": 0.0}
        self._pending: dict = {"proxy": [], "stub": []}
        self._flush_scheduled = {"proxy": False, "stub": False}
        self._send_state = {"proxy": _SendState(), "stub": _SendState()}
        self._recv_state = {"proxy": _RecvState(), "stub": _RecvState()}

    def delay_for(self, nbytes: int) -> float:
        """One-way latency for an ``nbytes`` datagram on an idle link."""
        return self.base_delay + nbytes * self.per_byte_delay

    def _endpoint(self, side: str) -> ChannelEndpoint:
        return self.proxy_end if side == "proxy" else self.stub_end

    # -- batching ---------------------------------------------------------

    def _enqueue(self, from_side: str, sent: tuple) -> None:
        self._pending[from_side].append(sent)
        if not self._flush_scheduled[from_side]:
            self._flush_scheduled[from_side] = True
            self.sim.schedule(BATCH_WINDOW,
                              lambda: self._flush(from_side))

    def _flush(self, from_side: str) -> None:
        """Ship the side's pending frames as one datagram."""
        self._flush_scheduled[from_side] = False
        pending: List = self._pending[from_side]
        if not pending:
            return
        self._pending[from_side] = []
        self.batches_flushed += 1
        self.frames_batched += len(pending)
        self._ship(from_side, pending)

    def _ship(self, from_side: str, sent: List[tuple]) -> None:
        """One datagram's worth of ``(encoding, frame)`` leaves."""
        records = pack_records([data for data, _ in sent])
        self._endpoint(from_side).bytes_sent += len(records)
        trace_ids = kinds = ()
        if self.telemetry is not None and self.telemetry.enabled:
            # Only when anyone is looking: the ids and type names feed
            # retransmission and delivery spans.
            self.telemetry.metrics.inc("channel.bytes_sent", len(records))
            frames = [frame for _, frame in sent]
            trace_ids = frame_trace_ids(frames)
            kinds = tuple(sorted({type(f).__name__ for f in frames}))
        state = self._send_state[from_side]
        state.next_seq += 1
        state.unacked[state.next_seq] = _Unacked(
            payload=records, trace_ids=trace_ids, kinds=kinds)
        self._send_seq(from_side, state.next_seq)

    def drop_pending(self, side: str) -> int:
        """Discard a side's unflushed frames (its process just died).

        Returns how many frames were dropped.  A crash between sends
        and the tick-boundary flush loses exactly the unflushed tail --
        everything already flushed is on the wire and still arrives.
        A dead process retransmits nothing either: the side's unacked
        buffer is cleared and its retry timer cancelled.
        """
        dropped = len(self._pending[side])
        self._pending[side] = []
        state = self._send_state[side]
        state.unacked.clear()
        if state.timer_id is not None:
            self.sim.cancel(state.timer_id)
            state.timer_id = None
        return dropped

    def pending_frames(self, side: str) -> int:
        return len(self._pending[side])

    # -- the wire ---------------------------------------------------------

    def _send_seq(self, from_side: str, seq: int) -> None:
        """(Re)transmit one datagram and arm its backoff."""
        state = self._send_state[from_side]
        record = state.unacked.get(seq)
        if record is None:
            return
        record.attempts += 1
        record.last_sent_at = self.sim.now
        self._put_on_wire(
            from_side, pack_datagram(_DATA, seq, state.floor, record.payload),
            kind="data")
        rto = min(RTO_INITIAL * (2 ** (record.attempts - 1)), RTO_MAX)
        rto *= 1.0 + self.rng.random() * RTO_JITTER
        record.next_at = self.sim.now + rto
        self._arm_timer(from_side)

    def _arm_timer(self, from_side: str) -> None:
        state = self._send_state[from_side]
        if not state.unacked:
            return
        due = min(rec.next_at for rec in state.unacked.values())
        if state.timer_id is not None:
            self.sim.cancel(state.timer_id)
        state.timer_id = self.sim.schedule_at(
            due, self._retx_tick, from_side)

    def _retx_tick(self, from_side: str) -> None:
        """Retransmit every overdue datagram; abandon exhausted ones."""
        state = self._send_state[from_side]
        state.timer_id = None
        now = self.sim.now
        exhausted = []
        for seq in sorted(state.unacked):
            record = state.unacked[seq]
            if record.next_at > now + 1e-12:
                continue
            if record.attempts > self.retry_budget:
                exhausted.append(seq)
                continue
            self.retransmits += 1
            if self.telemetry is not None and self.telemetry.enabled:
                self.telemetry.metrics.inc("channel.retransmits")
                # The backoff this datagram just waited out, attributed
                # to the event whose frames it carries.  Retransmission
                # is pure added latency on the causal path, which is
                # exactly what the critical-path analyzer should see.
                tids = record.trace_ids
                self.telemetry.tracer.record_span(
                    f"{self.span_name}.retransmit",
                    start=record.last_sent_at,
                    trace_id=tids[0] if tids else None,
                    direction=from_side, seq=seq,
                    attempt=record.attempts,
                    frames=",".join(record.kinds))
            self._send_seq(from_side, seq)
        if exhausted:
            self._abandon(from_side, exhausted)
        self._arm_timer(from_side)

    def _abandon(self, from_side: str, seqs: List[int]) -> None:
        """Give up on datagrams that exhausted the retry budget.

        Everything at or below the highest exhausted seq is hopeless
        (the receiver delivers in order, so it cannot use seqs above a
        permanent gap until the floor passes it): drop them all,
        advance the floor, and surface one ChannelFault.
        """
        state = self._send_state[from_side]
        top = max(seqs)
        attempts = state.unacked[top].attempts
        for seq in [s for s in state.unacked if s <= top]:
            del state.unacked[seq]
            self.abandoned += 1
        state.floor = max(state.floor, top + 1)
        self.faults_raised += 1
        fault = ChannelFault(side=from_side, seq=top,
                             attempts=attempts, at=self.sim.now)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("channel.faults")
            self.telemetry.tracer.event(
                "channel.fault", direction=from_side, seq=top,
                attempts=attempts)
        for callback in list(self.on_fault):
            callback(fault)

    def _put_on_wire(self, from_side: str, data: bytes, kind: str) -> None:
        """Charge transmission and schedule delivery of one datagram.

        The chaos hook runs here -- after the sender's NIC, before the
        receiver -- so its drops/dups/delays model the network itself,
        identically for data and acks.
        """
        deliveries = ((0.0, data),)
        if self.chaos is not None:
            deliveries = self.chaos.perturb(self.sim.now, from_side, data)
            if not deliveries:
                # Died on the wire; the retry layer recovers.
                self.datagrams_lost += 1
                if (kind == "data" and self.telemetry is not None
                        and self.telemetry.enabled):
                    self.telemetry.metrics.inc("channel.datagrams_lost")
                return
        self.bytes_carried += len(data)
        tx_start = max(self.sim.now, self._tx_free_at[from_side])
        tx_end = tx_start + len(data) * self.per_byte_delay
        self._tx_free_at[from_side] = tx_end
        sent_at = self.sim.now
        for extra_delay, payload in deliveries:
            self.sim.schedule_at(tx_end + self.base_delay + extra_delay,
                                 self._deliver, from_side, payload, sent_at)

    # -- receive path -----------------------------------------------------

    def _deliver(self, from_side: str, data: bytes, sent_at: float) -> None:
        dest_side = "stub" if from_side == "proxy" else "proxy"
        try:
            kind, seq, floor, records = unpack_datagram(data)
        except SerializationError:
            # Whatever corruption did -- to the header, the checksum, a
            # length, a frame -- it is one rejected datagram, never a
            # crash in the receive path, and never an ack: the sender's
            # retransmission delivers a clean copy.
            self._note_corrupt(dest_side)
            return
        if kind == _ACK:
            self._handle_ack(dest_side, seq)
        else:
            self._handle_data(dest_side, seq, floor, records,
                              len(data) - HEADER_SIZE, sent_at)

    def _note_corrupt(self, dest_side: str) -> None:
        self.corrupt_rejected += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("channel.corrupt_rejected")

    def _hand_over(self, dest_side: str, records: List[bytes], nbytes: int,
                   sent_at: float) -> None:
        """Decode a delivered datagram's frames -- each exactly once --
        and give them to the receiver's handler, in order."""
        try:
            frames = [decode_frame(record) for record in records]
        except SerializationError:
            self._note_corrupt(dest_side)
            return
        self.datagrams_delivered += 1
        dest = self._endpoint(dest_side)
        dest.frames_recv += len(frames)
        dest.bytes_recv += nbytes
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("channel.bytes_recv", nbytes)
            tids = frame_trace_ids(frames)
            self.telemetry.tracer.record_span(
                self.span_name, start=sent_at,
                trace_id=tids[0] if tids else None,
                direction="proxy" if dest_side == "stub" else "stub",
                frames=len(frames), nbytes=nbytes)
        for frame, record in zip(frames, records):
            if dest.handler is None:
                break  # no receiver, or it detached mid-datagram
            if dest.raw_frames:
                dest.handler(frame, raw=record)
            else:
                dest.handler(frame)

    # -- reliability: receiver side ---------------------------------------

    def _handle_data(self, dest_side: str, seq: int, floor: int,
                     records: List[bytes], nbytes: int,
                     sent_at: float) -> None:
        recv = self._recv_state[dest_side]
        if seq <= recv.cursor or seq in recv.buffer:
            # Duplicate (network dup, or a retransmit racing the ack).
            self.dup_datagrams_dropped += 1
            if self.telemetry is not None and self.telemetry.enabled:
                self.telemetry.metrics.inc("channel.dups_dropped")
            self._send_ack(dest_side)
            return
        recv.buffer[seq] = (records, nbytes, sent_at)
        while True:
            nxt = recv.cursor + 1
            if nxt in recv.buffer:
                recv.cursor = nxt
                self._hand_over(dest_side, *recv.buffer.pop(nxt))
            elif nxt < floor:
                # The sender's floor moved past datagrams it abandoned:
                # stop waiting for them so in-order delivery cannot
                # wedge.
                recv.cursor = nxt
            else:
                break
        self._send_ack(dest_side)

    def _send_ack(self, dest_side: str) -> None:
        self.acks_sent += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("channel.acks_sent")
        self._put_on_wire(
            dest_side,
            pack_datagram(_ACK, self._recv_state[dest_side].cursor, 0),
            kind="ack")

    # -- reliability: sender side -----------------------------------------

    def _handle_ack(self, sender_side: str, cumulative: int) -> None:
        state = self._send_state[sender_side]
        acked = [s for s in state.unacked if s <= cumulative]
        for seq in acked:
            del state.unacked[seq]
        if not state.unacked and state.timer_id is not None:
            self.sim.cancel(state.timer_id)
            state.timer_id = None

    # -- introspection -----------------------------------------------------

    def unacked_count(self, side: str) -> int:
        """Datagrams this side has sent but not yet had acknowledged."""
        return len(self._send_state[side].unacked)

    def byte_stats(self) -> Dict[str, int]:
        """Per-endpoint wire volume (payload bytes, both directions)."""
        return {
            "proxy_bytes_sent": self.proxy_end.bytes_sent,
            "proxy_bytes_recv": self.proxy_end.bytes_recv,
            "stub_bytes_sent": self.stub_end.bytes_sent,
            "stub_bytes_recv": self.stub_end.bytes_recv,
            "bytes_carried": self.bytes_carried,
        }

    def reliability_stats(self) -> Dict[str, int]:
        return {
            "retransmits": self.retransmits,
            "dup_datagrams_dropped": self.dup_datagrams_dropped,
            "corrupt_rejected": self.corrupt_rejected,
            "acks_sent": self.acks_sent,
            "abandoned": self.abandoned,
            "faults_raised": self.faults_raised,
        }
