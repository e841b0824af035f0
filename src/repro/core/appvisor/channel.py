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

Host cost is kept off the path every lossless datagram takes, and
nothing below is observable -- bytes, sim instants, RNG draws, counters
and the simulator's callback count are those of the plain version
(``tests/test_channel_equivalence.py`` replays a recording of it):

* **One retransmit timer per direction, moved only when its instant
  moves.**  After a (re)transmission or a tick the timer belongs at the
  earliest ``next_at`` still unacked; the queue is touched only if that
  is not where it already stands (``timer_due``), so a send behind an
  older unacked datagram costs no cancel and no push.  A send *does*
  re-arm a timer left at the deadline of a datagram acknowledged since
  -- leaving it would fire a tick for nothing, and ticks are counted.
  The last ack cancels the timer: an idle channel leaves nothing queued.
* **A datagram that arrives in order with nothing held back** (every
  one of a lossless run) bumps the cursor and is handed over without a
  trip through the reorder buffer.  Everything else -- duplicate, gap,
  floor skip -- takes the general path.  The CRC over header + records,
  the record bounds and the frame decode are checked on every datagram
  either way.
* Each direction's state (pending frames, interface clock, unacked
  buffer and timer, cursor and reorder buffer) lives on its
  :class:`ChannelEndpoint`, which is what the scheduled callbacks carry.

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
from typing import Callable, Dict, List, Optional

from repro.core.appvisor.rpc import (
    decode_frame,
    encode_frame,
    frame_trace_ids,
)
from repro.openflow.serialization import SerializationError
from repro.record import record

_CRC = struct.Struct("!I")
#: The header fields the CRC covers: kind, seq, floor.
_FIELDS = struct.Struct("!BII")
_HEADER = struct.Struct("!IBII")
HEADER_SIZE = _HEADER.size
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
    end = len(data)
    if end < HEADER_SIZE:
        raise SerializationError("datagram shorter than its header")
    crc, kind, seq, floor = _HEADER.unpack_from(data)
    if crc != zlib.crc32(data[_CRC.size:]):
        raise SerializationError("datagram checksum mismatch")
    if kind not in (_DATA, _ACK):
        raise SerializationError(f"unknown datagram kind {kind}")
    records, pos = [], HEADER_SIZE
    while pos < end:
        if end - pos < _LENGTH.size:
            raise SerializationError("truncated frame record")
        start = pos + _LENGTH.size
        pos = start + _LENGTH.unpack_from(data, pos)[0]
        if pos > end:
            raise SerializationError("frame record overruns the datagram")
        records.append(data[start:pos])
    return kind, seq, floor, records


@record
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


class _Unacked:
    """One data datagram awaiting acknowledgement."""

    __slots__ = ("payload", "attempts", "next_at", "trace_ids", "kinds",
                 "last_sent_at")

    def __init__(self, payload: bytes, trace_ids: tuple, kinds: tuple):
        #: The datagram's frame records: what ``bytes_sent`` counted and
        #: what every (re)transmission puts behind a fresh header.
        self.payload = payload
        self.attempts = 0
        self.next_at = 0.0
        #: Trace ids of the events whose frames this datagram carries --
        #: captured at first transmit so retransmission spans attach to
        #: the causing event's tree instead of minting fresh identities.
        self.trace_ids = trace_ids
        #: Frame type names aboard (for retransmit-span attribution;
        #: control frames like Register carry no trace context by
        #: design).
        self.kinds = kinds
        #: When the datagram last went on the wire; a retransmit span
        #: covers [last_sent_at, now] -- the backoff the event waited
        #: out.
        self.last_sent_at = 0.0


class ChannelEndpoint:
    """One side of the channel: send frames, receive via a handler.

    It also holds its direction's state: the frames waiting for the
    flush, the sender half of the reliability layer (what it sent and
    has not had acknowledged) and the receiver half (what it has been
    sent by its ``peer``).
    """

    def __init__(self, channel: "UdpChannel", side: str):
        #: The channel this endpoint is one side of (for byte_stats).
        self.channel = channel
        self.side = side
        #: The other side; the channel sets it once both exist.
        self.peer: Optional["ChannelEndpoint"] = None
        self.handler: Optional[Callable] = None
        #: Hand the handler each frame's received encoding as well
        #: (``handler(frame, raw=...)``): the replication layer verifies
        #: its MACs over the bytes that arrived, not over a re-encoding.
        self.raw_frames = False
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_recv = 0
        self.bytes_recv = 0
        #: ``(encoding, frame)`` sent since the last flush (batching).
        self.pending: List[tuple] = []
        self.flush_scheduled = False
        # Transmit serialisation: the sender's interface puts one
        # datagram on the wire at a time, so a burst of sends drains at
        # per_byte_delay line rate and ordering is inherent (a small
        # datagram can never overtake a big one).
        self.tx_free_at = 0.0
        # -- sender half ------------------------------------------------
        self.next_seq = 0
        #: Lowest seq this sender still guarantees (1 + highest
        #: abandoned).
        self.floor = 1
        self.unacked: Dict[int, _Unacked] = {}
        #: The one retransmit timer and the instant it fires (both None
        #: when nothing is unacked).
        self.timer_id: Optional[int] = None
        self.timer_due: Optional[float] = None
        # -- receiver half ----------------------------------------------
        #: Highest seq delivered (or skipped under an advanced floor).
        self.cursor = 0
        #: Out-of-order datagrams held until the gap below them fills:
        #: seq -> (frame encodings, payload bytes, sent_at).
        self.buffer: Dict[int, tuple] = {}

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
        channel = self.channel
        if not channel.batch:
            channel._ship(self, [(data, frame)])
            return
        self.pending.append((data, frame))
        if not self.flush_scheduled:
            self.flush_scheduled = True
            channel.sim.schedule(BATCH_WINDOW, channel._flush, self)

    def drop_pending(self) -> int:
        """Discard this side's unflushed frames (its process just died).

        Returns how many frames were dropped.  A crash between sends
        and the tick-boundary flush loses exactly the unflushed tail --
        everything already flushed is on the wire and still arrives.
        A dead process retransmits nothing either: the side's unacked
        buffer is cleared and its retry timer cancelled.
        """
        dropped = len(self.pending)
        self.pending = []
        self.unacked.clear()
        self.channel._cancel_timer(self)
        return dropped


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
        #: (tagged with frame and byte counts): the RPC segment of
        #: ``repro trace critical-path``.
        self.telemetry = telemetry
        self.span_name = span_name
        self.proxy_end = ChannelEndpoint(self, "proxy")
        self.stub_end = ChannelEndpoint(self, "stub")
        self.proxy_end.peer = self.stub_end
        self.stub_end.peer = self.proxy_end
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

    def delay_for(self, nbytes: int) -> float:
        """One-way latency for an ``nbytes`` datagram on an idle link."""
        return self.base_delay + nbytes * self.per_byte_delay

    def _endpoint(self, side: str) -> ChannelEndpoint:
        return self.proxy_end if side == "proxy" else self.stub_end

    # -- batching ---------------------------------------------------------

    def _flush(self, end: ChannelEndpoint) -> None:
        """Ship the side's pending frames as one datagram."""
        end.flush_scheduled = False
        pending = end.pending
        if not pending:
            return
        end.pending = []
        self.batches_flushed += 1
        self.frames_batched += len(pending)
        self._ship(end, pending)

    def _ship(self, end: ChannelEndpoint, sent: List[tuple]) -> None:
        """One datagram's worth of ``(encoding, frame)`` leaves."""
        if len(sent) == 1:
            data = sent[0][0]
            records = _LENGTH.pack(len(data)) + data
        else:
            records = pack_records([data for data, _ in sent])
        end.bytes_sent += len(records)
        trace_ids = kinds = ()
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            # Only when anyone is looking: the ids and type names feed
            # retransmission and delivery spans.
            telemetry.metrics.inc("channel.bytes_sent", len(records))
            frames = [frame for _, frame in sent]
            trace_ids = frame_trace_ids(frames)
            kinds = tuple(sorted({type(f).__name__ for f in frames}))
        end.next_seq = seq = end.next_seq + 1
        end.unacked[seq] = record = _Unacked(records, trace_ids, kinds)
        self._transmit(end, seq, record)

    def drop_pending(self, side: str) -> int:
        """:meth:`ChannelEndpoint.drop_pending` of ``side``."""
        return self._endpoint(side).drop_pending()

    # -- the wire ---------------------------------------------------------

    def _transmit(self, end: ChannelEndpoint, seq: int,
                  record: _Unacked) -> None:
        """(Re)transmit one datagram and arm its backoff."""
        record.attempts += 1
        now = self.sim.now
        record.last_sent_at = now
        delivered = self._put_on_wire(
            end, pack_datagram(_DATA, seq, end.floor, record.payload))
        if not delivered and (self.telemetry is not None
                              and self.telemetry.enabled):
            self.telemetry.metrics.inc("channel.datagrams_lost")
        rto = min(RTO_INITIAL * (2 ** (record.attempts - 1)), RTO_MAX)
        rto *= 1.0 + self.rng.random() * RTO_JITTER
        record.next_at = now + rto
        self._arm_timer(end)

    def _arm_timer(self, end: ChannelEndpoint) -> None:
        """Keep the one timer at the earliest ``next_at`` still unacked.

        Called after every (re)transmission and tick; it touches the
        simulator's queue only when the instant the timer fires at
        moves, which a send behind an older unacked datagram does not
        do.
        """
        if not end.unacked:
            return
        due = min([record.next_at for record in end.unacked.values()])
        # ``schedule_at``'s own arithmetic: ``fires`` is bit for bit the
        # instant the timer would fire at if it were pushed now.
        now = self.sim.now
        fires = now + (due - now)
        if fires == end.timer_due:
            return
        self._cancel_timer(end)
        end.timer_due = fires
        end.timer_id = self.sim.schedule_at(due, self._retx_tick, end)

    def _cancel_timer(self, end: ChannelEndpoint) -> None:
        if end.timer_id is not None:
            self.sim.cancel(end.timer_id)
            end.timer_id = end.timer_due = None

    def _retx_tick(self, end: ChannelEndpoint) -> None:
        """Retransmit every overdue datagram; abandon exhausted ones."""
        end.timer_id = end.timer_due = None
        now = self.sim.now
        exhausted = []
        for seq in sorted(end.unacked):
            record = end.unacked[seq]
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
                    direction=end.side, seq=seq,
                    attempt=record.attempts,
                    frames=",".join(record.kinds))
            self._transmit(end, seq, record)
        if exhausted:
            self._abandon(end, exhausted)
        self._arm_timer(end)

    def _abandon(self, end: ChannelEndpoint, seqs: List[int]) -> None:
        """Give up on datagrams that exhausted the retry budget.

        Everything at or below the highest exhausted seq is hopeless
        (the receiver delivers in order, so it cannot use seqs above a
        permanent gap until the floor passes it): drop them all,
        advance the floor, and surface one ChannelFault.
        """
        top = max(seqs)
        attempts = end.unacked[top].attempts
        for seq in [s for s in end.unacked if s <= top]:
            del end.unacked[seq]
            self.abandoned += 1
        end.floor = max(end.floor, top + 1)
        self.faults_raised += 1
        fault = ChannelFault(side=end.side, seq=top,
                             attempts=attempts, at=self.sim.now)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("channel.faults")
            self.telemetry.tracer.event(
                "channel.fault", direction=end.side, seq=top,
                attempts=attempts)
        for callback in list(self.on_fault):
            callback(fault)

    def _put_on_wire(self, end: ChannelEndpoint, data: bytes) -> bool:
        """Charge transmission and schedule delivery of one datagram;
        False when it died on the wire (the retry layer recovers).

        The chaos hook runs here -- after the sender's NIC, before the
        receiver -- so its drops/dups/delays model the network itself,
        identically for data and acks.
        """
        sim = self.sim
        now = sim.now
        chaos = self.chaos
        if chaos is not None:
            deliveries = chaos.perturb(now, end.side, data)
            if not deliveries:
                self.datagrams_lost += 1
                return False
        self.bytes_carried += len(data)
        tx_end = end.tx_free_at
        if tx_end < now:
            tx_end = now
        end.tx_free_at = tx_end = tx_end + len(data) * self.per_byte_delay
        if chaos is None:
            sim.schedule_at(tx_end + self.base_delay,
                            self._deliver, end.peer, data, now)
        else:
            for extra_delay, payload in deliveries:
                sim.schedule_at(tx_end + self.base_delay + extra_delay,
                                self._deliver, end.peer, payload, now)
        return True

    # -- receive path -----------------------------------------------------

    def _deliver(self, dest: ChannelEndpoint, data: bytes,
                 sent_at: float) -> None:
        try:
            kind, seq, floor, records = unpack_datagram(data)
        except SerializationError:
            # Whatever corruption did -- to the header, the checksum, a
            # length, a frame -- it is one rejected datagram, never a
            # crash in the receive path, and never an ack: the sender's
            # retransmission delivers a clean copy.
            self._note_corrupt()
            return
        if kind == _ACK:
            self._handle_ack(dest, seq)
        else:
            self._handle_data(dest, seq, floor, records,
                              len(data) - HEADER_SIZE, sent_at)

    def _note_corrupt(self) -> None:
        self.corrupt_rejected += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("channel.corrupt_rejected")

    def _hand_over(self, dest: ChannelEndpoint, records: List[bytes],
                   nbytes: int, sent_at: float) -> None:
        """Decode a delivered datagram's frames -- each exactly once --
        and give them to the receiver's handler, in order."""
        try:
            frames = [decode_frame(record) for record in records]
        except SerializationError:
            self._note_corrupt()
            return
        self.datagrams_delivered += 1
        dest.frames_recv += len(frames)
        dest.bytes_recv += nbytes
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.metrics.inc("channel.bytes_recv", nbytes)
            tids = frame_trace_ids(frames)
            telemetry.tracer.record_span(
                self.span_name, start=sent_at,
                trace_id=tids[0] if tids else None,
                direction=dest.peer.side,
                frames=len(frames), nbytes=nbytes)
        # ``dest.handler`` is read per frame: no receiver, or one that
        # detached mid-datagram, ends the hand-over.
        if dest.raw_frames:
            for frame, record in zip(frames, records):
                if dest.handler is None:
                    break
                dest.handler(frame, raw=record)
        else:
            for frame in frames:
                if dest.handler is None:
                    break
                dest.handler(frame)

    # -- reliability: receiver side ---------------------------------------

    def _handle_data(self, dest: ChannelEndpoint, seq: int, floor: int,
                     records: List[bytes], nbytes: int,
                     sent_at: float) -> None:
        buffer = dest.buffer
        if seq == dest.cursor + 1 and not buffer and floor <= seq:
            # In order with nothing held back -- every datagram of a
            # lossless run: no trip through the reorder buffer.
            dest.cursor = seq
            self._hand_over(dest, records, nbytes, sent_at)
            self._send_ack(dest)
            return
        if seq <= dest.cursor or seq in buffer:
            # Duplicate (network dup, or a retransmit racing the ack).
            self.dup_datagrams_dropped += 1
            if self.telemetry is not None and self.telemetry.enabled:
                self.telemetry.metrics.inc("channel.dups_dropped")
            self._send_ack(dest)
            return
        buffer[seq] = (records, nbytes, sent_at)
        while True:
            nxt = dest.cursor + 1
            if nxt in buffer:
                dest.cursor = nxt
                self._hand_over(dest, *buffer.pop(nxt))
            elif nxt < floor:
                # The sender's floor moved past datagrams it abandoned:
                # stop waiting for them so in-order delivery cannot
                # wedge.
                dest.cursor = nxt
            else:
                break
        self._send_ack(dest)

    def _send_ack(self, dest: ChannelEndpoint) -> None:
        self.acks_sent += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("channel.acks_sent")
        self._put_on_wire(dest, pack_datagram(_ACK, dest.cursor, 0))

    # -- reliability: sender side -----------------------------------------

    def _handle_ack(self, sender: ChannelEndpoint, cumulative: int) -> None:
        unacked = sender.unacked
        if unacked:
            for seq in [s for s in unacked if s <= cumulative]:
                del unacked[seq]
        if not unacked:
            self._cancel_timer(sender)

    # -- introspection -----------------------------------------------------

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
