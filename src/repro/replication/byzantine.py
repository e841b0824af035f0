"""Byzantine tolerance for the replica set: keys, digests, and the
adaptive mode policy.

PRs 2-8 made the control plane survive crash faults and hostile
channels, but a replica that *lies* -- tampered NetLog records,
equivocating resolves, forged acks -- was still trusted blindly.  This
module supplies the three mechanisms MORPH (Sakic et al.) shows make
Byzantine tolerance affordable in an SDN control plane:

1. **Authenticated shipping** (:class:`ReplicaKeyring`).  Every
   replication frame carries an HMAC stamp computed over its encoding
   -- the bytes that travel, never a second serialisation -- with a key
   derived per replica *pair*, so a frame can neither be altered in
   flight nor forged on behalf of another replica without detection.
   Verification failures are counted (``sig_rejected``) and repeated
   failures raise an :class:`AuthFault` -- the replication-layer
   sibling of the channel's ``ChannelFault``.

2. **Output digests** (:func:`resolve_leaf` / :func:`chain_digest`).
   Primary and backups independently fold every resolve that commits
   or aborts records -- its sequence number, outcome, and the content
   of those records -- into a running 64-bit chain digest (a
   transaction without records ships no resolve and has no leaf).
   Matching digests at the same resolve floor mean byte-identical
   committed histories; votes are just these digests piggybacked on
   the existing ack and heartbeat frames, so voting costs no extra
   datagrams.

3. **Adaptive mode** (:class:`ReplicationModePolicy`).  The set runs
   cheap CRASH_FAULT replication normally and escalates to BYZANTINE
   voting (2f+1 matching digests gate resolve confirmation, conflicting
   minorities are quarantined) when the HealthWatchdog or the set's own
   digest comparison flags divergence or auth anomalies.  A clean
   window de-escalates.  Transitions are epoch-fenced with the same
   :class:`~repro.replication.fence.EpochFence` discipline that guards
   switch writes, so a failover mid-escalation cannot split-brain the
   policy: requests stamped with a superseded epoch are rejected, not
   applied.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.openflow.serialization import encode_value
from repro.record import record, replace
from repro.replication.fence import EpochFence


# -- quorum math -------------------------------------------------------------

def vote_threshold(f: int) -> int:
    """Votes needed to accept an output while tolerating ``f`` liars.

    Classic BFT arithmetic: ``f`` Byzantine replicas can vote for a
    wrong digest and another ``f`` honest ones may be silent
    (partitioned), so only ``2f + 1`` *matching* votes guarantee a
    majority of honest, current replicas stands behind the answer.
    """
    if f < 0:
        raise ValueError("f must be non-negative")
    return 2 * f + 1


def tolerable_f(n: int) -> int:
    """Largest ``f`` a cohort of ``n`` replicas can tolerate (n >= 3f+1)."""
    return max((n - 1) // 3, 0)


# -- authenticated shipping --------------------------------------------------

#: HMAC output bytes kept on the wire.  64 bits is plenty against the
#: simulated adversary and keeps the per-frame overhead to one small
#: trailing bytes field.
MAC_BYTES = 8
#: How a frame's encoding ends: ``auth`` is every replication frame's
#: last field, so it is the last thing written -- empty before the
#: stamp, ``MAC_BYTES`` long after it.
_UNSTAMPED = encode_value(b"")
_STAMPED = encode_value(bytes(MAC_BYTES))[:-MAC_BYTES]


@record
class AuthFault:
    """Repeated signature failures from one peer -- the replication
    layer's :class:`~repro.core.appvisor.channel.ChannelFault` sibling.

    A single rejected stamp can be wire corruption the reliable layer
    missed; a run of them from the same replica is an authentication
    attack (or a catastrophically wrong key) and is surfaced as a typed
    fault so the failure detector can suspect the *replica*, not the
    channel.
    """

    replica_id: str
    rejections: int
    at: float


class ReplicaKeyring:
    """Per replica-pair HMAC keys over a frame's encoding.

    Keys are derived from a set-level secret: ``key(a, b) =
    HMAC(secret, sorted pair ids)``.  Pair keys (rather than one group
    key) mean a compromised replica can forge only frames *it* is a
    party to -- it cannot fabricate traffic between two honest peers.

    The MAC covers the frame's encoding up to its trailing ``auth``
    field, that is every content field (epoch included -- a replayed
    frame cannot be re-badged into a newer epoch without the key), and
    it is computed over bytes that already exist: :meth:`stamp` takes
    the one encoding a channel made to send the frame, :meth:`verify`
    the bytes that arrived.  Both also accept a frame object, which
    they encode first.
    """

    def __init__(self, secret=0):
        if not isinstance(secret, bytes):
            secret = str(secret).encode()
        self._secret = secret
        #: Per pair, an HMAC already keyed: each MAC is a copy of it
        #: fed the content (half the hashing of keying afresh).
        self._pair_macs: Dict[Tuple[str, str], "hmac.HMAC"] = {}
        #: MACs computed / verified, for overhead accounting.
        self.stamps = 0
        self.verifies = 0

    def _mac(self, a: str, b: str, content: bytes) -> bytes:
        pair = (a, b) if a <= b else (b, a)
        keyed = self._pair_macs.get(pair)
        if keyed is None:
            key = hmac.new(self._secret, f"{pair[0]}|{pair[1]}".encode(),
                           hashlib.sha256).digest()
            keyed = self._pair_macs[pair] = hmac.new(
                key, digestmod=hashlib.sha256)
        mac = keyed.copy()
        mac.update(content)
        return mac.digest()[:MAC_BYTES]

    def stamp(self, frame, sender: str, receiver: str):
        """Set the pair MAC on ``frame``: given an unstamped frame's
        encoding (what ``ChannelEndpoint.send(frame, seal=...)`` hands
        over) return the stamped encoding; given a frame object return
        it with its ``auth`` field set."""
        self.stamps += 1
        if isinstance(frame, bytes):
            if not frame.endswith(_UNSTAMPED):
                raise ValueError("not the encoding of an unstamped frame")
            content = frame[:-len(_UNSTAMPED)]
            return content + _STAMPED + self._mac(sender, receiver, content)
        content = encode_value(replace(frame, auth=b""))[:-len(_UNSTAMPED)]
        return replace(frame, auth=self._mac(sender, receiver, content))

    def verify(self, frame, sender: str, receiver: str) -> bool:
        """Whether ``frame`` -- the bytes a channel received, or a frame
        object -- carries the pair's MAC over its content."""
        self.verifies += 1
        data = frame if isinstance(frame, bytes) else encode_value(frame)
        content = data[:-len(_STAMPED) - MAC_BYTES]
        if data[len(content):-MAC_BYTES] != _STAMPED:
            return False    # unstamped, or an auth of the wrong length
        return hmac.compare_digest(
            data[-MAC_BYTES:], self._mac(sender, receiver, content))


# -- output digests ----------------------------------------------------------

_SHIP_ORDER = attrgetter("index")
_CHAIN_LINK = struct.Struct("!QQ")


def resolve_leaf(resolve_seq: int, outcome: str, records) -> int:
    """Digest of one resolved transaction's committed content.

    Covers the resolve identity and, for each record (in ship-index
    order, so arrival order is irrelevant), the index, target switch,
    message content, inverses, and apply timestamp -- everything a
    backup folds into its shadow.  Deliberately excludes ``epoch``
    (resync re-stamps it) and ``auth``.
    """
    blob = encode_value((resolve_seq, outcome, [
        (r.index, r.dpid, r.message, tuple(r.inverses), r.applied_at)
        for r in sorted(records, key=_SHIP_ORDER)]))
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def chain_digest(prev: int, leaf: int) -> int:
    """Fold one resolve leaf into the running stream digest."""
    # Digests travel in frame fields; keep them inside a signed 64-bit
    # int so every wire codec can carry them.
    return int.from_bytes(
        hashlib.sha256(_CHAIN_LINK.pack(prev, leaf)).digest()[:8], "big") >> 1


class DigestLedger:
    """One replica's ordered view of the committed record stream.

    Leaves may arrive out of order (a resolve can overtake the resolve
    before it on a lossy channel); the ledger buffers them and extends
    the chain only contiguously, so two honest replicas that have both
    folded resolves ``1..N`` hold *identical* ``digest`` values no
    matter what the network did in between.
    """

    #: Chain digests remembered (votes older than this get no verdict).
    HISTORY_MAX = 1024

    def __init__(self):
        self.floor = 0
        self.digest = 0
        self._pending: Dict[int, int] = {}
        #: resolve_seq -> chain digest after folding it (bounded).
        self.history: Dict[int, int] = {}

    def add(self, resolve_seq: int, leaf: int) -> None:
        if resolve_seq <= self.floor or resolve_seq in self._pending:
            return
        self._pending[resolve_seq] = leaf
        while self.floor + 1 in self._pending:
            self.floor += 1
            self.digest = chain_digest(self.digest,
                                       self._pending.pop(self.floor))
            self.history[self.floor] = self.digest
            if len(self.history) > self.HISTORY_MAX:
                # Keys are consecutive since the last reset / rebase,
                # so the oldest is known without looking for it.
                del self.history[self.floor - self.HISTORY_MAX]

    def at(self, resolve_seq: int) -> Optional[int]:
        """Chain digest as of ``resolve_seq``, if still remembered."""
        if resolve_seq == 0:
            return 0
        return self.history.get(resolve_seq)

    def rebase(self, floor: int) -> None:
        """Restart the chain at ``floor`` with digest 0.

        Used at failover: replicas may have missed *different* tails of
        the dead primary's stream, so cross-epoch chain continuity is
        unprovable.  Each epoch gets its own chain rooted at the
        promotion's agreed resolve floor (the view-change analogy), and
        voting resumes from zero there.
        """
        self.floor = floor
        self.digest = 0
        self._pending.clear()
        self.history.clear()
        self.history[floor] = 0


# -- the adaptive mode policy ------------------------------------------------

class ReplicationMode(enum.Enum):
    CRASH_FAULT = "crash"
    BYZANTINE = "byzantine"


@dataclass
class ModeSwitch:
    """One recorded policy transition."""

    mode: ReplicationMode
    at: float
    epoch: int
    reason: str


class ReplicationModePolicy:
    """The CRASH_FAULT <-> BYZANTINE state machine.

    Normally the set runs cheap crash-fault replication; an anomaly
    (digest divergence, auth fault, invariant violation -- whatever the
    watchdog or the set itself reports through :meth:`note_anomaly`)
    escalates to BYZANTINE voting, and ``clean_window`` seconds without
    a further anomaly de-escalates.

    Every transition request carries the caller's epoch and is checked
    against an :class:`EpochFence` that the set advances at each
    failover -- a request computed before a promotion (and delivered
    after) is *fenced*, not applied, so two sides of a failover can
    never disagree about the mode for their epoch.  ``pinned`` disables
    the adaptive machinery for fixed-mode deployments (the benchmark's
    full-time BYZANTINE arm, or an explicit crash-only opt-out).
    """

    def __init__(self, mode: ReplicationMode = ReplicationMode.CRASH_FAULT,
                 clean_window: float = 2.0, pinned: bool = False):
        self.mode = mode
        self.clean_window = clean_window
        self.pinned = pinned
        self.fence = EpochFence()
        self.switches: List[ModeSwitch] = []
        self.last_anomaly_at = float("-inf")
        self.anomalies_noted = 0
        #: Transition requests rejected for carrying a stale epoch.
        self.fenced_transitions = 0
        #: Called with each ModeSwitch (telemetry wiring).
        self.on_switch: List[Callable[[ModeSwitch], None]] = []

    @property
    def voting(self) -> bool:
        return self.mode is ReplicationMode.BYZANTINE

    @property
    def mode_switches(self) -> int:
        return len(self.switches)

    def advance_epoch(self, epoch: int) -> None:
        """Carry the policy across a failover: the mode survives, but
        requests from the superseded epoch no longer may change it."""
        if not self.fence.try_advance(epoch):
            self.fenced_transitions += 1

    def _switch(self, mode: ReplicationMode, now: float, epoch: int,
                reason: str) -> None:
        self.mode = mode
        record = ModeSwitch(mode=mode, at=now, epoch=epoch, reason=reason)
        self.switches.append(record)
        for callback in list(self.on_switch):
            callback(record)

    def note_anomaly(self, now: float, epoch: int, kind: str,
                     detail: str = "") -> bool:
        """An escalation signal.  Returns True if the mode flipped."""
        if not self.fence.permits(epoch):
            self.fenced_transitions += 1
            return False
        self.anomalies_noted += 1
        self.last_anomaly_at = max(self.last_anomaly_at, now)
        if self.pinned or self.mode is ReplicationMode.BYZANTINE:
            return False
        self._switch(ReplicationMode.BYZANTINE, now, epoch,
                     reason=kind if not detail else f"{kind}: {detail}")
        return True

    def maybe_deescalate(self, now: float, epoch: int) -> bool:
        """Called periodically; drops back to CRASH_FAULT after a clean
        window.  Returns True if the mode flipped."""
        if (self.pinned or self.mode is not ReplicationMode.BYZANTINE
                or now - self.last_anomaly_at < self.clean_window):
            return False
        if not self.fence.permits(epoch):
            self.fenced_transitions += 1
            return False
        self._switch(ReplicationMode.CRASH_FAULT, now, epoch,
                     reason="clean-window")
        return True
