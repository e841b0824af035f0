"""Byzantine replica fault injection: replicas that lie.

The chaos plane (:mod:`repro.faults.netfaults`) breaks the *network* --
it flips bytes without holding keys, so everything it does is caught by
CRCs and HMAC stamps.  A :class:`ByzantineProfile` models a
*compromised replica*: a process that holds its own legitimate pair
keys and misbehaves at the frame layer, which is exactly the adversary
the replication layer's output voting exists for.

Four seeded misbehaviours, matching the classic BFT taxonomy:

- **tamper** -- mutate a frame *after* signing it, without re-signing
  (corrupted local state, or an attacker without the keys): the
  receiver's HMAC check rejects it (``sig_rejected``/auth-fault path);
- **equivocate** -- send *different, individually well-signed* records
  to different peers (a lying primary): every victim's fold is
  internally consistent, so only cross-replica digest voting can
  notice;
- **replay** -- re-send previously captured signed frames verbatim
  (stale-epoch frames are fenced, same-epoch ones dedup'd -- the
  injector proves both defences);
- **digest_lie** -- a backup votes a fabricated digest (re-signed with
  its own key, so authentication passes): the vote-conflict path must
  quarantine it.

A profile is installed per replica, mirroring the ``ChaosProfile``
idiom: ``ReplicaSet(byzantine=lambda rid: profile if rid == "r1" else
None)``.  A profile attached to ``r0`` compromises the (initial)
primary; attached to a backup id it compromises that backup.  All
randomness flows through the profile's own seeded RNG, so a run is
bit-reproducible.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional


class ByzantineProfile:
    """Seeded frame-level misbehaviour for one compromised replica.

    Probabilities are independent per frame.  ``start`` delays the
    compromise (the replica behaves honestly before it), which is how
    E20 anchors detection latency: ``first_fault_at`` records the sim
    time of the first frame actually perturbed.
    """

    #: Signed frames kept for the replay misbehaviour to draw from.
    REPLAY_POOL = 32

    def __init__(self, seed: int = 0, *,
                 tamper: float = 0.0,
                 equivocate: float = 0.0,
                 replay: float = 0.0,
                 digest_lie: float = 0.0,
                 start: float = 0.0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.tamper = tamper
        self.equivocate = equivocate
        self.replay = replay
        self.digest_lie = digest_lie
        self.start = start
        self._pool: List[object] = []
        # Observability: what the compromise actually did.
        self.tampered = 0
        self.equivocated = 0
        self.replayed = 0
        self.digests_lied = 0
        self.first_fault_at: Optional[float] = None

    # -- helpers -----------------------------------------------------------

    def _active(self, now: float) -> bool:
        return now >= self.start

    def _mark(self, now: float) -> None:
        if self.first_fault_at is None:
            self.first_fault_at = now

    def _stash(self, frame) -> None:
        self._pool.append(frame)
        if len(self._pool) > self.REPLAY_POOL:
            self._pool.pop(0)

    @staticmethod
    def _flip_one_field(frame):
        """Mutate one content field without re-signing -- the generic
        post-signature tamper.  Field choice is type-driven so the
        mutation is always well-typed (the codec must not reject it;
        the *HMAC* must)."""
        if hasattr(frame, "dpid"):
            return replace(frame, dpid=frame.dpid + 1)
        if hasattr(frame, "log_index"):
            return replace(frame, log_index=frame.log_index + 1)
        if hasattr(frame, "from_index"):
            return replace(frame, from_index=frame.from_index + 1)
        return frame

    # -- the hooks ---------------------------------------------------------

    def perturb_primary(self, now: float, frame, peer_id: str,
                        signer) -> List[object]:
        """Decide what a compromised *primary* actually sends ``peer_id``.

        ``signer(frame)`` re-stamps a frame for this peer pair (the
        compromised replica holds its own keys).  Returns the frames to
        put on this peer's channel, in order.
        """
        if not self._active(now):
            self._stash(frame)
            return [frame]
        out = frame
        if self.equivocate > 0 and hasattr(frame, "index") \
                and self.rng.random() < self.equivocate:
            # A per-peer variant, correctly signed: victim r_k sees the
            # record applied at a skewed time with its inverses gone --
            # internally consistent, divergent across the cohort.
            skew = 100.0 * (1 + int(peer_id[1:]))
            out = signer(replace(frame, applied_at=frame.applied_at + skew,
                                 inverses=()))
            self.equivocated += 1
            self._mark(now)
        if self.tamper > 0 and self.rng.random() < self.tamper:
            out = self._flip_one_field(out)
            self.tampered += 1
            self._mark(now)
        frames = [out]
        if (self.replay > 0 and self._pool
                and self.rng.random() < self.replay):
            frames.append(self._pool[self.rng.randrange(len(self._pool))])
            self.replayed += 1
            self._mark(now)
        self._stash(frame)
        return frames

    def perturb_backup(self, now: float, frame, signer) -> List[object]:
        """Decide what a compromised *backup* actually sends upstream."""
        if not self._active(now):
            self._stash(frame)
            return [frame]
        out = frame
        if self.digest_lie > 0 and hasattr(frame, "digest") \
                and self.rng.random() < self.digest_lie:
            out = signer(replace(frame,
                                 digest=self.rng.getrandbits(63)))
            self.digests_lied += 1
            self._mark(now)
        if self.tamper > 0 and self.rng.random() < self.tamper:
            out = self._flip_one_field(out)
            self.tampered += 1
            self._mark(now)
        frames = [out]
        if (self.replay > 0 and self._pool
                and self.rng.random() < self.replay):
            frames.append(self._pool[self.rng.randrange(len(self._pool))])
            self.replayed += 1
            self._mark(now)
        self._stash(frame)
        return frames

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        return {
            "tampered": self.tampered,
            "equivocated": self.equivocated,
            "replayed": self.replayed,
            "digests_lied": self.digests_lied,
            "first_fault_at": self.first_fault_at,
        }
