"""Epoch fencing: the split-brain guard.

Every replication epoch has exactly one legitimate primary.  When a
failover promotes a backup, the :class:`~repro.replication.replicaset.
ReplicaSet` advances the fence to the new epoch *before* the new
primary sends its first write, so any message still in flight from the
old primary (or from a primary that is merely partitioned, not dead)
arrives with a stale epoch and is rejected at the switch.

The check runs at *delivery* time inside
:meth:`repro.network.switch.Switch.handle_message`, not at send time:
a stale primary cannot be trusted to police itself, so the switches do
it.  This mirrors the classic storage-fencing discipline used by
primary-backup systems (SMaRtLight keeps a single active controller
per epoch for the same reason).

The same fence discipline guards the Byzantine
:class:`~repro.replication.byzantine.ReplicationModePolicy`: mode
transitions carry the requester's epoch and a request computed before
a failover (delivered after) is rejected, so a mid-escalation
promotion cannot split-brain the replication mode.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class EpochFence:
    """Shared write-admission check installed on every switch.

    ``permits(epoch)`` is the entire hot path: one comparison.  Writes
    stamped with an epoch older than the fence's current epoch are
    rejected; writes with no epoch at all (single-controller
    deployments never install a fence, but belt-and-braces) pass.
    """

    #: Rejections sampled in detail; the rest are only counted.
    MAX_REJECTIONS = 256

    def __init__(self, epoch: int = 0):
        self.current_epoch = epoch
        #: Total writes rejected across all switches.
        self.fenced_writes = 0
        #: Bounded sample of rejections: (dpid, frame name, stale epoch).
        self.rejections: List[Tuple[int, str, int]] = []

    def advance(self, epoch: int) -> None:
        """Move the fence forward.  Epochs are monotonic; going
        backwards would re-admit the very writes the fence exists to
        reject, so it is an error."""
        if epoch < self.current_epoch:
            raise ValueError(
                f"fence cannot move backwards: {self.current_epoch} -> {epoch}"
            )
        self.current_epoch = epoch

    def try_advance(self, epoch: int) -> bool:
        """Non-raising :meth:`advance` for callers that merely *adopt*
        epochs (the mode policy crossing a failover): a stale epoch is
        refused with False instead of an exception."""
        if epoch < self.current_epoch:
            return False
        self.current_epoch = epoch
        return True

    def permits(self, epoch: Optional[int]) -> bool:
        return epoch is None or epoch >= self.current_epoch

    def note_rejected(self, dpid: int, msg, epoch: Optional[int]) -> None:
        self.fenced_writes += 1
        if len(self.rejections) < self.MAX_REJECTIONS:
            self.rejections.append(
                (dpid, type(msg).__name__, -1 if epoch is None else epoch)
            )
