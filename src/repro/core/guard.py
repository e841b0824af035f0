"""ControllerGuard: hardening the controller with Crash-Pad's techniques (§5).

"We, however, believe some of the techniques embodied in the design of
Crash-Pad can be used to harden the controller itself against
failures."

The guard applies the checkpoint/restore idea one layer down: it
periodically snapshots the controller's *service state* (the
discovered topology, learned device locations, counters).  After a
controller crash + reboot, restoring the snapshot spares the control
plane the relearning period -- LLDP rounds to rediscover every link,
PacketIns to relearn every host -- during which apps would route
blindly.  The snapshot ages at most one checkpoint interval, and the
normal discovery/learning machinery keeps running afterwards, so a
stale entry self-corrects the same way any stale view does.

A snapshot is the same thing an app checkpoint is -- a per-key map of
state-value buffers -- so service state the codec has no tag for is
the same :class:`~repro.core.crashpad.checkpoint.CheckpointError`,
naming the key, that an app's state would raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.crashpad.checkpoint import (
    Buffers,
    decode_state,
    encode_state_key,
)


@dataclass
class ServiceSnapshot:
    """One checkpoint of the controller's service state."""

    taken_at: float
    #: Service-state key -> its encoded buffer (a base, never patched).
    buffers: Dict[str, Buffers]


class ControllerGuard:
    """Periodic service-state checkpoints + restore-on-reboot."""

    def __init__(self, controller, checkpoint_interval: float = 1.0):
        self.controller = controller
        self.sim = controller.sim
        self.checkpoint_interval = checkpoint_interval
        self.snapshot: Optional[ServiceSnapshot] = None
        self.snapshots_taken = 0
        self.restores_done = 0
        self._stop = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._stop is not None:
            return
        self.take_snapshot()
        self._stop = self.sim.every(self.checkpoint_interval,
                                    self.take_snapshot)

    # -- checkpointing -------------------------------------------------------

    def take_snapshot(self) -> Optional[ServiceSnapshot]:
        """Snapshot the service state (skipped while crashed)."""
        controller = self.controller
        if controller.crashed:
            return self.snapshot
        state = {
            "topology_links": dict(controller.topology._links),
            "topology_switches": set(controller.topology._switches),
            "device_hosts": dict(controller.devices._hosts),
            "counters": controller.counters.snapshot(),
        }
        self.snapshot = ServiceSnapshot(
            taken_at=self.sim.now,
            buffers={key: (encode_state_key("controller services", key,
                                            value),)
                     for key, value in state.items()},
        )
        self.snapshots_taken += 1
        return self.snapshot

    # -- recovery ----------------------------------------------------------------

    def reboot_with_restore(self) -> bool:
        """Reboot the controller and reinstate the last service snapshot.

        Returns False (plain reboot) when no snapshot exists.  The
        restore happens *after* ``Controller.reboot()`` so the fresh
        switch-join bookkeeping is overlaid with the richer snapshot
        rather than clobbered by it.
        """
        controller = self.controller
        controller.reboot()
        if self.snapshot is None:
            return False
        state = decode_state(self.snapshot.buffers)
        topology = controller.topology
        # Only resurrect links whose endpoints are still connected --
        # a switch that died during the outage must stay gone.
        live = set(controller.connected_dpids())
        for link, last_seen in state["topology_links"].items():
            if link[0] in live and link[2] in live:
                topology._links[link] = self.sim.now
        topology._switches.update(state["topology_switches"] & live)
        topology.version += 1
        controller.devices._hosts.update({
            mac: entry for mac, entry in state["device_hosts"].items()
            if entry.dpid in live
        })
        controller.devices.version += 1
        for name, value in state["counters"].items():
            controller.counters.inc(name, value)
        self.restores_done += 1
        return True
