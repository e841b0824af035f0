"""Controller<->switch control channel.

Models the TCP session between a switch and the controller: fixed
one-way delay, FIFO ordering, and explicit connect/disconnect (a
switch power-off or controller crash drops the channel, which is how
the controller observes "switch down").
"""

from __future__ import annotations


class ControlChannel:
    """One switch's session with the controller."""

    #: One-way delay of the session, either direction.
    DELAY = 0.0005

    def __init__(self, sim, controller, switch):
        self.sim = sim
        self.controller = controller
        self.switch = switch
        self.connected = True
        self.to_controller_count = 0
        self.to_switch_count = 0
        switch.channel = self

    @property
    def dpid(self) -> int:
        return self.switch.dpid

    def to_controller(self, msg) -> bool:
        """Switch -> controller, after the channel delay."""
        if not self.connected or self.controller.crashed:
            return False
        self.to_controller_count += 1
        self.sim.schedule(
            self.DELAY, self._deliver_to_controller, msg
        )
        return True

    def _deliver_to_controller(self, msg) -> None:
        if self.connected and not self.controller.crashed:
            self.controller.handle_switch_message(self.switch.dpid, msg)

    def to_switch(self, msg) -> bool:
        """Controller -> switch, after the channel delay."""
        if not self.connected:
            return False
        self.to_switch_count += 1
        self.sim.schedule(self.DELAY, self._deliver_to_switch, msg)
        return True

    def _deliver_to_switch(self, msg) -> None:
        # No connectivity re-check: a message accepted while the
        # session was up is already on the wire and will land even if
        # the controller process dies meanwhile -- that is exactly how
        # partially installed policies outlive an app crash (§3.4).
        # Writes are stamped with the sender's replication epoch at
        # delivery time, so a fenced switch can reject a stale primary
        # even when the datagram was emitted before the failover.
        if self.switch.up:
            self.switch.handle_message(
                msg, epoch=getattr(self.controller, "epoch", None)
            )

    def disconnect(self) -> None:
        """Tear the session down (switch died or controller crashed)."""
        if not self.connected:
            return
        self.connected = False
        self.controller.switch_disconnected(self.switch.dpid)

    def reconnect(self) -> None:
        """Re-establish the session (switch rebooted / controller back)."""
        if self.connected:
            return
        self.connected = True
        self.controller.switch_reconnected(self.switch.dpid)
