"""Links: delay, liveness, and failure notification.

A link joins two endpoints (switch ports or hosts).  Endpoints expose
``_link_deliver(packet, port)`` for arriving packets and -- for
switches -- ``_link_status(port, up)`` so a failing link surfaces as a
PortStatus message to the controller, exactly the event class the
paper's Crash-Pad transformations manipulate.
"""

from __future__ import annotations

from typing import Optional, Tuple


class Link:
    """A bidirectional point-to-point link with fixed propagation delay."""

    def __init__(self, sim, node_a, port_a: int, node_b, port_b: int,
                 delay: float = 0.001):
        self.sim = sim
        self.node_a = node_a
        self.port_a = port_a
        self.node_b = node_b
        self.port_b = port_b
        self.delay = delay
        self.up = True
        self.transmitted = 0
        self.dropped = 0

    # -- identity -------------------------------------------------------

    def other_end(self, node) -> Tuple[object, int]:
        """The (node, port) pair at the far side from ``node``."""
        if node is self.node_a:
            return self.node_b, self.port_b
        if node is self.node_b:
            return self.node_a, self.port_a
        raise ValueError(f"{node!r} is not attached to this link")

    def endpoints(self):
        return (self.node_a, self.port_a), (self.node_b, self.port_b)

    # -- transmission ---------------------------------------------------

    def transmit(self, packet, sender) -> bool:
        """Send ``packet`` from ``sender`` toward the other end.

        Returns False (and counts a drop) if the link is down at send
        time; packets in flight when the link fails are also dropped.
        """
        if not self.up:
            self.dropped += 1
            return False
        node, port = self.other_end(sender)

        def deliver():
            if not self.up:
                self.dropped += 1
                return
            self.transmitted += 1
            node._link_deliver(packet, port)

        self.sim.schedule(self.delay, deliver)
        return True

    # -- failure ----------------------------------------------------------

    def set_up(self, up: bool) -> None:
        """Change liveness and notify both endpoints of the port change."""
        if self.up == up:
            return
        self.up = up
        for node, port in self.endpoints():
            notify = getattr(node, "_link_status", None)
            if notify is not None:
                notify(port, up)

    def __repr__(self) -> str:
        a = getattr(self.node_a, "label", self.node_a)
        b = getattr(self.node_b, "label", self.node_b)
        state = "up" if self.up else "DOWN"
        return f"Link({a}:{self.port_a}<->{b}:{self.port_b}, {state})"
