"""Controller-level events delivered to SDN-Apps.

These complement the raw OpenFlow messages: switch joins/leaves and
discovered/removed inter-switch links.  They are ordinary registered
dataclasses so they can cross the AppVisor RPC boundary, and they are
precisely the event classes Crash-Pad's equivalence transformations
rewrite (a ``SwitchLeave`` becomes the series of ``LinkRemoved`` events
for its links, and vice versa -- §3.3).
"""

from __future__ import annotations


from repro.openflow.serialization import register_dataclass
from repro.record import record


@record
class ControllerEvent:
    """Base class for controller-generated (non-OpenFlow) events."""

    @property
    def type_name(self) -> str:
        return type(self).__name__


@register_dataclass
@record
class SwitchJoin(ControllerEvent):
    """A switch connected (or reconnected) to the controller."""

    dpid: int


@register_dataclass
@record
class SwitchLeave(ControllerEvent):
    """A switch disconnected -- the paper's "switch down event"."""

    dpid: int


@register_dataclass
@record
class LinkDiscovered(ControllerEvent):
    """An inter-switch link observed by LLDP discovery."""

    dpid_a: int
    port_a: int
    dpid_b: int
    port_b: int


@register_dataclass
@record
class LinkRemoved(ControllerEvent):
    """An inter-switch link went away -- the paper's "link down event"."""

    dpid_a: int
    port_a: int
    dpid_b: int
    port_b: int


@register_dataclass
@record
class AppCrashed(ControllerEvent):
    """Informational event: an app crashed (LegoSDN runtimes emit this
    so monitoring apps and the metrics collector can observe failures
    without being coupled to Crash-Pad)."""

    app_name: str
    reason: str = ""
