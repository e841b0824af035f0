"""Firewall: a BigTap-style security enforcement app.

Proactively installs high-priority drop rules for a configured deny
list on every switch that joins.  Security apps are the paper's
motivating case for the *No-Compromise* policy (§3.3): operators may
refuse to let Crash-Pad skip events for an app whose correctness is a
security property.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.apps.base import SDNApp
from repro.openflow.actions import Drop
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.serialization import register_dataclass
from repro.record import record


@register_dataclass
@record
class DenyRule:
    """One deny-list entry (any field None = wildcard)."""

    ip_src: str = None
    ip_dst: str = None
    ip_proto: int = None
    tp_dst: int = None

    def to_match(self) -> Match:
        return Match(ip_src=self.ip_src, ip_dst=self.ip_dst,
                     ip_proto=self.ip_proto, tp_dst=self.tp_dst)


class Firewall(SDNApp):
    """Install the deny list on every switch, highest priority."""

    name = "firewall"
    subscriptions = ("SwitchJoin",)

    PRIORITY = 1000

    def __init__(self, deny_rules: Tuple[DenyRule, ...] = (), name=None):
        super().__init__(name)
        self.deny_rules = tuple(deny_rules)
        self.rules_installed = 0
        self.protected_switches: List[int] = []
        self.enable_dirty_tracking()

    def on_switch_join(self, event):
        for rule in self.deny_rules:
            self.api.emit(
                event.dpid,
                FlowMod(match=rule.to_match(), command=FlowModCommand.ADD,
                        priority=self.PRIORITY, actions=(Drop(),)),
            )
            self.rules_installed += 1
            self.mark_dirty("rules_installed")
        if event.dpid not in self.protected_switches:
            self.protected_switches.append(event.dpid)
            self.mark_dirty("protected_switches")
