"""FaultyApp: wrap any SDN-App with an injection schedule.

The wrapper is itself an ordinary :class:`~repro.apps.base.SDNApp`, so
both runtimes host it without knowing it is instrumented.  Bug
behaviours execute *before* the inner app sees the event, modelling a
fault in the app's own handler.

A wrapper checkpoints as cheaply as the app it wraps: it shares the
inner app's dirty-tracking maps, marks what it touches itself, and
returns the inner state *flat* with its own keys namespaced beside it
(``("faulty", "event_count")``), so the store sees the inner app's
keys, versions and entry marks exactly as if it ran bare.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Tuple

from repro.apps.base import SDNApp
from repro.faults.bugs import AppHang, Bug, BugKind, InjectedBugError
from repro.openflow.actions import Drop, Output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand


def _split_state(state: dict, namespace: str) -> Tuple[dict, dict]:
    """A flat wrapper state as (the wrapper's own values by attribute
    name, the inner app's state)."""
    own, inner = {}, {}
    for key, value in state.items():
        if isinstance(key, tuple) and key and key[0] == namespace:
            own[key[1]] = value
        else:
            inner[key] = value
    return own, inner


class _WrapperApp(SDNApp):
    """An SDN-App around an optional inner one, tracked as one app."""

    def __init__(self, inner: Optional[SDNApp], name: Optional[str] = None):
        super().__init__(name or (inner.name if inner else None))
        self.inner = inner
        if inner is None:
            self.enable_dirty_tracking()
        else:
            # One version map and one entry map for the pair: untracked
            # if the inner app is, else every mark lands where the
            # store looks.
            self._state_versions = inner._state_versions
            self._moved_entries = inner._moved_entries

    def startup(self, api) -> None:
        self.api = api
        if self.inner is not None:
            self.inner.startup(api)


class FaultyApp(_WrapperApp):
    """An SDN-App instrumented with a list of injectable bugs."""

    def __init__(self, inner: SDNApp, bugs: Iterable[Bug], seed: int = 0):
        super().__init__(inner)
        self.subscriptions = tuple(inner.subscriptions)
        self.bugs: List[Bug] = list(bugs)
        self.rng = random.Random(seed)
        self.event_count = 0
        self.corrupted = False
        self.fired_log: List[str] = []

    # -- event handling ------------------------------------------------------

    def handle(self, event):
        self.events_handled += 1
        self.mark_dirty(("faulty", "events_handled"))
        self.event_count += 1
        self.mark_dirty(("faulty", "event_count"))
        if self.corrupted:
            # State corruption surfaces as a crash on the *next* event,
            # i.e. the offending event is not the one that crashes.
            raise InjectedBugError(f"{self.name}: corrupted state dereference")
        for bug in self.bugs:
            if not bug.deterministic:
                self.mark_dirty(("faulty", "rng_state"))   # fires() may draw
            if bug.fires(event, self.event_count, self.rng):
                bug.fired_count += 1
                self.fired_log.append(bug.bug_id)
                self.mark_dirty(("faulty", "fired_log"))
                self._execute(bug, event)
        return self.inner.handle(event)

    def _execute(self, bug: Bug, event) -> None:
        kind = bug.kind
        if kind == BugKind.CRASH:
            raise InjectedBugError(f"{bug.bug_id}: {bug.description}")
        if kind == BugKind.HANG:
            raise AppHang(bug.bug_id)
        if kind == BugKind.STATE_CORRUPTION:
            self.corrupted = True
            self.mark_dirty(("faulty", "corrupted"))
            return
        if kind == BugKind.BYZANTINE_LOOP:
            self._install_loop(event)
            return
        if kind == BugKind.BYZANTINE_BLACKHOLE:
            self._install_blackhole(event)
            return
        if kind == BugKind.BENIGN:
            if self.api is not None:
                self.api.log(f"{bug.bug_id}: benign error, recovered internally")
            return
        raise ValueError(f"unknown bug kind: {kind!r}")

    # -- byzantine behaviours ----------------------------------------------------

    def _install_loop(self, event) -> None:
        """Install a two-switch forwarding loop on some discovered link.

        The rules are high-priority and match broadly, so regular
        traffic entering either switch ping-pongs until TTL death --
        the classic byzantine failure the invariant checker must catch.
        """
        topo = self.api.topology()
        if not topo.links:
            return
        dpid_a, port_a, dpid_b, port_b = topo.links[0]
        loop_match = Match(eth_type=0x0800)
        for dpid, port in ((dpid_a, port_a), (dpid_b, port_b)):
            self.api.emit(
                dpid,
                FlowMod(match=loop_match, command=FlowModCommand.ADD,
                        priority=5000, actions=(Output(port),)),
            )

    def _install_blackhole(self, event) -> None:
        """Install a top-priority drop-all rule at the event's switch."""
        dpid = getattr(event, "dpid", None)
        if dpid is None:
            switches = self.api.switches()
            if not switches:
                return
            dpid = switches[0]
        self.api.emit(
            dpid,
            FlowMod(match=Match(), command=FlowModCommand.ADD,
                    priority=6000, actions=(Drop(),)),
        )

    # -- checkpoint contract --------------------------------------------------------

    _OWN_STATE = ("name", "subscriptions", "events_handled", "event_count",
                  "corrupted", "fired_log")

    def get_state(self) -> dict:
        state = dict(self.inner.get_state())
        for attr in self._OWN_STATE:
            state["faulty", attr] = getattr(self, attr)
        state["faulty", "rng_state"] = self.rng.getstate()
        return state

    def set_state(self, state: dict) -> None:
        own, inner_state = _split_state(state, "faulty")
        self.rng.setstate(own.pop("rng_state"))
        own["fired_log"] = list(own["fired_log"])
        self.__dict__.update(own)
        self.inner.set_state(inner_state)


class PartialPolicyApp(SDNApp):
    """Installs a multi-switch policy, then crashes partway through.

    The scenario behind NetLog's transactions (§3.4): "When an
    application crashes after installing a few rules, it is not clear
    whether the few rules issued were part of a larger set".  On a
    PacketIn carrying ``marker``, the app emits one FlowMod per switch
    in ``policy_dpids`` and raises after ``crash_after`` of them --
    leaving orphan rules unless the runtime rolls the transaction back.
    """

    name = "partial_policy"
    subscriptions = ("PacketIn",)

    def __init__(self, policy_dpids, crash_after: Optional[int] = None,
                 marker: str = "POLICY", priority: int = 400, name=None):
        super().__init__(name)
        self.policy_dpids = tuple(policy_dpids)
        self.crash_after = crash_after
        self.marker = marker
        self.priority = priority
        self.policies_installed = 0

    def on_packet_in(self, event):
        payload = getattr(event.packet, "payload", "") or ""
        if self.marker not in payload:
            return
        match = Match(eth_dst=event.packet.eth_dst)
        for i, dpid in enumerate(self.policy_dpids):
            if self.crash_after is not None and i >= self.crash_after:
                raise InjectedBugError(
                    f"{self.name}: crashed after {i}/{len(self.policy_dpids)} "
                    "rules of the policy"
                )
            self.api.emit(
                dpid,
                FlowMod(match=match, command=FlowModCommand.ADD,
                        priority=self.priority, actions=(Drop(),)),
            )
        self.policies_installed += 1


class ArmedCrashApp(_WrapperApp):
    """A planted multi-event bug: events A and B set state, C crashes.

    Each arming marker seen in a PacketIn payload sets a persistent
    flag (carried through :meth:`get_state`/:meth:`set_state`, so
    checkpoints and restores preserve the armed set exactly like any
    real cumulative state bug); the trigger marker raises only once
    *every* arming flag is set.  This is the ground-truth workload for
    the STS minimizer (§5): the minimal causal sequence is exactly the
    arming events plus the trigger, and nothing else in the run
    matters.

    ``inner`` is optional: without one the app subscribes to PacketIn
    and installs nothing, so every packet keeps punting to the
    controller (markers on the same host pair stay visible).
    """

    name = "armed_crash"
    subscriptions = ("PacketIn",)

    def __init__(self, inner: Optional[SDNApp] = None,
                 arm_markers: Iterable[str] = ("ARM-A", "ARM-B"),
                 trigger_marker: str = "TRIGGER-C",
                 name: Optional[str] = None):
        super().__init__(inner, name)
        if inner is not None:
            self.subscriptions = tuple(
                dict.fromkeys(tuple(inner.subscriptions) + ("PacketIn",)))
        self.arm_markers = tuple(arm_markers)
        self.trigger_marker = trigger_marker
        self.armed: set = set()

    def handle(self, event):
        self.events_handled += 1
        self.mark_dirty(("armed", "events_handled"))
        if event.type_name == "PacketIn":
            packet = getattr(event, "packet", None)
            payload = getattr(packet, "payload", "") or ""
            if payload:
                for marker in self.arm_markers:
                    if marker in payload:
                        self.armed.add(marker)
                        self.mark_dirty(("armed", "armed"))
                if self.trigger_marker in payload and \
                        self.armed >= set(self.arm_markers):
                    raise InjectedBugError(
                        f"{self.name}: armed crash on "
                        f"{self.trigger_marker} (armed: "
                        f"{', '.join(sorted(self.armed))})")
        if self.inner is not None:
            return self.inner.handle(event)
        return None

    def get_state(self) -> dict:
        state = dict(self.inner.get_state()) if self.inner is not None else {}
        state["armed", "events_handled"] = self.events_handled
        state["armed", "armed"] = sorted(self.armed)
        return state

    def set_state(self, state: dict) -> None:
        own, inner_state = _split_state(state, "armed")
        self.events_handled = own["events_handled"]
        self.armed = set(own["armed"])
        if self.inner is not None:
            self.inner.set_state(inner_state)


def arm_crash_on(inner: Optional[SDNApp] = None,
                 arm_markers: Iterable[str] = ("ARM-A", "ARM-B"),
                 trigger_marker: str = "TRIGGER-C",
                 name: Optional[str] = None) -> ArmedCrashApp:
    """Convenience: the planted N-event-dependent crash app."""
    return ArmedCrashApp(inner, arm_markers=arm_markers,
                         trigger_marker=trigger_marker, name=name)


def crash_on(inner: SDNApp, event_type: str = "PacketIn",
             dpid: Optional[int] = None,
             payload_marker: Optional[str] = None,
             after_n_events: int = 0,
             deterministic: bool = True,
             kind: BugKind = BugKind.CRASH,
             seed: int = 0) -> FaultyApp:
    """Convenience: wrap ``inner`` with a single targeted bug."""
    bug = Bug(
        bug_id=f"{inner.name}-{kind.value}",
        kind=kind,
        event_type=event_type,
        dpid=dpid,
        payload_marker=payload_marker,
        after_n_events=after_n_events,
        deterministic=deterministic,
        description=f"injected {kind.value} on {event_type}",
    )
    return FaultyApp(inner, [bug], seed=seed)
