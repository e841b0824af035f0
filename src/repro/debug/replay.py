"""Deterministic record/replay for whole LegoSDN deployments.

A :class:`ReplayHarness` holds one :class:`~repro.stack.StackSpec`,
which pins every nondeterminism source a run has: the topology, the
seed, the chaos profile's kwargs (rebuilt with a fresh seeded RNG per
run), the runtime's configuration, and the app factories.  Every run
is a fresh stack driven by :func:`repro.scenario.play`: ``record()``
plays scenario steps with an :class:`~repro.debug.capture.EventCapture`
attached and returns a :class:`Recording`; ``replay()`` plays an
arbitrary *subsequence* of captured events, one ``ingest`` step each,
against a completely fresh controller/AppVisor/NetLog stack and
reports the resulting :class:`~repro.debug.signature.FailureSignature`.

Replay hands events directly to
:meth:`~repro.controller.core.Controller.handle_switch_message` on a
fixed warmup + per-event-gap + settle schedule: the fabric's
host-to-switch leg (where unseeded-looking loss would creep in) is cut
out, while the proxy<->stub chaos plane stays active exactly as
configured.  The settle window exceeds the failure detector's
heartbeat and event timeouts so silent failures (hangs) have time to
be detected and ticketed before the signature is read.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.core.runtime import RuntimeConfig
from repro.debug.capture import CapturedEvent, EventCapture
from repro.debug.signature import FailureSignature
from repro.network.topology import Topology
from repro.scenario import Step, play
from repro.stack import Stack, StackSpec, build_stack

#: Flight-recorder ring a replay spec's telemetry keeps.
FLIGHT_CAPACITY = 128
#: The schedule, sim seconds: warm-up after the start, the gap between
#: injected events, the settle after the last one, and (``learn_hosts``)
#: the all-pairs probe's wait and the wait for its flows to idle out.
WARMUP = 1.2
GAP = 0.05
SETTLE = 1.5
LEARN_WAIT = 0.5
LEARN_SETTLE = 6.0


@dataclass
class Recording:
    """A captured run: the event sequence plus everything needed to
    re-execute any subsequence of it."""

    harness: "ReplayHarness"
    events: List[CapturedEvent]
    signature: FailureSignature
    config: dict
    stack: Stack
    #: The first problem ticket (None when the controller crashed or
    #: the run was clean) -- the minimizer attaches its result here.
    ticket: object = None


@dataclass
class ReplayResult:
    """One replay's outcome."""

    signature: FailureSignature
    stack: Stack
    #: Present when the replay ran with ``capture=True``: the injected
    #: events as the replay stack ingested them, with *replay* trace
    #: ids (used for per-step critical-path attribution).
    capture: Optional[EventCapture] = None

    def reproduces(self, target: FailureSignature) -> bool:
        return self.signature.matches(target)


def _plain(value):
    """A spec field as JSON: the topology by name, the runtime by the
    fields it sets (the spec's seed and chaos replace its own)."""
    if isinstance(value, Topology):
        return value.name
    if isinstance(value, RuntimeConfig):
        return {f.name: getattr(value, f.name)
                for f in dataclasses.fields(value)
                if f.name not in ("seed", "chaos")
                and getattr(value, f.name) != f.default}
    if isinstance(value, Mapping):
        return dict(value)
    return value


class ReplayHarness:
    """Builds deterministic stacks; records runs; replays subsequences.

    Every build turns the spec's ``chaos`` kwargs into a fresh
    :class:`~repro.faults.netfaults.ChaosProfile` -- otherwise the
    second replay would continue the first one's dice.
    """

    def __init__(self, spec: StackSpec, learn_hosts: bool = False):
        self.spec = spec
        #: Run all-pairs learning traffic during warmup (then wait out
        #: the learning switch's idle timeout so flows expire and later
        #: packets still punt).  The byzantine invariant checker builds
        #: its probes from *learned* hosts, so byzantine scenarios need
        #: this context before any bug fires -- in record AND replay,
        #: which is why it lives on the harness rather than in the
        #: recorded steps.  Learning traffic is cleared from the
        #: capture: the replay stack regenerates it from its own warmup.
        self.learn_hosts = learn_hosts
        self._app_names: Optional[List[str]] = None

    @property
    def base(self) -> float:
        """Where the warm-up ends: recorded steps start here, and so do
        replayed events."""
        if self.learn_hosts:
            return (WARMUP + LEARN_WAIT) + LEARN_SETTLE
        return WARMUP

    def config_dict(self) -> dict:
        """The replay config, JSON-safe: every spec field, then the
        schedule.

        App factories are recorded by the names the last build gave
        them (a config documents a repro; the live factories stay on
        the harness object that executes it).
        """
        config = {f.name: _plain(getattr(self.spec, f.name))
                  for f in dataclasses.fields(self.spec)}
        config.update(apps=list(self._app_names or []), warmup=WARMUP,
                      gap=GAP, settle=SETTLE, learn_hosts=self.learn_hosts,
                      learn_wait=LEARN_WAIT, learn_settle=LEARN_SETTLE)
        return config

    def _play(self, steps: Sequence[Step], until: float,
              capture: bool):
        """A fresh stack, warmed up to :attr:`base`, then ``steps``
        played to ``until``: ``(stack, capture or None)``.

        With ``learn_hosts`` the warm-up probes all-pairs reachability
        so the controller learns every host (the invariant checker's
        probe set), then waits ``LEARN_SETTLE`` so the learned flows
        idle out and later packets still punt.  Whatever the warm-up
        ingested is dropped from the capture -- record and replay both
        regenerate it, so it is part of the *config*, not the event
        sequence.
        """
        stack = build_stack(self.spec)
        self._app_names = list(stack.runtime.stubs)
        tap = EventCapture().attach(stack.net.controller) if capture else None
        stack.start()
        warmup = [Step(WARMUP, "reachability", {"wait": LEARN_WAIT})]
        play(stack, warmup if self.learn_hosts else [], self.base)
        if tap is not None:
            tap.events.clear()
        play(stack, steps, until)
        return stack, tap

    def record(self, steps: Sequence[Step], until: float) -> Recording:
        """Play ``steps`` (instants from :attr:`base` on) to ``until``
        on a fresh stack and capture every switch message the
        controller ingests; then settle ``SETTLE`` longer, so silent
        failures are detected."""
        stack, tap = self._play(steps, until + SETTLE, capture=True)
        tickets = stack.runtime.tickets.all()
        return Recording(
            harness=self,
            events=list(tap.events),
            signature=FailureSignature.from_run(stack.runtime),
            config=self.config_dict(),
            stack=stack,
            ticket=tickets[0] if tickets else None,
        )

    def replay(self, events: Sequence[CapturedEvent],
               capture: bool = False) -> ReplayResult:
        """Re-execute ``events`` (any subsequence, original order kept)
        against a fresh stack, ``GAP`` apart from :attr:`base`; report
        whether and how it failed."""
        base = self.base
        steps = [Step(base + (i + 1) * GAP, "ingest",
                      {"dpid": captured.dpid, "message": captured.event})
                 for i, captured in enumerate(events)]
        stack, tap = self._play(
            steps, base + ((len(events) + 1) * GAP + SETTLE), capture)
        return ReplayResult(
            signature=FailureSignature.from_run(stack.runtime),
            stack=stack, capture=tap)
