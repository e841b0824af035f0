"""Deterministic record/replay for whole LegoSDN deployments.

The :class:`ReplayHarness` owns every nondeterminism source a run has
as one :class:`~repro.stack.StackSpec`: the topology, the seed, the
chaos profile's kwargs (rebuilt with a fresh seeded RNG per run), the
runtime's configuration, and the app factories.  ``record()`` executes a
scenario with an :class:`~repro.debug.capture.EventCapture` attached
and returns a :class:`Recording`; ``replay()`` re-executes an
arbitrary *subsequence* of captured events against a completely fresh
controller/AppVisor/NetLog stack and reports the resulting
:class:`~repro.debug.signature.FailureSignature`.

Replay injects events directly at
:meth:`~repro.controller.core.Controller.handle_switch_message` on a
fixed warmup + per-event-gap + settle schedule: the fabric's
host-to-switch leg (where unseeded-looking loss would creep in) is cut
out, while the proxy<->stub chaos plane stays active exactly as
configured.  The settle window exceeds the failure detector's
heartbeat and event timeouts so silent failures (hangs) have time to
be detected and ticketed before the signature is read.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.runtime import RuntimeConfig
from repro.debug.capture import CapturedEvent, EventCapture
from repro.debug.signature import FailureSignature
from repro.network.topology import build_topology
from repro.stack import StackSpec, build_stack

#: Flight-recorder ring of every replay stack.
FLIGHT_CAPACITY = 128
#: The schedule, sim seconds: warm-up after the start, the gap between
#: injected events, the settle after the last one, and (``learn_hosts``)
#: the wait for the learned flows to idle out.
WARMUP = 1.2
GAP = 0.05
SETTLE = 1.5
LEARN_SETTLE = 6.0


@dataclass
class ReplayStack:
    """One freshly built deployment, ready to run."""

    net: object
    runtime: object
    telemetry: object
    capture: EventCapture


@dataclass
class Recording:
    """A captured run: the event sequence plus everything needed to
    re-execute any subsequence of it."""

    harness: "ReplayHarness"
    events: List[CapturedEvent]
    signature: FailureSignature
    config: dict
    #: The first problem ticket (None when the controller crashed or
    #: the run was clean) -- the minimizer attaches its result here.
    ticket: object = None
    net: object = None
    runtime: object = None


@dataclass
class ReplayResult:
    """One replay's outcome."""

    signature: FailureSignature
    injected: int
    tickets: list = field(default_factory=list)
    crash_records: list = field(default_factory=list)
    net: object = None
    runtime: object = None
    telemetry: object = None
    #: Present when the replay ran with ``capture=True``: the injected
    #: events as the replay stack ingested them, with *replay* trace
    #: ids (used for per-step critical-path attribution).
    capture: Optional[EventCapture] = None

    def reproduces(self, target: FailureSignature) -> bool:
        return self.signature.matches(target)


class ReplayHarness:
    """Builds deterministic stacks; records runs; replays subsequences.

    The deployment is one :class:`~repro.stack.StackSpec`: ``chaos`` is
    its plain kwargs dict for :class:`~repro.faults.netfaults.
    ChaosProfile` (seeded by ``seed``), which every build turns into a
    fresh profile -- otherwise the second replay would continue the
    first one's dice.
    """

    def __init__(self, topology: str = "linear", size: int = 3,
                 seed: int = 0,
                 chaos: Optional[dict] = None,
                 runtime_opts: Optional[dict] = None,
                 apps: Sequence[Callable] = (),
                 learn_hosts: bool = False):
        # Naming ``seed`` in ``runtime_opts`` is a duplicate-keyword
        # TypeError here, where the harness is declared: the spec's one
        # seed is the runtime's.
        self.spec = StackSpec(
            topology=build_topology(topology, size), seed=seed,
            apps=tuple(apps),
            runtime=RuntimeConfig(seed=seed, **(runtime_opts or {})),
            telemetry={"flight_capacity": FLIGHT_CAPACITY},
            chaos=dict(chaos) if chaos else None)
        #: Run all-pairs learning traffic during warmup (then wait out
        #: the learning switch's idle timeout so flows expire and later
        #: packets still punt).  The byzantine invariant checker builds
        #: its probes from *learned* hosts, so byzantine scenarios need
        #: this context before any bug fires -- in record AND replay,
        #: which is why it lives on the harness rather than in a drive
        #: callback.  Learning traffic is cleared from the capture: the
        #: replay stack regenerates it from its own warmup.
        self.learn_hosts = learn_hosts
        self._app_names: Optional[List[str]] = None

    # -- config -----------------------------------------------------------

    def config_dict(self) -> dict:
        """The replay config, JSON-safe: everything that pins the run.

        App factories are recorded by name (a config documents a repro;
        the live factories stay on the harness object that executes
        it), and the runtime by the fields it sets.
        """
        spec = self.spec
        return {
            "topology": spec.topology.name,
            "seed": spec.seed,
            "chaos": dict(spec.chaos) if spec.chaos else None,
            "runtime": {
                f.name: getattr(spec.runtime, f.name)
                for f in dataclasses.fields(spec.runtime)
                if f.name not in ("seed", "chaos")
                and getattr(spec.runtime, f.name) != f.default},
            "apps": list(self._app_names or []),
            "flight_capacity": FLIGHT_CAPACITY,
            "warmup": WARMUP,
            "gap": GAP,
            "settle": SETTLE,
            "learn_hosts": self.learn_hosts,
            "learn_settle": LEARN_SETTLE,
        }

    # -- stack construction ----------------------------------------------

    def build(self) -> ReplayStack:
        """A fresh deployment under this config, capture attached."""
        stack = build_stack(self.spec)
        self._app_names = list(stack.runtime.stubs)
        capture = EventCapture().attach(stack.net.controller)
        return ReplayStack(net=stack.net, runtime=stack.runtime,
                           telemetry=stack.telemetry, capture=capture)

    def _start(self, stack: ReplayStack) -> None:
        """Start + warm a stack identically for record and replay.

        With ``learn_hosts`` the warmup runs all-pairs pings so the
        controller learns every host (the invariant checker's probe
        set), then waits ``LEARN_SETTLE`` so the learned flows idle out
        and later packets still punt.  The learning traffic is dropped
        from the capture -- both record and replay regenerate it here,
        so it is part of the *config*, not the event sequence.
        """
        stack.net.start()
        stack.net.run_for(WARMUP)
        if self.learn_hosts:
            stack.net.reachability(wait=0.5)
            stack.net.run_for(LEARN_SETTLE)
            stack.capture.events.clear()

    # -- record -----------------------------------------------------------

    def record(self, drive: Callable) -> Recording:
        """Run ``drive(net, runtime)`` on a fresh stack and capture it.

        The drive callback injects whatever traffic or faults the
        scenario needs; the capture tap sees every switch message the
        controller ingests while it runs.  After the drive, the stack
        settles long enough for silent failures to be detected.
        """
        stack = self.build()
        self._start(stack)
        drive(stack.net, stack.runtime)
        stack.net.run_for(SETTLE)
        signature = FailureSignature.from_run(stack.runtime)
        tickets = stack.runtime.tickets.all()
        return Recording(
            harness=self,
            events=list(stack.capture.events),
            signature=signature,
            config=self.config_dict(),
            ticket=tickets[0] if tickets else None,
            net=stack.net,
            runtime=stack.runtime,
        )

    # -- replay -----------------------------------------------------------

    def replay(self, events: Sequence[CapturedEvent],
               capture: bool = False) -> ReplayResult:
        """Re-execute ``events`` (any subsequence, original order kept)
        against a fresh stack; report whether and how it failed."""
        stack = self.build()
        if not capture:
            stack.capture.detach()
        self._start(stack)
        sim = stack.net.sim
        controller = stack.net.controller
        base = sim.now
        for i, captured in enumerate(events):
            sim.schedule_at(base + (i + 1) * GAP,
                            controller.handle_switch_message,
                            captured.dpid, copy.deepcopy(captured.event))
        stack.net.run_for((len(events) + 1) * GAP + SETTLE)
        return ReplayResult(
            signature=FailureSignature.from_run(stack.runtime),
            injected=len(events),
            tickets=stack.runtime.tickets.all(),
            crash_records=list(controller.crash_records),
            net=stack.net,
            runtime=stack.runtime,
            telemetry=stack.telemetry,
            capture=stack.capture if capture else None,
        )
