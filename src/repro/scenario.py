"""A run as data, and :func:`play`, the one timeline driver.

A :class:`Scenario` is a :class:`~repro.stack.StackSpec`, timed
:class:`Step`\\ s with plain-value ``args`` (an ``ingest`` step's
captured switch message aside), and the instant the run ends.  The
firing rule: in ``at`` order (ties as given), advance the
simulator to the step's instant -- every event due by then runs first,
one queued for that very instant included -- or stay, if the clock is
already past it; then apply the step.  A step may record what it saw
(a kill's victim, a probe's reachability, an upgrade's instants).
"""

from __future__ import annotations

import copy
import random
from dataclasses import field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.record import record
from repro.stack import Stack, StackSpec, build_stack
from repro.workloads.churn import ChurnWorkload
from repro.workloads.traffic import TrafficWorkload, inject_marker_packet


def _workload(cls):
    def start(stack, duration, **workload):
        started = cls(stack.net, **workload)
        started.start(duration)
        return started
    return start


def _kill_primary(stack, shard=None):
    replicas = (stack.replicas if shard is None
                else stack.coordinator.shards[shard].replicas)
    seen = {"at": stack.net.now, "victim": replicas.primary.replica_id,
            "epoch": replicas.epoch, "ship_index": replicas.ship_index}
    if shard is None:
        replicas.crash_primary()
    else:
        stack.coordinator.crash_shard_primary(shard)
    return seen


class UpgradeReboot(Exception):
    """Marker for a deliberate, operator-initiated controller restart."""


def _controller_down(stack):
    """§3.4's upgrade begins: the controller process goes down."""
    stack.net.controller.crash(UpgradeReboot("scheduled upgrade"),
                               culprit="operator")
    return stack.net.now


def _controller_up(stack):
    """The upgraded controller comes back: a monolithic runtime
    re-creates its apps (their state is lost), LegoSDN's stubs keep
    theirs."""
    stack.runtime.restart()
    return stack.net.now


#: The ``load`` kind's traffic shape: the share of flows aimed at a
#: fixed hotspot set, and that set's size.
LOAD_HOT_FRACTION = 0.15
LOAD_HOT_SET = 32


def _load(stack, hosts, rate, seed, churn_per_sec):
    """Start a :class:`~repro.bench.loadgen.LoadGenerator` over a
    synthetic ``hosts``-host universe, punting to the controller that
    serves each source switch; it runs on as ``stack.load``."""
    # Imported here: repro.bench's harness plays scenarios.
    from repro.bench.loadgen import LoadGenerator
    from repro.bench.synth import HostUniverse, TrafficMix

    net = stack.net
    universe = HostUniverse(hosts, sorted(net.switches), seed=seed)
    mix = TrafficMix(universe, seed=seed + 1,
                     hot_fraction=LOAD_HOT_FRACTION, hot_set=LOAD_HOT_SET,
                     churn_per_sec=churn_per_sec)
    controller_for = (stack.coordinator.owner_controller
                      if stack.coordinator is not None
                      else lambda dpid: net.controller)
    stack.load = LoadGenerator(net.sim, controller_for, mix, rate=rate)
    stack.load.start()


#: Step kind -> ``apply(stack, **args)``; what it returns, unless None,
#: is what the step saw.
KINDS = {
    "link_down": lambda stack, **args: stack.net.link_down(**args),
    "link_up": lambda stack, **args: stack.net.link_up(**args),
    "switch_down": lambda stack, **args: stack.net.switch_down(**args),
    "switch_up": lambda stack, **args: stack.net.switch_up(**args),
    "marker_packet": lambda stack, src, dst, marker: inject_marker_packet(
        stack.net, src, dst, marker),
    "traffic": _workload(TrafficWorkload),
    "churn": _workload(ChurnWorkload),
    "kill_primary": _kill_primary,
    "kill_shard_primary": _kill_primary,
    "reachability": lambda stack, **args: stack.net.reachability(**args),
    # A copy: the debug loop replays one captured message many times.
    "ingest": lambda stack, dpid, message: (
        stack.net.controller.handle_switch_message(
            dpid, copy.deepcopy(message))),
    "controller_down": _controller_down,
    "controller_up": _controller_up,
    "load": _load,
    # The flow is drawn from the running mix when the step fires.
    "load_marker": lambda stack, payload: stack.load.inject(payload),
}


@record
class Step:
    """At sim time ``at``: ``KINDS[kind](stack, **args)``."""

    at: float
    kind: str
    args: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")


@record
class Scenario:
    """A deployment and what happens to it, as one value."""

    spec: StackSpec
    steps: Tuple[Step, ...] = ()
    #: Where the clock stops (None: where the last step left it).
    until: Optional[float] = None


def play(stack: Stack, steps: Sequence[Step],
         until: Optional[float] = None) -> Dict[str, List]:
    """Play ``steps`` on a started ``stack`` by the firing rule, then run
    to ``until``.  Returns kind -> what each step of it saw, in order."""
    net = stack.net
    seen: Dict[str, List] = {}
    for step in sorted(steps, key=lambda s: s.at):
        if step.at > net.now:
            net.run_until(step.at)
        record = KINDS[step.kind](stack, **step.args)
        if record is not None:
            seen.setdefault(step.kind, []).append(record)
    if until is not None:
        net.run_until(until)
    return seen


def run(scenario: Scenario) -> Tuple[Stack, Dict[str, List]]:
    """Build, start and play ``scenario``: ``(stack, what its steps saw)``."""
    stack = build_stack(scenario.spec)
    stack.start()
    return stack, play(stack, scenario.steps, scenario.until)


def random_faults(topology, start: float, duration: float,
                  rate: float = 1.0, markers: Sequence[str] = (),
                  seed: int = 0) -> List[Step]:
    """A seeded random fault storm over ``[start, start + duration)``:
    link and switch flaps and (given ``markers``) bug-trigger packets,
    ~``rate`` a second from ``start + 0.5``.  Every flap heals before
    the window ends: the storm tests *transient* fault handling."""
    rng = random.Random(seed)
    host_names = [spec.name for spec in topology.hosts]
    end = start + duration
    steps: List[Step] = []
    t = start + 0.5
    while t < end - 1.0:
        kind = rng.choice(["link", "switch", "marker"]
                          if markers else ["link", "switch"])
        flap = None
        if kind == "link" and topology.switch_links:
            a, b = rng.choice(topology.switch_links)
            flap = {"dpid_a": a, "dpid_b": b}
        elif kind == "switch" and len(topology.switches) > 2:
            flap = {"dpid": rng.choice(topology.switches)}
        elif kind == "marker" and markers and len(host_names) >= 2:
            src, dst = rng.sample(host_names, 2)
            steps.append(Step(t, "marker_packet", {
                "src": src, "dst": dst, "marker": rng.choice(markers)}))
        if flap is not None:
            recover = min(t + rng.uniform(0.5, 1.5), end - 0.1)
            steps += [Step(t, f"{kind}_down", flap),
                      Step(recover, f"{kind}_up", flap)]
        t += rng.expovariate(rate)
    return steps
