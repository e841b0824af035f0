"""repro.scenario: the one timeline driver, its firing rule, the storm."""

import copy

import pytest

from repro.apps import LearningSwitch
from repro.core.runtime import RuntimeConfig
from repro.debug import FailureSignature, planted_armed_recording
from repro.network.net import Network
from repro.network.topology import linear_topology, ring_topology, tree_topology
from repro.scenario import Scenario, Step, play, random_faults, run
from repro.stack import Stack, StackSpec, build_stack

LINK = {"dpid_a": 1, "dpid_b": 2}


@pytest.fixture
def net():
    return Network(linear_topology(2, 1), seed=0)


def test_a_step_applies_after_the_events_due_at_its_instant(net):
    link = net.link_between(1, 2)
    up_when_queued_event_ran = []
    net.sim.schedule_at(1.0, lambda: up_when_queued_event_ran.append(link.up))
    play(Stack(net=net), [Step(1.0, "link_down", LINK)])
    assert up_when_queued_event_ran == [True]
    assert not link.up and net.now == 1.0


def test_a_past_step_applies_at_once(net):
    link = net.link_between(1, 2)
    net.run_until(2.0)
    up_when_queued_event_ran = []
    net.sim.schedule_at(2.0, lambda: up_when_queued_event_ran.append(link.up))
    play(Stack(net=net), [Step(1.0, "link_down", LINK)])
    assert not link.up and net.now == 2.0
    assert up_when_queued_event_ran == []     # the step went first
    net.run_until(2.0)
    assert up_when_queued_event_ran == [False]


def test_run_builds_starts_plays_and_returns_what_steps_saw():
    stack, seen = run(Scenario(
        spec=StackSpec(topology=linear_topology(3, 1),
                       apps=(LearningSwitch(),)),
        steps=(Step(1.5, "reachability"),), until=3.0))
    assert seen == {"reachability": [1.0]}
    assert stack.net.now == 3.0


@pytest.mark.parametrize("seed", range(1, 9))
def test_random_faults_stay_in_their_window_and_every_flap_heals(seed):
    start, duration = 1.5, 8.0
    steps = random_faults(ring_topology(5, 1), start, duration, rate=1.5,
                          markers=["CHAOS"], seed=seed)
    assert steps
    assert all(step.at >= start for step in steps)
    for down in steps:
        if not down.kind.endswith("_down"):
            continue
        up_kind = down.kind.replace("_down", "_up")
        assert any(up.kind == up_kind and up.args == down.args
                   and down.at < up.at < start + duration
                   for up in steps), down


def _marker_punt(marker_at):
    """Run a K=2 stack under load with one ``load_marker`` step; returns
    ``(stack, [(receiving controller, dpid, packet, instant)])`` for
    every punt of the marked flow."""
    stack = build_stack(StackSpec(
        topology=tree_topology(1, 4, hosts_per_leaf=1), seed=3,
        apps=(LearningSwitch,), shards=2, backups=1))
    punts = []
    for handle in stack.coordinator.shards.values():
        controller = handle.controller

        def handle_switch_message(dpid, msg, controller=controller,
                                  original=controller.handle_switch_message):
            packet = getattr(msg, "packet", None)
            if packet is not None and packet.payload == "MARK":
                punts.append((controller, dpid, packet, stack.net.now))
            original(dpid, msg)
        controller.handle_switch_message = handle_switch_message
    stack.start()
    play(stack, [
        Step(0.5, "load", {"hosts": 500, "rate": 40.0, "seed": 3,
                           "churn_per_sec": 1.0}),
        Step(marker_at, "load_marker", {"payload": "MARK"})], until=2.5)
    return stack, punts


def test_load_marker_draws_at_its_instant_and_punts_to_the_owner():
    draws = {}
    for marker_at in (1.0, 1.0, 1.5):
        stack, punts = _marker_punt(marker_at)
        # The first is the step's; the switches' own punts of the flood
        # the app answers with follow.
        controller, dpid, packet, at = punts[0]
        assert at == marker_at
        assert controller is stack.coordinator.owner_controller(dpid)
        draws.setdefault(marker_at, set()).add(
            (packet.eth_src, packet.eth_dst))
        assert stack.load.events_offered > 0
    assert len(draws[1.0]) == 1                  # seeded: the same flow
    assert draws[1.0] != draws[1.5]              # later: a later draw


@pytest.mark.parametrize("runtime", [None, RuntimeConfig()],
                         ids=["monolithic", "legosdn"])
def test_controller_up_on_a_live_controller_is_a_no_op(runtime):
    stack = build_stack(StackSpec(topology=linear_topology(2, 1),
                                  runtime=runtime, apps=(LearningSwitch,)))
    stack.start()
    app = stack.runtime.app("learning_switch")
    seen = play(stack, [Step(1.0, "controller_up")], until=1.5)
    assert seen == {"controller_up": [1.0]}
    assert stack.net.controller.reboot_times == []
    assert stack.runtime.app("learning_switch") is app
    assert stack.runtime.is_up


def test_ingest_hands_over_a_copy_and_replays_alike():
    harness, recording = planted_armed_recording(seed=0, loss=0.0, noise=0)
    messages = [captured.event for captured in recording.events]
    untouched = copy.deepcopy(messages)
    steps = [Step(harness.base + (i + 1) * 0.05, "ingest",
                  {"dpid": captured.dpid, "message": captured.event})
             for i, captured in enumerate(recording.events)]
    signatures = []
    for _ in range(2):
        stack = build_stack(harness.spec)
        ingested = []
        stack.net.controller.ingest_taps.append(
            lambda t, dpid, msg, tid: ingested.append(msg))
        stack.start()
        play(stack, steps, until=harness.base + 2.0)
        signatures.append(FailureSignature.from_run(stack.runtime))
        assert ingested == messages
        assert not any(a is b for a, b in zip(ingested, messages))
    assert recording.signature.failed
    assert signatures[0] == signatures[1] == recording.signature
    assert messages == untouched
