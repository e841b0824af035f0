"""Tests for §3.4 controller upgrades: state retention and outage."""

from repro.apps import FlowMonitor, LearningSwitch
from repro.core.runtime import RuntimeConfig
from repro.network.topology import linear_topology
from repro.scenario import Step, play
from repro.stack import StackSpec, build_stack


def monitor_state(stack):
    return stack.runtime.app("monitor").total_observations()


def warmed(runtime, apps, settle=0.0):
    stack = build_stack(StackSpec(topology=linear_topology(2, 1),
                                  runtime=runtime, apps=apps))
    stack.start()
    stack.net.run_for(1.0)
    stack.net.ping("h1", "h2")
    if settle:
        stack.net.run_for(settle)
    return stack


def warmed_monolithic():
    return warmed(None, (FlowMonitor, LearningSwitch))


def warmed_legosdn():
    return warmed(RuntimeConfig(), (FlowMonitor(), LearningSwitch()),
                  settle=0.5)


def upgrade_steps(stack, duration=1.0):
    now = stack.net.now
    return [Step(now, "controller_down"), Step(now + duration, "controller_up")]


def upgrade(stack, duration=1.0):
    """``(state before, state after, outage)`` of one upgrade."""
    before = monitor_state(stack)
    seen = play(stack, upgrade_steps(stack, duration))
    outage = seen["controller_up"][0] - seen["controller_down"][0]
    return before, monitor_state(stack), outage


class TestMonolithicUpgrade:
    def test_state_lost(self):
        stack = warmed_monolithic()
        before, after, outage = upgrade(stack)
        assert before > 0
        assert after == 0
        assert outage >= 1.0

    def test_controller_back_after_upgrade(self):
        stack = warmed_monolithic()
        upgrade(stack)
        stack.net.run_for(1.0)
        assert stack.runtime.is_up
        assert stack.net.reachability() == 1.0

    def test_restart_watchdog_leaves_an_upgrade_to_the_operator(self):
        # build_stack's monolithic runtime reboots 0.5 s after a crash;
        # an upgrade's crash is the operator's, who restarts it.
        stack = warmed_monolithic()
        down, up = upgrade_steps(stack)
        play(stack, [down], until=down.at + 0.75)
        assert stack.net.controller.crashed
        seen = play(stack, [up])
        assert stack.net.controller.reboot_times == seen["controller_up"]
        assert stack.runtime.restart_count == 1


class TestLegoSDNUpgrade:
    def test_state_retained(self):
        stack = warmed_legosdn()
        before, after, _ = upgrade(stack)
        assert before > 0
        assert after == before

    def test_apps_resume_after_upgrade(self):
        stack = warmed_legosdn()
        upgrade(stack)
        stack.net.run_for(2.0)
        assert stack.runtime.is_up
        assert stack.net.reachability(wait=1.0) == 1.0

    def test_app_state_keeps_growing_after_upgrade(self):
        stack = warmed_legosdn()
        _, after, _ = upgrade(stack)
        stack.net.run_for(2.0)
        stack.net.ping("h1", "h2")
        stack.net.run_for(1.0)
        assert monitor_state(stack) > after


class TestComparison:
    def test_legosdn_retains_monolithic_loses(self):
        """The headline §3.4 claim in one assertion."""
        mono_before, mono_after, _ = upgrade(warmed_monolithic())
        lego_before, lego_after, _ = upgrade(warmed_legosdn())
        assert lego_before == lego_after and mono_before != mono_after
