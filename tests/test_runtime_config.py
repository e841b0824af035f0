"""RuntimeConfig: one value configures a runtime, and survives failover.

Two properties are pinned here.  Every config field reaches the object
it configures (so a knob cannot be accepted and silently ignored), and
a promoted replica's runtime carries the *same* config as the primary
it replaces -- the hand-copied failover rebuild used to drop ``chaos``
and ``channel_retry_budget``, so apps launched after a promotion got a
clean default channel.
"""

import dataclasses
import random

import pytest

from repro.apps import FlowMonitor, LearningSwitch
from repro.core.crashpad.policy_lang import default_policy_table
from repro.core.runtime import LegoSDNRuntime, RuntimeConfig
from repro.faults.netfaults import ChaosProfile
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.replication import ReplicaSet
from repro.workloads.traffic import inject_marker_packet

POLICY = default_policy_table()
CHAOS = ChaosProfile(seed=5, loss=0.05)


def _channel_seed(channel):
    """Which seed (default 0, or the row's 7) built this channel's RNG;
    the first app's channel is seeded with the runtime seed itself."""
    state = channel.rng.getstate()
    return next(s for s in (0, 7) if random.Random(s).getstate() == state)


#: field -> (non-default value, where a runtime built with it shows it).
FIELD_SINKS = {
    "mode": ("buffer", lambda rt, stub, ch: rt.proxy.mode),
    "policy_table": (POLICY, lambda rt, stub, ch: rt.crashpad.policy_table),
    "byzantine_check": (True, lambda rt, stub, ch: rt.proxy.byzantine_check),
    "shutdown_on_critical": (
        True, lambda rt, stub, ch: rt.proxy.shutdown_on_critical),
    "checkpoint_interval": (
        4, lambda rt, stub, ch: stub.checkpoint_interval),
    "heartbeat_interval": (
        0.25, lambda rt, stub, ch: stub.heartbeat_interval),
    "channel_batch": (False, lambda rt, stub, ch: ch.batch),
    "channel_retry_budget": (12, lambda rt, stub, ch: ch.retry_budget),
    "chaos": (CHAOS, lambda rt, stub, ch: ch.chaos),
    "parallel_lanes": (True, lambda rt, stub, ch: rt.proxy.parallel_lanes),
    "seed": (7, lambda rt, stub, ch: _channel_seed(ch)),
}


def _launch(**fields):
    net = Network(linear_topology(2, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller, **fields)
    stub = runtime.launch_app(LearningSwitch())
    return runtime, stub, runtime.channels["learning_switch"]


def test_every_field_has_a_row():
    names = {f.name for f in dataclasses.fields(RuntimeConfig)}
    assert names == set(FIELD_SINKS)


@pytest.mark.parametrize("name", sorted(FIELD_SINKS))
def test_no_field_is_lost(name):
    value, sink = FIELD_SINKS[name]
    assert value != getattr(RuntimeConfig(), name), "row needs a non-default"
    runtime, stub, channel = _launch(**{name: value})
    assert getattr(runtime.config, name) == value
    assert sink(runtime, stub, channel) == value
    assert sink(*_launch()) != value


def test_unknown_keyword_is_a_type_error():
    net = Network(linear_topology(2, 1), seed=0)
    with pytest.raises(TypeError):
        LegoSDNRuntime(net.controller, checkpoint_codec="pickle")


def test_config_and_keywords_together_are_rejected():
    net = Network(linear_topology(2, 1), seed=0)
    with pytest.raises(TypeError):
        LegoSDNRuntime(net.controller, RuntimeConfig(), seed=1)


def test_promoted_runtime_keeps_the_whole_config():
    net = Network(linear_topology(2, 1), seed=0)
    old_runtime = LegoSDNRuntime(net.controller, chaos=CHAOS,
                                 channel_retry_budget=12,
                                 checkpoint_interval=4)
    replicas = ReplicaSet(net, old_runtime, backups=1, lease_timeout=0.2)
    old_runtime.launch_app(LearningSwitch())
    net.start()
    net.run_for(1.0)
    inject_marker_packet(net, "h1", "h2", "flow-a")
    net.run_for(0.5)
    replicas.crash_primary()
    net.run_for(1.0)
    new_runtime = replicas.runtime
    assert new_runtime is not old_runtime
    assert new_runtime.config == old_runtime.config
    # An app launched *after* the promotion is configured like the ones
    # launched before it.
    stub = new_runtime.launch_app(FlowMonitor())
    channel = new_runtime.channels[stub.app.name]
    assert channel.chaos is CHAOS
    assert channel.retry_budget == 12
    assert stub.checkpoint_interval == 4
