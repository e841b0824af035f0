"""``repro.stack``: one builder, one construction order, one seed.

That every CLI driver's ``--seed`` reaches the runtime is tested beside
the CLI (``tests/test_cli.py::test_cli_seed_reaches_the_runtime``).
"""

from repro.apps import LearningSwitch
from repro.core.runtime import RuntimeConfig
from repro.network.topology import linear_topology
from repro.stack import StackSpec, build_stack


def spec(**fields):
    return StackSpec(topology=linear_topology(3, 1), seed=5,
                     apps=(LearningSwitch,), **fields)


def test_the_spec_seed_and_chaos_replace_the_runtime_configs():
    stack = build_stack(spec(runtime=RuntimeConfig(seed=9,
                                                   checkpoint_interval=4),
                             chaos={"loss": 0.1}))
    config = stack.runtime.config
    assert (config.seed, config.checkpoint_interval) == (5, 4)
    assert config.chaos is stack.chaos and stack.chaos.seed == 5
    assert stack.runtime.channels["learning_switch"].chaos is stack.chaos


def test_a_spec_of_factories_builds_fresh_stacks():
    one, two = (build_stack(spec(chaos={"loss": 0.1})) for _ in range(2))
    assert one.net is not two.net and one.chaos is not two.chaos
    assert (one.runtime.app("learning_switch")
            is not two.runtime.app("learning_switch"))


def test_backups_wrap_the_runtime_with_the_replica_options():
    stack = build_stack(spec(backups=2,
                             replica_options={"lease_timeout": 0.3}))
    replicas = stack.replicas
    assert replicas.runtime is stack.runtime
    assert list(stack.runtime.stubs) == ["learning_switch"]
    assert (len(replicas.replicas), replicas.members.lease_timeout) == (3, 0.3)
    stack.start()
    stack.net.run_for(1.0)
    assert stack.net.reachability() == 1.0


def test_the_stack_comes_back_unstarted():
    stack = build_stack(spec(telemetry={"flight_capacity": 16},
                             watchdog=True))
    assert not stack.net.controller.started
    assert stack.telemetry.enabled and stack.watchdog is not None
    stack.start()
    assert stack.net.controller.started


def test_monolithic_and_sharded_stacks():
    mono = build_stack(spec(runtime=None))
    assert mono.runtime.app("learning_switch") is not None
    sharded = build_stack(spec(shards=2, backups=1, service_time=0.001,
                               runtime=RuntimeConfig(checkpoint_interval=4)))
    assert sharded.runtime is None and len(sharded.coordinator.shards) == 2
    for handle in sharded.coordinator.shards.values():
        assert handle.runtime.config.checkpoint_interval == 4
        assert handle.runtime.config.seed == 5
        assert handle.controller.service_time == 0.001
    sharded.start()
    sharded.net.run_for(1.0)
    assert sharded.net.reachability() == 1.0
