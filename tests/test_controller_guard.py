"""Tests for ControllerGuard (§5: hardening the controller itself)."""

import pytest

from repro.apps import LearningSwitch, ShortestPathRouting
from repro.core.crashpad.checkpoint import CheckpointError
from repro.core.guard import ControllerGuard
from repro.core.runtime import LegoSDNRuntime
from repro.network.net import Network
from repro.network.topology import linear_topology, ring_topology


def warmed(topo=None):
    net = Network(topo or ring_topology(4, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller)
    runtime.launch_app(LearningSwitch())
    net.start()
    net.run_for(1.5)
    net.reachability(wait=1.0)
    return net, runtime


class TestSnapshotting:
    def test_periodic_snapshots(self):
        net, runtime = warmed()
        guard = ControllerGuard(net.controller, checkpoint_interval=0.5)
        guard.start()
        net.run_for(2.0)
        assert guard.snapshots_taken >= 4
        assert any(buf for bufs in guard.snapshot.buffers.values()
                   for buf in bufs)

    def test_snapshot_skipped_while_crashed(self):
        net, runtime = warmed()
        guard = ControllerGuard(net.controller, checkpoint_interval=0.5)
        guard.start()
        net.run_for(0.6)
        taken = guard.snapshots_taken
        net.controller.crash(RuntimeError("x"), culprit="t")
        net.run_for(2.0)
        assert guard.snapshots_taken == taken

    def test_service_state_outside_the_codec_is_a_typed_error(self):
        """Service state goes through the one state encoding: a value
        it has no tag for is refused, naming the key -- never pickled
        into a snapshot nobody could vouch for."""
        net, runtime = warmed()
        guard = ControllerGuard(net.controller)
        before = guard.take_snapshot()
        net.controller.counters.snapshot = lambda: {"weights": complex(1, 2)}
        with pytest.raises(CheckpointError,
                           match="controller services.*'counters'"):
            guard.take_snapshot()
        assert guard.snapshot is before and guard.snapshots_taken == 1


class TestRestore:
    def test_restore_reinstates_topology_and_devices(self):
        net, runtime = warmed()
        guard = ControllerGuard(net.controller, checkpoint_interval=0.5)
        guard.start()
        net.run_for(1.0)
        links_before = net.controller.topology.view().links
        hosts_before = set(net.controller.devices.all())
        assert links_before and hosts_before
        net.controller.crash(RuntimeError("bug"), culprit="t")
        net.run_for(0.5)
        assert guard.reboot_with_restore()
        # full view back instantly, no discovery round needed
        assert net.controller.topology.view().links == links_before
        assert set(net.controller.devices.all()) == hosts_before

    def test_plain_reboot_loses_everything_until_rediscovery(self):
        net, runtime = warmed()
        net.controller.crash(RuntimeError("bug"), culprit="t")
        net.run_for(0.5)
        net.controller.reboot()
        assert net.controller.topology.view().links == ()
        assert net.controller.devices.all() == {}

    def test_dead_switch_not_resurrected(self):
        net, runtime = warmed()
        guard = ControllerGuard(net.controller, checkpoint_interval=0.5)
        guard.start()
        net.run_for(1.0)
        net.controller.crash(RuntimeError("bug"), culprit="t")
        net.switch_down(3)  # dies during the outage
        net.run_for(0.5)
        guard.reboot_with_restore()
        view = net.controller.topology.view()
        assert 3 not in view.switches
        assert all(3 not in (l[0], l[2]) for l in view.links)
        assert all(e.dpid != 3
                   for e in net.controller.devices.all().values())

    def test_restore_without_snapshot_is_plain_reboot(self):
        net, runtime = warmed()
        guard = ControllerGuard(net.controller)
        net.controller.crash(RuntimeError("x"), culprit="t")
        assert not guard.reboot_with_restore()
        assert not net.controller.crashed

    def test_counters_restored(self):
        net, runtime = warmed()
        net.controller.counters.inc("app.flows", 42)
        guard = ControllerGuard(net.controller)
        guard.take_snapshot()
        net.controller.crash(RuntimeError("x"), culprit="t")
        guard.reboot_with_restore()
        assert net.controller.counters.snapshot() == {"app.flows": 42}


class TestRecoverySpeed:
    def test_guarded_reboot_routes_immediately(self):
        """Routing needs the topology; the guard restores it instantly
        where a plain reboot waits out a discovery round."""
        net = Network(ring_topology(4, 1), seed=0,
                      discovery_interval=2.0)  # slow discovery
        runtime = LegoSDNRuntime(net.controller)
        runtime.launch_app(ShortestPathRouting())
        net.start()
        net.run_for(3.0)
        net.reachability(wait=1.5)
        guard = ControllerGuard(net.controller, checkpoint_interval=0.5)
        guard.start()
        net.run_for(1.0)
        net.controller.crash(RuntimeError("bug"), culprit="t")
        net.run_for(0.5)
        guard.reboot_with_restore()
        # immediately after the reboot, before any discovery round:
        assert len(net.controller.topology.view().links) == 4
        assert net.reachability(wait=1.0) == 1.0
