"""Versioned ContextPush deltas: the device manager's change log, the
stub's refuse-and-resync rule, and convergence of the stub's mirror
under every interleaving of the things that move it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import LearningSwitch
from repro.controller.core import Controller
from repro.core.appvisor import rpc
from repro.core.runtime import LegoSDNRuntime
from repro.faults import crash_on
from repro.faults.netfaults import ChaosProfile
from repro.network.net import Network
from repro.network.packet import tcp_packet
from repro.network.simulator import Simulator
from repro.network.topology import linear_topology
from repro.openflow.messages import PacketIn
from repro.replication import ReplicaSet
from repro.workloads import TrafficWorkload

APP = "learning_switch"


def seen_at(host: int, port: int, payload: str = "") -> PacketIn:
    """Host ``host`` heard on edge port ``port`` of switch 1."""
    mac = f"00:00:00:00:ff:{host:02x}"
    return PacketIn(dpid=1, in_port=port, packet=tcp_packet(
        mac, "00:00:00:00:ff:fe", f"10.9.0.{host}", "10.9.0.254",
        src_port=1000, dst_port=80, payload=payload))


# -- DeviceManager.changes_since ---------------------------------------

class TestChangesSince:
    def devices(self):
        return Controller(Simulator()).devices

    def test_newest_value_per_mac_oldest_change_first(self):
        devices = self.devices()
        devices.learn(1, seen_at(1, 10))
        devices.learn(1, seen_at(2, 10))
        base = devices.version
        devices.learn(1, seen_at(3, 10))
        devices.learn(1, seen_at(1, 11))        # host 1 moves...
        devices.learn(1, seen_at(1, 12))        # ...twice
        changed = devices.changes_since(base)
        assert [(e.ip, e.port) for e in changed] == [
            ("10.9.0.3", 10), ("10.9.0.1", 12)]
        assert [(e.ip, e.port) for e in devices.changes_since(0)] == [
            ("10.9.0.2", 10), ("10.9.0.3", 10), ("10.9.0.1", 12)]
        assert set(devices.changes_since(0)) == set(devices.entries())

    def test_empty_when_nothing_changed(self):
        devices = self.devices()
        assert devices.changes_since(0) == ()
        devices.learn(1, seen_at(1, 10))
        devices.learn(1, seen_at(1, 10))        # same place: no change
        assert devices.version == 1
        assert devices.changes_since(devices.version) == ()

    def test_none_across_a_reset_and_for_unknown_versions(self):
        devices = self.devices()
        devices.learn(1, seen_at(1, 10))
        before = devices.version
        devices.reset()
        assert devices.changes_since(before) is None
        assert devices.changes_since(devices.version) == ()
        devices.learn(1, seen_at(2, 10))
        assert [e.ip for e in devices.changes_since(before + 1)] \
            == ["10.9.0.2"]
        assert devices.changes_since(before) is None
        assert devices.changes_since(-1) is None
        assert devices.changes_since(devices.version + 1) is None

    def test_log_is_bounded_by_the_table_not_by_time(self):
        devices = self.devices()
        devices.learn(1, seen_at(1, 10))
        for flap in range(5000):
            devices.learn(1, seen_at(2, 10 + flap % 2))
        assert devices.version == 5001
        assert len(devices._changed_at) == len(devices.all()) == 2
        assert [e.ip for e in devices.changes_since(4000)] == ["10.9.0.2"]


# -- the stub's rule ---------------------------------------------------

class DropFirstProxyData:
    """Chaos stand-in: the first data datagram the proxy sends dies."""

    def __init__(self):
        self.dropped = 0

    def perturb(self, now, side, data):
        if side == "proxy" and not self.dropped and data[4] == 1:
            self.dropped += 1
            return []
        return [(0.0, data)]


class TestRefuseAndResync:
    def test_lost_register_push_then_a_delta(self):
        """The prototype's failure: the Register-time full push is
        abandoned, the next push is a delta over a base the stub never
        got.  It must not be applied; the heartbeat asks for the table."""
        sim = Simulator()
        controller = Controller(sim)
        chaos = DropFirstProxyData()
        runtime = LegoSDNRuntime(controller, channel_retry_budget=0,
                                 chaos=chaos)
        stub = runtime.launch_app(LearningSwitch())
        channel = runtime.channels[APP]
        # The receiver's rule on its own: this sender is never told
        # that the channel gave up on its datagram.
        channel.on_fault.clear()
        sim.run_until(0.03)
        record = runtime.record(APP)
        assert chaos.dropped == 1 and channel.abandoned == 1
        assert record.full_pushes == 1 and stub.device_version == -1
        controller.devices.learn(1, seen_at(1, 10))
        sim.run_until(0.09)         # one proxy tick: a delta goes out
        assert stub.context_gaps == 1
        assert stub.host_cache == {} and stub.device_version == -1
        sim.run_until(0.3)          # heartbeat, then the next tick
        assert record.full_pushes == 2
        assert stub.host_cache == controller.devices.all() != {}
        assert stub.device_version == controller.devices.version
        # From here on deltas apply again.
        controller.devices.learn(1, seen_at(2, 10))
        sim.run_until(0.5)
        assert stub.host_cache == controller.devices.all()
        assert record.full_pushes == 2 and stub.context_gaps == 1

    def test_last_delta_lost_with_nothing_after_it(self):
        """No later push will ever show the stub its gap: the sender,
        told by the channel that it gave up on a datagram, re-sends."""
        sim = Simulator()
        controller = Controller(sim)
        chaos = ChaosProfile(seed=0)
        runtime = LegoSDNRuntime(controller, channel_retry_budget=0,
                                 chaos=chaos)
        stub = runtime.launch_app(LearningSwitch())
        sim.run_until(0.2)
        chaos.loss = 1.0
        controller.devices.learn(1, seen_at(1, 10))
        sim.run_until(0.28)         # the delta went out, and was lost
        chaos.loss = 0.0
        assert stub.host_cache == {}
        sim.run_until(0.5)
        assert stub.host_cache == controller.devices.all() != {}
        assert runtime.record(APP).full_pushes == 2
        assert stub.context_gaps == 0

    def test_lossless_run_sends_one_full_push_then_only_deltas(self):
        net = Network(linear_topology(3, 2), seed=0)
        runtime = LegoSDNRuntime(net.controller)
        stub = runtime.launch_app(LearningSwitch())
        pushes = []
        on_context = stub._on_context
        stub._on_context = lambda push: (pushes.append(push),
                                         on_context(push))
        net.start()
        net.run_for(1.0)            # warm-up: discovery settles
        record = runtime.record(APP)
        assert record.full_pushes == 1
        warm = len(pushes)
        TrafficWorkload(net, rate=40.0, seed=1,
                        selection="random").start(2.0)
        net.run_for(3.0)
        assert record.full_pushes == 1 and stub.context_gaps == 0
        assert len(pushes) > warm
        assert all(p.base_version >= 0 for p in pushes[1:])
        assert sum(len(p.hosts) for p in pushes[1:]) \
            == net.controller.devices.version
        assert stub.host_cache == net.controller.devices.all()
        assert stub.topo_cache == net.controller.topology.view()
        assert runtime.channels[APP].retransmits == 0

    def test_topology_only_push_lost_is_noticed(self):
        """A delta that carries no topology says which topology version
        it assumes: a stub that missed the push that moved it refuses."""
        sim = Simulator()
        stub = LegoSDNRuntime(Controller(sim)).launch_app(LearningSwitch())
        sim.run_until(0.01)
        held = stub.device_version
        assert held >= 0
        stub._on_frame(rpc.ContextPush(
            topo=None, hosts=(), base_version=held, device_version=held,
            topo_version=stub.topo_cache.version + 1))
        assert stub.device_version == -1 and stub.context_gaps == 1


# -- convergence under every interleaving ------------------------------

OPS = st.one_of(
    st.tuples(st.just("learn"), st.integers(1, 6), st.integers(10, 12)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("link")),
    st.tuples(st.just("crash")),
    st.tuples(st.just("failover")),
    st.tuples(st.just("abandon"), st.integers(1, 6), st.integers(10, 12)),
)
PAUSES = st.sampled_from([0.0, 0.01, 0.06, 0.13])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000),
       steps=st.lists(st.tuples(OPS, PAUSES), min_size=1, max_size=10))
def test_stub_mirror_converges_and_never_applies_over_a_wrong_base(
        seed, steps):
    net = Network(linear_topology(2, 1), seed=seed)
    chaos = ChaosProfile(seed=seed)
    runtime = LegoSDNRuntime(net.controller, channel_retry_budget=0,
                             chaos=chaos)
    replicas = ReplicaSet(net, runtime, backups=2)
    stub = runtime.launch_app(
        crash_on(LearningSwitch(), payload_marker="BOOM"))
    on_context = stub._on_context

    def checked(push):
        held = stub.device_version
        on_context(push)
        applied = stub.device_version == push.device_version
        if push.base_version >= 0 and applied:
            assert held == push.base_version, \
                f"delta over {push.base_version} applied, held {held}"

    stub._on_context = checked
    net.start()
    net.run_for(1.0)
    link_up = True
    for op, pause in steps:
        controller = replicas.primary.controller
        if op[0] == "learn":
            controller.devices.learn(1, seen_at(op[1], op[2]))
        elif op[0] == "reset":
            controller.devices.reset()
        elif op[0] == "link":
            link_up = not link_up
            (net.link_up if link_up else net.link_down)(1, 2)
        elif op[0] == "crash":
            controller.handle_switch_message(1, seen_at(7, 10, "BOOM"))
        elif op[0] == "failover" and len(replicas.failovers) < 2:
            replicas.crash_primary()
            net.run_for(0.4)
        elif op[0] == "abandon":
            # Whatever is sent in this window is sent once and given
            # up on -- the delta for this host among it.
            chaos.loss = 1.0
            controller.devices.learn(1, seen_at(op[1], op[2]))
            net.run_for(0.08)
            chaos.loss = 0.0
        net.run_for(pause)
    net.run_for(4.0)                # quiescence, lossless
    controller = replicas.primary.controller
    assert stub.host_cache == controller.devices.all()
    assert stub.topo_cache == controller.topology.view()
    assert stub.device_version == controller.devices.version
