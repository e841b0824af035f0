"""Interval (fuzzy) checkpoints and dirty-key tracking.

The contracts under test:

- **Equivalence** (the property the whole feature rests on): for every
  crash offset, restoring the last image and replaying the journal
  tail reconstructs exactly the state that per-event checkpointing
  would have reconstructed, and the app goes on to emit what it would
  have -- for every bundled app, and failing on a planted store bug.
- The stub's cadence rules (interval, tail bound) and the store-level
  dirty-key bookkeeping those two behaviours rely on.
"""

import copy
import random
import re

import pytest

from repro.apps import (
    DenyRule,
    Firewall,
    Flooder,
    FlowMonitor,
    Hub,
    LearningSwitch,
    LoadBalancer,
    SDNApp,
    ShortestPathRouting,
    SpanningTreeSwitch,
    VirtualIPGateway,
)
from repro.controller.api import HostEntry
from repro.controller.events import LinkRemoved, SwitchJoin, SwitchLeave
from repro.core.appvisor import rpc
from repro.core.appvisor.stub import AppVisorStub
from repro.core.crashpad.checkpoint import (
    DEDUP,
    DELTA,
    CheckpointStore,
    decode_state,
)
from repro.core.runtime import LegoSDNRuntime
from repro.faults import crash_on
from repro.network.net import Network
from repro.network.packet import tcp_packet
from repro.network.simulator import Simulator
from repro.network.topology import linear_topology
from repro.openflow.messages import FlowRemoved, PacketIn, PortStatus
from repro.workloads.traffic import inject_marker_packet

MARKER = "BOOM"


class CrashMarkerSwitch(LearningSwitch):
    """LearningSwitch (dirty tracking and all) that crashes on MARKER.

    The trigger is stateless, so tail replay cannot re-crash: the
    offending event is dropped and every other event replays clean.
    """

    def on_packet_in(self, event):
        payload = getattr(event.packet, "payload", "") or ""
        if MARKER in payload:
            raise RuntimeError("injected crash marker")
        return super().on_packet_in(event)


class UntrackedSwitch(LearningSwitch):
    """The all-dirty reference: with no marks every take encodes every
    key whole -- no skip, no patch."""

    def enable_dirty_tracking(self):
        pass


def run_workload(interval, crash_offset, probes=10, app=CrashMarkerSwitch):
    """Drive a fixed probe stream, crashing after probe ``crash_offset``.
    ``app`` other than the default runs under ``crash_on`` and hears
    every probe from a new source MAC, so its tables keep growing.

    Returns ``(final_app_state, runtime)``.
    """
    net = Network(linear_topology(3, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller, checkpoint_interval=interval)
    wrapped = not issubclass(app, CrashMarkerSwitch)
    instance = app(name="app")
    if wrapped:
        instance = crash_on(instance, payload_marker=MARKER)
    runtime.launch_app(instance)
    net.start()
    net.run_for(1.0)
    h1, h3 = net.hosts["h1"], net.hosts["h3"]
    for i in range(probes):
        if wrapped:
            h1.send(tcp_packet(f"02:00:00:00:aa:{i:02x}", h3.mac, h1.ip,
                               h3.ip, payload=f"probe-{i}"))
        else:
            inject_marker_packet(net, "h1", "h3", f"probe-{i}")
        net.run_for(0.4)
        if i == crash_offset:
            inject_marker_packet(net, "h1", "h3", MARKER)
            net.run_for(0.4)
    net.run_for(3.0)
    return runtime.stubs["app"].app.get_state(), runtime

# -- every bundled app, a crash at every event ------------------------------

HOSTS = {entry.mac: entry for entry in (
    HostEntry(mac=f"02:00:00:00:00:{i:02x}", ip=f"10.0.0.{i}",
              dpid=1 + i % 3, port=3 + i % 2) for i in range(1, 7))}
VIP = "10.0.99.1"

#: Every bundled app, each as it is built to run; all of them change
#: their state on the events they subscribe to.
APPS = {
    "firewall": lambda: Firewall(deny_rules=(DenyRule(tp_dst=23),
                                             DenyRule(ip_src="10.0.0.9"))),
    "flooder": Flooder,
    "gateway": lambda: VirtualIPGateway(vip=VIP,
                                        backend_macs=tuple(HOSTS)[3:]),
    "hub": Hub,
    "learning_switch": LearningSwitch,
    "load_balancer": LoadBalancer,
    "monitor": FlowMonitor,
    "routing": ShortestPathRouting,
    "stp_switch": SpanningTreeSwitch,
}
TRACE_LENGTH = 64


def seeded_trace(app, length=TRACE_LENGTH, seed=0):
    """``length`` events of the kinds ``app`` subscribes to, drawn
    from one seeded mix of switch joins and leaves, link and port
    changes, flow removals and PacketIns between the ``HOSTS`` (some
    to the gateway's VIP, some to unknown MACs)."""
    rng = random.Random(f"{app.name}-{seed}")
    macs = list(HOSTS)

    def packet_in():
        src = HOSTS[rng.choice(macs)]
        dst = rng.choice(macs + ["02:00:00:00:00:99"])
        ip_dst = VIP if rng.random() < 0.3 else f"10.0.0.{rng.randrange(9)}"
        return PacketIn(dpid=src.dpid if rng.random() < 0.8 else 1,
                        in_port=src.port,
                        packet=tcp_packet(src.mac, dst, src.ip, ip_dst,
                                          src_port=rng.randrange(4000, 4008),
                                          dst_port=rng.choice((23, 80))))

    makers = {
        "PacketIn": packet_in,
        "SwitchJoin": lambda: SwitchJoin(dpid=rng.randrange(1, 5)),
        "SwitchLeave": lambda: SwitchLeave(dpid=rng.randrange(1, 5)),
        "LinkRemoved": lambda: LinkRemoved(dpid_a=1, port_a=1, dpid_b=2,
                                           port_b=2),
        "FlowRemoved": lambda: FlowRemoved(dpid=rng.randrange(1, 4),
                                           byte_count=rng.randrange(999)),
        "PortStatus": lambda: PortStatus(dpid=1, port=rng.choice((1, 2)),
                                         link_up=rng.random() < 0.5),
    }
    kinds = [kind for kind in app.subscriptions if kind in makers]
    weights = [4 if kind == "PacketIn" else 1 for kind in kinds]
    return [makers[rng.choices(kinds, weights)[0]]() for _ in range(length)]


class ProxyEnd:
    """The proxy's end of a stub's channel: it keeps what it is sent."""

    def __init__(self):
        self.frames = []

    def on_frame(self, handler):
        pass

    def send(self, frame):
        self.frames.append(frame)


def crashing(app_class):
    """``app_class`` whose handler crashes, after it has run, on the
    one event held in the class's ``offending`` (not in any state)."""

    class Crashing(app_class):
        offending = None

        def handle(self, event):
            result = super().handle(event)
            if event is type(self).offending:
                raise RuntimeError("planted crash")
            return result

    return Crashing


def drive(make_app, trace, interval, crash_seq=0):
    """Deliver ``trace`` to a stub over a fresh ``make_app()``, one
    event at a time; with ``crash_seq``, the app crashes on that event
    and the stub restores it as Crash-Pad orders.  Returns the states
    before each event and, for a crash, the state restored and what the
    app emitted from then on (xids left out: replays draw their own)."""
    sim = Simulator()
    app = make_app()
    app.__class__ = crashing(type(app))
    stub = AppVisorStub(sim, app, checkpoint_interval=interval)
    stub.host_cache = dict(HOSTS)
    end = ProxyEnd()
    stub.connect(end)
    befores, restored, mark = [], None, None
    for seq, event in enumerate(trace, start=1):
        befores.append(copy.deepcopy(app.get_state()))
        if seq == crash_seq:
            type(app).offending = event
        stub._on_frame(rpc.EventDeliver(app_name=app.name, seq=seq,
                                        event=event))
        sim.run_for(0.05)
        if seq == crash_seq:
            assert isinstance(end.frames[-1], rpc.CrashReport)
            mark = len(end.frames)
            stub._on_frame(rpc.RestoreCommand(app_name=app.name,
                                              offending_seq=seq))
            restored = copy.deepcopy(app.get_state())
            sim.run_for(0.05)
            assert stub.sandbox.alive and stub.restores_done == 1
    outputs = [(f.seq, f.index, f.dpid,
                re.sub(r"xid=\d+", "xid=", repr(f.message)))
               for f in end.frames[mark:] if isinstance(f, rpc.AppOutput)]
    return befores, restored, outputs


def divergences(make_app, length=TRACE_LENGTH):
    """Every (interval, crash seq) at which recovery differs from the
    per-event run: a restored state that is not the state before the
    crash event, or outputs after recovery that are not the interval-1
    run's."""
    trace = seeded_trace(make_app(), length)
    befores, _, _ = drive(make_app, trace, 1)
    first, last = (dict(state, events_handled=0)
                   for state in (befores[0], befores[-1]))
    assert first != last, "the trace moved nothing but the event count"
    found = []
    for seq in range(1, length + 1):
        reference = None
        for interval in (1, 8):
            _, restored, outputs = drive(make_app, trace, interval, seq)
            if restored != befores[seq - 1]:
                found.append((interval, seq, "state"))
            if reference is None:
                reference = outputs
            elif outputs != reference:
                found.append((interval, seq, "outputs"))
    return found


class TestIntervalEquivalence:
    """Restore + tail replay == per-event checkpointing, at every
    crash offset the interval admits."""

    @pytest.mark.parametrize("interval", [4, 8])
    def test_every_crash_offset_matches_per_event_checkpointing(
            self, interval):
        for offset in range(interval):
            reference, ref_runtime = run_workload(1, offset)
            candidate, cand_runtime = run_workload(interval, offset)
            assert candidate == reference, (
                f"state diverged at interval={interval} offset={offset}")
            ref_stats = ref_runtime.stats()["app"]
            cand_stats = cand_runtime.stats()["app"]
            assert cand_stats["crashes"] == ref_stats["crashes"] >= 1
            assert cand_stats["recoveries"] == cand_stats["crashes"]
            assert cand_runtime.is_up

    @pytest.mark.parametrize("interval", [1, 8])
    def test_wrapped_app_matches_the_all_dirty_per_event_reference(
            self, interval):
        """``crash_on(LearningSwitch())`` through a real stub: entry
        patches and skipped keys under the wrapper recover exactly
        what whole-state per-event images recover."""
        for offset in range(8):
            reference, ref_runtime = run_workload(
                1, offset, app=UntrackedSwitch)
            candidate, cand_runtime = run_workload(
                interval, offset, app=LearningSwitch)
            assert candidate == reference, (
                f"state diverged at interval={interval} offset={offset}")
            assert any(key[0] == "macs" and value
                       for key, value in candidate.items())
            ref_store = ref_runtime.stubs["app"].checkpoints
            cand_store = cand_runtime.stubs["app"].checkpoints
            assert ref_store.encodes_skipped == 0
            assert cand_store.encodes_skipped > 0
            assert any(len(buffers) > 1 for cp in cand_store.history()
                       for buffers in cp.buffers.values())
            crashes = cand_runtime.stats()["app"]["crashes"]
            assert crashes == ref_runtime.stats()["app"]["crashes"] >= 1
            assert cand_runtime.stats()["app"]["recoveries"] == crashes

    def test_interval_takes_fewer_checkpoints(self):
        _, per_event = run_workload(1, crash_offset=-1)
        _, fuzzy = run_workload(8, crash_offset=-1)
        taken_per_event = per_event.stubs["app"].checkpoints.stats()["taken"]
        taken_fuzzy = fuzzy.stubs["app"].checkpoints.stats()["taken"]
        assert taken_fuzzy < taken_per_event / 2

    def test_tail_replay_is_bounded_by_the_interval(self):
        _, runtime = run_workload(8, crash_offset=5)
        stub = runtime.stubs["app"]
        assert stub.restores_done >= 1
        # After recovery, lag never exceeds the configured interval.
        assert stub.checkpoints.checkpoint_lag() <= 8

    @pytest.mark.parametrize("name", sorted(APPS))
    def test_each_app_recovers_per_event_state_at_every_crash(self, name):
        """Crash at every event of a seeded trace, at intervals 1 and
        8: the restored state is the state before that event, and what
        the app emits afterwards is what the per-event run emits."""
        assert divergences(APPS[name]) == []



def test_a_restore_that_skips_the_newest_patch_is_caught(monkeypatch):
    def skipping(self, checkpoint):
        return decode_state({key: buffers[:-1] if len(buffers) > 1
                             else buffers
                             for key, buffers in checkpoint.buffers.items()})
    monkeypatch.setattr(CheckpointStore, "state", skipping)
    assert divergences(LearningSwitch, length=16)


def test_a_take_that_shares_a_dirty_keys_buffers_is_caught(monkeypatch):
    """A tracked app hands over no mark, so every key the app moved
    looks clean and the take shares its previous buffers."""
    monkeypatch.setattr(SDNApp, "dirty_entries", lambda self: (
        None if self._moved_entries is None else {}))
    assert divergences(LearningSwitch, length=16)


class DictApp(SDNApp):
    name = "dictapp"

    def __init__(self):
        super().__init__()
        self.state = {"a": 0, "b": {}}
        self.enable_dirty_tracking()

    def get_state(self):
        return dict(self.state)

    def set_state(self, state):
        self.state = dict(state)

    def touch(self, key, value):
        self.state[key] = value
        self.mark_dirty(key)


class TestDirtyKeyStore:
    def test_clean_keys_skip_re_encoding(self):
        app = DictApp()
        store = CheckpointStore(full_every=8)
        store.take(app, before_seq=1, now=0.0)
        baseline = store.value_encodes
        app.touch("a", 1)  # "b" untouched
        cp = store.take(app, before_seq=2, now=1.0)
        assert cp.kind == DELTA
        assert store.value_encodes == baseline + 1
        assert store.encodes_skipped >= 1

    def test_version_identity_dedups_without_hashing_state(self):
        app = DictApp()
        store = CheckpointStore(full_every=8)
        store.take(app, before_seq=1, now=0.0)
        repeat = store.take(app, before_seq=2, now=1.0)
        assert repeat.kind == DEDUP
        assert store.dedup_hits == 1

    def test_stale_version_baseline_is_conservative(self):
        # A restore makes the restored image the one the next take
        # shares with; it must not share the image of the take the
        # rollback abandoned.
        app = DictApp()
        store = CheckpointStore(full_every=8)
        first = store.take(app, before_seq=1, now=0.0)
        app.touch("a", 1)
        store.take(app, before_seq=2, now=1.0)
        store.restore(app, first)
        app.touch("a", 2)
        after = store.take(app, before_seq=3, now=2.0)
        assert (decode_state(store.buffers(after))
                == {"a": 2, "b": {}})


def idle_stub(interval):
    """A launched stub that has seen no event and taken no checkpoint."""
    net = Network(linear_topology(3, 1), seed=0)
    runtime = LegoSDNRuntime(net.controller, checkpoint_interval=interval)
    return runtime.launch_app(CrashMarkerSwitch(name="app"))


class TestCheckpointPolicy:
    """When the stub takes a checkpoint (the class keeps the name the
    cadence rules were first tested under)."""

    def test_fixed_interval_cadence(self):
        stub = idle_stub(4)
        assert stub._checkpoint_due(1)  # nothing taken yet
        stub.checkpoints.take(stub.app, before_seq=1, now=0.0)
        assert not stub._checkpoint_due(4)
        assert stub._checkpoint_due(5)

    def test_tail_bound_forces_a_checkpoint(self):
        stub = idle_stub(1000)
        stub.checkpoints.take(stub.app, before_seq=1, now=0.0)
        stub.checkpoints.note_seq(AppVisorStub.MAX_TAIL)
        assert stub.checkpoints.checkpoint_lag() == AppVisorStub.MAX_TAIL - 1
        assert not stub._checkpoint_due(AppVisorStub.MAX_TAIL)
        stub.checkpoints.note_seq(AppVisorStub.MAX_TAIL + 1)
        assert stub._checkpoint_due(AppVisorStub.MAX_TAIL + 1)

    def test_tail_bound_take_is_synchronous_and_durable(self):
        """End to end: with an interval that never comes due, the only
        takes are the first and the ones the tail bound forces -- and a
        forced take is an image the lag is measured from."""
        net = Network(linear_topology(3, 1), seed=0)
        runtime = LegoSDNRuntime(net.controller, checkpoint_interval=1000)
        stub = runtime.launch_app(CrashMarkerSwitch(name="app"))
        net.start()
        net.run_for(1.0)
        assert AppVisorStub.MAX_TAIL == 64
        lags = []
        while stub.checkpoints.taken_count < 2:
            assert len(lags) < 100, "the tail bound never forced a take"
            inject_marker_packet(net, "h1", "h3", f"probe-{len(lags)}")
            net.run_for(0.2)
            lags.append(stub.checkpoints.checkpoint_lag())
        first, forced = stub.checkpoints.history()
        assert forced.before_seq - first.before_seq == 64
        assert max(lags) < 64  # the bound held wherever it was sampled
        assert stub.checkpoints.latest() is forced
        assert forced.buffers is not None

    def test_validation(self):
        net = Network(linear_topology(3, 1), seed=0)
        runtime = LegoSDNRuntime(net.controller, checkpoint_interval=0)
        with pytest.raises(ValueError):
            runtime.launch_app(CrashMarkerSwitch(name="app"))
