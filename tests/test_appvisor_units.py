"""Unit tests for AppVisor pieces: RPC frames, channel, sandbox."""

import pytest

from repro.apps import LearningSwitch
from repro.controller.api import HostEntry, TopoView
from repro.core.appvisor import rpc
from repro.core.appvisor.channel import HEADER_SIZE, UdpChannel
from repro.core.appvisor.isolation import (
    ProcessState,
    ResourceLimitExceeded,
    ResourceLimits,
    SandboxProcess,
)
from repro.faults import crash_on, BugKind
from repro.faults.netfaults import ChaosProfile
from repro.network.packet import tcp_packet
from repro.network.simulator import Simulator
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketIn


def pktin(payload=""):
    return PacketIn(dpid=1, in_port=1,
                    packet=tcp_packet("a", "b", "1.1.1.1", "2.2.2.2",
                                      payload=payload))


class TestRPCFrames:
    def roundtrip(self, frame):
        decoded = rpc.decode_frame(rpc.encode_frame(frame))
        assert decoded == frame
        return decoded

    def test_register(self):
        self.roundtrip(rpc.Register(app_name="x",
                                    subscriptions=("PacketIn", "PortStatus")))

    def test_event_deliver_with_message(self):
        self.roundtrip(rpc.EventDeliver(app_name="x", seq=3, event=pktin("p")))

    def test_app_output(self):
        self.roundtrip(rpc.AppOutput(app_name="x", seq=1, index=0, dpid=2,
                                     message=FlowMod(match=Match(eth_dst="d"))))

    def test_complete_with_counters_and_logs(self):
        self.roundtrip(rpc.EventComplete(
            app_name="x", seq=9, output_count=2,
            counter_deltas=(("flows", 3),), log_lines=("a", "b")))

    def test_crash_report(self):
        self.roundtrip(rpc.CrashReport(app_name="x", seq=1,
                                       error="E: boom", traceback_text="tb"))

    def test_heartbeat_restore_ack(self):
        self.roundtrip(rpc.Heartbeat(app_name="x", stub_time=1.5,
                                     last_seq_done=4))
        self.roundtrip(rpc.RestoreCommand(app_name="x", offending_seq=4))
        self.roundtrip(rpc.RestoreAck(app_name="x", restored_before_seq=3,
                                      replayed_events=2, restore_cost=0.02))

    def test_context_push(self):
        self.roundtrip(rpc.ContextPush(
            topo=TopoView(switches=(1, 2), links=((1, 1, 2, 1),), version=3),
            hosts=(HostEntry(mac="m", ip="i", dpid=1, port=2),)))


class TestUdpChannel:
    def test_frames_delivered_after_delay(self):
        sim = Simulator()
        channel = UdpChannel(sim, base_delay=0.002, per_byte_delay=0.0)
        arrived = []
        channel.stub_end.on_frame(lambda f: arrived.append(sim.now))
        channel.proxy_end.send(rpc.Heartbeat(app_name="x", stub_time=0,
                                             last_seq_done=0))
        assert arrived == []
        sim.run()
        assert arrived == [pytest.approx(0.002)]
        # The ack pays the same one-way delay back, and settles the
        # send before its retransmit timer ever fires.
        assert sim.now == pytest.approx(0.004)
        assert (channel.acks_sent, channel.retransmits) == (1, 0)

    def test_per_byte_latency(self):
        sim = Simulator()
        channel = UdpChannel(sim, base_delay=0.0, per_byte_delay=1e-5)
        arrived = []
        channel.proxy_end.on_frame(lambda f: arrived.append(sim.now))
        channel.stub_end.send(rpc.CrashReport(app_name="x", seq=1,
                                              error="e" * 100))
        sim.run()
        nbytes = HEADER_SIZE + channel.stub_end.bytes_sent
        assert nbytes > 100
        assert arrived == [pytest.approx(nbytes * 1e-5)]
        assert arrived[0] == pytest.approx(channel.delay_for(nbytes))

    def test_fifo_ordering_despite_sizes(self):
        """A small frame sent after a big one must not overtake it."""
        sim = Simulator()
        channel = UdpChannel(sim, base_delay=0.0, per_byte_delay=1e-5)
        got = []
        channel.proxy_end.on_frame(
            lambda f: got.append((type(f).__name__, sim.now)))
        channel.stub_end.send(rpc.CrashReport(app_name="x", seq=1,
                                              error="e" * 500))
        channel.stub_end.send(rpc.Heartbeat(app_name="x", stub_time=0,
                                            last_seq_done=0))
        sim.run()
        assert [name for name, _ in got] == ["CrashReport", "Heartbeat"]
        # The order is the wire's (one datagram at a time at line rate),
        # not the reorder buffer's: the small one arrived later, and
        # nothing was ever retransmitted or duplicated.
        assert got[0][1] < got[1][1]
        assert channel.retransmits == channel.dup_datagrams_dropped == 0

    def test_loss(self):
        sim = Simulator()
        channel = UdpChannel(sim, chaos=ChaosProfile(loss=1.0))
        got, faults = [], []
        channel.stub_end.on_frame(got.append)
        channel.on_fault.append(faults.append)
        # send() has no return value: losses show up in the channel's
        # counters and, once the retry budget is spent, as a
        # ChannelFault -- never as an ignored boolean.
        channel.proxy_end.send(
            rpc.Heartbeat(app_name="x", stub_time=0, last_seq_done=0))
        sim.run()
        assert got == []
        assert channel.datagrams_lost == 1 + channel.retry_budget
        assert [(f.side, f.seq) for f in faults] == [("proxy", 1)]

    def test_byte_accounting(self):
        sim = Simulator()
        channel = UdpChannel(sim)
        channel.proxy_end.send(rpc.Heartbeat(app_name="x", stub_time=0,
                                             last_seq_done=0))
        assert channel.proxy_end.bytes_sent > 0
        # The wire carries the datagram header on top of the payload.
        data = HEADER_SIZE + channel.proxy_end.bytes_sent
        assert channel.bytes_carried == data
        # The ack is wire bytes too (a bare header), but nobody's payload.
        sim.run()
        assert channel.bytes_carried == data + HEADER_SIZE
        assert channel.stub_end.bytes_sent == 0
        assert channel.stub_end.bytes_recv == channel.proxy_end.bytes_sent


class TestSandbox:
    def test_ok_delivery(self):
        app = LearningSwitch()

        class NullAPI:
            def emit(self, dpid, msg):
                pass

        app.api = NullAPI()
        sandbox = SandboxProcess(app)
        outcome = sandbox.deliver(pktin())
        assert outcome.ok
        assert sandbox.events_delivered == 1

    def test_crash_contained(self):
        app = crash_on(LearningSwitch(), payload_marker="BOOM")
        sandbox = SandboxProcess(app)
        outcome = sandbox.deliver(pktin("BOOM"))
        assert outcome.status == "crashed"
        assert "InjectedBugError" in outcome.error
        assert "Traceback" in outcome.traceback_text
        assert sandbox.state is ProcessState.CRASHED

    def test_traceback_is_the_apps_and_names_no_checkout(self):
        """The text ships in a CrashReport, so it is simulation input:
        frames from the app's handler down, paths relative to the
        package -- whatever wraps the handler, wherever the tree is."""
        import functools
        import os

        class Fragile(LearningSwitch):
            name = "fragile"

            def on_packet_in(self, event):
                try:
                    {}["table"]
                except KeyError as exc:
                    raise RuntimeError("lookup failed") from exc

        plain = SandboxProcess(Fragile()).deliver(pktin()).traceback_text
        lines = plain.splitlines()
        assert lines[0] == "Traceback (most recent call last):"
        assert "KeyError: 'table'" in plain     # the cause rides along
        assert lines[-1] == "RuntimeError: lookup failed"
        files = [line.split('"')[1] for line in lines
                 if line.startswith("  File ")]
        assert files and not any(os.path.isabs(f) for f in files)
        assert os.sep + "root" not in plain and __file__ not in plain
        assert "repro/apps/base.py" in files     # SDNApp.handle ...
        assert "isolation.py" not in plain        # ... and nothing above
        assert ", in handle" in plain
        # A tool wrapping the handler (wallbench's tracer does) adds a
        # frame of its own to the stack; not to the text.
        original = LearningSwitch.handle

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return original(*args, **kwargs)

        LearningSwitch.handle = traced
        try:
            wrapped = SandboxProcess(Fragile()).deliver(pktin())
        finally:
            LearningSwitch.handle = original
        assert wrapped.traceback_text == plain

    def test_dead_process_rejects_events(self):
        app = crash_on(LearningSwitch(), payload_marker="BOOM")
        sandbox = SandboxProcess(app)
        sandbox.deliver(pktin("BOOM"))
        outcome = sandbox.deliver(pktin("fine"))
        assert outcome.status == "dead"

    def test_hang_is_silent_state(self):
        app = crash_on(LearningSwitch(), payload_marker="H",
                       kind=BugKind.HANG)
        sandbox = SandboxProcess(app)
        outcome = sandbox.deliver(pktin("H"))
        assert outcome.status == "hung"
        assert sandbox.state is ProcessState.HUNG
        assert not sandbox.alive

    def test_revive(self):
        app = crash_on(LearningSwitch(), payload_marker="BOOM")
        sandbox = SandboxProcess(app)
        sandbox.deliver(pktin("BOOM"))
        sandbox.revive()
        assert sandbox.alive

    def test_max_events_limit(self):
        app = LearningSwitch()

        class NullAPI:
            def emit(self, dpid, msg):
                pass

        app.api = NullAPI()
        sandbox = SandboxProcess(app, ResourceLimits(max_events=2))
        assert sandbox.deliver(pktin()).ok
        assert sandbox.deliver(pktin()).ok
        outcome = sandbox.deliver(pktin())
        assert outcome.status == "crashed"
        assert "resource limit" in outcome.error

    def test_state_size_limit(self):
        sandbox = SandboxProcess(LearningSwitch(),
                                 ResourceLimits(max_state_bytes=10))
        with pytest.raises(ResourceLimitExceeded):
            sandbox.check_state_size(100)
        assert sandbox.state is ProcessState.CRASHED
