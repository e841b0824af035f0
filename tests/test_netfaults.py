"""The chaos fault plane: seeded perturbation, bursts, partitions,
corruption -- and its composition with channels and the runtime.
"""

from repro.core.appvisor.channel import UdpChannel
from repro.core.appvisor.rpc import Heartbeat
from repro.faults.netfaults import ChaosProfile, PartitionWindow, install
from repro.network.simulator import Simulator


def beat(seq):
    return Heartbeat(app_name="app", stub_time=0.0, last_seq_done=seq)


class TestProfileDeterminism:
    def test_same_seed_same_fault_schedule(self):
        def run(seed):
            profile = ChaosProfile(seed=seed, loss=0.2, duplicate=0.1,
                                   reorder=0.1, corrupt=0.1, jitter=0.001)
            fates = []
            for i in range(200):
                out = profile.perturb(i * 0.01, "stub", bytes([i % 256] * 20))
                fates.append((len(out), tuple(d for d, _ in out)))
            return fates

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_zero_probabilities_pass_through_untouched(self):
        profile = ChaosProfile(seed=0)
        data = b"payload"
        assert profile.perturb(0.0, "stub", data) == [(0.0, data)]
        assert profile.stats()["dropped"] == 0


class TestBurstLoss:
    def test_burst_drops_consecutive_datagrams(self):
        profile = ChaosProfile(seed=1, burst_loss=1.0, burst_len=4)
        fates = [profile.perturb(0.0, "stub", b"x") for _ in range(4)]
        assert all(f == [] for f in fates)
        assert profile.dropped == 4
        # The 5th datagram opens a *new* burst only by another roll --
        # with burst_loss=1.0 it always does, so keep dropping.
        assert profile.perturb(0.0, "stub", b"x") == []

    def test_burst_ends(self):
        profile = ChaosProfile(seed=1, burst_loss=0.0, burst_len=3)
        profile._burst_remaining = 2
        assert profile.perturb(0.0, "stub", b"x") == []
        assert profile.perturb(0.0, "stub", b"x") == []
        assert profile.perturb(0.0, "stub", b"x") == [(0.0, b"x")]


class TestCorruption:
    def test_corrupt_flips_exactly_one_bit(self):
        profile = ChaosProfile(seed=3, corrupt=1.0)
        data = bytes(range(32))
        [(_, out)] = profile.perturb(0.0, "stub", data)
        assert out != data
        assert len(out) == len(data)
        diff = [i for i in range(len(data)) if out[i] != data[i]]
        assert len(diff) == 1
        assert bin(out[diff[0]] ^ data[diff[0]]).count("1") == 1


class TestDuplication:
    def test_duplicate_yields_two_deliveries(self):
        profile = ChaosProfile(seed=0, duplicate=1.0)
        out = profile.perturb(0.0, "stub", b"x")
        assert len(out) == 2
        assert all(payload == b"x" for _, payload in out)
        assert profile.duplicated == 1


class TestPartitions:
    def test_window_cuts_both_directions_by_default(self):
        profile = ChaosProfile(seed=0)
        profile.partition(1.0, 0.5)
        assert profile.perturb(1.2, "stub", b"x") == []
        assert profile.perturb(1.2, "proxy", b"x") == []
        assert profile.perturb(1.6, "stub", b"x") == [(0.0, b"x")]
        assert profile.partition_drops == 2

    def test_one_sided_partition(self):
        profile = ChaosProfile(seed=0)
        profile.partition(0.0, 1.0, side="stub")
        assert profile.perturb(0.5, "stub", b"x") == []
        assert profile.perturb(0.5, "proxy", b"x") == [(0.0, b"x")]

    def test_window_dataclass(self):
        window = PartitionWindow(start=1.0, end=2.0, side=None)
        assert window.covers(1.5, "stub")
        assert not window.covers(2.0, "stub")


class TestChannelComposition:
    def test_install_on_plain_channel_drops_frames(self):
        sim = Simulator()
        channel = UdpChannel(sim)
        profile = install(channel, ChaosProfile(seed=0, loss=1.0))
        got = []
        channel.proxy_end.on_frame(got.append)
        channel.stub_end.send(beat(0))
        sim.run()
        assert got == []
        # The profile saw, and dropped, every transmission: the send
        # and each retry the budget allowed.
        assert profile.dropped == 1 + channel.retry_budget
        assert channel.datagrams_lost == profile.dropped
        assert channel.abandoned == 1

    def test_runtime_chaos_param_reaches_app_channels(self):
        from repro.apps import LearningSwitch
        from repro.controller.core import Controller
        from repro.core.runtime import LegoSDNRuntime

        sim = Simulator()
        controller = Controller(sim)
        profile = ChaosProfile(seed=0, loss=0.1)
        runtime = LegoSDNRuntime(controller, chaos=profile)
        runtime.launch_app(LearningSwitch())
        assert runtime.channels["learning_switch"].chaos is profile

    def test_runtime_chaos_callable_is_per_app(self):
        from repro.apps import LearningSwitch
        from repro.controller.core import Controller
        from repro.core.runtime import LegoSDNRuntime

        sim = Simulator()
        controller = Controller(sim)
        profile = ChaosProfile(seed=0)
        runtime = LegoSDNRuntime(
            controller,
            chaos=lambda name: profile if name == "learning_switch" else None)
        runtime.launch_app(LearningSwitch())
        assert runtime.channels["learning_switch"].chaos is profile
