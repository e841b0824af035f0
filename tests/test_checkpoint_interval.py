"""Interval (fuzzy) checkpoints, dirty-key tracking, deferred encoding.

The contracts under test:

- **Equivalence** (the property the whole feature rests on): for every
  crash offset within a checkpoint interval, restoring the last
  durable image and replaying the journal tail reconstructs exactly
  the state that per-event checkpointing would have reconstructed.
- **Durability** (the deferred-encoding hazard): a crash while a
  capture is still pending -- taken but never drained by a heartbeat
  -- must recover from the previous *durable* image, dropping the
  pending capture instead of trusting it.
- The stub's cadence rules (interval, tail bound) and the store-level
  dirty-key bookkeeping those two behaviours rely on.
"""

import pytest

from repro.apps import LearningSwitch
from repro.core.appvisor.isolation import ResourceLimits
from repro.core.appvisor.stub import AppVisorStub
from repro.core.crashpad.checkpoint import (
    DEDUP,
    DELTA,
    FULL,
    CheckpointStore,
    decode_state,
)
from repro.core.runtime import LegoSDNRuntime
from repro.faults import crash_on
from repro.network.net import Network
from repro.network.packet import tcp_packet
from repro.network.topology import linear_topology
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
    """The all-dirty reference: with no version map every take encodes
    every key whole, synchronously -- no skip, no patch, no deferral."""

    def enable_dirty_tracking(self):
        pass


def run_workload(interval, crash_offset, probes=10, limits=None,
                 app=CrashMarkerSwitch):
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
    runtime.launch_app(instance, limits=limits)
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
        patches, skipped keys and deferred takes under the wrapper
        recover exactly what whole-state per-event images recover."""
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
            assert ref_store.encodes_skipped == 0 == ref_store.deferred_takes
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


class TestDeferredCrashDurability:
    """Regression: a crash before the heartbeat drains a deferred
    capture recovers from the previous durable image."""

    def test_crash_with_pending_capture_recovers_from_durable_image(self):
        net = Network(linear_topology(3, 1), seed=0)
        runtime = LegoSDNRuntime(net.controller, checkpoint_interval=1)
        runtime.launch_app(CrashMarkerSwitch(name="app"))
        net.start()
        net.run_for(1.0)
        stub = runtime.stubs["app"]
        # Model the race the regression is about: the crash arrives
        # inside the window before the next heartbeat drain runs.
        # (Heartbeats must keep flowing -- the failure detector reads
        # silence as a hang -- so only the drain hook is disabled.)
        stub._drain_checkpoints = lambda: None
        for i in range(4):
            inject_marker_packet(net, "h1", "h3", f"probe-{i}")
            net.run_for(0.4)
        assert stub.checkpoints.stats()["pending"] > 0
        inject_marker_packet(net, "h1", "h3", MARKER)
        net.run_for(3.0)
        stats = runtime.stats()["app"]
        assert stats["crashes"] >= 1
        assert stats["recoveries"] == stats["crashes"]
        # The pending (never-drained) captures died with the process.
        assert stub.checkpoints.stats()["pending_dropped"] > 0
        # ... and the recovered state still matches a run that never
        # deferred anything: a state-size cap (far above what the app
        # holds) makes every take synchronous, to measure the image.
        reference, ref_runtime = run_workload(
            1, crash_offset=3, probes=4,
            limits=ResourceLimits(max_state_bytes=1 << 30))
        ref_stats = ref_runtime.stubs["app"].checkpoints.stats()
        assert ref_stats["deferred_takes"] == 0 < ref_stats["taken"]
        assert stub.checkpoints.stats()["deferred_takes"] > 0
        assert stub.app.get_state() == reference

    def test_promotion_flushes_pending_captures(self):
        net = Network(linear_topology(2, 1), seed=0)
        runtime = LegoSDNRuntime(net.controller)
        runtime.launch_app(LearningSwitch(name="app"))
        net.start()
        net.run_for(1.0)
        stub = runtime.stubs["app"]
        stub._drain_checkpoints = lambda: None
        for i in range(3):
            inject_marker_packet(net, "h1", "h2", f"p-{i}")
            net.run_for(0.3)
        assert stub.checkpoints.stats()["pending"] > 0
        # Re-attach (what failover promotion does) is a durability
        # point: every pending capture must be encoded first.
        stub.reattach(stub.endpoint)
        assert stub.checkpoints.stats()["pending"] == 0
        assert stub.checkpoints.checkpoint_lag() == 0


class DictApp:
    name = "dictapp"

    def __init__(self):
        self.state = {"a": 0, "b": {}}
        self.versions = {"a": 0, "b": 0}

    def get_state(self):
        return dict(self.state)

    def set_state(self, state):
        self.state = dict(state)
        self.versions = {k: 0 for k in self.state}

    def state_versions(self):
        return dict(self.versions)

    def touch(self, key, value):
        self.state[key] = value
        self.versions[key] = self.versions.get(key, 0) + 1


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
        # drop_pending() invalidates the baseline; the next take must
        # re-encode everything rather than trust stale versions.
        app = DictApp()
        store = CheckpointStore(full_every=8)
        store.take(app, before_seq=1, now=0.0)
        app.touch("a", 1)
        cp = store.take(app, before_seq=2, now=1.0, defer=True)
        assert cp.pending
        assert store.drop_pending() == 1
        app.touch("a", 2)
        after = store.take(app, before_seq=3, now=2.0)
        assert not after.pending
        assert (decode_state(store.buffers(after))
                == {"a": 2, "b": {}})

    def test_deferred_roundtrip_through_drain(self):
        app = DictApp()
        store = CheckpointStore(full_every=8)
        store.take(app, before_seq=1, now=0.0)
        references = []
        for seq in range(2, 6):
            app.touch("a", seq)
            cp = store.take(app, before_seq=seq, now=float(seq),
                            defer=True)
            assert cp.pending
            references.append((cp, app.get_state()))
        entries, cost = store.drain()
        assert len(entries) == 4 and cost > 0
        assert store.stats()["pending"] == 0
        for cp, reference in references:
            assert not cp.pending
            assert decode_state(store.buffers(cp)) == reference

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sync_and_deferred_takes_leave_the_same_entries(self, seed):
        """One take path: for a seeded sequence of mutations (touches,
        untouched repeats, a key added, one removed), ``take()`` and
        ``take(defer=True)`` + ``flush()`` leave entries equal in kind,
        image and size, and in total modelled cost (event path +
        background) once the deferred capture charge is set aside."""
        import random

        def run(defer):
            rng = random.Random(seed)
            app = DictApp()
            store = CheckpointStore(keep=64, full_every=4)
            store.take(app, before_seq=1, now=0.0)
            dirty = [None]              # the first take is never deferred
            for seq in range(2, 30):
                before = app.state_versions()
                roll = rng.random()
                if roll < 0.5:
                    app.touch(rng.choice("ab"), {"v": rng.randrange(99)})
                elif roll < 0.6:
                    app.touch(f"k{seq}", seq)
                elif roll < 0.7 and len(app.state) > 2:
                    gone = min(k for k in app.state if k[0] == "k")
                    del app.state[gone], app.versions[gone]
                dirty.append(sum(before.get(k) != v
                                 for k, v in app.versions.items()))
                store.take(app, before_seq=seq, now=float(seq), defer=defer)
                if rng.random() < 0.3:
                    store.flush()
            store.flush()
            return store, dirty

        (sync, dirty), (deferred, _) = run(False), run(True)
        assert deferred.deferred_takes == 28 and sync.deferred_takes == 0
        assert {c.kind for c in sync.history()} == {FULL, DELTA, DEDUP}
        for a, b, n in zip(sync.history(), deferred.history(), dirty):
            assert (a.kind, a.size, a.state_size, sync.buffers(a)) \
                == (b.kind, b.size, b.state_size, deferred.buffers(b))
            assert a.encode_cost == 0.0
            capture = 0.0 if n is None else (
                deferred.capture_base_cost
                + n * deferred.capture_per_key_cost)
            assert b.cost + b.encode_cost - capture == pytest.approx(
                a.cost, rel=1e-12)
        assert deferred.total_cost == pytest.approx(
            sum(c.cost + c.encode_cost for c in deferred.history()))

    def test_flush_is_a_durability_barrier(self):
        app = DictApp()
        store = CheckpointStore(full_every=8)
        store.take(app, before_seq=1, now=0.0)
        app.touch("a", 1)
        store.take(app, before_seq=2, now=1.0, defer=True)
        assert store.latest_durable().before_seq == 1
        store.flush()
        assert store.latest_durable().before_seq == 2
        assert store.checkpoint_lag() == 0


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
        forced take is a durable image, not a capture waiting on a
        drain that (here) never runs."""
        net = Network(linear_topology(3, 1), seed=0)
        runtime = LegoSDNRuntime(net.controller, checkpoint_interval=1000)
        stub = runtime.launch_app(CrashMarkerSwitch(name="app"))
        stub._drain_checkpoints = lambda: None
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
        assert not forced.pending
        assert stub.checkpoints.latest_durable() is forced
        assert stub.checkpoints.stats()["deferred_takes"] == 0

    def test_validation(self):
        net = Network(linear_topology(3, 1), seed=0)
        runtime = LegoSDNRuntime(net.controller, checkpoint_interval=0)
        with pytest.raises(ValueError):
            runtime.launch_app(CrashMarkerSwitch(name="app"))
