"""Tests for the STS-style minimal causal sequence search (§5)."""

from functools import partial

import pytest

from repro.apps.base import SDNApp
from repro.core.crashpad.checkpoint import CheckpointStore
from repro.core.crashpad.sts import (
    CausalSequenceResult,
    find_minimal_causal_sequence,
    pick_rollback_checkpoint,
)
from repro.network.packet import tcp_packet
from repro.openflow.messages import PacketIn


def pktin(payload):
    return PacketIn(dpid=1, in_port=1,
                    packet=tcp_packet("a", "b", "1.1.1.1", "2.2.2.2",
                                      payload=payload))


class AccumulatorApp(SDNApp):
    """Crashes when it has seen the events in ``triggers`` (any order)
    and then processes the event carrying ``detonator``.

    Models a cumulative, multi-event bug: no single event is fatal.
    """

    name = "accumulator"
    subscriptions = ("PacketIn",)

    def __init__(self, triggers=("A", "B"), detonator="GO"):
        super().__init__()
        self.triggers = tuple(triggers)
        self.detonator = detonator
        self.seen = []

    def on_packet_in(self, event):
        payload = event.packet.payload
        for trigger in self.triggers:
            if trigger in payload and trigger not in self.seen:
                self.seen.append(trigger)
        if self.detonator in payload and set(self.triggers) <= set(self.seen):
            raise RuntimeError("cumulative state bug detonated")


def loader_of(app):
    """The app's state as STS takes it: a loader of a checkpoint's
    state, fresh on every call."""
    store = CheckpointStore()
    return partial(store.state, store.take(app, before_seq=1, now=0.0))


class TestMinimalCausalSequence:
    def test_single_event_fast_path(self):
        class InstaCrash(SDNApp):
            subscriptions = ("PacketIn",)

            def on_packet_in(self, event):
                raise RuntimeError("boom")

        base = InstaCrash()
        result = find_minimal_causal_sequence(
            InstaCrash, loader_of(base),
            history=[(1, pktin("x")), (2, pktin("y"))],
            offending=(3, pktin("z")),
        )
        assert result.single_event
        assert result.culprit_seqs == [3]

    def test_minimises_to_exact_trigger_set(self):
        base = AccumulatorApp(triggers=("A", "B"), detonator="GO")
        history = [
            (1, pktin("noise-1")),
            (2, pktin("A")),
            (3, pktin("noise-2")),
            (4, pktin("noise-3")),
            (5, pktin("B")),
            (6, pktin("noise-4")),
        ]
        result = find_minimal_causal_sequence(
            lambda: AccumulatorApp(("A", "B"), "GO"), loader_of(base),
            history=history, offending=(7, pktin("GO")),
        )
        assert not result.single_event
        payloads = [e.packet.payload for _, e in result.minimal_events]
        assert payloads == ["A", "B", "GO"]
        assert result.probe_runs > 1

    def test_order_preserved_in_result(self):
        base = AccumulatorApp(triggers=("B", "A"), detonator="GO")
        history = [(1, pktin("B")), (2, pktin("A"))]
        result = find_minimal_causal_sequence(
            lambda: AccumulatorApp(("B", "A"), "GO"), loader_of(base),
            history=history, offending=(3, pktin("GO")),
        )
        assert [s for s, _ in result.minimal_events] == [1, 2, 3]

    def test_nondeterministic_reports_full_history(self):
        """If the full history doesn't reproduce, minimisation bails."""

        class NeverCrash(SDNApp):
            subscriptions = ("PacketIn",)

        base = NeverCrash()
        history = [(1, pktin("a")), (2, pktin("b"))]
        result = find_minimal_causal_sequence(
            NeverCrash, loader_of(base),
            history=history, offending=(3, pktin("c")),
        )
        assert len(result.minimal_events) == 3  # whole history + offending

    def test_probe_budget_respected(self):
        base = AccumulatorApp(triggers=("A", "B"), detonator="GO")
        history = [(i, pktin("A" if i == 3 else ("B" if i == 9 else "n")))
                   for i in range(1, 15)]
        result = find_minimal_causal_sequence(
            lambda: AccumulatorApp(("A", "B"), "GO"), loader_of(base),
            history=history, offending=(15, pktin("GO")),
            max_probes=5,
        )
        assert result.probe_runs <= 6  # budget + the initial checks

    @pytest.mark.parametrize("max_probes", [1, 2, 3, 5, 8])
    def test_probe_budget_is_a_bound_not_a_hint(self, max_probes):
        """Regression: the budget was tested once per ddmin round, so a
        round in flight overshot it (8 probes under ``max_probes=5``
        here, 4 under 3).  Every probe is a full replay on the stub."""
        triggers = ("A", "B", "C")
        payloads = {1: "A", 6: "B", 11: "C"}
        history = [(i, pktin(payloads.get(i, "n"))) for i in range(16)]
        replays = []

        class Counted(AccumulatorApp):
            def set_state(self, state):
                replays.append(1)
                super().set_state(state)

        result = find_minimal_causal_sequence(
            lambda: Counted(triggers, "GO"),
            loader_of(AccumulatorApp(triggers, "GO")),
            history=history, offending=(16, pktin("GO")),
            max_probes=max_probes,
        )
        assert result.probe_runs == len(replays) <= max_probes
        # Whatever the budget cut short, the answer still reproduces.
        assert {1, 6, 11, 16} <= set(result.culprit_seqs)

    def test_probes_do_not_share_state(self):
        """A replica that mutates its state *in place* (appends to a
        list inside a dict-valued key) must not leak that into the next
        probe: every probe loads a fresh copy of the checkpoint."""
        starts = []

        class InPlace(SDNApp):
            name = "inplace"
            subscriptions = ("PacketIn",)

            def __init__(self):
                super().__init__()
                self.table = {"seen": []}

            def set_state(self, state):
                super().set_state(state)
                starts.append(list(self.table["seen"]))

            def on_packet_in(self, event):
                self.table["seen"].append(event.packet.payload)
                if self.table["seen"][-3:] == ["A", "B", "GO"]:
                    raise RuntimeError("in-place state bug")

        history = [(1, pktin("n")), (2, pktin("A")), (3, pktin("B"))]
        result = find_minimal_causal_sequence(
            InPlace, loader_of(InPlace()),
            history=history, offending=(4, pktin("GO")),
        )
        assert result.culprit_seqs == [2, 3, 4]
        assert len(starts) == result.probe_runs > 2
        assert all(start == [] for start in starts)

    def test_search_never_mutates_live_state(self):
        base = AccumulatorApp(triggers=("A",), detonator="GO")
        load = loader_of(base)
        find_minimal_causal_sequence(
            lambda: AccumulatorApp(("A",), "GO"), load,
            history=[(1, pktin("A"))], offending=(2, pktin("GO")),
        )
        assert base.seen == []  # the live app was untouched


class TestRollbackCheckpointSelection:
    def _checkpoints_and_journal(self):
        """Checkpoints straddling the poison event (seq 4, 'A')."""
        clean = AccumulatorApp(triggers=("A",), detonator="GO")
        poisoned = AccumulatorApp(triggers=("A",), detonator="GO")
        poisoned.seen = ["A"]
        checkpoints = [(1, loader_of(clean)), (6, loader_of(poisoned))]
        journal = [
            (1, pktin("n1")), (2, pktin("n2")), (3, pktin("n3")),
            (4, pktin("A")), (5, pktin("n4")), (6, pktin("n5")),
            (7, pktin("n6")),
        ]
        return checkpoints, journal

    def test_skips_poisoned_checkpoint(self):
        checkpoints, journal = self._checkpoints_and_journal()
        # The newest checkpoint (before_seq=6) carries the poison in
        # its *state*: its replay is clean, but the offending canary
        # (GO) still detonates.  Only the clean checkpoint
        # (before_seq=1), with the poisoning event (seq 4) excluded
        # from replay, survives the canary.
        safe = pick_rollback_checkpoint(
            lambda: AccumulatorApp(("A",), "GO"),
            checkpoints, journal,
            offending=(8, pktin("GO")), culprit_seqs=[4],
        )
        assert safe == 1

    def test_poisoned_state_detected_only_via_canary(self):
        """Without excluding the culprit, even the clean checkpoint
        re-poisons itself during replay and fails the canary."""
        checkpoints, journal = self._checkpoints_and_journal()
        safe = pick_rollback_checkpoint(
            lambda: AccumulatorApp(("A",), "GO"),
            checkpoints, journal,
            offending=(8, pktin("GO")), culprit_seqs=[],
        )
        assert safe is None

    def test_crashing_replay_falls_back_to_older_checkpoint(self):
        class ReplayCrash(SDNApp):
            """Crashes on 'X' deterministically (single-event bug)."""

            subscriptions = ("PacketIn",)

            def on_packet_in(self, event):
                if "X" in event.packet.payload:
                    raise RuntimeError("boom")

        clean = ReplayCrash()
        checkpoints = [(1, loader_of(clean)), (3, loader_of(clean))]
        journal = [(1, pktin("n")), (2, pktin("n")),
                   (3, pktin("X")), (4, pktin("n"))]
        # Culprit seq 3 excluded: both checkpoints replay clean; the
        # newest wins.
        assert pick_rollback_checkpoint(
            ReplayCrash, checkpoints, journal,
            offending=(5, pktin("n")), culprit_seqs=[3]) == 3
        # Culprit NOT excluded and only the old checkpoint available:
        # its replay hits the crashing event -> nothing is safe.
        assert pick_rollback_checkpoint(
            ReplayCrash, [(1, loader_of(clean))], journal,
            offending=(5, pktin("n")), culprit_seqs=[]) is None

    def test_none_when_everything_poisoned(self):
        class AlwaysCrash(SDNApp):
            subscriptions = ("PacketIn",)

            def on_packet_in(self, event):
                raise RuntimeError("always")

        base = AlwaysCrash()
        assert pick_rollback_checkpoint(
            AlwaysCrash, [(1, loader_of(base))],
            [(1, pktin("n"))], offending=(2, pktin("n")),
            culprit_seqs=[]) is None
