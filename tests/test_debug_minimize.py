"""Minimal-causal-sequence search (repro.debug.minimize).

ddmin is exercised both as a pure algorithm (hypothesis properties
over synthetic planted triggers: whatever the surrounding noise, the
planted subset and nothing else comes back, deterministically) and
end-to-end on a recorded multi-event failure.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.debug import (
    MinimizedRepro,
    ddmin,
    minimize_failure,
    planted_armed_recording,
)
from repro.debug.minimize import MinimizationError
from repro.debug.replay import ReplayHarness
from repro.network.topology import linear_topology
from repro.stack import StackSpec


class TestDdminUnits:
    def test_single_culprit(self):
        minimal = ddmin(list(range(10)), lambda seq: 5 in seq)
        assert minimal == [5]

    def test_pair_of_culprits(self):
        wanted = {2, 7}
        minimal = ddmin(list(range(10)),
                        lambda seq: wanted <= set(seq))
        assert minimal == [2, 7]

    def test_order_is_preserved(self):
        items = ["d", "b", "a", "c"]
        minimal = ddmin(items, lambda seq: {"b", "c"} <= set(seq))
        assert minimal == ["b", "c"]

    def test_full_sequence_needed_returns_everything(self):
        items = list(range(5))
        minimal = ddmin(items, lambda seq: len(seq) == 5)
        assert minimal == items

    def test_rejects_non_failing_input(self):
        with pytest.raises(ValueError):
            ddmin(list(range(4)), lambda seq: False)

    def test_always_failing_minimizes_to_one(self):
        # ddmin is 1-minimal: it shrinks but never probes the empty
        # sequence, so a test that holds everywhere leaves one item.
        assert len(ddmin(list(range(6)), lambda seq: True)) == 1


# -- hypothesis: planted triggers always come back exactly ------------

@st.composite
def planted_case(draw, trigger_size):
    n = draw(st.integers(min_value=trigger_size, max_value=24))
    indices = draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                           min_size=trigger_size, max_size=trigger_size))
    return n, sorted(indices)


class TestDdminProperties:
    @settings(max_examples=60, deadline=None)
    @given(planted_case(trigger_size=2))
    def test_finds_planted_2_event_trigger(self, case):
        n, planted = case
        minimal = ddmin(list(range(n)),
                        lambda seq: set(planted) <= set(seq))
        assert minimal == planted

    @settings(max_examples=60, deadline=None)
    @given(planted_case(trigger_size=3))
    def test_finds_planted_3_event_trigger(self, case):
        n, planted = case
        minimal = ddmin(list(range(n)),
                        lambda seq: set(planted) <= set(seq))
        assert minimal == planted

    @settings(max_examples=30, deadline=None)
    @given(planted_case(trigger_size=3))
    def test_seed_stable_same_input_same_probes(self, case):
        # The search must be deterministic: same sequence, same test,
        # same result AND the same probe schedule (no hidden RNG).
        n, planted = case

        def run():
            probes = []

            def test(seq):
                probes.append(tuple(seq))
                return set(planted) <= set(seq)

            return ddmin(list(range(n)), test), probes

        first_minimal, first_probes = run()
        second_minimal, second_probes = run()
        assert first_minimal == second_minimal == planted
        assert first_probes == second_probes


# -- end-to-end on a recorded failure ---------------------------------

class TestMinimizeFailure:
    def test_planted_crash_minimizes_to_exactly_three(self):
        harness, recording = planted_armed_recording(seed=0, loss=0.2)
        assert len(recording.events) > 3  # noise actually recorded
        repro = minimize_failure(recording, harness)
        assert isinstance(repro, MinimizedRepro)
        assert len(repro) == 3
        markers = []
        for captured in repro.minimal_events:
            packet = getattr(captured.event, "packet", None)
            markers.append(getattr(packet, "payload", ""))
        assert markers == ["ARM-A", "ARM-B", "TRIGGER-C"]
        # Attached to the ticket as a JSON-clean document.
        doc = recording.ticket.minimized
        assert doc is not None
        assert doc == json.loads(json.dumps(doc))
        assert doc["minimized_length"] == 3
        assert doc["original_length"] == len(recording.events)
        assert [s["step"] for s in doc["steps"]] == [0, 1, 2]

    def test_clean_recording_raises(self):
        harness = ReplayHarness(StackSpec(topology=linear_topology(3, 1)))
        recording = harness.record([], until=harness.base + 0.2)
        assert not recording.signature.failed
        with pytest.raises(MinimizationError):
            minimize_failure(recording, harness)
