"""Unit tests for the discrete-event simulator."""

import pytest

from repro.network.simulator import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.3, fired.append, "c")
        sim.schedule(0.1, fired.append, "a")
        sim.schedule(0.2, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_tie_breaking(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, fired.append, name)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_clamped_to_now(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule(-5.0, lambda: None))
        sim.run()
        assert sim.now == 1.0

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(0.5, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 1.5


class TestCancel:
    def test_cancel_pending(self):
        sim = Simulator()
        fired = []
        eid = sim.schedule(1.0, fired.append, "x")
        assert sim.cancel(eid)
        sim.run()
        assert fired == []

    def test_cancel_fired_returns_false(self):
        sim = Simulator()
        eid = sim.schedule(0.1, lambda: None)
        sim.run()
        assert not sim.cancel(eid)

    def test_pending_count(self):
        sim = Simulator()
        eid = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        sim.cancel(eid)
        assert sim.pending == 1


class TestRunBounds:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "b")
        sim.run_until(2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run_until(4.0)
        assert fired == ["a", "b"]

    def test_run_for_relative(self):
        sim = Simulator()
        sim.run_for(1.5)
        assert sim.now == 1.5
        sim.run_for(1.0)
        assert sim.now == 2.5

    def test_run_until_boundary_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "edge")
        sim.run_until(2.0)
        assert fired == ["edge"]

    def test_max_events_backstop(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        processed = sim.run(max_events=100)
        assert processed == 100

    def test_run_until_honours_max_events(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, fired.append, name)
        assert sim.run_until(2.0, max_events=3) == 3
        assert fired == ["a", "b", "c"]
        # The clock still ends at the boundary; the rest stay queued.
        assert sim.now == 2.0 and sim.pending == 2
        assert sim.run_until(2.0) == 2
        assert fired == list("abcde")

    def test_cancelled_entries_are_skipped_and_not_counted(self):
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(0.5, fired.append, "x") for _ in range(3)]
        sim.schedule(1.0, fired.append, "kept")
        for eid in doomed:
            sim.cancel(eid)
        # Tombstones neither run, nor count, nor eat the event budget.
        assert sim.run_until(2.0, max_events=1) == 1
        assert fired == ["kept"]
        assert sim.events_processed == 1 and sim.pending == 0

    def test_callback_cancels_a_same_instant_sibling(self):
        sim = Simulator()
        fired = []
        later = []

        def first():
            fired.append("first")
            assert sim.cancel(later[0])

        sim.schedule(1.0, first)
        later.append(sim.schedule(1.0, fired.append, "sibling"))
        sim.schedule(1.0, fired.append, "third")
        assert sim.run() == 2
        assert fired == ["first", "third"]

    def test_an_event_cannot_cancel_itself_once_running(self):
        sim = Simulator()
        seen = []
        eid = sim.schedule(1.0, lambda: seen.append(sim.cancel(eid)))
        sim.run()
        assert seen == [False] and sim.events_processed == 1


class TestEvery:
    def test_periodic_firing(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_stop_halts_periodic(self):
        sim = Simulator()
        ticks = []
        stop = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(2.5)
        stop()
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0]


class TestDeterminism:
    def test_rng_seeded(self):
        a = Simulator(seed=7).rng.random()
        b = Simulator(seed=7).rng.random()
        c = Simulator(seed=8).rng.random()
        assert a == b != c

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_processed == 5
