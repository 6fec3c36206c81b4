"""Simulator kernel: clock, scheduling rules, run-loop stop conditions."""

from __future__ import annotations

import pytest

from repro.sim.kernel import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: sim.stop())
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_callbacks_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.5]

    def test_schedule_from_callback(self):
        sim = Simulator()
        fired = []

        def first():
            sim.schedule_after(1.0, lambda: fired.append(sim.now))

        sim.schedule_at(1.0, first)
        sim.run()
        assert fired == [2.0]

    def test_plain_scheduling_returns_no_handle(self):
        sim = Simulator()
        assert sim.schedule_at(1.0, lambda: None) is None
        assert sim.schedule_after(1.0, lambda: None) is None

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at_cancellable(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert sim.events_skipped == 1

    def test_cancellable_after_delay(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule_after_cancellable(1.0, lambda: fired.append("keep"))
        drop = sim.schedule_after_cancellable(2.0, lambda: fired.append("drop"))
        drop.cancel()
        sim.run()
        assert fired == ["keep"]
        assert not keep.cancelled

    def test_cancellable_rejects_past_and_negative(self):
        sim = Simulator()
        sim.schedule_at(5.0, sim.stop)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at_cancellable(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_after_cancellable(-1.0, lambda: None)


class TestRunLoop:
    def test_until_clamps_clock_and_keeps_event(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10.0, lambda: fired.append("late"))
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert fired == []
        sim.run(until=20.0)
        assert fired == ["late"]

    def test_until_beyond_queue_advances_clock(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_events(self):
        sim = Simulator()
        for t in range(10):
            sim.schedule_at(float(t), lambda: None)
        sim.run(max_events=3)
        assert sim.events_fired == 3

    def test_max_events_budget_is_per_invocation(self):
        # Regression: the budget used to be checked against the
        # *cumulative* events_fired counter, so a second run() on the
        # same simulator stopped immediately.
        sim = Simulator()
        for t in range(10):
            sim.schedule_at(float(t), lambda: None)
        sim.run(max_events=3)
        sim.run(max_events=3)
        assert sim.events_fired == 6
        sim.run(max_events=None)
        assert sim.events_fired == 10

    def test_events_fired_is_live_during_the_run(self):
        # stop_when predicates may read the public counter mid-run.
        sim = Simulator()
        for t in range(10):
            sim.schedule_at(float(t), lambda: None)
        sim.run(stop_when=lambda: sim.events_fired >= 4)
        assert sim.events_fired == 4

    def test_stop_when_predicate(self):
        sim = Simulator()
        counter = {"n": 0}

        def bump():
            counter["n"] += 1

        for t in range(10):
            sim.schedule_at(float(t), bump)
        sim.run(stop_when=lambda: counter["n"] >= 4)
        assert counter["n"] == 4

    def test_stop_method(self):
        sim = Simulator()
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.schedule_at(1.0, stopper)
        sim.schedule_at(2.0, lambda: fired.append("never"))
        sim.run()
        assert fired == ["stop"]

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule_at(1.0, reenter)
        sim.run()

    def test_event_kind_counting(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None, kind="step")
        sim.schedule_at(2.0, lambda: None, kind="step")
        sim.schedule_at(3.0, lambda: None, kind="timer")
        sim.run()
        assert sim.fired_by_kind == {"step": 2, "timer": 1}

    def test_trace_events_disabled_skips_kind_accounting(self):
        sim = Simulator(trace_events=False)
        assert sim.trace_events is False
        sim.schedule_at(1.0, lambda: None, kind="step")
        sim.schedule_at(2.0, lambda: None, kind="timer")
        sim.run()
        assert sim.events_fired == 2  # totals still maintained
        assert sim.fired_by_kind == {}  # per-kind work skipped entirely

    def test_trace_events_default_on(self):
        assert Simulator().trace_events is True

    def test_pending_counts_queue(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending() == 2

    def test_queued_callbacks_cover_heap_and_collision_buckets(self):
        sim = Simulator()
        callbacks = [lambda: None for _ in range(4)]
        sim.schedule_at(1.0, callbacks[0])
        sim.schedule_at(1.0, callbacks[1])  # collides: lands in a bucket
        sim.schedule_at(1.0, callbacks[2])
        sim.schedule_at(2.0, callbacks[3])
        assert sorted(map(id, sim.queued_callbacks())) == sorted(map(id, callbacks))
        sim.run(until=1.5)
        assert list(sim.queued_callbacks()) == [callbacks[3]]
