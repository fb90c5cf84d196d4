"""Unit tests for the discrete-event kernel and event queue."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator


class TestEventQueue:
    def test_pop_orders_by_time(self):
        q = EventQueue()
        order = []
        q.push(2.0, order.append, (2,))
        q.push(1.0, order.append, (1,))
        q.push(3.0, order.append, (3,))
        while q:
            e = q.pop()
            e.callback(*e.args)
        assert order == [1, 2, 3]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        second = q.push(1.0, lambda: None)
        assert q.pop() is first
        assert q.pop() is second

    def test_priority_beats_insertion_order(self):
        q = EventQueue()
        later = q.push(1.0, lambda: None, priority=1)
        urgent = q.push(1.0, lambda: None, priority=0)
        assert q.pop() is urgent
        assert q.pop() is later

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_len_counts_live_events(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        e1.cancel()
        q.note_cancelled()
        assert len(q) == 1

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        e2 = q.push(2.0, lambda: None)
        e1.cancel()
        q.note_cancelled()
        assert q.pop() is e2

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        e1.cancel()
        q.note_cancelled()
        assert q.peek_time() == 5.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_clear(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.clear()
        assert not q
        assert q.peek_time() is None

    def test_nan_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(float("nan"), lambda: None)


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_advances_clock_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_run_until_stops_clock_at_deadline(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, 1)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert fired == []
        sim.run()
        assert fired == [1]

    def test_run_returns_executed_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.run() == 5

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule(1.0, lambda: seen.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 2.0

    def test_stop_halts_run(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(1)
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, seen.append, 2)
        sim.run()
        assert seen == [1]

    def test_cancel_prevents_callback(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, 1)
        sim.cancel(event)
        sim.run()
        assert seen == []

    def test_cancel_none_and_double_cancel_are_noops(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending_events == 0

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [2.0]

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_run_until_true_stops_on_predicate(self):
        sim = Simulator()
        state = {"x": 0}

        def bump():
            state["x"] += 1
            sim.schedule(1.0, bump)

        sim.schedule(1.0, bump)
        assert sim.run_until_true(lambda: state["x"] >= 3, timeout=100)
        assert state["x"] == 3

    def test_run_until_true_times_out(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        assert not sim.run_until_true(lambda: False, timeout=5.0)
        assert sim.now == 5.0

    def test_run_until_true_queue_drained(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert not sim.run_until_true(lambda: False, timeout=50.0)
        assert sim.now == 1.0

    def test_next_event_time(self):
        sim = Simulator()
        assert sim.next_event_time() is None
        sim.schedule(3.0, lambda: None)
        assert sim.next_event_time() == 3.0

    def test_deterministic_given_seed(self):
        def run(seed):
            sim = Simulator(seed=seed)
            draws = []
            for _ in range(5):
                draws.append(sim.rng.uniform("test", 0, 1))
            return draws

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestCancellationAccounting:
    """Regression tests: event cancellation must keep the live count
    honest through every path (direct Event.cancel, Simulator.cancel,
    the legacy note_cancelled shim, cancelling an event that already
    fired, clearing the queue)."""

    def test_direct_event_cancel_decrements_live_count(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        event.cancel()  # bypassing Simulator.cancel used to leak a count
        assert sim.pending_events == 1

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.cancel(event)
        assert sim.pending_events == 0

    def test_cancel_plus_note_cancelled_no_double_decrement(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        event.cancel()
        q.note_cancelled()  # legacy callers; must not decrement again
        assert len(q) == 1

    def test_simulator_cancel_routes_through_event(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        assert event.cancelled
        assert sim.pending_events == 0

    def test_live_count_stable_over_cancel_heavy_run(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(float(i), fired.append, i) for i in range(1, 11)]
        for event in events[::2]:
            event.cancel()
        sim.run()
        assert fired == [2, 4, 6, 8, 10]
        assert sim.pending_events == 0

    def test_cancel_after_fire_changes_no_count(self):
        # The timer idiom: keep the handle, cancel it later even if it
        # already fired.  That must not hide the events still queued.
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=2.0)
        sim.cancel(first)
        assert sim.pending_events == 1
        assert sim.next_event_time() == 5.0
        assert sim.step() and fired == [1, 5]
        assert sim.pending_events == 0 and not sim.step()

    def test_cancel_inside_own_callback_changes_no_count(self):
        sim = Simulator()
        holder = []
        holder.append(sim.schedule(1.0, lambda: holder[0].cancel()))
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert sim.pending_events == 1 and sim.events_executed == 1

    def test_clear_discards_without_counting(self):
        q = EventQueue()
        kept = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None).cancel()
        q.pop()
        q.push(3.0, lambda: None)
        q.clear()
        kept.cancel()  # fired before the clear: no effect
        assert len(q) == 0 and not q and q.executed == 1
