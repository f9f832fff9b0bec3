"""Tests for the reference engine's virtual clock and callback event queue."""

import pytest

from reference.events import EventQueue, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(2.5)
        assert clock.now == 2.5

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_advance_to_never_goes_back(self):
        clock = VirtualClock(5.0)
        clock.advance_to(3.0)
        assert clock.now == 5.0
        clock.advance_to(7.0)
        assert clock.now == 7.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(-1.0)


class TestEventQueue:
    def test_events_run_in_time_order(self):
        clock = VirtualClock()
        queue = EventQueue(clock)
        order = []
        queue.schedule(2.0, lambda t: order.append("b"))
        queue.schedule(1.0, lambda t: order.append("a"))
        queue.schedule(3.0, lambda t: order.append("c"))
        queue.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_clock_advanced_to_event_times(self):
        clock = VirtualClock()
        queue = EventQueue(clock)
        seen = []
        queue.schedule(1.5, lambda t: seen.append(t))
        queue.run_until(5.0)
        assert seen == [1.5]
        assert clock.now == 5.0

    def test_events_beyond_end_not_run(self):
        clock = VirtualClock()
        queue = EventQueue(clock)
        ran = []
        queue.schedule(10.0, lambda t: ran.append(t))
        queue.run_until(5.0)
        assert ran == []
        assert queue.pending == 1

    def test_recurring_events(self):
        clock = VirtualClock()
        queue = EventQueue(clock)
        count = [0]

        def recur(t):
            count[0] += 1
            queue.schedule(t + 1.0, recur)

        queue.schedule(0.0, recur)
        queue.run_until(5.5)
        assert count[0] == 6  # t = 0,1,2,3,4,5

    def test_cancel(self):
        clock = VirtualClock()
        queue = EventQueue(clock)
        ran = []
        event = queue.schedule(1.0, lambda t: ran.append(t))
        queue.cancel(event)
        queue.run_until(5.0)
        assert ran == []

    def test_past_scheduling_rejected(self):
        clock = VirtualClock(10.0)
        queue = EventQueue(clock)
        with pytest.raises(ValueError):
            queue.schedule(5.0, lambda t: None)

    def test_schedule_after(self):
        clock = VirtualClock(2.0)
        queue = EventQueue(clock)
        seen = []
        queue.schedule_after(3.0, lambda t: seen.append(t))
        queue.run_until(10.0)
        assert seen == [5.0]

    def test_max_events_cap(self):
        clock = VirtualClock()
        queue = EventQueue(clock)

        def recur(t):
            queue.schedule(t + 0.1, recur)

        queue.schedule(0.0, recur)
        executed = queue.run_until(1000.0, max_events=50)
        assert executed == 50
