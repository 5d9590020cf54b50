"""Tests for the simulated clock."""

import pytest

from repro.simcluster.clock import SimulatedClock


class TestClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now == 0.0

    def test_advance_accumulates(self):
        c = SimulatedClock()
        c.advance(1.5)
        c.advance(2.5)
        assert c.now == 4.0

    def test_advance_returns_new_time(self):
        c = SimulatedClock()
        assert c.advance(3.0) == 3.0

    def test_negative_advance_raises(self):
        with pytest.raises(ValueError, match="backwards"):
            SimulatedClock().advance(-1.0)

    def test_negative_start_raises(self):
        with pytest.raises(ValueError):
            SimulatedClock(start=-1.0)


class TestEventQueue:
    def test_events_fire_in_chronological_order(self):
        c = SimulatedClock()
        fired = []
        c.schedule(2.0, lambda clk: fired.append(("b", clk.now)))
        c.schedule(1.0, lambda clk: fired.append(("a", clk.now)))
        c.advance(3.0)
        assert fired == [("a", 1.0), ("b", 2.0)]
        assert c.now == 3.0

    def test_events_beyond_target_stay_pending(self):
        c = SimulatedClock()
        fired = []
        c.schedule(5.0, lambda clk: fired.append(clk.now))
        c.advance(4.0)
        assert fired == []
        c.advance(1.0)
        assert fired == [5.0]

    def test_callbacks_may_reschedule(self):
        c = SimulatedClock()
        fired = []

        def periodic(clk):
            fired.append(clk.now)
            clk.schedule(clk.now + 1.0, periodic)

        c.schedule(1.0, periodic)
        c.advance(3.5)
        assert fired == [1.0, 2.0, 3.0]

    def test_schedule_in_the_past_raises(self):
        c = SimulatedClock()
        c.advance(2.0)
        with pytest.raises(ValueError, match="past"):
            c.schedule(1.0, lambda clk: None)

    def test_same_time_events_fire_in_schedule_order(self):
        c = SimulatedClock()
        fired = []
        c.schedule(1.0, lambda clk: fired.append("first"))
        c.schedule(1.0, lambda clk: fired.append("second"))
        c.advance(1.0)
        assert fired == ["first", "second"]
