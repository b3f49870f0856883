"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationEngine


class TestSimulationEngine:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(5.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(9.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        engine = SimulationEngine()
        fired = []
        for label in "abc":
            engine.schedule(1.0, lambda mark=label: fired.append(mark))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(3.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [3.5]
        assert engine.now == 3.5

    def test_events_can_schedule_more_events(self):
        engine = SimulationEngine()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                engine.schedule(1.0, lambda: chain(depth + 1))

        engine.schedule(0.0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 3.0

    def test_run_until_stops_early(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        engine.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_when_idle(self):
        engine = SimulationEngine()
        engine.run(until=7.0)
        assert engine.now == 7.0

    def test_cannot_schedule_into_past(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)

    @pytest.mark.parametrize("when", ["schedule", "schedule_at"])
    def test_nan_time_is_refused(self, when):
        """NaN compares False to everything, so a ``< now`` guard let it in."""
        engine = SimulationEngine()
        with pytest.raises(ValueError, match="cannot schedule"):
            getattr(engine, when)(float("nan"), lambda: None)
        assert engine.pending_events == 0

    def test_max_events_guard(self):
        engine = SimulationEngine()

        def forever():
            engine.schedule(1.0, forever)

        engine.schedule(0.0, forever)
        with pytest.raises(RuntimeError, match="event budget"):
            engine.run(max_events=100)

    def test_reentrant_run_rejected(self):
        engine = SimulationEngine()
        errors = []

        def nested():
            try:
                engine.run()
            except RuntimeError as exc:
                errors.append(exc)

        engine.schedule(0.0, nested)
        engine.run()
        assert len(errors) == 1

    def test_counters(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.pending_events == 2
        engine.run()
        assert engine.events_processed == 2
        assert engine.pending_events == 0

    def test_determinism_across_instances(self):
        def run_one():
            engine = SimulationEngine()
            log = []
            for i in range(10):
                engine.schedule(float(10 - i), lambda i=i: log.append(i))
            engine.run()
            return log

        assert run_one() == run_one()
