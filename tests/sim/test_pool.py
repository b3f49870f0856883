"""Tests for the opportunistic worker pool."""

import pytest

from repro.core.resources import ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.pool import ChurnConfig, PoolConfig, WorkerPool


def tiny_capacity():
    return ResourceVector.of(cores=4, memory=4000, disk=4000)


class TestPoolBasics:
    def test_initial_cohort(self):
        engine = SimulationEngine()
        pool = WorkerPool(engine, PoolConfig(n_workers=5, capacity=tiny_capacity()))
        assert pool.n_alive == 5
        assert pool.total_joined == 5
        assert pool.total_left == 0

    def test_find_fit_first_fit_order(self):
        engine = SimulationEngine()
        pool = WorkerPool(engine, PoolConfig(n_workers=3, capacity=tiny_capacity()))
        alloc = ResourceVector.of(cores=4, memory=100, disk=100)
        first = pool.find_fit(alloc)
        first.place(0, alloc)
        second = pool.find_fit(alloc)
        assert second is not None and second.worker_id != first.worker_id

    def test_find_fit_none_when_full(self):
        engine = SimulationEngine()
        pool = WorkerPool(engine, PoolConfig(n_workers=1, capacity=tiny_capacity()))
        worker = pool.find_fit(ResourceVector.of(cores=4, memory=1, disk=1))
        worker.place(0, ResourceVector.of(cores=4, memory=1, disk=1))
        assert pool.find_fit(ResourceVector.of(cores=1, memory=1, disk=1)) is None
        assert not pool.has_headroom()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PoolConfig(n_workers=0)
        with pytest.raises(ValueError):
            PoolConfig(ramp_up_seconds=-1)
        with pytest.raises(ValueError):
            ChurnConfig(mean_lifetime=0)
        with pytest.raises(ValueError):
            ChurnConfig(min_workers=5, max_workers=2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("field", ["mean_lifetime", "mean_interarrival"])
    def test_churn_rates_must_be_finite_and_positive(self, field, value):
        """``None`` is the only way to turn churn off: a NaN interarrival
        used to finish with a NaN makespan, a NaN lifetime to drop workers."""
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            ChurnConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_ramp_up_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="ramp_up_seconds must be finite and >= 0"):
            PoolConfig(ramp_up_seconds=value)


class TestRampUp:
    def test_ramp_spreads_arrivals(self):
        engine = SimulationEngine()
        pool = WorkerPool(
            engine,
            PoolConfig(n_workers=10, capacity=tiny_capacity(), ramp_up_seconds=100.0, seed=1),
        )
        assert pool.n_alive == 1  # only the seed worker at t=0
        engine.run(until=100.0)
        assert pool.n_alive == 10

    def test_join_callback_fires(self):
        engine = SimulationEngine()
        pool = WorkerPool(
            engine,
            PoolConfig(n_workers=4, capacity=tiny_capacity(), ramp_up_seconds=50.0, seed=1),
        )
        joined = []
        pool.on_worker_joined = lambda w: joined.append(w.worker_id)
        engine.run(until=50.0)
        assert len(joined) == 3  # all but the seed worker


class TestChurn:
    def test_departures_evict_tasks(self):
        engine = SimulationEngine()
        pool = WorkerPool(
            engine,
            PoolConfig(
                n_workers=3,
                capacity=tiny_capacity(),
                churn=ChurnConfig(mean_lifetime=10.0, min_workers=0),
                seed=2,
            ),
        )
        evictions = []
        pool.on_worker_leaving = lambda w, evicted: evictions.append((w.worker_id, evicted))
        alloc = ResourceVector.of(cores=1, memory=100, disk=100)
        for worker in pool.alive_workers():
            worker.place(worker.worker_id + 100, alloc)
        engine.run(until=200.0)
        assert pool.total_left == 3
        assert len(evictions) == 3
        assert all(evicted for _, evicted in evictions)

    def test_min_workers_floor_respected(self):
        engine = SimulationEngine()
        pool = WorkerPool(
            engine,
            PoolConfig(
                n_workers=3,
                capacity=tiny_capacity(),
                churn=ChurnConfig(mean_lifetime=5.0, min_workers=2),
                seed=3,
            ),
        )
        engine.run(until=100.0)
        assert pool.n_alive >= 2

    def test_arrivals_replenish(self):
        engine = SimulationEngine()
        pool = WorkerPool(
            engine,
            PoolConfig(
                n_workers=2,
                capacity=tiny_capacity(),
                churn=ChurnConfig(
                    mean_lifetime=20.0, mean_interarrival=10.0, min_workers=1, max_workers=5
                ),
                seed=4,
            ),
        )
        engine.run(until=500.0)
        assert pool.total_joined > 2
        assert 1 <= pool.n_alive <= 5

    def test_stop_halts_churn(self):
        engine = SimulationEngine()
        pool = WorkerPool(
            engine,
            PoolConfig(
                n_workers=2,
                capacity=tiny_capacity(),
                churn=ChurnConfig(mean_interarrival=5.0, max_workers=100),
                seed=5,
            ),
        )
        engine.run(until=50.0)
        pool.stop()
        engine.run()  # must drain despite the recurring arrival events
        assert engine.pending_events == 0


class TestFloorLivelock:
    """Regression: with arrivals disabled, suppressed departures used to
    re-arm forever and a bare ``engine.run()`` never drained."""

    def test_pinned_at_floor_draws_no_lifetime(self):
        engine = SimulationEngine()
        pool = WorkerPool(
            engine,
            PoolConfig(
                n_workers=1,
                capacity=tiny_capacity(),
                churn=ChurnConfig(mean_lifetime=10.0, min_workers=1),
                seed=3,
            ),
        )
        # No departure event should even be scheduled: the sole worker
        # can never leave, so drawing a lifetime would only livelock.
        assert engine.pending_events == 0
        engine.run(max_events=1000)
        assert pool.n_alive == 1

    def test_suppressed_departure_does_not_rearm_without_arrivals(self):
        engine = SimulationEngine()
        pool = WorkerPool(
            engine,
            PoolConfig(
                n_workers=3,
                capacity=tiny_capacity(),
                churn=ChurnConfig(mean_lifetime=10.0, min_workers=2),
                seed=3,
            ),
        )
        engine.run(max_events=1000)  # raises if departures re-arm forever
        assert engine.pending_events == 0
        assert pool.n_alive == 2

    def test_rearm_still_happens_when_arrivals_enabled(self):
        engine = SimulationEngine()
        pool = WorkerPool(
            engine,
            PoolConfig(
                n_workers=2,
                capacity=tiny_capacity(),
                churn=ChurnConfig(
                    mean_lifetime=15.0, mean_interarrival=10.0, min_workers=2, max_workers=4
                ),
                seed=6,
            ),
        )
        engine.run(until=300.0)
        pool.stop()
        engine.run()
        # With arrivals on, the population keeps turning over at the floor.
        assert pool.total_left > 0
        assert pool.n_alive >= 2
