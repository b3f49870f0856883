"""Tests for the opportunistic worker pool."""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

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


#: The fixed allocations the memo machine asks about: ordinary shapes,
#: one with a zero component, and a whole worker.
PROBES = (
    ResourceVector.of(cores=1, memory=100, disk=100),
    ResourceVector.of(cores=3, memory=1000, disk=10),
    ResourceVector.of(cores=0.5, memory=2500, disk=0),
    ResourceVector.of(cores=2, memory=2000, disk=2000),
    ResourceVector.of(cores=4, memory=4000, disk=4000),
)


class PoolFitMachine(RuleBasedStateMachine):
    """``find_fit`` from a miss memo and the O(1) ``has_headroom`` must
    answer what a brute-force scan in join order answers, after any mix
    of joins, departures, placements and direct releases.

    Like the scheduler, the machine keeps, per probe, the pool stamp of
    its last miss and asks ``find_fit`` with it after every step.
    """

    @initialize(
        n_workers=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        churn=st.booleans(),
    )
    def start(self, n_workers, seed, churn):
        self.engine = SimulationEngine()
        self.pool = WorkerPool(
            self.engine,
            PoolConfig(
                n_workers=n_workers,
                capacity=tiny_capacity(),
                ramp_up_seconds=60.0,
                churn=ChurnConfig(
                    mean_lifetime=90.0 if churn else None,
                    mean_interarrival=40.0 if churn else None,
                    min_workers=1,
                    max_workers=6,
                ),
                seed=seed,
            ),
        )
        self.pool.on_worker_leaving = self._left
        self.running = {}  # task_id -> the worker hosting it
        self.next_id = 0
        self.missed_at = [0] * len(PROBES)

    def _left(self, worker, evicted):
        for task_id in evicted:
            assert self.running.pop(task_id) is worker

    def _worker(self, index):
        workers = self.pool.alive_workers()
        return workers[index % len(workers)]

    def _place(self, worker, allocation):
        if worker.can_fit(allocation):
            worker.place(self.next_id, allocation)
            self.running[self.next_id] = worker
            self.next_id += 1

    @rule(dt=st.sampled_from((1.0, 15.0, 60.0)))
    def advance(self, dt):
        """Ramp-up joins and churn departures fire as engine events."""
        self.engine.run(until=self.engine.now + dt)

    @rule(which=st.integers(0, len(PROBES) - 1), index=st.integers(0, 100))
    def place(self, which, index):
        self._place(self._worker(index), PROBES[which])

    @rule(index=st.integers(0, 100))
    def fill(self, index):
        """Take a worker's whole free capacity: no headroom left."""
        worker = self._worker(index)
        self._place(worker, worker.free_capacity())

    @precondition(lambda self: self.running)
    @rule(index=st.integers(0, 1000))
    def release(self, index):
        task_id = sorted(self.running)[index % len(self.running)]
        self.running.pop(task_id).release(task_id, held_for=1.0)

    @precondition(lambda self: self.running)
    @rule(index=st.integers(0, 1000))
    def empty(self, index):
        """Release every task of one worker; the last snaps to capacity."""
        worker = self.running[sorted(self.running)[index % len(self.running)]]
        for task_id in worker.running_task_ids:
            del self.running[task_id]
            worker.release(task_id)

    @invariant()
    def answers_are_the_brute_force_scan(self):
        pool = self.pool
        workers = pool.alive_workers()
        assert [w.worker_id for w in workers] == sorted(w.worker_id for w in workers)
        assert pool.has_headroom() == any(w.has_headroom() for w in workers)
        for which, allocation in enumerate(PROBES):
            want = next((w for w in workers if w.can_fit(allocation)), None)
            assert pool.find_fit(allocation) is want
            got = pool.find_fit(allocation, self.missed_at[which])
            assert got is want, (which, self.missed_at[which], pool.stamp)
            if got is None:
                self.missed_at[which] = pool.stamp


TestPoolFitMachine = PoolFitMachine.TestCase
TestPoolFitMachine.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.slow
class TestPoolFitMachineWide(PoolFitMachine.TestCase):
    settings = settings(
        max_examples=300,
        stateful_step_count=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
