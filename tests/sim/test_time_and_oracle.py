"""Tests for wall-time management and the oracle reference mode."""

import pytest

from repro.core.allocator import AllocatorConfig, ExploratoryConfig
from repro.core.resources import CORES, DISK, MEMORY, TIME, ResourceVector
from repro.sim.manager import SimulationConfig, WorkflowManager
from repro.sim.pool import PoolConfig
from repro.workflows.spec import TaskSpec, WorkflowSpec
from repro.workflows.synthetic import make_synthetic_workflow

ALL_FOUR = (CORES, MEMORY, DISK, TIME)


def flat_workflow(n=30, duration=60.0):
    tasks = [
        TaskSpec(
            task_id=i,
            category="proc",
            consumption=ResourceVector.of(cores=1, memory=500, disk=100),
            duration=duration,
        )
        for i in range(n)
    ]
    return WorkflowSpec(name="flat", tasks=tasks)


def small_pool():
    return PoolConfig(
        n_workers=3, capacity=ResourceVector.of(cores=8, memory=8000, disk=8000)
    )


class TestTimeManagement:
    def test_workflow_completes_with_time_managed(self):
        manager = WorkflowManager(
            flat_workflow(),
            SimulationConfig(
                allocator=AllocatorConfig(
                    algorithm="exhaustive_bucketing",
                    resources=ALL_FOUR,
                    seed=1,
                ),
                pool=small_pool(),
            ),
        )
        result = manager.run()
        assert result.ledger.n_tasks == 30
        assert result.ledger.identity_holds()

    def test_time_records_are_durations(self):
        manager = WorkflowManager(
            flat_workflow(duration=45.0),
            SimulationConfig(
                allocator=AllocatorConfig(
                    algorithm="max_seen", resources=ALL_FOUR, seed=1
                ),
                pool=small_pool(),
            ),
        )
        manager.run()
        records = manager.allocator.algorithm("proc", TIME).max_seen
        assert records == pytest.approx(45.0)

    def test_exploratory_time_fallback_is_sane(self):
        """The conservative bootstrap carries no time component and a
        worker has no time capacity; the allocator must still hand out a
        positive allowance (the one-hour fallback), not zero."""
        manager = WorkflowManager(
            flat_workflow(duration=30.0),
            SimulationConfig(
                allocator=AllocatorConfig(
                    algorithm="greedy_bucketing", resources=ALL_FOUR, seed=1
                ),
                pool=small_pool(),
            ),
        )
        result = manager.run()
        first_attempts = [manager._tasks[i].attempts[0] for i in range(5)]
        assert all(a.allocation[TIME] >= 30.0 for a in first_attempts)
        # Nothing should have been killed for time with a 1h allowance
        # over 30 s tasks.
        for task in manager._tasks.values():
            for attempt in task.attempts:
                assert TIME not in attempt.exhausted

    def test_short_time_limits_kill_and_retry(self):
        """min_records=1 plus one fast task first: later slow tasks get
        killed on the learned (too small) time limit and retried."""
        tasks = [
            TaskSpec(0, "proc", ResourceVector.of(cores=1, memory=100, disk=10), 10.0)
        ] + [
            TaskSpec(i, "proc", ResourceVector.of(cores=1, memory=100, disk=10), 200.0)
            for i in range(1, 6)
        ]
        manager = WorkflowManager(
            WorkflowSpec(name="slowlate", tasks=tasks),
            SimulationConfig(
                allocator=AllocatorConfig(
                    algorithm="max_seen",
                    resources=ALL_FOUR,
                    exploratory=ExploratoryConfig(min_records=1),
                    seed=1,
                ),
                pool=small_pool(),
            ),
        )
        result = manager.run()
        time_kills = [
            attempt
            for task in manager._tasks.values()
            for attempt in task.attempts
            if TIME in attempt.exhausted
        ]
        assert time_kills, "expected at least one wall-time kill"
        assert result.ledger.n_tasks == 6

    def test_time_awe_reported(self):
        manager = WorkflowManager(
            flat_workflow(),
            SimulationConfig(
                allocator=AllocatorConfig(
                    algorithm="exhaustive_bucketing", resources=ALL_FOUR, seed=1
                ),
                pool=small_pool(),
            ),
        )
        result = manager.run()
        assert 0 < result.ledger.awe(TIME) <= 1.0


class TestOracle:
    def test_oracle_awe_is_one(self):
        workflow = make_synthetic_workflow("normal", n_tasks=60, seed=2)
        manager = WorkflowManager(
            workflow,
            SimulationConfig(
                allocator=AllocatorConfig(algorithm="whole_machine", seed=1),
                pool=PoolConfig(n_workers=4),
                oracle=True,
            ),
        )
        result = manager.run()
        assert result.algorithm == "oracle"
        for res in (CORES, MEMORY, DISK):
            assert result.ledger.awe(res) == pytest.approx(1.0)
            assert result.ledger.waste(res).total == pytest.approx(0.0)
        assert result.n_failed_attempts == 0

    def test_oracle_with_time_managed(self):
        manager = WorkflowManager(
            flat_workflow(),
            SimulationConfig(
                allocator=AllocatorConfig(
                    algorithm="whole_machine", resources=ALL_FOUR, seed=1
                ),
                pool=small_pool(),
                oracle=True,
            ),
        )
        result = manager.run()
        assert result.ledger.awe(TIME) == pytest.approx(1.0)

    def test_oracle_via_runner(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_cell

        result = run_cell(
            "normal",
            "oracle",
            ExperimentConfig(n_tasks=50, n_workers=3, ramp_up_seconds=0.0),
        )
        assert result.algorithm == "oracle"
        assert result.ledger.awe(MEMORY) == pytest.approx(1.0)

    def test_oracle_dominates_every_algorithm(self):
        """The oracle is the ceiling the paper defines: no online
        algorithm may beat it."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_cell

        config = ExperimentConfig(n_tasks=80, n_workers=4, ramp_up_seconds=0.0)
        oracle = run_cell("bimodal", "oracle", config)
        for algorithm in ("max_seen", "exhaustive_bucketing"):
            result = run_cell("bimodal", algorithm, config)
            for res in (CORES, MEMORY, DISK):
                assert result.ledger.awe(res) <= oracle.ledger.awe(res) + 1e-9


class TestSaturationGate:
    """A worker with one dimension full still hosts a task that asks
    nothing of it: the saturation gate must not hide that task."""

    def test_zero_disk_task_runs_beside_a_full_disk(self):
        workflow = WorkflowSpec(
            "full-disk",
            [
                TaskSpec(0, "fill", ResourceVector.of(cores=1, memory=100, disk=64000), 1000.0),
                TaskSpec(1, "small", ResourceVector.of(cores=1, memory=100, disk=0), 10.0),
            ],
        )
        manager = WorkflowManager(
            workflow, SimulationConfig(pool=PoolConfig(n_workers=1), oracle=True)
        )
        result = manager.run()
        # Task 1 starts at t=0 on the same worker instead of waiting for
        # task 0 to free the disk.
        assert result.makespan == 1000.0
        assert manager.tasks()[1].attempts[0].start_time == 0.0
