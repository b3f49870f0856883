"""End-to-end tests for the workflow manager."""

import pytest

from repro.core.allocator import AllocatorConfig, ExploratoryConfig
from repro.core.resources import MEMORY, ResourceVector
from repro.sim.manager import SimulationConfig, WorkflowManager
from repro.sim.pool import ChurnConfig, PoolConfig
from repro.sim.task import AttemptOutcome
from repro.workflows.spec import TaskSpec, WorkflowSpec


def uniform_workflow(n=20, cores=1.0, memory=500.0, disk=100.0, duration=60.0, name="flat"):
    tasks = [
        TaskSpec(
            task_id=i,
            category="proc",
            consumption=ResourceVector.of(cores=cores, memory=memory, disk=disk),
            duration=duration,
        )
        for i in range(n)
    ]
    return WorkflowSpec(name=name, tasks=tasks)


def small_pool(n_workers=4, seed=0, **kwargs):
    return PoolConfig(
        n_workers=n_workers,
        capacity=ResourceVector.of(cores=8, memory=16000, disk=16000),
        seed=seed,
        **kwargs,
    )


class TestBasicExecution:
    def test_all_tasks_complete(self):
        manager = WorkflowManager(
            uniform_workflow(30),
            SimulationConfig(
                allocator=AllocatorConfig(algorithm="max_seen", seed=1),
                pool=small_pool(),
            ),
        )
        result = manager.run()
        assert result.n_tasks == 30
        assert result.ledger.n_tasks == 30
        assert result.makespan > 0

    def test_runs_exactly_once(self):
        manager = WorkflowManager(uniform_workflow(3), SimulationConfig(pool=small_pool()))
        manager.run()
        with pytest.raises(RuntimeError):
            manager.run()

    def test_accounting_identity_after_run(self):
        manager = WorkflowManager(
            uniform_workflow(25),
            SimulationConfig(
                allocator=AllocatorConfig(algorithm="exhaustive_bucketing", seed=1),
                pool=small_pool(),
            ),
        )
        result = manager.run()
        assert result.ledger.identity_holds()

    def test_infeasible_task_rejected_up_front(self):
        workflow = uniform_workflow(2, memory=99999999.0)
        with pytest.raises(ValueError, match="exceeds worker capacity"):
            WorkflowManager(workflow, SimulationConfig(pool=small_pool()))

    def test_summary_fields(self):
        manager = WorkflowManager(
            uniform_workflow(5),
            SimulationConfig(
                allocator=AllocatorConfig(algorithm="whole_machine", seed=1),
                pool=small_pool(),
            ),
        )
        summary = manager.run().summary()
        assert summary["tasks"] == 5
        assert {"awe_cores", "awe_memory", "awe_disk"} <= set(summary)


class TestExploratorySemantics:
    def test_identical_tasks_perfect_after_exploration(self):
        """Steady-state allocations for a constant workload hit AWE ~1
        in memory once exploration amortizes."""
        manager = WorkflowManager(
            uniform_workflow(200, memory=2000.0),
            SimulationConfig(
                allocator=AllocatorConfig(algorithm="exhaustive_bucketing", seed=1),
                pool=small_pool(),
            ),
        )
        result = manager.run()
        assert result.ledger.awe(MEMORY) > 0.85

    def test_exploration_gate_bounds_concurrent_explorers(self):
        gate = 3
        manager = WorkflowManager(
            uniform_workflow(40),
            SimulationConfig(
                allocator=AllocatorConfig(
                    algorithm="greedy_bucketing",
                    seed=1,
                    exploratory=ExploratoryConfig(min_records=10, explore_concurrency=gate),
                ),
                pool=small_pool(),
            ),
        )
        allocator = manager.allocator
        observed_max = 0

        original = manager._may_dispatch

        def tracking(category):
            nonlocal observed_max
            if allocator.in_exploration(category):
                observed_max = max(
                    observed_max, manager._running_per_category.get(category, 0)
                )
            return original(category)

        manager._may_dispatch = tracking
        manager._scheduler._may_dispatch = tracking
        manager.run()
        assert observed_max <= gate

    def test_bucketing_first_attempts_use_predictions_after_exploration(self):
        manager = WorkflowManager(
            uniform_workflow(60, memory=2000.0),
            SimulationConfig(
                allocator=AllocatorConfig(algorithm="exhaustive_bucketing", seed=1),
                pool=small_pool(),
            ),
        )
        manager.run()
        late_tasks = [manager._tasks[i] for i in range(40, 60)]
        for task in late_tasks:
            first = task.attempts[0]
            # Not the 1 core / 1 GB bootstrap: the prediction (2000 MB).
            assert first.allocation[MEMORY] != 1000.0


class TestRetrySemantics:
    def test_underallocation_is_killed_and_retried(self):
        """Force failures: min_records=0 so predictions start at once,
        with a first record far below the others."""
        tasks = [
            TaskSpec(
                task_id=0,
                category="proc",
                consumption=ResourceVector.of(cores=1, memory=100, disk=100),
                duration=10.0,
            )
        ] + [
            TaskSpec(
                task_id=i,
                category="proc",
                consumption=ResourceVector.of(cores=1, memory=4000, disk=100),
                duration=10.0,
            )
            for i in range(1, 10)
        ]
        manager = WorkflowManager(
            WorkflowSpec(name="spiky", tasks=tasks),
            SimulationConfig(
                allocator=AllocatorConfig(
                    algorithm="max_seen",
                    seed=1,
                    exploratory=ExploratoryConfig(min_records=1),
                ),
                pool=small_pool(n_workers=1),
            ),
        )
        result = manager.run()
        assert result.n_failed_attempts >= 1
        assert result.ledger.waste(MEMORY).failed_allocation > 0
        # Every task still completed.
        assert result.ledger.n_tasks == 10

    def test_failed_attempts_grow_allocation_monotonically(self):
        tasks = [
            TaskSpec(
                task_id=i,
                category="proc",
                consumption=ResourceVector.of(cores=1, memory=100 if i == 0 else 8000, disk=100),
                duration=10.0,
            )
            for i in range(6)
        ]
        manager = WorkflowManager(
            WorkflowSpec(name="ladder", tasks=tasks),
            SimulationConfig(
                allocator=AllocatorConfig(
                    algorithm="max_seen",
                    seed=1,
                    exploratory=ExploratoryConfig(min_records=1),
                ),
                pool=small_pool(n_workers=1),
            ),
        )
        manager.run()
        for task in manager._tasks.values():
            allocations = [a.allocation[MEMORY] for a in task.attempts]
            assert allocations == sorted(allocations)


class TestDependencies:
    def test_dag_ordering_respected(self):
        consumption = ResourceVector.of(cores=1, memory=100, disk=10)
        tasks = [
            TaskSpec(0, "stage_a", consumption, 10.0),
            TaskSpec(1, "stage_a", consumption, 10.0),
            TaskSpec(2, "stage_b", consumption, 10.0, dependencies=(0, 1)),
            TaskSpec(3, "stage_c", consumption, 10.0, dependencies=(2,)),
        ]
        manager = WorkflowManager(
            WorkflowSpec(name="diamond", tasks=tasks),
            SimulationConfig(
                allocator=AllocatorConfig(algorithm="whole_machine", seed=1),
                pool=small_pool(),
            ),
        )
        manager.run()
        t = manager._tasks
        assert t[2].attempts[0].start_time >= max(
            t[0].completion_time, t[1].completion_time
        )
        assert t[3].attempts[0].start_time >= t[2].completion_time


class TestSubmissionPacing:
    def test_max_outstanding_limits_revealed_tasks(self):
        manager = WorkflowManager(
            uniform_workflow(50),
            SimulationConfig(
                allocator=AllocatorConfig(algorithm="max_seen", seed=1),
                pool=small_pool(),
                max_outstanding=5,
            ),
        )
        result = manager.run()
        assert result.n_tasks == 50  # everything still completes

    def test_invalid_max_outstanding(self):
        with pytest.raises(ValueError):
            SimulationConfig(max_outstanding=0)

    @pytest.mark.parametrize("field", ["max_outstanding", "max_events", "retry_budget"])
    @pytest.mark.parametrize("bad", [0, -5, 2.5, True, False, "3"])
    def test_counts_are_integers_of_at_least_one(self, field, bad):
        """A bad count is refused at construction, not mid-run as an
        'event budget exhausted' livelock report."""
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            SimulationConfig(**{field: bad})

    @pytest.mark.parametrize("field", ["max_outstanding", "max_events", "retry_budget"])
    def test_counts_accept_none_and_positive_integers(self, field):
        assert getattr(SimulationConfig(**{field: None}), field) is None
        assert getattr(SimulationConfig(**{field: 3}), field) == 3


class TestChurnExecution:
    def test_workflow_survives_worker_churn(self):
        manager = WorkflowManager(
            uniform_workflow(40, duration=30.0),
            SimulationConfig(
                allocator=AllocatorConfig(algorithm="max_seen", seed=1),
                pool=small_pool(
                    n_workers=4,
                    churn=ChurnConfig(
                        mean_lifetime=120.0, mean_interarrival=60.0,
                        min_workers=1, max_workers=6,
                    ),
                ),
            ),
        )
        result = manager.run()
        assert result.ledger.n_tasks == 40
        # With this much churn some eviction is overwhelmingly likely,
        # but the assertion only requires consistency, not a minimum.
        assert result.n_evicted_attempts == result.ledger.n_evicted_attempts
        assert result.ledger.identity_holds()

    def test_evicted_attempts_keep_allocation(self):
        manager = WorkflowManager(
            uniform_workflow(30, duration=50.0),
            SimulationConfig(
                allocator=AllocatorConfig(algorithm="whole_machine", seed=1),
                pool=small_pool(
                    n_workers=3,
                    churn=ChurnConfig(mean_lifetime=80.0, mean_interarrival=40.0,
                                      min_workers=1, max_workers=4),
                ),
            ),
        )
        manager.run()
        for task in manager._tasks.values():
            for prev, cur in zip(task.attempts, task.attempts[1:]):
                if prev.outcome is AttemptOutcome.EVICTED:
                    assert cur.allocation == prev.allocation
