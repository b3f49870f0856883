"""Tests for AWE computation and the ledger cross-check."""

import pytest

from repro.core.allocator import AllocatorConfig
from repro.core.resources import CORES, DISK, MEMORY, ResourceVector
from repro.sim.manager import SimulationConfig, WorkflowManager
from repro.sim.pool import PoolConfig
from repro.workflows.spec import TaskSpec, WorkflowSpec
from tests.metrics.waste_reference import awe_from_tasks


def run_small(algorithm="exhaustive_bucketing", n=40):
    tasks = [
        TaskSpec(
            task_id=i,
            category="proc",
            consumption=ResourceVector.of(cores=1, memory=500 + 10 * (i % 7), disk=100),
            duration=20.0 + i % 5,
        )
        for i in range(n)
    ]
    manager = WorkflowManager(
        WorkflowSpec(name="small", tasks=tasks),
        SimulationConfig(
            allocator=AllocatorConfig(algorithm=algorithm, seed=2),
            pool=PoolConfig(
                n_workers=3, capacity=ResourceVector.of(cores=8, memory=8000, disk=8000)
            ),
        ),
    )
    result = manager.run()
    return manager, result


class TestAweCrossCheck:
    @pytest.mark.parametrize("algorithm", ["max_seen", "exhaustive_bucketing", "min_waste"])
    def test_closed_form_equals_ledger(self, algorithm):
        manager, result = run_small(algorithm)
        completed = list(manager._tasks.values())
        for res in (CORES, MEMORY, DISK):
            assert awe_from_tasks(completed, res) == pytest.approx(
                result.ledger.awe(res), rel=1e-9
            )

    def test_awe_in_unit_interval(self):
        _, result = run_small()
        for res in result.ledger.resources:
            assert 0.0 < result.ledger.awe(res) <= 1.0, res

    def test_steady_state_approaches_oracle(self):
        """On a near-constant workload the steady-state window converges
        towards the oracle; the overall figure is dragged down only by
        the whole-machine exploratory attempts."""
        from repro.metrics.summary import convergence_series

        _, result = run_small("max_seen", n=150)
        series = convergence_series(result, MEMORY, window=30)
        # Steady tail: ~530 MB consumption vs the 750 MB rounded max.
        assert series[-1] > 0.6
        assert series[-1] > result.ledger.awe(MEMORY)

    def test_incomplete_task_rejected(self):
        from repro.sim.task import SimTask

        spec = TaskSpec(0, "p", ResourceVector.of(cores=1, memory=1, disk=1), 1.0)
        with pytest.raises(ValueError):
            awe_from_tasks([SimTask(spec)], MEMORY)
