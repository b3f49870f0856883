"""Tests for result summarization."""

import pytest

from repro.core.allocator import AllocatorConfig
from repro.core.resources import MEMORY, ResourceVector
from repro.metrics.summary import convergence_series, summarize_result
from repro.sim.manager import SimulationConfig, WorkflowManager
from repro.sim.pool import PoolConfig
from repro.workflows.spec import TaskSpec, WorkflowSpec


def run_flat(name="flat", algorithm="max_seen", n=30):
    tasks = [
        TaskSpec(
            task_id=i,
            category="proc",
            consumption=ResourceVector.of(cores=1, memory=400, disk=100),
            duration=15.0,
        )
        for i in range(n)
    ]
    manager = WorkflowManager(
        WorkflowSpec(name=name, tasks=tasks),
        SimulationConfig(
            allocator=AllocatorConfig(algorithm=algorithm, seed=0),
            pool=PoolConfig(
                n_workers=2, capacity=ResourceVector.of(cores=8, memory=8000, disk=8000)
            ),
        ),
    )
    return manager.run()


class TestSummaries:
    def test_summarize_result_fields(self):
        result = run_flat()
        summary = summarize_result(result)
        assert summary.workflow == "flat"
        assert summary.algorithm == "max_seen"
        assert summary.n_tasks == 30
        assert set(summary.awe) == {"cores", "memory", "disk"}
        assert all(0 < v <= 1 for v in summary.awe.values())

    def test_failed_fraction_bounds(self):
        summary = summarize_result(run_flat())
        for key in ("cores", "memory", "disk"):
            assert 0.0 <= summary.failed_fraction(key) <= 1.0

    def test_convergence_series_length_and_range(self):
        result = run_flat(n=40)
        series = convergence_series(result, MEMORY, window=10)
        assert len(series) == 40
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in series)

    def test_convergence_series_improves_for_constant_workload(self):
        result = run_flat(algorithm="exhaustive_bucketing", n=60)
        series = convergence_series(result, MEMORY, window=10)
        # The steady tail outperforms the bootstrap head.
        assert series[-1] > series[0]

    def test_invalid_window(self):
        result = run_flat()
        with pytest.raises(ValueError):
            convergence_series(result, MEMORY, window=0)
