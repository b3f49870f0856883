"""Tests for closed-form per-task waste (cross-check vs the ledger)."""

import pytest

from repro.core.resources import CORES, DISK, MEMORY, ResourceVector
from repro.sim.accounting import Ledger
from repro.sim.task import Attempt, AttemptOutcome, SimTask, TaskState
from repro.workflows.spec import TaskSpec
from tests.metrics.waste_reference import (
    task_eviction_holding,
    task_failed_allocation,
    task_internal_fragmentation,
    task_resource_waste,
)


def build_task(attempts, consumption=None, duration=100.0):
    consumption = consumption or ResourceVector.of(cores=1, memory=500, disk=100)
    task = SimTask(
        TaskSpec(task_id=0, category="p", consumption=consumption, duration=duration)
    )
    clock = 0.0
    for index, (allocation, runtime, outcome) in enumerate(attempts):
        task.record_attempt(
            Attempt(
                index=index,
                worker_id=0,
                allocation=allocation,
                start_time=clock,
                runtime=runtime,
                outcome=outcome,
                observed=consumption if outcome is AttemptOutcome.SUCCESS else allocation,
                exhausted=(MEMORY,) if outcome is AttemptOutcome.EXHAUSTED else (),
            )
        )
        clock += runtime
    task.state = TaskState.COMPLETED
    task.completion_time = clock
    return task


class TestPerTaskWaste:
    def test_paper_formula_zero_waste(self):
        consumption = ResourceVector.of(cores=1, memory=500, disk=100)
        task = build_task([(consumption, 100.0, AttemptOutcome.SUCCESS)])
        for res in (CORES, MEMORY, DISK):
            assert task_resource_waste(task, res) == pytest.approx(0.0)

    def test_fragmentation_and_failed_combine(self):
        task = build_task(
            [
                (ResourceVector.of(cores=1, memory=250, disk=100), 40.0, AttemptOutcome.EXHAUSTED),
                (ResourceVector.of(cores=1, memory=800, disk=100), 100.0, AttemptOutcome.SUCCESS),
            ]
        )
        assert task_internal_fragmentation(task, MEMORY) == pytest.approx(300 * 100)
        assert task_failed_allocation(task, MEMORY) == pytest.approx(250 * 40)
        assert task_resource_waste(task, MEMORY) == pytest.approx(300 * 100 + 250 * 40)

    def test_eviction_tracked_separately(self):
        alloc = ResourceVector.of(cores=1, memory=1000, disk=100)
        task = build_task(
            [
                (alloc, 25.0, AttemptOutcome.EVICTED),
                (alloc, 100.0, AttemptOutcome.SUCCESS),
            ]
        )
        assert task_eviction_holding(task, MEMORY) == pytest.approx(1000 * 25)
        assert task_resource_waste(task, MEMORY) == pytest.approx(500 * 100)

    def test_incomplete_task_rejected(self):
        task = SimTask(
            TaskSpec(0, "p", ResourceVector.of(cores=1, memory=1, disk=1), 1.0)
        )
        with pytest.raises(ValueError):
            task_resource_waste(task, MEMORY)

    def test_matches_ledger_streaming_totals(self):
        """The closed-form per-task waste must equal the ledger's fold."""
        tasks = [
            build_task(
                [
                    (
                        ResourceVector.of(cores=1, memory=200 + 50 * i, disk=150),
                        30.0,
                        AttemptOutcome.EXHAUSTED,
                    ),
                    (
                        ResourceVector.of(cores=2, memory=900, disk=150),
                        100.0,
                        AttemptOutcome.SUCCESS,
                    ),
                ]
            )
            for i in range(4)
        ]
        ledger = Ledger((CORES, MEMORY, DISK))
        for task in tasks:
            ledger.record_task(task)
        for res in (CORES, MEMORY, DISK):
            direct_frag = sum(task_internal_fragmentation(t, res) for t in tasks)
            direct_failed = sum(task_failed_allocation(t, res) for t in tasks)
            assert ledger.waste(res).internal_fragmentation == pytest.approx(direct_frag)
            assert ledger.waste(res).failed_allocation == pytest.approx(direct_failed)
