"""Tests for the waste/AWE ledger."""

import pytest

from repro.core.resources import CORES, DISK, MEMORY, ResourceVector
from repro.experiments.config import ExperimentConfig, make_workflow
from repro.sim import accounting
from repro.sim.accounting import Ledger, WasteBreakdown
from repro.sim.manager import WorkflowManager
from repro.sim.task import Attempt, AttemptOutcome, SimTask, TaskState
from repro.workflows.spec import TaskSpec

RESOURCES = (CORES, MEMORY, DISK)


def completed_task(
    task_id=0,
    category="proc",
    consumption=None,
    duration=100.0,
    attempts=None,
):
    """Build a completed SimTask from (allocation, runtime, outcome) specs."""
    consumption = consumption or ResourceVector.of(cores=1, memory=500, disk=100)
    spec = TaskSpec(
        task_id=task_id, category=category, consumption=consumption, duration=duration
    )
    task = SimTask(spec)
    attempts = attempts or [
        (ResourceVector.of(cores=1, memory=1000, disk=1000), duration, AttemptOutcome.SUCCESS)
    ]
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


class TestSingleTaskAccounting:
    def test_perfect_allocation_zero_waste(self):
        ledger = Ledger(RESOURCES)
        consumption = ResourceVector.of(cores=1, memory=500, disk=100)
        task = completed_task(
            consumption=consumption,
            attempts=[(consumption, 100.0, AttemptOutcome.SUCCESS)],
        )
        ledger.record_task(task)
        for res in RESOURCES:
            assert ledger.waste(res).total == pytest.approx(0.0)
            assert ledger.awe(res) == pytest.approx(1.0)

    def test_internal_fragmentation_formula(self):
        """Waste = t * (a - c) on the successful attempt (Section II-C)."""
        ledger = Ledger(RESOURCES)
        task = completed_task(
            consumption=ResourceVector.of(cores=1, memory=500, disk=100),
            duration=100.0,
            attempts=[
                (ResourceVector.of(cores=2, memory=800, disk=100), 100.0, AttemptOutcome.SUCCESS)
            ],
        )
        ledger.record_task(task)
        assert ledger.waste(MEMORY).internal_fragmentation == pytest.approx(300 * 100)
        assert ledger.waste(CORES).internal_fragmentation == pytest.approx(1 * 100)
        assert ledger.waste(DISK).internal_fragmentation == pytest.approx(0.0)

    def test_failed_allocation_formula(self):
        """Waste = sum a_i * t_i over killed attempts."""
        ledger = Ledger(RESOURCES)
        task = completed_task(
            consumption=ResourceVector.of(cores=1, memory=500, disk=100),
            duration=100.0,
            attempts=[
                (ResourceVector.of(cores=1, memory=250, disk=100), 50.0, AttemptOutcome.EXHAUSTED),
                (ResourceVector.of(cores=1, memory=500, disk=100), 100.0, AttemptOutcome.SUCCESS),
            ],
        )
        ledger.record_task(task)
        assert ledger.waste(MEMORY).failed_allocation == pytest.approx(250 * 50)
        assert ledger.waste(MEMORY).internal_fragmentation == pytest.approx(0.0)
        # The failed attempt charges every resource it held.
        assert ledger.waste(CORES).failed_allocation == pytest.approx(1 * 50)

    def test_awe_formula(self):
        ledger = Ledger(RESOURCES)
        task = completed_task(
            consumption=ResourceVector.of(cores=1, memory=500, disk=100),
            duration=100.0,
            attempts=[
                (ResourceVector.of(cores=1, memory=250, disk=100), 50.0, AttemptOutcome.EXHAUSTED),
                (ResourceVector.of(cores=1, memory=1000, disk=100), 100.0, AttemptOutcome.SUCCESS),
            ],
        )
        ledger.record_task(task)
        expected = (500 * 100) / (250 * 50 + 1000 * 100)
        assert ledger.awe(MEMORY) == pytest.approx(expected)

    def test_eviction_excluded_from_awe(self):
        ledger = Ledger(RESOURCES)
        alloc = ResourceVector.of(cores=1, memory=1000, disk=100)
        task = completed_task(
            consumption=ResourceVector.of(cores=1, memory=500, disk=100),
            duration=100.0,
            attempts=[
                (alloc, 30.0, AttemptOutcome.EVICTED),
                (alloc, 100.0, AttemptOutcome.SUCCESS),
            ],
        )
        ledger.record_task(task)
        assert ledger.waste(MEMORY).eviction == pytest.approx(1000 * 30)
        # AWE only sees the successful attempt.
        assert ledger.awe(MEMORY) == pytest.approx(500 / 1000)
        assert ledger.n_evicted_attempts == 1

    def test_incomplete_task_rejected(self):
        ledger = Ledger(RESOURCES)
        spec = TaskSpec(
            task_id=0,
            category="p",
            consumption=ResourceVector.of(cores=1, memory=1, disk=1),
            duration=1.0,
        )
        with pytest.raises(ValueError):
            ledger.record_task(SimTask(spec))


class TestAggregation:
    def test_identity_holds(self):
        """allocation = consumption + fragmentation + failed, exactly."""
        ledger = Ledger(RESOURCES)
        for task_id in range(5):
            task = completed_task(
                task_id=task_id,
                consumption=ResourceVector.of(cores=1, memory=400 + 50 * task_id, disk=100),
                duration=60.0 + task_id,
                attempts=[
                    (
                        ResourceVector.of(cores=1, memory=300, disk=200),
                        20.0,
                        AttemptOutcome.EXHAUSTED,
                    ),
                    (
                        ResourceVector.of(cores=2, memory=700, disk=200),
                        60.0 + task_id,
                        AttemptOutcome.SUCCESS,
                    ),
                ],
            )
            ledger.record_task(task)
        assert ledger.identity_holds()

    def test_per_category_breakdown(self):
        ledger = Ledger(RESOURCES)
        ledger.record_task(completed_task(task_id=0, category="a"))
        ledger.record_task(completed_task(task_id=1, category="b"))
        assert set(ledger.categories()) == {"a", "b"}
        assert 0 < ledger.awe_of_category("a", MEMORY) <= 1.0
        assert ledger.waste_of_category("a", MEMORY).total >= 0

    def test_counters(self):
        ledger = Ledger(RESOURCES)
        ledger.record_task(
            completed_task(
                attempts=[
                    (
                        ResourceVector.of(cores=1, memory=250, disk=100),
                        10.0,
                        AttemptOutcome.EXHAUSTED,
                    ),
                    (
                        ResourceVector.of(cores=1, memory=1000, disk=100),
                        100.0,
                        AttemptOutcome.SUCCESS,
                    ),
                ]
            )
        )
        assert ledger.n_tasks == 1
        assert ledger.n_attempts == 2
        assert ledger.n_failed_attempts == 1

    def test_empty_resource_list_rejected(self):
        with pytest.raises(ValueError):
            Ledger(())

    def test_waste_breakdown_arithmetic(self):
        a = WasteBreakdown(internal_fragmentation=10.0, failed_allocation=5.0, eviction=2.0)
        b = WasteBreakdown(internal_fragmentation=1.0, failed_allocation=1.0)
        total = a + b
        assert total.internal_fragmentation == 11.0
        assert total.total == 17.0
        assert a.fraction_failed() == pytest.approx(5.0 / 15.0)
        assert WasteBreakdown().fraction_failed() == 0.0


class TestTablesBuiltOnce:
    def test_a_run_builds_each_categorys_tables_once(self, monkeypatch):
        """One ``WasteBreakdown`` per (category, resource) plus the
        totals, however many tasks and attempts the run folds in."""
        built = []
        init = WasteBreakdown.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(accounting.WasteBreakdown, "__init__", counting_init)
        workflow = make_workflow("topeft", n_tasks=60, seed=0)
        config = ExperimentConfig(workflow_seed=0).simulation_config("exhaustive_bucketing")
        manager = WorkflowManager(workflow, config)
        result = manager.run()
        ledger = manager.ledger
        assert ledger.n_tasks == len(workflow) and result.n_failed_attempts > 0
        categories = ledger.categories()
        assert len(categories) > 1
        resources = len(ledger.resources)
        assert len(built) == len(categories) * resources + resources

    def test_quarantine_then_completion_share_the_tables(self):
        ledger = Ledger(RESOURCES)
        burned = completed_task(
            task_id=0,
            attempts=[
                (ResourceVector.of(cores=1, memory=250, disk=100), 10.0, AttemptOutcome.EXHAUSTED)
            ],
        )
        burned.state = TaskState.QUARANTINED
        ledger.record_quarantined(burned)
        ledger.record_task(completed_task(task_id=1))
        assert ledger.categories() == ("proc",)
        waste = ledger.waste_of_category("proc", MEMORY)
        assert waste.failed_allocation == 250 * 10.0
        assert waste.internal_fragmentation == (1000 - 500) * 100.0
        assert ledger.awe_of_category("proc", MEMORY) == ledger.awe(MEMORY)


class TestAbsentResourceReadsZero:
    def test_omitted_component_folds_as_zero(self):
        """Vectors that leave a tracked resource out hold 0.0 of it."""
        no_disk = completed_task(
            consumption=ResourceVector.of(cores=1, memory=500),
            attempts=[
                (ResourceVector.of(cores=1, memory=250), 10.0, AttemptOutcome.EXHAUSTED),
                (ResourceVector.of(cores=1, memory=1000), 100.0, AttemptOutcome.SUCCESS),
            ],
        )
        def zero_disk_of(memory):
            return ResourceVector({CORES: 1, MEMORY: memory, DISK: 0.0})

        zero_disk = completed_task(
            consumption=zero_disk_of(500),
            attempts=[
                (zero_disk_of(250), 10.0, AttemptOutcome.EXHAUSTED),
                (zero_disk_of(1000), 100.0, AttemptOutcome.SUCCESS),
            ],
        )
        omitted, explicit = Ledger(RESOURCES), Ledger(RESOURCES)
        omitted.record_task(no_disk)
        explicit.record_task(zero_disk)
        (usage,) = omitted.task_usages()
        assert explicit.task_usages() == (usage,)
        assert usage.allocation[DISK] == usage.consumption[DISK] == 0.0
        assert omitted.state_dict() == explicit.state_dict()
