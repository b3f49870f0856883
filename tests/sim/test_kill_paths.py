"""Kill-and-retry paths: the allocator's escalation ladder under fire.

Covers the satellite scenarios from the robustness issue: a retry that
climbs past the largest bucket must fall back to doubling, an attempt
evicted while running is re-enqueued with its pinned allocation, and
``predict_retry`` keeps making progress across repeated failures.
"""

import pytest

from repro.core.allocator import (
    AllocatorConfig,
    TaskOrientedAllocator,
)
from repro.core.resources import CORES, DISK, MEMORY, ResourceVector
from repro.sim.manager import SimulationConfig, WorkflowManager
from repro.sim.pool import ChurnConfig, PoolConfig
from repro.sim.task import AttemptOutcome
from repro.workflows.spec import TaskSpec, WorkflowSpec

CAPACITY = ResourceVector.of(cores=16, memory=64000, disk=64000)


def trained_allocator(algorithm="quantized_bucketing", peaks=(900, 1100, 2000, 2100)):
    """Allocator with enough completions to leave exploration."""
    allocator = TaskOrientedAllocator(
        AllocatorConfig(
            algorithm=algorithm,
            machine_capacity=CAPACITY,
            min_records=len(peaks),
            seed=0,
        )
    )
    for task_id, peak in enumerate(peaks, start=1):
        allocator.observe(
            "proc",
            ResourceVector.of(cores=1, memory=peak, disk=100),
            task_id=task_id,
        )
    assert not allocator.in_exploration("proc")
    return allocator


class TestRetryLadder:
    def test_retry_climbs_to_next_bucket(self):
        allocator = trained_allocator()
        previous = ResourceVector.of(cores=1, memory=900, disk=100)
        observed = ResourceVector.of(cores=1, memory=950, disk=50)
        retry = allocator.allocate_retry(
            "proc", task_id=10, previous=previous, observed=observed,
            exhausted=(MEMORY,),
        )
        # Next bucket representative is above the failed 900 MB limit
        # but at most the largest seen peak.
        assert 950 < retry[MEMORY] <= 2100
        # Non-exhausted resources are never grown on retry.
        assert retry[CORES] == previous[CORES]
        assert retry[DISK] == previous[DISK]

    def test_retry_past_largest_bucket_falls_back_to_doubling(self):
        allocator = trained_allocator()
        largest = 2100.0  # top bucket representative ceiling
        previous = ResourceVector.of(cores=1, memory=largest, disk=100)
        observed = ResourceVector.of(cores=1, memory=largest, disk=50)
        retry = allocator.allocate_retry(
            "proc", task_id=11, previous=previous, observed=observed,
            exhausted=(MEMORY,),
        )
        # No bucket above the previous allocation exists: doubling.
        assert retry[MEMORY] == pytest.approx(2 * largest)

    def test_repeated_failures_grow_monotonically_to_capacity(self):
        allocator = trained_allocator()
        current = ResourceVector.of(cores=1, memory=900, disk=100)
        values = [current[MEMORY]]
        for attempt in range(12, 30):
            current = allocator.allocate_retry(
                "proc",
                task_id=attempt,
                previous=current,
                observed=current,
                exhausted=(MEMORY,),
            )
            values.append(current[MEMORY])
            if current[MEMORY] >= CAPACITY[MEMORY]:
                break
        assert values == sorted(values)  # never shrinks
        assert values[-1] == CAPACITY[MEMORY]  # ladder tops out at capacity
        assert len(values) < 15  # geometric growth terminates fast

    def test_doubling_from_zero_exploratory_base(self):
        """A zero previous allocation must still make progress."""
        allocator = trained_allocator(algorithm="max_seen")
        retry = allocator.allocate_retry(
            "proc",
            task_id=50,
            previous=ResourceVector.of(cores=1, memory=3000, disk=0),
            observed=ResourceVector.of(cores=1, memory=100, disk=0),
            exhausted=(DISK,),
        )
        assert retry[DISK] > 0


class TestEvictionRequeue:
    def _run(self):
        tasks = [
            TaskSpec(
                task_id=i,
                category="proc",
                consumption=ResourceVector.of(cores=1, memory=800, disk=100),
                duration=60.0,
            )
            for i in range(8)
        ]
        config = SimulationConfig(
            allocator=AllocatorConfig(
                algorithm="max_seen",
                seed=1,
                min_records=3,
            ),
            # Workers live ~100 s against 60 s tasks: churn evicts.
            pool=PoolConfig(
                n_workers=2,
                capacity=CAPACITY,
                seed=2,
                churn=ChurnConfig(mean_lifetime=100.0, mean_interarrival=40.0),
            ),
        )
        manager = WorkflowManager(WorkflowSpec("evict", tasks), config)
        return manager, manager.run()

    def test_evicted_attempt_requeues_with_pinned_allocation(self):
        manager, result = self._run()
        assert result.n_tasks == 8
        assert result.n_evicted_attempts > 0
        for task in manager.tasks():
            for prev, nxt in zip(task.attempts, task.attempts[1:]):
                if prev.outcome is AttemptOutcome.EVICTED:
                    # Eviction is not the task's fault: the retry keeps
                    # the same allocation instead of escalating.
                    assert nxt.allocation == prev.allocation

    def test_eviction_not_counted_as_failure(self):
        manager, result = self._run()
        ledger = manager.ledger
        assert ledger.n_evicted_attempts == result.n_evicted_attempts
        # Evicted holdings sit in the eviction bucket, not failed_alloc,
        # so AWE stays within (0, 1] (worker-count independence).
        for res in ledger.resources:
            assert 0.0 < ledger.awe(res) <= 1.0 + 1e-9
