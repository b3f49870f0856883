"""What a finished simulated task keeps alive, and that keeping less moved nothing.

AWE and the waste split are whole-workflow sums, so the ledger keeps a
completed task's usage as columns and builds :class:`TaskUsage` rows
only when asked, and a task with no dependency left shares one empty
set.  The pins below are the hashes the row-per-task ledger produced
on the same fixed run.
"""

import dataclasses
import gc
import hashlib
import json
import pickle
import struct
import tracemalloc

import pytest

from repro.core.resources import MEMORY, TIME, ResourceVector
from repro.experiments.config import ExperimentConfig, make_workflow
from repro.metrics.summary import convergence_series
from repro.sim.accounting import Ledger
from repro.sim.manager import WorkflowManager
from repro.sim.pool import ChurnConfig
from repro.sim.task import Attempt, AttemptOutcome, SimTask, TaskState
from repro.workflows.spec import TaskSpec

#: Ledger bytes one completed task may keep.  Two resource columns of
#: three float64s, an id, a category reference and two counts are about
#: 80 B before the arrays' growth slack; a row per task was about 730 B.
LEDGER_BYTES_PER_TASK = 200

#: sha256 of ``json.dumps(ledger.state_dict())`` and of the packed
#: float64 convergence series (memory, window 15) on the fixed runs,
#: without and with worker churn, as the row-per-task ledger wrote them.
PINNED = {
    False: (
        "310c0de47eeca65f3aa967acfde55129afea3e76b43e732d303e7665f4832c49",
        "ee1a2913789214a25db30c430495db04333628054481a31170563772f4d32ffe",
    ),
    True: (
        "6976386527166cff2bf697079459c3d7262c302e48396e5bec6937b5ce2d8472",
        "b26e63c26d6a7c8a6db8dd6594ac63b9cc3fdb33e68e50efbd4d86d39de14749",
    ),
}


def fixed_run(churn):
    """302 TopEFT tasks under Exhaustive Bucketing; churn adds evictions."""
    config = ExperimentConfig(n_workers=6, ramp_up_seconds=0.0)
    simulation = config.simulation_config("exhaustive_bucketing")
    if churn:
        pool = dataclasses.replace(
            simulation.pool,
            churn=ChurnConfig(mean_lifetime=400.0, mean_interarrival=150.0, min_workers=2),
        )
        simulation = dataclasses.replace(simulation, pool=pool)
    manager = WorkflowManager(make_workflow("topeft", n_tasks=66, seed=3), simulation)
    return manager, manager.run()


@pytest.mark.parametrize("churn", [False, True], ids=["no-churn", "churn"])
def test_ledger_bytes_and_series_are_pinned(churn):
    _, result = fixed_run(churn)
    assert result.n_failed_attempts > 0
    assert (result.n_evicted_attempts > 0) == churn
    state = result.ledger.state_dict()
    series = convergence_series(result, MEMORY, window=15)
    packed = struct.pack(f"{len(series)}d", *series)
    assert (
        hashlib.sha256(json.dumps(state).encode()).hexdigest(),
        hashlib.sha256(packed).hexdigest(),
    ) == PINNED[churn]
    # A restored ledger writes the same bytes and answers the same rows.
    restored = Ledger.from_state(json.loads(json.dumps(state)))
    assert json.dumps(restored.state_dict()) == json.dumps(state)
    assert restored.task_usages() == result.ledger.task_usages()
    assert restored.n_tasks == result.ledger.n_tasks == 302


def test_task_usages_match_the_state_rows():
    _, result = fixed_run(churn=True)
    rows = result.ledger.state_dict()["tasks"]
    usages = result.ledger.task_usages()
    assert len(rows) == len(usages) == result.ledger.n_tasks
    for row, usage in zip(rows, usages):
        assert row["task_id"] == usage.task_id and row["category"] == usage.category
        assert row["consumption"] == {res.key: v for res, v in usage.consumption.items()}
        assert row["allocation"] == {res.key: v for res, v in usage.allocation.items()}
        assert row["n_failed_attempts"] == usage.n_failed_attempts
        assert row["n_evicted_attempts"] == usage.n_evicted_attempts
    assert sum(u.n_evicted_attempts for u in usages) == result.n_evicted_attempts


def test_a_completed_task_costs_the_ledger_few_bytes():
    manager, result = fixed_run(churn=False)
    tasks = manager.tasks()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ledger = Ledger(result.ledger.resources)
        for task in tasks:
            ledger.record_task(task)
        gc.collect()
        per_task = (tracemalloc.get_traced_memory()[0] - before) / len(tasks)
    finally:
        tracemalloc.stop()
    # Task-id order, not completion order: the same rows, other sums.
    assert sorted(ledger.task_usages(), key=lambda u: u.task_id) == sorted(
        result.ledger.task_usages(), key=lambda u: u.task_id
    )
    assert per_task <= LEDGER_BYTES_PER_TASK, f"{per_task:.0f} B per completed task"


def test_convergence_series_rejects_an_untracked_resource():
    _, result = fixed_run(churn=False)
    with pytest.raises(KeyError):
        convergence_series(result, TIME)


def test_attempts_and_results_survive_pickling():
    """The parallel grid ships results between processes by pickle."""
    manager, result = fixed_run(churn=True)
    attempts = [a for task in manager.tasks() for a in task.attempts]
    outcomes = {a.outcome for a in attempts}
    assert outcomes == set(AttemptOutcome)
    assert pickle.loads(pickle.dumps(attempts)) == attempts
    copy = pickle.loads(pickle.dumps(result))
    assert json.dumps(copy.state_dict()) == json.dumps(result.state_dict())
    assert copy.ledger.task_usages() == result.ledger.task_usages()


def _task(task_id, dependencies=()):
    return SimTask(
        TaskSpec(
            task_id=task_id,
            category="proc",
            consumption=ResourceVector.of(cores=1, memory=10),
            duration=1.0,
            dependencies=tuple(dependencies),
        )
    )


def test_a_duplicate_dependency_notification_is_a_no_op():
    task = _task(3, dependencies=(1, 2))
    assert task.state is TaskState.PENDING
    assert task.dependency_completed(1, now=5.0) is False
    assert task.dependency_completed(1, now=6.0) is False
    assert task.pending_dependencies == {2}
    assert task.dependency_completed(2, now=7.0) is True
    assert task.state is TaskState.READY and task.ready_time == 7.0
    for dep in (2, 1, 99):
        assert task.dependency_completed(dep, now=9.0) is False
    assert task.state is TaskState.READY and task.ready_time == 7.0


def test_tasks_with_no_dependency_left_share_one_empty_set():
    root, child = _task(0), _task(1, dependencies=(0,))
    assert isinstance(child.pending_dependencies, set)
    child.dependency_completed(0, now=1.0)
    assert child.pending_dependencies is root.pending_dependencies
    assert not root.pending_dependencies and isinstance(root.pending_dependencies, frozenset)


def test_attempts_stay_frozen():
    attempt = Attempt(
        index=0,
        worker_id=0,
        allocation=ResourceVector.of(cores=1),
        start_time=0.0,
        runtime=1.0,
        outcome=AttemptOutcome.SUCCESS,
        observed=ResourceVector.of(cores=1),
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        attempt.runtime = 2.0  # type: ignore[misc]
    assert dataclasses.replace(attempt, runtime=2.0).runtime == 2.0
