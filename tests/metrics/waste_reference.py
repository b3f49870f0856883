"""Reference accounting: Section II-C's waste and AWE in closed form.

Test-only.  :class:`repro.sim.accounting.Ledger` folds attempts into its
totals as they finish; these functions recompute the same quantities
from a completed :class:`~repro.sim.task.SimTask`'s attempt history,
straight from the paper's formulas.  For a task allocated ``a`` units
over ``t`` seconds that consumed at most ``c``, after ``k`` failed
attempts of ``(a_i, t_i)``:

``ResourceWaste(T) = t * (a - c) + sum_{i=1..k} a_i * t_i``

and ``AWE = sum_i c_i * t_i / sum_i A(T_i)``.  ``test_waste.py`` and
``test_efficiency.py`` require the ledger to agree with them.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.resources import Resource
from repro.sim.task import AttemptOutcome, SimTask

__all__ = [
    "awe_from_tasks",
    "task_internal_fragmentation",
    "task_failed_allocation",
    "task_eviction_holding",
    "task_resource_waste",
]


def _require_completed(task: SimTask) -> None:
    if not task.attempts or task.attempts[-1].outcome is not AttemptOutcome.SUCCESS:
        raise ValueError(f"task {task.task_id} has not completed successfully")


def task_internal_fragmentation(task: SimTask, resource: Resource) -> float:
    """``t * (a - c)`` on the successful attempt (resource-seconds)."""
    _require_completed(task)
    final = task.attempts[-1]
    return max(
        0.0,
        (final.allocation[resource] - task.spec.consumption[resource]) * final.runtime,
    )


def _held(task: SimTask, resource: Resource, outcome: AttemptOutcome) -> float:
    _require_completed(task)
    return sum(
        attempt.allocation[resource] * attempt.runtime
        for attempt in task.attempts
        if attempt.outcome is outcome
    )


def task_failed_allocation(task: SimTask, resource: Resource) -> float:
    """``sum a_i * t_i`` over the exhaustion-killed attempts."""
    return _held(task, resource, AttemptOutcome.EXHAUSTED)


def task_eviction_holding(task: SimTask, resource: Resource) -> float:
    """Resource-seconds held by attempts lost to worker eviction.

    Outside the paper's waste definition; the ledger reports it apart.
    """
    return _held(task, resource, AttemptOutcome.EVICTED)


def task_resource_waste(task: SimTask, resource: Resource) -> float:
    """The paper's ResourceWaste(T): fragmentation + failed allocation."""
    return task_internal_fragmentation(task, resource) + task_failed_allocation(
        task, resource
    )


def awe_from_tasks(tasks: Iterable[SimTask], resource: Resource) -> float:
    """AWE over completed tasks; evicted attempts leave the denominator,
    as in the ledger (the metric must not depend on pool churn)."""
    consumed = 0.0
    allocated = 0.0
    for task in tasks:
        _require_completed(task)
        consumed += task.spec.consumption[resource] * task.spec.duration
        for attempt in task.attempts:
            if attempt.outcome is not AttemptOutcome.EVICTED:
                allocated += attempt.allocation[resource] * attempt.runtime
    if allocated <= 0.0:
        return 1.0 if consumed <= 0.0 else 0.0
    return consumed / allocated
