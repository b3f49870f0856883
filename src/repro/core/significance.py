"""Significance policies: how much weight a record carries.

The paper weights each record by a *significance* value so that recent
records dominate the bucket probabilities when a workflow changes
behaviour, and notes "there are many ways to set the significance value
of a task record.  In all experiments we simply set it to the task ID"
(Section V-A).  :data:`SIGNIFICANCE` maps a policy name to the function
from a task ID to its record's weight; the three are the ones the
significance ablation (E-X2) compares:

* ``"task_id"`` — the paper's choice: significance grows linearly with
  submission order, so a record's relative weight decays hyperbolically
  as newer tasks arrive.
* ``"uniform"`` — no recency at all (the ablation baseline): every
  record weighs the same forever.
* ``"exponential_decay"`` — geometric growth: each record weighs 0.95
  of its successor, far more aggressive forgetting.

Every policy is strictly positive and non-decreasing in the task ID — a
later record never weighs less than an earlier one.  The
:class:`~repro.core.allocator.TaskOrientedAllocator` applies its
configured policy whenever ``observe`` is called without an explicit
significance.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

__all__ = [
    "SIGNIFICANCE",
    "task_id_significance",
    "uniform_significance",
    "exponential_decay_significance",
]


def task_id_significance(task_id: int) -> float:
    """The paper's policy: significance = task ID (counted from 1)."""
    return float(max(task_id, 0)) + 1.0


def uniform_significance(task_id: int) -> float:
    """Every record weighs the same: no recency (ablation baseline)."""
    return 1.0


#: ``exponential_decay``'s growth per task, in log space: ``-ln(0.95)``.
_LOG_GROWTH = -math.log(0.95)


def exponential_decay_significance(task_id: int) -> float:
    """Weight ``(1/0.95) ** task_id``: a record ten submissions old
    carries ~60 % of the newest record's weight.

    The exponent is clamped at 600 to keep the weight finite, so from
    task ID 11,698 on every record weighs the same ``e**600`` and the
    policy no longer tells them apart.
    """
    return math.exp(min(task_id * _LOG_GROWTH, 600.0))


#: Policy name -> weight of the record of the task with that ID.
SIGNIFICANCE: Mapping[str, Callable[[int], float]] = {
    "task_id": task_id_significance,
    "uniform": uniform_significance,
    "exponential_decay": exponential_decay_significance,
}
