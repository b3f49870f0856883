"""Simulated task lifecycle and attempt history.

A :class:`SimTask` wraps a :class:`~repro.workflows.spec.TaskSpec` with
everything the manager needs at runtime: its state, the allocation of
the current attempt, and the full attempt history that the accounting
ledger later folds into the waste/AWE metrics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple, Union

from repro.core.resources import Resource, ResourceVector
from repro.workflows.spec import TaskSpec

__all__ = ["TaskState", "AttemptOutcome", "Attempt", "DeadLetterEntry", "SimTask"]


class TaskState(enum.Enum):
    """Lifecycle of a simulated task."""

    PENDING = "pending"        # waiting on dependencies
    READY = "ready"            # dependencies met, waiting for dispatch
    RUNNING = "running"        # placed on a worker
    COMPLETED = "completed"    # final attempt succeeded
    QUARANTINED = "quarantined"  # gave up: moved to the dead-letter list


class AttemptOutcome(enum.Enum):
    """How one placement of a task on a worker ended."""

    SUCCESS = "success"
    EXHAUSTED = "exhausted"    # killed for over-consuming its allocation
    EVICTED = "evicted"        # lost with its (opportunistic) worker


@dataclass(frozen=True)
class Attempt:
    """One completed placement of a task on a worker.

    ``runtime`` is the wall time the attempt actually held its
    allocation (the ``t_i`` of the failed-allocation waste term);
    ``observed`` is the peak consumption the monitor recorded.
    """

    index: int
    worker_id: int
    allocation: ResourceVector
    start_time: float
    runtime: float
    outcome: AttemptOutcome
    observed: ResourceVector
    exhausted: Tuple[Resource, ...] = ()

    def __post_init__(self) -> None:
        if self.runtime < 0:
            raise ValueError(f"attempt runtime must be >= 0, got {self.runtime}")
        if self.outcome is AttemptOutcome.EXHAUSTED and not self.exhausted:
            raise ValueError("EXHAUSTED attempts must name the exhausted resources")
        if self.outcome is not AttemptOutcome.EXHAUSTED and self.exhausted:
            raise ValueError(f"{self.outcome} attempts cannot have exhausted resources")

    @property
    def end_time(self) -> float:
        return self.start_time + self.runtime


@dataclass(frozen=True)
class DeadLetterEntry:
    """One quarantined task: who, when, why, and what it burned.

    ``reason`` is ``"retry_budget_exceeded"`` for a task that used up its
    retry budget, or ``"parent_quarantined"`` for a descendant that can
    now never run.
    """

    task_id: int
    category: str
    reason: str
    time: float
    n_attempts: int
    n_exhausted: int
    n_evicted: int

    def state_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "category": self.category,
            "reason": self.reason,
            "time": self.time,
            "n_attempts": self.n_attempts,
            "n_exhausted": self.n_exhausted,
            "n_evicted": self.n_evicted,
        }

    @classmethod
    def from_state(cls, state: dict) -> "DeadLetterEntry":
        return cls(
            task_id=int(state["task_id"]),
            category=str(state["category"]),
            reason=str(state["reason"]),
            time=float(state["time"]),
            n_attempts=int(state["n_attempts"]),
            n_exhausted=int(state["n_exhausted"]),
            n_evicted=int(state["n_evicted"]),
        )


#: What a task with no dependency left holds: one shared empty set
#: instead of a set per task.
_NO_DEPENDENCIES: FrozenSet[int] = frozenset()


class SimTask:
    """Runtime wrapper around a task spec."""

    __slots__ = (
        "spec",
        "state",
        "attempts",
        "current_allocation",
        "pending_dependencies",
        "ready_time",
        "completion_time",
    )

    def __init__(self, spec: TaskSpec) -> None:
        self.spec = spec
        self.state = TaskState.PENDING if spec.dependencies else TaskState.READY
        self.attempts: List[Attempt] = []
        #: Allocation to use for the next dispatch (set by the manager on
        #: first dispatch and after every exhaustion retry; preserved
        #: across evictions).
        self.current_allocation: Optional[ResourceVector] = None
        self.pending_dependencies: Union[Set[int], FrozenSet[int]] = (
            set(spec.dependencies) if spec.dependencies else _NO_DEPENDENCIES
        )
        self.ready_time: Optional[float] = 0.0 if not spec.dependencies else None
        self.completion_time: Optional[float] = None

    # -- identity passthroughs ----------------------------------------------------

    @property
    def task_id(self) -> int:
        return self.spec.task_id

    @property
    def category(self) -> str:
        return self.spec.category

    # -- lifecycle ------------------------------------------------------------------

    def dependency_completed(self, dep_id: int, now: float) -> bool:
        """Mark a dependency done; True if the task just became ready."""
        pending = self.pending_dependencies
        if isinstance(pending, set):
            pending.discard(dep_id)
            if not pending:
                self.pending_dependencies = _NO_DEPENDENCIES
        if self.state is TaskState.PENDING and not self.pending_dependencies:
            self.state = TaskState.READY
            self.ready_time = now
            return True
        return False

    def record_attempt(self, attempt: Attempt) -> None:
        if attempt.index != len(self.attempts):
            raise ValueError(
                f"attempt index {attempt.index} out of order "
                f"(expected {len(self.attempts)})"
            )
        self.attempts.append(attempt)

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    @property
    def n_exhausted_attempts(self) -> int:
        return sum(1 for a in self.attempts if a.outcome is AttemptOutcome.EXHAUSTED)

    @property
    def n_evicted_attempts(self) -> int:
        return sum(1 for a in self.attempts if a.outcome is AttemptOutcome.EVICTED)

    def final_attempt(self) -> Attempt:
        if self.state is not TaskState.COMPLETED or not self.attempts:
            raise RuntimeError(f"task {self.task_id} has not completed")
        return self.attempts[-1]

    def __repr__(self) -> str:
        return (
            f"SimTask(id={self.task_id}, cat={self.category!r}, "
            f"state={self.state.value}, attempts={len(self.attempts)})"
        )
