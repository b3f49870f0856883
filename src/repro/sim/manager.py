"""The workflow manager: glue between workflow, allocator and simulator.

:class:`WorkflowManager` drives one workflow run end to end, mirroring
Figure 1/3a:

1. submit every task (dependency-free tasks are ready immediately;
   others wait for their parents);
2. at dispatch time, ask the :class:`TaskOrientedAllocator` for the
   task's allocation — first attempt through :meth:`allocate`, retries
   through :meth:`allocate_retry`;
3. decide each attempt's fate up front with the consumption profile
   (the simulator knows the hidden truth; the allocator never sees it)
   and schedule the completion or kill event;
4. on success, feed the resource record back to the allocator and the
   ledger; on exhaustion, grow the allocation and requeue; on eviction
   (the worker left the pool: churn, the simulator's one adversity
   model, see :mod:`repro.sim.pool`), requeue with the same
   allocation.  The paper's retry loop is unbounded;
   ``SimulationConfig.retry_budget`` is its one bound, dead-lettering a
   task after that many exhausted attempts.

``run()`` returns a :class:`SimulationResult` bundling the ledger and
run-level statistics — the unit every experiment module consumes.
"""

from __future__ import annotations

import dataclasses
import numbers
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.allocator import AllocatorConfig, TaskOrientedAllocator
from repro.core.resources import TIME, Resource, ResourceVector
from repro.sim.accounting import Ledger, WasteBreakdown
from repro.sim.engine import SimulationEngine
from repro.sim.invariants import InvariantChecker
from repro.sim.pool import PoolConfig, WorkerPool
from repro.sim.profiles import ConsumptionProfile, LinearRampProfile
from repro.sim.scheduler import Scheduler
from repro.sim.task import Attempt, AttemptOutcome, DeadLetterEntry, SimTask, TaskState
from repro.sim.trace import SimEvent
from repro.sim.worker import Worker
from repro.workflows.spec import WorkflowSpec

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "WorkflowManager",
    "check_count",
]


def check_count(name: str, value: object) -> None:
    """Refuse an optional count that is not ``None`` or an ``int >= 1``
    (a ``bool`` is refused too)."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything configurable about one simulated run."""

    allocator: AllocatorConfig = field(default_factory=AllocatorConfig)
    pool: PoolConfig = field(default_factory=PoolConfig)
    profile: ConsumptionProfile = field(default_factory=LinearRampProfile)
    #: Maximum tasks revealed to the scheduler but not yet completed.
    #: Dynamic applications (Colmena's batched molecule campaigns,
    #: Coffea's chunked submission) keep a bounded number of tasks in
    #: flight rather than dumping the whole run at t=0; ``None`` models
    #: the dump-everything extreme.
    max_outstanding: Optional[int] = None
    #: Allocate every task exactly its true peak consumption (and true
    #: duration, when TIME is managed).  The oracle of Section II-C:
    #: zero waste, AWE = 1 by construction.  Not realizable online — it
    #: exists as the reference ceiling for experiments and tests.
    oracle: bool = False
    #: Hard bound on processed events; a livelocked run raises instead of
    #: spinning (attempts per task are bounded by doubling, so legitimate
    #: runs stay far below ~20 events/task).
    max_events: Optional[int] = None
    #: Continuous invariant auditing (see :mod:`repro.sim.invariants`).
    #: On by default — the conservation laws are cheap relative to the
    #: dispatch scan; very large perf sweeps may opt out.
    check_invariants: bool = True
    #: Poison-task quarantine: a task is dead-lettered once it has this
    #: many *exhausted* attempts instead of retrying forever (evictions
    #: never count), and its waiting descendants with it.  ``None`` is
    #: the paper's unbounded retry, under which a
    #: workflow holding a task larger than every worker is refused up
    #: front.
    retry_budget: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_outstanding", "max_events", "retry_budget"):
            check_count(name, getattr(self, name))

    def effective_max_events(self, n_tasks: int) -> int:
        if self.max_events is not None:
            return self.max_events
        return max(10_000, 200 * n_tasks)


@dataclass
class SimulationResult:
    """Outcome of one (workflow, algorithm) simulated run."""

    workflow_name: str
    algorithm: str
    ledger: Ledger
    makespan: float
    n_tasks: int
    n_attempts: int
    n_failed_attempts: int
    n_evicted_attempts: int
    workers_joined: int
    workers_left: int
    wall_clock_seconds: float
    #: Tasks moved to the dead-letter list instead of completing.
    n_quarantined: int = 0
    #: The dead-letter entries themselves, in quarantine order.
    dead_letters: Tuple[DeadLetterEntry, ...] = ()

    def awe(self, resource: Resource) -> float:
        return self.ledger.awe(resource)

    def waste(self, resource: Resource) -> WasteBreakdown:
        return self.ledger.waste(resource)

    def summary(self) -> Dict[str, object]:
        """Flat dict for tabular reporting."""
        row: Dict[str, object] = {
            "workflow": self.workflow_name,
            "algorithm": self.algorithm,
            "tasks": self.n_tasks,
            "attempts": self.n_attempts,
            "failed_attempts": self.n_failed_attempts,
            "evicted_attempts": self.n_evicted_attempts,
            "quarantined": self.n_quarantined,
            "makespan_s": round(self.makespan, 3),
        }
        for res in self.ledger.resources:
            row[f"awe_{res.key}"] = round(self.ledger.awe(res), 4)
        return row

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot (exact floats) for the grid-result journal.

        ``wall_clock_seconds`` rides along for reporting but is the one
        field that is *not* reproducible across runs; bit-identity
        comparisons must exclude it.
        """
        return {
            "workflow_name": self.workflow_name,
            "algorithm": self.algorithm,
            "ledger": self.ledger.state_dict(),
            "makespan": self.makespan,
            "n_tasks": self.n_tasks,
            "n_attempts": self.n_attempts,
            "n_failed_attempts": self.n_failed_attempts,
            "n_evicted_attempts": self.n_evicted_attempts,
            "workers_joined": self.workers_joined,
            "workers_left": self.workers_left,
            "wall_clock_seconds": self.wall_clock_seconds,
            "n_quarantined": self.n_quarantined,
            "dead_letters": [entry.state_dict() for entry in self.dead_letters],
        }

    @classmethod
    def from_state(cls, state: dict) -> "SimulationResult":
        """Rebuild a result journaled by :meth:`state_dict`.

        The quarantine keys are read with defaults so journals written
        before quarantine existed still load, and the retired
        ``resilience_stats`` and ``fault_stats`` keys of older journals
        are ignored.
        """
        return cls(
            workflow_name=state["workflow_name"],
            algorithm=state["algorithm"],
            ledger=Ledger.from_state(state["ledger"]),
            makespan=float(state["makespan"]),
            n_tasks=int(state["n_tasks"]),
            n_attempts=int(state["n_attempts"]),
            n_failed_attempts=int(state["n_failed_attempts"]),
            n_evicted_attempts=int(state["n_evicted_attempts"]),
            workers_joined=int(state["workers_joined"]),
            workers_left=int(state["workers_left"]),
            wall_clock_seconds=float(state["wall_clock_seconds"]),
            n_quarantined=int(state.get("n_quarantined", 0)),
            dead_letters=tuple(
                DeadLetterEntry.from_state(doc)
                for doc in state.get("dead_letters", ())
            ),
        )


class WorkflowManager:
    """Run one workflow against one allocator configuration."""

    def __init__(self, workflow: WorkflowSpec, config: Optional[SimulationConfig] = None) -> None:
        self._workflow = workflow
        self._config = config if config is not None else SimulationConfig()
        if self._config.retry_budget is None:
            # Without a budget an oversized (poison) task would retry
            # forever, so it is rejected up front; with one it is
            # admitted and dead-lettered.
            workflow.validate_fits(self._config.pool.capacity)

        self._engine = SimulationEngine()
        self._pool = WorkerPool(self._engine, self._config.pool)
        # The allocator's notion of "a whole machine" must be the pool's
        # actual worker shape — Whole Machine allocations, the
        # whole-machine exploratory policy and the capacity clamp all
        # depend on it.
        allocator_config = self._config.allocator
        if allocator_config.machine_capacity != self._config.pool.capacity:
            allocator_config = dataclasses.replace(
                allocator_config, machine_capacity=self._config.pool.capacity
            )
        self._allocator = TaskOrientedAllocator(allocator_config)
        self._ledger = Ledger(self._config.allocator.resources)
        self._manage_time = TIME in self._config.allocator.resources

        self._tasks: Dict[int, SimTask] = {
            spec.task_id: SimTask(spec) for spec in workflow
        }
        #: task_id -> position in the workflow's submission order; used
        #: to tell whether a cascade-quarantined task was ever revealed.
        self._spec_index: Dict[int, int] = {
            spec.task_id: i for i, spec in enumerate(workflow.tasks)
        }
        # Reverse dependency index: parent -> children waiting on it.
        self._children: Dict[int, List[int]] = {}
        for spec in workflow:
            for dep in spec.dependencies:
                self._children.setdefault(dep, []).append(spec.task_id)

        self._scheduler = Scheduler(
            self._pool,
            allocation_of=self._allocation_of,
            allocation_version=self._allocation_version,
            start_attempt=self._start_attempt,
            may_dispatch=self._may_dispatch,
        )
        self._running_per_category: Dict[str, int] = {}
        self._explore_concurrency = (
            self._config.allocator.exploratory.effective_explore_concurrency
        )
        self._pool.on_worker_joined = self._on_worker_joined
        self._pool.on_worker_leaving = self._on_worker_leaving

        #: Subscribers to the manager's event stream (trace recorders).
        self._event_listeners: List[Callable[[SimEvent], None]] = []
        self._invariants: Optional[InvariantChecker] = (
            InvariantChecker(self) if self._config.check_invariants else None
        )

        #: attempt validity tokens: an eviction invalidates the pending
        #: end-of-attempt event of the evicted task.
        self._attempt_token: Dict[int, int] = {t: 0 for t in self._tasks}
        self._attempt_start: Dict[int, float] = {}
        self._completed = 0
        self._quarantined = 0
        self._dead_letters: List[DeadLetterEntry] = []
        #: Cascade-quarantined tasks the submission window has not yet
        #: revealed; needed to state the conservation law exactly.
        self._quarantined_unrevealed = 0
        self._next_to_submit = 0
        self._outstanding = 0
        self._ran = False

    # -- public API --------------------------------------------------------------

    @property
    def workflow(self) -> WorkflowSpec:
        return self._workflow

    @property
    def allocator(self) -> TaskOrientedAllocator:
        return self._allocator

    @property
    def engine(self) -> SimulationEngine:
        return self._engine

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    @property
    def ledger(self) -> Ledger:
        return self._ledger

    @property
    def invariants(self) -> Optional[InvariantChecker]:
        return self._invariants

    def tasks(self) -> Tuple[SimTask, ...]:
        return tuple(self._tasks.values())

    def add_event_listener(self, listener: Callable[[SimEvent], None]) -> None:
        """Subscribe to the manager's event stream (trace recording)."""
        self._event_listeners.append(listener)

    def _emit(self, kind: str, **fields) -> None:
        # The per-attempt call sites test ``_event_listeners`` first, so
        # a run nobody listens to builds no event and no field dict.
        if self._event_listeners:
            event = SimEvent(time=self._engine.now, kind=kind, fields=fields)
            for listener in self._event_listeners:
                listener(event)

    @property
    def algorithm_label(self) -> str:
        """The algorithm name reported in results ("oracle" in oracle mode)."""
        return "oracle" if self._config.oracle else self._config.allocator.algorithm

    @property
    def completed_tasks(self) -> int:
        return self._completed

    @property
    def quarantined_tasks(self) -> int:
        """Tasks moved to the dead-letter list (0 without a retry budget)."""
        return self._quarantined

    @property
    def quarantined_unrevealed(self) -> int:
        """Quarantined tasks the submission window never revealed."""
        return self._quarantined_unrevealed

    @property
    def submitted_tasks(self) -> int:
        """Tasks revealed to the scheduler so far."""
        return self._next_to_submit

    @property
    def outstanding_tasks(self) -> int:
        """Revealed tasks that are neither completed nor quarantined."""
        return self._outstanding

    @property
    def terminal_tasks(self) -> int:
        """Tasks that reached a final state (completed or quarantined)."""
        return self._completed + self._quarantined

    def run(self) -> SimulationResult:
        """Execute the workflow to completion and return the result."""
        if self._ran:
            raise RuntimeError("a WorkflowManager instance runs exactly once")
        self._ran = True
        # reprolint: disable=R1,F3  # feeds reporting-only wall_clock_seconds, never the sim
        started_wall = _time.perf_counter()
        self._submit_more()
        self._engine.schedule(0.0, self._dispatch)
        self._engine.run(
            max_events=self._config.effective_max_events(len(self._workflow))
        )
        if self.terminal_tasks != len(self._workflow):
            raise RuntimeError(
                f"simulation drained with {self._completed}/{len(self._workflow)} "
                f"tasks completed and {self._quarantined} quarantined — the pool "
                "can no longer host the remaining tasks"
            )
        if self._invariants is not None:
            self._invariants.check_complete()
        assert self._ledger.identity_holds(), "accounting identity violated"

        terminal_times = [
            t.completion_time
            for t in self._tasks.values()
            if t.completion_time is not None
        ]
        terminal_times.extend(entry.time for entry in self._dead_letters)
        makespan = max(terminal_times, default=0.0)
        self._emit("complete", tasks=self._completed, attempts=self._ledger.n_attempts)
        return SimulationResult(
            workflow_name=self._workflow.name,
            algorithm=self.algorithm_label,
            ledger=self._ledger,
            makespan=makespan,
            n_tasks=len(self._workflow),
            n_attempts=self._ledger.n_attempts,
            n_failed_attempts=self._ledger.n_failed_attempts,
            n_evicted_attempts=self._ledger.n_evicted_attempts,
            workers_joined=self._pool.total_joined,
            workers_left=self._pool.total_left,
            # reprolint: disable=R1,F3  # reporting-only diagnostic, excluded from digests
            wall_clock_seconds=_time.perf_counter() - started_wall,
            n_quarantined=self._quarantined,
            dead_letters=tuple(self._dead_letters),
        )

    # -- allocation hooks ---------------------------------------------------------------

    def _allocation_of(self, task: SimTask) -> ResourceVector:
        if self._config.oracle:
            values = {
                res: task.spec.consumption[res]
                for res in self._config.allocator.resources
                if res is not TIME
            }
            if self._manage_time:
                values[TIME] = task.spec.duration
            return ResourceVector(values)
        return self._allocator.allocate(task.category, task.task_id)

    def _allocation_version(self, task: SimTask) -> Optional[int]:
        if self._config.oracle:
            return None  # the true peak never goes stale
        return self._allocator.version(task.category)

    def _may_dispatch(self, category: str) -> bool:
        """Exploratory concurrency gate (see ExploratoryConfig).

        While a category is still collecting its bootstrap records, only
        a bounded number of its tasks may run at once; the rest wait in
        the queue so their dispatch-time predictions can use the records
        the explorers produce.
        """
        if not self._allocator.in_exploration(category):
            return True
        running = self._running_per_category.get(category, 0)
        return running < self._explore_concurrency

    # -- submission pacing -----------------------------------------------------------------

    def _submit_more(self) -> None:
        """Reveal tasks to the scheduler up to the outstanding window."""
        limit = self._config.max_outstanding
        specs = self._workflow.tasks
        while self._next_to_submit < len(specs) and (
            limit is None or self._outstanding < limit
        ):
            task = self._tasks[specs[self._next_to_submit].task_id]
            self._next_to_submit += 1
            if task.state is TaskState.QUARANTINED:
                # Already dead-lettered through a quarantined parent
                # before the window reached it; it is now revealed.
                self._quarantined_unrevealed -= 1
                continue
            self._outstanding += 1
            if task.state is TaskState.READY:
                self._enqueue(task)
            # PENDING tasks are submitted but wait for their parents; the
            # dependency-completion hook enqueues them.

    # -- attempt lifecycle ----------------------------------------------------------------

    def _start_attempt(self, task: SimTask, worker: Worker) -> None:
        allocation = task.current_allocation
        assert allocation is not None
        worker.place(task.task_id, allocation)
        if self._event_listeners:
            self._emit(
                "dispatch", task=task.task_id, worker=worker.worker_id, alloc=allocation
            )
        now = self._engine.now
        self._attempt_start[task.task_id] = now
        self._running_per_category[task.category] = (
            self._running_per_category.get(task.category, 0) + 1
        )

        time_limit = allocation[TIME] if self._manage_time else None
        verdict = self._config.profile.check(
            allocation, task.spec.consumption, task.spec.duration, time_limit
        )
        runtime = task.spec.duration * verdict.fraction
        token = self._attempt_token[task.task_id]
        self._engine.schedule(
            runtime,
            lambda: self._end_attempt(task, worker, verdict, runtime, token),
        )

    def _record_attempt(self, task: SimTask, attempt: Attempt) -> None:
        """Single chokepoint for attempt history: record, then audit."""
        task.record_attempt(attempt)
        if self._invariants is not None:
            self._invariants.check_attempt(task, attempt)

    def _end_attempt(self, task, worker, verdict, runtime: float, token: int) -> None:
        if self._attempt_token[task.task_id] != token:
            return  # the attempt was evicted; this event is stale
        self._attempt_token[task.task_id] += 1
        worker.release(task.task_id, held_for=runtime)
        start = self._attempt_start.pop(task.task_id)
        self._running_per_category[task.category] -= 1

        allocation = task.current_allocation
        assert allocation is not None
        if verdict.success:
            attempt = Attempt(
                index=task.n_attempts,
                worker_id=worker.worker_id,
                allocation=allocation,
                start_time=start,
                runtime=task.spec.duration,
                outcome=AttemptOutcome.SUCCESS,
                observed=task.spec.consumption,
            )
            self._record_attempt(task, attempt)
            if self._event_listeners:
                self._emit("success", task=task.task_id, worker=worker.worker_id)
            task.state = TaskState.COMPLETED
            task.completion_time = self._engine.now
            self._completed += 1
            peaks = task.spec.consumption
            if self._manage_time:
                # The TIME record is the task's true duration — the peak
                # "consumption" of wall time.
                peaks = peaks.replace(TIME, task.spec.duration)
            self._allocator.observe(task.category, peaks, task_id=task.task_id)
            self._ledger.record_task(task)
            self._outstanding -= 1
            self._submit_more()
            self._notify_children(task)
            if self.terminal_tasks == len(self._workflow):
                self._stop_generators()
                return
        else:
            attempt = Attempt(
                index=task.n_attempts,
                worker_id=worker.worker_id,
                allocation=allocation,
                start_time=start,
                runtime=runtime,
                outcome=AttemptOutcome.EXHAUSTED,
                observed=verdict.observed,
                exhausted=verdict.exhausted,
            )
            self._record_attempt(task, attempt)
            if self._event_listeners:
                self._emit(
                    "exhausted",
                    task=task.task_id,
                    worker=worker.worker_id,
                    resources=tuple(r.key for r in verdict.exhausted),
                )
            task.state = TaskState.READY
            budget = self._config.retry_budget
            if budget is not None and task.n_exhausted_attempts >= budget:
                self._quarantine_task(task)
            else:
                task.current_allocation = self._allocator.allocate_retry(
                    task.category,
                    task.task_id,
                    previous=allocation,
                    observed=verdict.observed,
                    exhausted=verdict.exhausted,
                )
                self._scheduler.enqueue_retry(task)
        self._dispatch()

    def _notify_children(self, task: SimTask) -> None:
        for child_id in self._children.get(task.task_id, ()):  # dynamic DAG fan-out
            child = self._tasks[child_id]
            if child.dependency_completed(task.task_id, self._engine.now):
                self._enqueue(child)

    def _enqueue(self, task: SimTask) -> None:
        if self._config.oracle:
            # The oracle's allocation is fixed the moment the task is
            # ready, so it is queued with it and the scheduler's
            # saturation gate sees it (repro.sim.scheduler).
            task.current_allocation = self._allocation_of(task)
        self._scheduler.enqueue(task)

    # -- pool callbacks ----------------------------------------------------------------------

    def _on_worker_joined(self, worker: Worker) -> None:
        self._emit("worker_join", worker=worker.worker_id)
        self._dispatch()

    def _on_worker_leaving(self, worker: Worker, evicted: Dict[int, ResourceVector]) -> None:
        self._emit(
            "worker_leave", worker=worker.worker_id, evicted=tuple(evicted)
        )
        for task_id, allocation in evicted.items():
            self._evict_attempt(task_id, allocation, worker.worker_id)
        if evicted:
            self._dispatch()

    def _evict_attempt(
        self, task_id: int, allocation: ResourceVector, worker_id: int
    ) -> None:
        """Bookkeeping for an attempt lost with its departed worker.

        Invalidate the pending end-of-attempt event, record an EVICTED
        attempt with the consumption observed so far, and requeue the
        task with its allocation unchanged — eviction says nothing about
        the allocation's adequacy.
        """
        now = self._engine.now
        task = self._tasks[task_id]
        self._attempt_token[task_id] += 1  # invalidate the pending end event
        start = self._attempt_start.pop(task_id, now)
        self._running_per_category[task.category] -= 1
        elapsed = now - start
        fraction = min(1.0, elapsed / task.spec.duration) if task.spec.duration > 0 else 0.0
        observed = ResourceVector(
            {
                res: min(
                    self._config.profile.consumed_at(
                        task.spec.consumption[res], fraction
                    ),
                    task.spec.consumption[res],
                )
                for res in task.spec.consumption
                if res is not TIME
            }
        )
        attempt = Attempt(
            index=task.n_attempts,
            worker_id=worker_id,
            allocation=allocation,
            start_time=start,
            runtime=elapsed,
            outcome=AttemptOutcome.EVICTED,
            observed=observed,
        )
        self._record_attempt(task, attempt)
        if self._event_listeners:
            self._emit("evicted", task=task_id, worker=worker_id, cause="worker_lost")
        task.state = TaskState.READY
        self._scheduler.enqueue_retry(task)

    # -- poison-task quarantine ------------------------------------------------------------

    def _quarantine_task(self, task: SimTask) -> None:
        """Move one task that used up its retry budget to the dead-letter list.

        The task's burned attempts are charged to the accounting ledger
        (failed-allocation waste), descendants that can now never run
        are cascade-quarantined, and the freed submission-window slot is
        refilled — the rest of the workflow keeps going.
        """
        self._dead_letter(task, "retry_budget_exceeded")
        self._outstanding -= 1
        stack = list(self._children.get(task.task_id, ()))
        while stack:
            child = self._tasks[stack.pop()]
            if child.state is not TaskState.PENDING:
                continue
            self._dead_letter(child, "parent_quarantined")
            if self._spec_index[child.task_id] < self._next_to_submit:
                self._outstanding -= 1
            else:
                self._quarantined_unrevealed += 1
            stack.extend(self._children.get(child.task_id, ()))
        self._submit_more()
        if self.terminal_tasks == len(self._workflow):
            self._stop_generators()

    def _dead_letter(self, task: SimTask, reason: str) -> None:
        task.state = TaskState.QUARANTINED
        self._dead_letters.append(
            DeadLetterEntry(
                task_id=task.task_id,
                category=task.category,
                reason=reason,
                time=self._engine.now,
                n_attempts=task.n_attempts,
                n_exhausted=task.n_exhausted_attempts,
                n_evicted=task.n_evicted_attempts,
            )
        )
        self._ledger.record_quarantined(task)
        self._quarantined += 1
        self._emit(
            "quarantine", task=task.task_id, reason=reason, attempts=task.n_attempts
        )

    def _stop_generators(self) -> None:
        """Terminal state reached: let the event queue drain."""
        self._pool.stop()

    # -- dispatch trampoline -------------------------------------------------------------------

    def _dispatch(self) -> None:
        self._scheduler.try_dispatch()
