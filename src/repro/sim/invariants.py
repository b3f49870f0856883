"""Machine-checked simulation invariants (always on, opt-out).

The accounting identities of Section II-C are only trustworthy if they
hold *under adversity* — retries, and evictions when pool churn takes
a worker away.  This module wires a :class:`InvariantChecker` into the
manager, the worker pool and the ledger, and audits the conservation
laws continuously instead of only in tests:

* **Monotone clock** — simulation time never runs backwards (checked
  after every processed event).
* **Capacity conservation** — on every alive worker, the committed sum
  of hosted allocations never exceeds the worker's capacity in any
  resource (checked after every processed event, so an overcommitting
  placement is caught at the exact event that broke it).
* **Ledger identity** — ``allocation = consumption + fragmentation +
  failed`` per resource over the whole run (checked after every event,
  and again at completion).
* **Attempt accounting** — every attempt ends in exactly one of
  {success, kill, eviction}; a successful attempt's allocation covers
  the observed peaks (fragmentation is non-negative); a killed
  attempt's observed consumption never exceeds the limit that was
  enforced; per attempt the identity
  ``consumed + internal_frag + failed_alloc == allocated * runtime``
  holds for the managed resources.
* **Completion shape** — at the end of the run every task has exactly
  one successful attempt, it is the final one, and AWE lands in
  (0, 1] for every managed resource.

A violation raises :class:`InvariantViolation` (an ``AssertionError``
subclass) at the first event that broke the law, with enough context to
debug the run.  The checker is enabled by default through
:class:`~repro.sim.manager.SimulationConfig`; large perf sweeps can opt
out with ``check_invariants=False``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.resources import TIME, Resource, ResourceVector
from repro.sim.task import Attempt, AttemptOutcome, SimTask, TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.manager import WorkflowManager

__all__ = ["InvariantViolation", "InvariantChecker"]

#: Relative tolerance for float comparisons; identities are exact up to
#: accumulation order.
_RTOL = 1e-6


class InvariantViolation(AssertionError):
    """A simulation conservation law was broken."""


class InvariantChecker:
    """Continuous auditor for one :class:`WorkflowManager` run."""

    def __init__(self, manager: "WorkflowManager") -> None:
        self._manager = manager
        self._last_now = manager.engine.now
        self._events_checked = 0
        self._attempts_checked = 0
        #: Per resource of the last capacity audited: (resource,
        #: capacity, the committed sum above which it is overcommitted).
        #: A pool's workers share one capacity vector, so it is derived
        #: once per run.
        self._limits_of: Optional[ResourceVector] = None
        self._limits: Tuple[Tuple[Resource, float, float], ...] = ()
        manager.engine.add_listener(self.check_event)

    @property
    def events_checked(self) -> int:
        return self._events_checked

    @property
    def attempts_checked(self) -> int:
        return self._attempts_checked

    # -- per-event checks (engine listener) -----------------------------------------

    def check_event(self) -> None:
        """Audit clock, worker capacities and the ledger after an event."""
        self._events_checked += 1
        engine = self._manager.engine
        now = engine.now
        if now < self._last_now or now < engine.last_event_time:
            raise InvariantViolation(
                f"clock ran backwards: now={now} after "
                f"last_now={self._last_now}, event_time={engine.last_event_time}"
            )
        self._last_now = now
        for worker in self._manager.pool._workers.values():
            # Audit the free table itself, raw: unlike Worker.committed
            # this can see an overcommitted state, and a stale cached
            # fit bound cannot hide one.
            capacity = worker.capacity
            if capacity is not self._limits_of:
                self._limits_of = capacity
                self._limits = tuple(
                    (res, cap, cap * (1.0 + _RTOL) + 1e-9)
                    for res, cap in capacity.raw.items()
                )
            free = worker._free
            for res, cap, limit in self._limits:
                value = cap - free[res]
                if value > limit:
                    raise InvariantViolation(
                        f"worker {worker.worker_id} overcommitted at t={now}: "
                        f"{res.key} committed={value} > capacity={cap} "
                        f"(running={worker.running_task_ids})"
                    )
        if not self._manager.ledger.identity_holds():
            raise InvariantViolation(
                f"ledger identity broken at t={now}: allocation != "
                "consumption + fragmentation + failed (per-resource totals "
                "diverged after an ingest)"
            )
        # Task conservation: nothing ever disappears.  Every revealed
        # (submitted) task is either done, dead-lettered, or still in
        # flight; quarantined-but-unrevealed descendants are excluded
        # because the submission window has not surfaced them yet.
        manager = self._manager
        submitted = manager.submitted_tasks
        accounted = (
            manager.completed_tasks
            + (manager.quarantined_tasks - manager.quarantined_unrevealed)
            + manager.outstanding_tasks
        )
        if submitted != accounted:
            raise InvariantViolation(
                f"task conservation broken at t={now}: submitted={submitted} "
                f"!= completed({manager.completed_tasks}) + quarantined("
                f"{manager.quarantined_tasks} - "
                f"{manager.quarantined_unrevealed} unrevealed) + "
                f"outstanding({manager.outstanding_tasks})"
            )

    # -- per-attempt checks (called by the manager) ----------------------------------

    def check_attempt(self, task: SimTask, attempt: Attempt) -> None:
        """Audit one finished attempt the moment it is recorded."""
        self._attempts_checked += 1
        if attempt.outcome not in (
            AttemptOutcome.SUCCESS,
            AttemptOutcome.EXHAUSTED,
            AttemptOutcome.EVICTED,
        ):  # pragma: no cover - enum is closed, guards future outcomes
            raise InvariantViolation(
                f"task {task.task_id} attempt {attempt.index} has unknown "
                f"outcome {attempt.outcome!r}"
            )
        n_success = sum(
            1 for a in task.attempts if a.outcome is AttemptOutcome.SUCCESS
        )
        if n_success > 1 or (
            n_success == 1 and task.attempts[-1].outcome is not AttemptOutcome.SUCCESS
        ):
            raise InvariantViolation(
                f"task {task.task_id} succeeded more than once or kept running "
                f"after success (outcomes: {[a.outcome.value for a in task.attempts]})"
            )
        if attempt.runtime < 0:
            raise InvariantViolation(
                f"task {task.task_id} attempt {attempt.index} has negative "
                f"runtime {attempt.runtime}"
            )
        # The component dicts, read directly; an absent resource is 0.0,
        # as ``ResourceVector.__getitem__`` has it.
        allocation = attempt.allocation.raw
        peaks = task.spec.consumption.raw
        for res in self._resources():
            if res is TIME:
                continue
            limit = allocation.get(res, 0.0)
            allocated_rt = limit * attempt.runtime
            if attempt.outcome is AttemptOutcome.SUCCESS:
                # consumed + frag must reconstruct the held allocation.
                peak = peaks.get(res, 0.0)
                consumed = peak * attempt.runtime
                frag = (limit - peak) * attempt.runtime
                if frag < -self._tol(allocated_rt):
                    raise InvariantViolation(
                        f"task {task.task_id} succeeded with {res.key} allocation "
                        f"{limit} below its true peak {peak} (negative fragmentation)"
                    )
                if abs(consumed + frag - allocated_rt) > self._tol(allocated_rt):
                    raise InvariantViolation(
                        f"task {task.task_id} {res.key} attempt identity broken: "
                        f"consumed({consumed}) + frag({frag}) != "
                        f"allocated*runtime({allocated_rt})"
                    )
            elif attempt.outcome is AttemptOutcome.EXHAUSTED:
                # The whole holding is failed-allocation waste; the
                # monitor can never have observed more than it enforced.
                if res in attempt.exhausted:
                    observed = attempt.observed.raw.get(res, 0.0)
                    if observed > limit * (1.0 + _RTOL):
                        raise InvariantViolation(
                            f"task {task.task_id} was killed for {res.key} yet "
                            f"observed {observed} above its limit {limit}"
                        )

    # -- end-of-run checks -------------------------------------------------------------

    def check_complete(self) -> None:
        """Audit the finished run: outcomes, ledger identity, AWE range."""
        manager = self._manager
        ledger = manager.ledger
        if not ledger.identity_holds():
            raise InvariantViolation("ledger identity broken at completion")
        n_completed = 0
        n_quarantined = 0
        for task in manager.tasks():
            successes = [
                a for a in task.attempts if a.outcome is AttemptOutcome.SUCCESS
            ]
            if task.state is TaskState.QUARANTINED:
                n_quarantined += 1
                if successes:
                    raise InvariantViolation(
                        f"task {task.task_id} is quarantined yet has a "
                        f"successful attempt (outcomes: "
                        f"{[a.outcome.value for a in task.attempts]})"
                    )
                continue
            n_completed += 1
            if len(successes) != 1 or task.attempts[-1] is not successes[0]:
                raise InvariantViolation(
                    f"task {task.task_id} must end in exactly one success "
                    f"(outcomes: {[a.outcome.value for a in task.attempts]})"
                )
        if n_completed + n_quarantined != len(list(manager.tasks())):
            raise InvariantViolation(  # pragma: no cover - defensive
                "completed + quarantined does not cover the workflow"
            )
        for res in self._resources():
            awe = ledger.awe(res)
            if awe == 0.0 and ledger.total_consumption(res) <= 0.0:
                # Every task of the run was dead-lettered: zero
                # consumption against burned allocation is honest.
                continue
            if not (0.0 < awe <= 1.0 + _RTOL):
                raise InvariantViolation(
                    f"AWE({res.key}) = {awe} outside (0, 1]"
                )

    # -- helpers ------------------------------------------------------------------------

    def _resources(self) -> Tuple[Resource, ...]:
        return self._manager.ledger.resources

    @staticmethod
    def _tol(scale: float) -> float:
        return _RTOL * max(abs(scale), 1.0)

    def __repr__(self) -> str:
        return (
            f"InvariantChecker(events={self._events_checked}, "
            f"attempts={self._attempts_checked})"
        )
