"""Reference scheduler: the task-by-task FIFO walk ``Scheduler`` replaced.

Test-only.  This is ``repro.sim.scheduler.Scheduler`` as it stood before
the indexed ready queue, moved here verbatim (class renamed, gate still
called per *task*): every pass pops, gates, probes and re-appends every
queued task.  ``test_scheduler_differential.py`` drives it and the
indexed scheduler through the same operations and requires identical
dispatches and identical ``allocation_of`` call sequences.

One rule changed with ``Scheduler`` since the move: the saturation
short-circuit holds only while no queued task's allocation could fit a
worker without headroom (:meth:`_saturated`), so a zero-core task is
still offered to a worker whose cores are full.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Hashable, Optional, Set

from repro.core.resources import ResourceVector
from repro.sim.pool import WorkerPool
from repro.sim.task import SimTask, TaskState
from repro.sim.worker import Worker

__all__ = ["LinearScanScheduler"]


class LinearScanScheduler:
    """FIFO-with-backfill dispatcher that walks the whole queue per pass."""

    def __init__(
        self,
        pool: WorkerPool,
        allocation_of: Callable[[SimTask], ResourceVector],
        allocation_version: Callable[[SimTask], Hashable],
        start_attempt: Callable[[SimTask, Worker], None],
        may_dispatch: Optional[Callable[[SimTask], bool]] = None,
    ) -> None:
        self._pool = pool
        self._allocation_of = allocation_of
        self._allocation_version = allocation_version
        self._start_attempt = start_attempt
        #: Policy gate evaluated before placement (e.g. the exploratory
        #: concurrency bound); gated tasks stay queued.
        self._may_dispatch = may_dispatch
        self._ready: Deque[SimTask] = deque()
        #: task_id -> version of the allocator state the cached first-
        #: attempt prediction was computed against.
        self._cached_version: dict = {}
        #: tasks whose current_allocation was set by a retry escalation
        #: (or survives an eviction) and must not be re-predicted.
        self._sticky: Set[int] = set()
        self._dispatching = False
        self._total_dispatches = 0

    # -- queue management -----------------------------------------------------------

    def enqueue(self, task: SimTask) -> None:
        """Add a freshly ready task at the back of the queue."""
        if task.state is not TaskState.READY:
            raise ValueError(f"cannot enqueue task {task.task_id} in state {task.state}")
        self._ready.append(task)

    def enqueue_retry(self, task: SimTask) -> None:
        """Re-admit a killed/evicted task at the front of the queue.

        Its ``current_allocation`` (the escalated retry allocation, or
        the unchanged one after an eviction) is pinned.
        """
        if task.state is not TaskState.READY:
            raise ValueError(f"cannot requeue task {task.task_id} in state {task.state}")
        if task.current_allocation is None:
            raise ValueError(f"retry of task {task.task_id} has no allocation")
        self._sticky.add(task.task_id)
        self._ready.appendleft(task)

    @property
    def n_ready(self) -> int:
        return len(self._ready)

    @property
    def total_dispatches(self) -> int:
        return self._total_dispatches

    # -- dispatch -----------------------------------------------------------------------

    def _saturated(self, *queues: Deque[SimTask]) -> bool:
        """No worker has headroom and no queued allocation is small."""
        if self._pool.has_headroom():
            return False
        return not any(
            task.current_allocation is not None
            and self._pool.fits_without_headroom(task.current_allocation)
            for queue in queues
            for task in queue
        )

    def _probe_allocation(self, task: SimTask) -> ResourceVector:
        """The allocation used to *probe* worker fit — possibly stale.

        Queued tasks keep their last prediction while waiting; computing
        a fresh draw for every queued task on every allocator update
        would dominate the run without changing what gets dispatched.
        The prediction is re-validated at placement time instead
        (:meth:`_fresh_allocation`).
        """
        if task.current_allocation is None:
            task.current_allocation = self._allocation_of(task)
            self._cached_version[task.task_id] = self._allocation_version(task)
        return task.current_allocation

    def _fresh_allocation(self, task: SimTask) -> ResourceVector:
        """Dispatch-time allocation: re-predicted if the state moved."""
        if task.task_id in self._sticky:
            assert task.current_allocation is not None
            return task.current_allocation
        version = self._allocation_version(task)
        if (
            task.current_allocation is None
            or self._cached_version.get(task.task_id) != version
        ):
            task.current_allocation = self._allocation_of(task)
            self._cached_version[task.task_id] = version
        return task.current_allocation

    def try_dispatch(self) -> int:
        """Place every queued task that fits a worker; returns the count."""
        if self._dispatching:
            return 0
        self._dispatching = True
        dispatched = 0
        try:
            made_progress = True
            while made_progress:
                made_progress = False
                if not self._ready or self._saturated(self._ready):
                    # Saturated pool: nothing can be placed, skip the scan.
                    break
                # Allocations that failed to fit anywhere in this pass:
                # identical requests behind them cannot fit either.
                unfit: Set[ResourceVector] = set()
                still_waiting: Deque[SimTask] = deque()
                while self._ready:
                    task = self._ready.popleft()
                    if self._may_dispatch is not None and not self._may_dispatch(task):
                        still_waiting.append(task)
                        continue
                    allocation = self._probe_allocation(task)
                    if allocation in unfit:
                        still_waiting.append(task)
                        continue
                    worker = self._pool.find_fit(allocation)
                    if worker is None:
                        unfit.add(allocation)
                        still_waiting.append(task)
                        continue
                    # A worker can host the (possibly stale) probe: now
                    # take the dispatch-time prediction and re-validate.
                    fresh = self._fresh_allocation(task)
                    if fresh is not allocation:
                        worker = self._pool.find_fit(fresh)
                        if worker is None:
                            unfit.add(fresh)
                            still_waiting.append(task)
                            continue
                    task.state = TaskState.RUNNING
                    self._sticky.discard(task.task_id)
                    self._cached_version.pop(task.task_id, None)
                    self._total_dispatches += 1
                    dispatched += 1
                    made_progress = True
                    self._start_attempt(task, worker)
                    if self._saturated(still_waiting, self._ready):
                        # The placement saturated the pool; the rest of
                        # the queue cannot possibly be placed this scan.
                        still_waiting.extend(self._ready)
                        self._ready.clear()
                        made_progress = False
                        break
                self._ready = still_waiting
        finally:
            self._dispatching = False
        return dispatched

    def __repr__(self) -> str:
        return f"LinearScanScheduler(ready={len(self._ready)}, dispatched={self._total_dispatches})"
