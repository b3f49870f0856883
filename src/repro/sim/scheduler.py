"""Ready-queue scheduling: match allocated tasks to workers.

The scheduler owns the queue of ready tasks and the dispatch scan.  It
deliberately knows nothing about allocation policy or attempt outcomes:
the manager hands it an ``allocation_of`` callback (ask the allocator at
dispatch time, Figure 3a arrows 1-4), an ``allocation_version``
callback (has the allocator learned anything since this prediction was
made?), and a ``start_attempt`` callback (place the task and schedule
its fate).

Four properties matter for fidelity and speed:

* **Allocation at dispatch time.**  A queued task's predicted
  allocation is refreshed whenever its category's allocator state has
  changed since the prediction was cached, so a task that waited
  through the end of the exploratory phase is dispatched with a current
  prediction, not a stale bootstrap one.  Retry allocations (set
  explicitly by the manager after an exhaustion) are sticky: the
  escalation ladder must not be re-rolled, or progress is lost.
* **Scan cost.**  Dispatch is FIFO with backfilling — small tasks
  behind a large head are not starved — but a pass does not walk the
  queue.  Every queued task carries a FIFO sequence number (``enqueue``
  counts up at the back, ``enqueue_retry`` counts down at the front)
  and sits in a group keyed by ``(category, current_allocation)``,
  ``None`` for a task not yet probed.  A pass repeatedly looks at the
  lowest-sequence head among the groups that can still dispatch, so it
  costs O(groups + placements + first probes), not O(queue).  A head
  that fits no worker is only looked at: it stays queued, and its miss
  rules the whole group out for the rest of the pass.  Skipping
  whole groups visits exactly the tasks a task-by-task FIFO walk would
  act on, in the same order, because within one pass (no ``observe``
  and no worker release happens inside ``try_dispatch``):

  - pool capacity only shrinks, so an allocation that failed to fit
    cannot fit later in the pass and every task sharing it would be
    skipped too;
  - the ``may_dispatch`` gate depends only on the task's *category* and
    only closes (placements add running tasks, nothing removes them),
    so once it refuses a category every later task of it is refused.

  A task whose allocation changes while queued (first probe, stale
  prediction refreshed at placement) moves to its new group *at its own
  sequence number*: queue order is never a function of the grouping.
  A task that ``start_attempt`` enqueues from inside a pass is behind
  everything already queued and is reached by the pass in flight, like
  the tail of the walk.
  ``tests/sim/linear_scan_scheduler.py`` keeps the task-by-task walk as
  the reference the differential tests compare against.
* **Fit memo.**  A group remembers the pool's
  :attr:`~repro.sim.pool.WorkerPool.stamp` at which its allocation last
  fitted no worker.  Capacity grows only together with a new stamp, so
  while the stamp is unchanged the group is skipped without a probe —
  within one pass that is always so — and after a release or a join
  :meth:`~repro.sim.pool.WorkerPool.find_fit` probes only the workers
  stamped since.  The memo lives and dies with its group.
* **Saturation gate.**  A pass is skipped, or ended after a placement,
  when no worker has headroom *and* no queued allocation is small
  enough to fit a worker without it: none leaves out, or asks at most
  twice the fit tolerance of, some dimension
  (:meth:`~repro.sim.pool.WorkerPool.fits_without_headroom`).  The
  groups with such an allocation are counted as groups open and close.
  An unprobed task is not counted: its allocation does not exist until
  a pass asks the allocator, and asking on a saturated pool would move
  the allocator's draws.  (The oracle's allocations exist from the
  start, so the manager queues oracle tasks with them.)
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.resources import ResourceVector
from repro.sim.pool import WorkerPool
from repro.sim.task import SimTask, TaskState
from repro.sim.worker import Worker

__all__ = ["Scheduler"]

#: (category, current allocation or None while unprobed)
_GroupKey = Tuple[str, Optional[ResourceVector]]


class _Group:
    """The queued tasks of one group key, with the group's fit memo."""

    __slots__ = ("heap", "missed_at", "exempt")

    def __init__(self, exempt: bool) -> None:
        #: Heap of (sequence number, task); never empty while filed.
        self.heap: List[Tuple[int, SimTask]] = []
        #: Pool stamp at which the allocation last fitted no worker.
        self.missed_at = -1
        #: Whether the group's allocation is small enough to fit a
        #: worker without headroom.
        self.exempt = exempt


class Scheduler:
    """FIFO-with-backfill dispatcher over a worker pool."""

    def __init__(
        self,
        pool: WorkerPool,
        allocation_of: Callable[[SimTask], ResourceVector],
        allocation_version: Callable[[SimTask], Hashable],
        start_attempt: Callable[[SimTask, Worker], None],
        may_dispatch: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self._pool = pool
        self._allocation_of = allocation_of
        self._allocation_version = allocation_version
        self._start_attempt = start_attempt
        #: Per-category policy gate evaluated before placement (e.g. the
        #: exploratory concurrency bound); gated tasks stay queued.
        self._may_dispatch = may_dispatch
        #: group key -> its queued tasks; never empty.
        self._groups: Dict[_GroupKey, _Group] = {}
        #: How many groups are exempt from the saturation gate.
        self._n_exempt = 0
        #: Heap of (sequence number of the group's oldest task, group
        #: key): the groups the pass in flight has not ruled out yet.
        #: Every pass starts by rebuilding it.
        self._heads: List[Tuple[int, _GroupKey]] = []
        self._n_ready = 0
        self._next_back = 0
        self._next_front = -1
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
        self._file(self._next_back, task)
        self._next_back += 1

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
        self._file(self._next_front, task)
        self._next_front -= 1

    def _file(self, seq: int, task: SimTask) -> _Group:
        """Queue ``task`` under its current allocation at position ``seq``."""
        allocation = task.current_allocation
        key = (task.category, allocation)
        group = self._groups.get(key)
        if group is None:
            exempt = allocation is not None and self._pool.fits_without_headroom(
                allocation
            )
            group = self._groups[key] = _Group(exempt)
            self._n_exempt += exempt
            # A group opened inside a pass (a task ``start_attempt``
            # revealed) must be reached by that pass, in queue order with
            # tasks revealed into groups that already existed.
            heapq.heappush(self._heads, (seq, key))
        heapq.heappush(group.heap, (seq, task))
        self._n_ready += 1
        return group

    def _saturated(self) -> bool:
        """No queued task can fit any worker (module docstring)."""
        return not self._n_exempt and not self._pool.has_headroom()

    @property
    def n_ready(self) -> int:
        return self._n_ready

    @property
    def total_dispatches(self) -> int:
        return self._total_dispatches

    # -- dispatch -----------------------------------------------------------------------

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
        try:
            # A saturated pool cannot place anything: skip the pass.
            # One pass is complete: what it could not place it ruled out
            # by capacity or gate, and neither reopens inside this call
            # (module docstring), so a second pass would place nothing.
            if self._n_ready and not self._saturated():
                return self._dispatch_pass()
            return 0
        finally:
            self._dispatching = False

    def _dispatch_pass(self) -> int:
        """One FIFO-with-backfill pass over the group heads."""
        # Categories whose gate closed; the set only grows within a pass
        # (module docstring).  So does no worker's capacity: the stamp
        # is constant, and a group that missed at it is skipped.
        gated: Set[str] = set()
        groups = self._groups
        pool = self._pool
        stamp = pool.stamp
        heads = self._heads = [(group.heap[0][0], key) for key, group in groups.items()]
        heapq.heapify(heads)
        placed = 0
        while heads:
            key = heapq.heappop(heads)[1]
            category, queued_as = key
            group = groups[key]
            if category in gated or group.missed_at == stamp:
                continue
            if self._may_dispatch is not None and not self._may_dispatch(category):
                gated.add(category)
                continue
            # Peek: the head leaves its group only when it is placed or
            # moves to another group.
            seq, task = group.heap[0]
            allocation = self._probe_allocation(task)
            since = group.missed_at
            if queued_as is None:
                # A first probe moves the task to its allocation's group,
                # whose memo may already rule it out.
                self._take(key, group)
                target = groups.get((category, allocation))
                since = -1 if target is None else target.missed_at
                if since == stamp:
                    self._file(seq, task)
                    continue
            worker = pool.find_fit(allocation, since)
            if worker is None:
                if queued_as is None:
                    self._file(seq, task).missed_at = stamp
                else:
                    # The head stays queued and rules its group out.
                    group.missed_at = stamp
                continue
            # A worker can host the (possibly stale) probe: now take the
            # dispatch-time prediction and re-validate.
            if queued_as is not None:
                self._take(key, group)
            fresh = self._fresh_allocation(task)
            if fresh is not allocation:
                worker = pool.find_fit(fresh)
                if worker is None:
                    self._file(seq, task).missed_at = stamp
                    continue
            task.state = TaskState.RUNNING
            self._sticky.discard(task.task_id)
            self._cached_version.pop(task.task_id, None)
            self._total_dispatches += 1
            placed += 1
            self._start_attempt(task, worker)
            if self._saturated():
                # The placement saturated the pool; the rest of the
                # queue cannot possibly be placed.
                break
        return placed

    def _take(self, key: _GroupKey, group: _Group) -> None:
        """Remove the group's head; the group's next task becomes its head."""
        heap = group.heap
        heapq.heappop(heap)
        self._n_ready -= 1
        if heap:
            heapq.heappush(self._heads, (heap[0][0], key))
        else:
            del self._groups[key]
            self._n_exempt -= group.exempt

    def __repr__(self) -> str:
        return f"Scheduler(ready={self._n_ready}, dispatched={self._total_dispatches})"
