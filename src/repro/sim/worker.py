"""Simulated workers: capacity accounting and task hosting.

A worker is a vector bin: tasks occupy their *allocation* (not their
true consumption — the execution system reserves what was requested,
which is precisely why over-allocation wastes capacity) and are packed
while the componentwise sum fits the worker's capacity.  Enforcement —
killing a task the moment it over-consumes — is decided by the
consumption profile at dispatch time and realized by the manager; the
worker only owns placement arithmetic.

Fit checks are the single hottest operation in a simulation (every
dispatch scan probes every queued task against every worker), so the
worker maintains a plain float dict of *free* capacity updated
incrementally on place/release, with per-resource absolute tolerances
so float residue from fractional allocations can never make an empty
worker reject a full-capacity request.  The fit bound ``free +
tolerance`` is kept beside the free table and rewritten with it, so a
fit check is one dict probe and one comparison per requested resource.

A pool's workers share one :class:`CapacityClock`.  A worker takes a
fresh stamp from it whenever its free capacity can have grown — at
construction (its join), on every release and on the snap back to
capacity — so "this allocation fitted no worker at stamp ``e``" stays
true for every worker stamped at or before ``e``: placements only
shrink capacity.  The clock also counts the workers with headroom, kept
by the same writers, so the pool answers :meth:`WorkerPool.has_headroom
<repro.sim.pool.WorkerPool.has_headroom>` without a scan.  The stamps
are taken here, not by the pool, so a direct ``release`` cannot bypass
them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.resources import TIME, Resource, ResourceVector

__all__ = ["CapacityClock", "Worker"]


class CapacityClock:
    """Stamp counter and headroom count shared by one pool's workers."""

    __slots__ = ("stamp", "roomy")

    def __init__(self) -> None:
        #: The last stamp handed out; stamps count up from 1.
        self.stamp = 0
        #: How many of the clock's workers have headroom.
        self.roomy = 0


class Worker:
    """One (possibly opportunistic) execution node."""

    __slots__ = (
        "worker_id",
        "capacity",
        "_running",
        "_free",
        "_tolerance",
        "_fit_bound",
        "_clock",
        "_roomy",
        "stamp",
        "joined_at",
        "left_at",
        "busy_time",
    )

    def __init__(
        self,
        worker_id: int,
        capacity: ResourceVector,
        joined_at: float = 0.0,
        clock: Optional[CapacityClock] = None,
    ) -> None:
        if all(capacity[r] <= 0 for r in capacity):
            raise ValueError("worker capacity must be positive in some resource")
        self.worker_id = worker_id
        self.capacity = capacity
        self._running: Dict[int, ResourceVector] = {}
        self._tolerance: Dict[Resource, float] = {
            res: 1e-9 * max(cap, 1.0) for res, cap in capacity.raw.items()
        }
        #: The pool's clock (a private one for a stand-alone worker).
        self._clock = clock if clock is not None else CapacityClock()
        #: Whether this worker is counted in ``_clock.roomy``.
        self._roomy = False
        #: The clock's stamp of this worker's last capacity growth.
        self.stamp = 0
        self._reset_free(dict(capacity.raw))
        self.joined_at = joined_at
        self.left_at: Optional[float] = None
        #: Accumulated task-seconds hosted, for utilization reporting.
        self.busy_time = 0.0

    # -- capacity queries -----------------------------------------------------------

    @property
    def committed(self) -> ResourceVector:
        """Sum of allocations of the currently hosted tasks.

        ``capacity - free`` clamped into ``[0, capacity]``: the free
        table may legitimately sit a tolerance below zero (see
        :meth:`can_fit`), which is not a negative commitment.
        """
        free = self._free
        return ResourceVector(
            {
                res: min(max(cap - free[res], 0.0), cap)
                for res, cap in self.capacity.raw.items()
            }
        )

    def free_capacity(self) -> ResourceVector:
        return ResourceVector({r: max(0.0, v) for r, v in self._free.items()})

    def can_fit(self, allocation: ResourceVector) -> bool:
        """Whether an additional task with this allocation fits now."""
        fit_bound = self._fit_bound
        for res, requested in allocation.raw.items():
            if res is TIME:
                # Wall time is a per-task limit, not worker capacity:
                # hosting a task does not consume "time" from the node.
                continue
            bound = fit_bound.get(res)
            if bound is None:
                # The worker has no capacity of this resource at all.
                if requested > 1e-9:
                    return False
            elif requested > bound:
                return False
        return True

    def has_headroom(self) -> bool:
        """True if every capacity dimension has strictly positive slack.

        Used by the dispatch scan's saturation short-circuit: a worker
        with any dimension full cannot host a task that needs all
        dimensions.
        """
        for res, slack in self._free.items():
            if slack <= self._tolerance[res]:
                return False
        return True

    @property
    def n_running(self) -> int:
        return len(self._running)

    @property
    def running_task_ids(self) -> Tuple[int, ...]:
        return tuple(self._running)

    @property
    def alive(self) -> bool:
        return self.left_at is None

    # -- placement --------------------------------------------------------------------

    def place(self, task_id: int, allocation: ResourceVector) -> None:
        """Reserve ``allocation`` for ``task_id``; raises if it cannot fit."""
        if task_id in self._running:
            raise ValueError(f"task {task_id} is already on worker {self.worker_id}")
        if not self.can_fit(allocation):
            raise ValueError(
                f"task {task_id} does not fit worker {self.worker_id}: "
                f"free={self.free_capacity()!r}, requested={allocation!r}"
            )
        self._running[task_id] = allocation
        free = self._free
        tolerance = self._tolerance
        lost_headroom = False
        for res, requested in allocation.raw.items():
            if res in free:
                slack = free[res] - requested
                self._write_free(res, slack)
                if slack <= tolerance[res]:
                    lost_headroom = True
        if lost_headroom and self._roomy:
            # Only the written dimensions can have lost their slack.
            self._roomy = False
            self._clock.roomy -= 1

    def release(self, task_id: int, held_for: float = 0.0) -> ResourceVector:
        """Free a task's reservation; returns the released allocation."""
        try:
            allocation = self._running.pop(task_id)
        except KeyError:
            raise KeyError(
                f"task {task_id} is not running on worker {self.worker_id}"
            ) from None
        if self._running:
            free = self._free
            for res, requested in allocation.raw.items():
                if res in free:
                    self._write_free(res, free[res] + requested)
            self._grew()
        else:
            # Snap to exact capacity so float residue never accumulates.
            self._reset_free(dict(self.capacity.raw))
        self.busy_time += held_for
        return allocation

    def evict_all(self, now: float) -> Dict[int, ResourceVector]:
        """Drop every hosted task (the worker is leaving the pool)."""
        evicted = dict(self._running)
        self._running.clear()
        # Leave the pool's headroom count; from here on the worker
        # stamps a private clock that no pool reads.
        if self._roomy:
            self._clock.roomy -= 1
            self._roomy = False
        self._clock = CapacityClock()
        self._reset_free(dict(self.capacity.raw))
        self.left_at = now
        return evicted

    # -- the free table's two writers ---------------------------------------------------
    # ``_fit_bound`` is ``free + tolerance`` per resource — the largest
    # request ``can_fit`` admits — and changes only here, together with
    # the ``_free`` entry it is computed from.  Every growth of the table
    # ends in ``_grew``: a new stamp, and headroom re-counted.

    def _write_free(self, res: Resource, slack: float) -> None:
        self._free[res] = slack
        self._fit_bound[res] = slack + self._tolerance[res]

    def _reset_free(self, free: Dict[Resource, float]) -> None:
        tolerance = self._tolerance
        self._free: Dict[Resource, float] = free
        self._fit_bound: Dict[Resource, float] = {
            res: slack + tolerance[res] for res, slack in free.items()
        }
        self._grew()

    def _grew(self) -> None:
        clock = self._clock
        clock.stamp += 1
        self.stamp = clock.stamp
        if not self._roomy and self.has_headroom():
            self._roomy = True
            clock.roomy += 1

    def __repr__(self) -> str:
        status = "alive" if self.alive else f"left@{self.left_at:.0f}s"
        return (
            f"Worker(id={self.worker_id}, running={len(self._running)}, "
            f"{status})"
        )
