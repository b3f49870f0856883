"""Tests for the dispatch scheduler in isolation."""

import collections
import heapq
from types import SimpleNamespace

import pytest

from repro.core.resources import MEMORY, ResourceVector
from repro.sim import scheduler as scheduler_module
from repro.sim.engine import SimulationEngine
from repro.sim.pool import PoolConfig, WorkerPool
from repro.sim.scheduler import Scheduler
from repro.sim.task import SimTask, TaskState
from repro.sim.worker import Worker
from repro.workflows.spec import TaskSpec


def make_task(task_id, cores=1.0, memory=100.0, category="proc"):
    spec = TaskSpec(
        task_id=task_id,
        category=category,
        consumption=ResourceVector.of(cores=cores, memory=memory, disk=10),
        duration=10.0,
    )
    return SimTask(spec)


class SchedulerHarness:
    """Wires a Scheduler with controllable allocation and capture."""

    def __init__(self, n_workers=1, cores=4, memory=4000):
        self.engine = SimulationEngine()
        self.pool = WorkerPool(
            self.engine,
            PoolConfig(
                n_workers=n_workers,
                capacity=ResourceVector.of(cores=cores, memory=memory, disk=4000),
            ),
        )
        self.version = 0
        self.allocations = {}
        self.started = []
        self.allocated = []  # task ids in allocation_of call order
        self.gate = None
        self.reveals = {}  # task_id -> task its start enqueues (mid-pass)
        self.scheduler = Scheduler(
            self.pool,
            allocation_of=self._allocate,
            allocation_version=lambda task: self.version,
            start_attempt=self._start,
            may_dispatch=lambda category: self.gate(category) if self.gate else True,
        )

    @property
    def allocation_calls(self):
        return len(self.allocated)

    def _allocate(self, task):
        self.allocated.append(task.task_id)
        return self.allocations.get(
            task.task_id, ResourceVector.of(cores=1, memory=100, disk=10)
        )

    def _start(self, task, worker):
        worker.place(task.task_id, task.current_allocation)
        self.started.append(task.task_id)
        if task.task_id in self.reveals:
            self.scheduler.enqueue(self.reveals[task.task_id])


class TestDispatch:
    def test_fifo_order(self):
        h = SchedulerHarness(cores=4)
        for i in range(3):
            h.scheduler.enqueue(make_task(i))
        h.scheduler.try_dispatch()
        assert h.started == [0, 1, 2]

    def test_backfill_small_behind_large(self):
        h = SchedulerHarness(cores=4)
        big = make_task(0, cores=8.0)  # cannot fit the 4-core worker... but
        # allocation decides fit, not consumption: give it a huge allocation.
        h.allocations[0] = ResourceVector.of(cores=8, memory=100, disk=10)
        h.scheduler.enqueue(big)
        h.scheduler.enqueue(make_task(1))
        h.scheduler.try_dispatch()
        assert h.started == [1]
        assert h.scheduler.n_ready == 1  # the big one still waits

    def test_retry_goes_to_front(self):
        h = SchedulerHarness(cores=1)  # one slot
        t0, t1 = make_task(0), make_task(1)
        h.scheduler.enqueue(t0)
        h.scheduler.enqueue(t1)
        h.scheduler.try_dispatch()
        assert h.started == [0]
        # t0 is killed: free the worker and requeue at the front.
        h.pool.alive_workers()[0].release(0)
        t0.state = TaskState.READY
        t0.current_allocation = ResourceVector.of(cores=1, memory=200, disk=10)
        h.scheduler.enqueue_retry(t0)
        h.scheduler.try_dispatch()
        assert h.started == [0, 0]

    def test_retry_allocation_is_sticky(self):
        h = SchedulerHarness()
        t0 = make_task(0)
        escalated = ResourceVector.of(cores=2, memory=500, disk=10)
        t0.current_allocation = escalated
        h.scheduler.enqueue_retry(t0)
        h.version = 99  # stale by version, but sticky wins
        h.scheduler.try_dispatch()
        assert h.started == [0]
        assert t0.current_allocation is escalated
        assert h.allocation_calls == 0

    def test_saturation_short_circuit_skips_probes(self):
        h = SchedulerHarness(n_workers=1, cores=1)
        t0, t1 = make_task(0), make_task(1)
        h.scheduler.enqueue(t0)
        h.scheduler.enqueue(t1)
        h.scheduler.try_dispatch()
        # t0 filled the single core; t1 was never even probed.
        assert h.started == [0]
        assert h.allocation_calls == 1

    def test_small_allocation_passes_the_saturation_gate(self):
        """The pool has no headroom (cores full), but a queued allocation
        that asks no cores still fits: the pass must run and place it."""
        h = SchedulerHarness(n_workers=1, cores=1)
        worker = h.pool.alive_workers()[0]
        worker.place(99, ResourceVector.of(cores=1, memory=100, disk=10))
        assert not h.pool.has_headroom()
        full, zero_core = make_task(0), make_task(1)
        for task, cores in ((full, 1), (zero_core, 0)):
            task.current_allocation = ResourceVector.of(cores=cores, memory=100, disk=10)
            h.scheduler.enqueue_retry(task)
        assert h.scheduler.try_dispatch() == 1
        assert h.started == [1]
        # Placed, the small task leaves only gate-bound work: skipped.
        worker.release(99)
        worker.place(98, ResourceVector.of(cores=1, memory=100, disk=10))
        assert h.scheduler.try_dispatch() == 0

    def test_version_refresh_at_placement(self):
        h = SchedulerHarness(n_workers=1, cores=2)
        t0, t1 = make_task(0), make_task(1)
        # t1's initial prediction is too big to fit beside t0.
        h.allocations[1] = ResourceVector.of(cores=2, memory=100, disk=10)
        h.scheduler.enqueue(t0)
        h.scheduler.enqueue(t1)
        h.scheduler.try_dispatch()
        assert h.started == [0]
        assert h.allocation_calls == 2   # both probed; t1 cached at version 0
        # The allocator learns: new version, smaller prediction for t1.
        h.version = 1
        h.allocations[1] = ResourceVector.of(cores=1, memory=999, disk=10)
        h.pool.alive_workers()[0].release(0)
        h.scheduler.try_dispatch()
        assert h.started == [0, 1]
        # The stale 2-core probe fit the emptied worker, and the
        # dispatch-time refresh re-predicted before placement.
        assert h.allocation_calls == 3
        assert t1.current_allocation[MEMORY] == 999

    def test_gate_blocks_dispatch(self):
        """The gate holds back a whole category and backfills the others.

        The gate is per *category*: this test used to refuse one task id
        inside a single category, a contract the indexed ready queue
        removed on purpose (the exploratory bound, the only gate there
        is, never looked at anything but the category).
        """
        h = SchedulerHarness()
        h.gate = lambda category: category != "merge"
        h.scheduler.enqueue(make_task(0, category="merge"))
        h.scheduler.enqueue(make_task(1, category="proc"))
        h.scheduler.enqueue(make_task(2, category="merge"))
        h.scheduler.try_dispatch()
        assert h.started == [1]
        assert h.allocation_calls == 1  # gated tasks are not even probed
        assert h.scheduler.n_ready == 2
        h.gate = None
        h.scheduler.try_dispatch()
        assert h.started == [1, 0, 2]

    def test_refreshed_task_keeps_its_queue_position(self):
        """A stale prediction refreshed at placement that no longer fits
        re-queues the task where it stood, not behind its new peers."""
        h = SchedulerHarness(n_workers=1, cores=5)
        small = ResourceVector.of(cores=2, memory=100, disk=10)
        big = ResourceVector.of(cores=4, memory=100, disk=10)
        h.allocations.update({0: small, 1: small, 2: small, 3: big})
        for task_id in range(4):
            h.scheduler.enqueue(make_task(task_id))
        h.scheduler.try_dispatch()
        # One core left: 2 and 3 were probed, neither fits.
        assert h.started == [0, 1]
        assert h.allocated == [0, 1, 2, 3]
        worker = h.pool.alive_workers()[0]
        # The allocator learned something: task 2 would now get ``big``.
        h.version = 1
        h.allocations[2] = big
        worker.release(0)
        h.scheduler.try_dispatch()
        # 3 cores free: the stale probe of 2 fits, its fresh draw does not.
        assert h.started == [0, 1]
        assert h.allocated == [0, 1, 2, 3, 2]
        worker.release(1)
        h.scheduler.try_dispatch()
        # Room for one ``big``: task 2 is still ahead of task 3.
        assert h.started == [0, 1, 2]
        assert h.scheduler.n_ready == 1

    def test_tasks_revealed_inside_a_pass_are_probed_in_reveal_order(self):
        """``start_attempt`` may enqueue.  The pass in flight reaches
        those tasks at the tail, in the order they were revealed — whether
        they joined a group that already existed (11) or opened a new one
        (10)."""
        h = SchedulerHarness(n_workers=2, cores=4)
        three = ResourceVector.of(cores=3, memory=100, disk=10)
        h.allocations.update({0: three, 1: three, 2: three, 10: three, 11: three})
        h.reveals = {0: make_task(10, category="merge"), 1: make_task(11)}
        for task_id in range(3):
            h.scheduler.enqueue(make_task(task_id))
        assert h.scheduler.try_dispatch() == 2
        assert h.started == [0, 1]
        assert h.allocated == [0, 1, 2, 10, 11]
        assert h.scheduler.n_ready == 3

    def test_enqueue_requires_ready_state(self):
        h = SchedulerHarness()
        t = make_task(0)
        t.state = TaskState.RUNNING
        with pytest.raises(ValueError):
            h.scheduler.enqueue(t)

    def test_enqueue_retry_requires_allocation(self):
        h = SchedulerHarness()
        t = make_task(0)
        with pytest.raises(ValueError):
            h.scheduler.enqueue_retry(t)

    def test_counts(self):
        h = SchedulerHarness(cores=4)
        for i in range(6):
            h.scheduler.enqueue(make_task(i))
        h.scheduler.try_dispatch()
        assert h.scheduler.total_dispatches == 4  # 4 cores, 1-core tasks
        assert h.scheduler.n_ready == 2


class CountingPool:
    """A WorkerPool proxy that counts ``find_fit`` calls."""

    def __init__(self, pool):
        self._pool = pool
        self.find_fit_calls = 0

    def find_fit(self, allocation, since=0):
        self.find_fit_calls += 1
        return self._pool.find_fit(allocation, since)

    def __getattr__(self, name):
        return getattr(self._pool, name)


class TestWorkCounts:
    """A pass costs O(groups + placements), not O(queue) — in counts."""

    N_TASKS = 2000
    SHAPES = [  # (category, cores, memory): 3 allocations in 2 categories
        ("proc", 4, 100),
        ("proc", 3, 100),
        ("merge", 3, 200),
    ]

    def _queue(self, monkeypatch):
        # 5 cores: beside one running task no queued shape fits, but the
        # pool keeps headroom, so the saturation break never hides the
        # cost of the pass.
        h = SchedulerHarness(n_workers=1, cores=5)
        h.gate_calls = h.hash_probes = 0
        vector_hash = ResourceVector.__hash__

        def counting_hash(vector):
            # Every look at a queued task or group hashes its allocation
            # (the ``unfit`` memo, the group index).
            h.hash_probes += 1
            return vector_hash(vector)

        monkeypatch.setattr(ResourceVector, "__hash__", counting_hash)

        def gate(category):
            h.gate_calls += 1
            return True

        h.gate = gate
        counting = CountingPool(h.pool)
        h.scheduler._pool = counting
        for i in range(self.N_TASKS):
            category, cores, memory = self.SHAPES[i % len(self.SHAPES)]
            h.allocations[i] = ResourceVector.of(cores=cores, memory=memory, disk=10)
            h.scheduler.enqueue(make_task(i, category=category))
        return h, counting

    def test_pass_visits_groups_not_tasks(self, monkeypatch):
        h, pool = self._queue(monkeypatch)
        # First pass: every task gets its first probe (that is the
        # allocator's work, paid once per task).
        assert h.scheduler.try_dispatch() == 1
        assert h.allocation_calls == self.N_TASKS
        worker = h.pool.alive_workers()[0]
        for round_ in range(1, 4):
            worker.release(h.started[-1])
            h.gate_calls = h.hash_probes = pool.find_fit_calls = 0
            dispatched = h.scheduler.try_dispatch()
            assert dispatched == 1
            # Two passes (the second finds nothing): each costs at most
            # one gate call and one fit probe per group or placement,
            # and a handful of allocation hashes for each of those.
            budget = 2 * (len(self.SHAPES) + dispatched) + 2
            assert h.gate_calls <= budget
            assert pool.find_fit_calls <= budget
            assert h.hash_probes <= 8 * budget
            assert h.allocation_calls == self.N_TASKS  # nothing re-probed
            assert h.scheduler.n_ready == self.N_TASKS - 1 - round_
        assert h.started == [0, 1, 2, 3]

    def test_pass_after_release_probes_only_the_released_worker(self, monkeypatch):
        """The fit memo: a group that missed before the release asks only
        the worker stamped since, once; with no new stamp, nobody."""
        h = SchedulerHarness(n_workers=3, cores=5)
        workers = h.pool.alive_workers()
        filler = ResourceVector.of(cores=3, memory=100, disk=10)
        for worker in workers:  # 2 cores left: no queued shape fits
            worker.place(10_000 + worker.worker_id, filler)
        for i in range(30):
            category, cores, memory = self.SHAPES[i % len(self.SHAPES)]
            h.allocations[i] = ResourceVector.of(cores=cores, memory=memory, disk=10)
            h.scheduler.enqueue(make_task(i, category=category))
        probed = []
        can_fit = Worker.can_fit

        def counting_can_fit(worker, allocation):
            probed.append(worker.worker_id)
            return can_fit(worker, allocation)

        monkeypatch.setattr(Worker, "can_fit", counting_can_fit)
        assert h.scheduler.try_dispatch() == 0
        # The first pass probes every worker for each group.
        assert probed == [0, 1, 2] * len(self.SHAPES)
        probed.clear()
        assert h.scheduler.try_dispatch() == 0
        assert probed == []  # no stamp since the misses
        released = workers[1]
        released.release(10_000 + released.worker_id)
        assert h.scheduler.try_dispatch() == 1
        # The 4-core head lands on the released worker (one probe, and
        # one more inside ``place``); the next 4-core task and the two
        # 3-core groups each ask it alone, and miss.
        assert h.started == [0]
        assert probed == [released.worker_id] * (len(self.SHAPES) + 2)

    def test_a_missed_head_stays_queued(self, monkeypatch):
        """A head that fits no worker is only looked at: a pass files a
        task, and pushes or pops a group's heap, at most once per
        placement or move, however many groups miss."""
        h = SchedulerHarness(n_workers=1, cores=5)
        worker = h.pool.alive_workers()[0]
        worker.place(10_000, ResourceVector.of(cores=2, memory=100, disk=10))
        # Beside the 2-core filler the first three groups never fit; the
        # 1-core group places one task per release.
        shapes = [("proc", 4), ("proc", 5), ("merge", 4), ("proc", 1)]
        vectors = [ResourceVector.of(cores=cores, memory=100, disk=10) for _, cores in shapes]
        for i in range(40):
            category = shapes[i % len(shapes)][0]
            task = make_task(i, category=category)
            # Queued with the allocation the allocator will repeat, so no
            # task ever moves between groups.
            task.current_allocation = h.allocations[i] = vectors[i % len(shapes)]
            h.scheduler.enqueue(task)
        assert h.scheduler.try_dispatch() == 3  # three 1-core tasks fill the worker

        counts = collections.Counter()
        file = Scheduler._file

        def counting_file(scheduler, seq, task):
            counts["file"] += 1
            return file(scheduler, seq, task)

        def counting(name):
            operation = getattr(heapq, name)

            def call(heap, *args):
                counts[name, "heads" if heap is h.scheduler._heads else "group"] += 1
                return operation(heap, *args)

            return call

        monkeypatch.setattr(Scheduler, "_file", counting_file)
        monkeypatch.setattr(
            scheduler_module,
            "heapq",
            SimpleNamespace(
                heappush=counting("heappush"),
                heappop=counting("heappop"),
                heapify=heapq.heapify,
            ),
        )
        pool = CountingPool(h.pool)
        h.scheduler._pool = pool
        for _ in range(3):
            worker.release(h.started[-1])
            counts.clear()
            pool.find_fit_calls = 0
            placed = h.scheduler.try_dispatch()
            assert placed == 1
            assert pool.find_fit_calls == len(shapes)  # three real misses, one fit
            assert counts["file"] <= placed
            assert counts["heappush", "group"] + counts["heappop", "group"] <= placed
            assert counts["heappush", "heads"] <= placed
        assert h.scheduler.n_ready == 40 - 6

    def test_n_ready_is_a_counter(self, monkeypatch):
        h, _ = self._queue(monkeypatch)
        queue = h.scheduler

        class Unsized(dict):
            def __len__(self):  # pragma: no cover - must not be called
                raise AssertionError("n_ready walked the index")

            def __iter__(self):  # pragma: no cover - must not be called
                raise AssertionError("n_ready walked the index")

        queue._groups = Unsized(queue._groups)
        assert queue.n_ready == self.N_TASKS
