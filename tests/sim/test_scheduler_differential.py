"""Differential oracle: the indexed ready queue against the linear scan.

``Scheduler`` must be an *exact* replacement for the task-by-task walk
kept in ``linear_scan_scheduler.py``: the same tasks reach the same
workers with the same allocations in the same order, and
``allocation_of`` (the call that draws from the bucketing RNG) is made
for the same tasks in the same order.  A hypothesis state machine drives
both through one scripted world and compares after every step.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.resources import ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.pool import PoolConfig, WorkerPool
from repro.sim.scheduler import Scheduler
from repro.sim.task import TaskState
from tests.sim.linear_scan_scheduler import LinearScanScheduler
from tests.sim.test_scheduler import make_task

CATEGORIES = ("proc", "merge", "fit")
#: Few distinct (cores, memory) shapes so tasks share groups; the
#: zero-core one still fits a worker whose cores are full (the saturation
#: gate must let it through), and the last never fits a worker.
PALETTE = ((1, 100), (1, 2500), (2, 100), (3, 2500), (4, 100), (0, 100), (5, 100))
SHAPES = st.integers(0, len(PALETTE) - 1)
REVEALED_ID_BASE = 10_000


def vector(shape):
    """A fresh vector per call: tasks share a group by *equal*, not
    identical, allocations — as with the allocator's own draws."""
    cores, memory = PALETTE[shape]
    return ResourceVector.of(cores=cores, memory=memory, disk=10)


class World:
    """The script both rigs read: what the allocator and the gate say."""

    def __init__(self):
        self.shape = {}  # task_id -> index into PALETTE
        #: Per-category rotation of the palette: what the category's
        #: allocator "learned" since the queued predictions were made.
        self.shift = dict.fromkeys(CATEGORIES, 0)
        self.version = dict.fromkeys(CATEGORIES, 0)
        self.limit = dict.fromkeys(CATEGORIES)  # running-task bound, None = open
        self.faulty = set()  # task ids whose next start is a lost dispatch
        self.reveals = {}  # task_id -> category of the task its start reveals


class Rig:
    """One scheduler with its own pool and task objects."""

    def __init__(self, scheduler_cls, world, gate_takes_task):
        self.world = world
        self.pool = WorkerPool(
            SimulationEngine(),
            PoolConfig(
                n_workers=2,
                capacity=ResourceVector.of(cores=4, memory=4000, disk=4000),
            ),
        )
        self.tasks = {}
        self.placed = {}  # task_id -> worker holding it
        self.lost = set()  # started, dispatch "failed", awaiting requeue
        self.faulted = set()
        self.revealed = set()
        self.running = dict.fromkeys(CATEGORIES, 0)
        self.dispatches = []
        self.allocation_calls = []
        self.scheduler = scheduler_cls(
            self.pool,
            allocation_of=self._allocation_of,
            allocation_version=lambda task: world.version[task.category],
            start_attempt=self._start,
            may_dispatch=(
                (lambda task: self._gate(task.category)) if gate_takes_task else self._gate
            ),
        )

    def _gate(self, category):
        limit = self.world.limit[category]
        return limit is None or self.running[category] < limit

    def _allocation_of(self, task):
        self.allocation_calls.append(task.task_id)
        world = self.world
        shape = (world.shape[task.task_id] + world.shift[task.category]) % len(PALETTE)
        return vector(shape)

    def _start(self, task, worker):
        task_id = task.task_id
        self.dispatches.append((task_id, worker.worker_id, task.current_allocation))
        if task_id in self.world.faulty and task_id not in self.faulted:
            # Lost dispatch (manager: dispatch fault): nothing placed.
            self.faulted.add(task_id)
            self.lost.add(task_id)
            task.state = TaskState.READY
        else:
            worker.place(task_id, task.current_allocation)
            self.placed[task_id] = worker
            self.running[task.category] += 1
        category = self.world.reveals.get(task_id)
        if category is not None and task_id not in self.revealed:
            # Manager: _quarantine_task/_submit_more enqueue inside the pass.
            self.revealed.add(task_id)
            self.enqueue(REVEALED_ID_BASE + task_id, category)

    def enqueue(self, task_id, category):
        self.world.shape.setdefault(task_id, task_id % len(PALETTE))
        task = self.tasks[task_id] = make_task(task_id, category=category)
        self.scheduler.enqueue(task)

    def release(self, task_id):
        task = self.tasks[task_id]
        self.placed.pop(task_id).release(task_id)
        self.running[task.category] -= 1
        return task

    def retry(self, task_id, allocation):
        task = self.release(task_id)
        task.state = TaskState.READY
        task.current_allocation = allocation
        self.scheduler.enqueue_retry(task)

    def requeue_lost(self, task_id):
        self.lost.remove(task_id)
        self.scheduler.enqueue_retry(self.tasks[task_id])


class SchedulerEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.world = World()
        self.indexed = Rig(Scheduler, self.world, gate_takes_task=False)
        self.linear = Rig(LinearScanScheduler, self.world, gate_takes_task=True)
        self.rigs = (self.indexed, self.linear)
        self.next_id = 0

    def _pick(self, pool, index):
        pool = sorted(pool)
        return pool[index % len(pool)]

    @initialize(
        backlog=st.lists(st.tuples(st.sampled_from(CATEGORIES), SHAPES), min_size=6, max_size=16)
    )
    def start_with_a_backlog(self, backlog):
        """Begin where the index matters: workers busy, probed tasks waiting."""
        for category, shape in backlog:
            self.enqueue(category, shape, n=1, reveals=None, then_dispatch=False)
        self.dispatch()

    # Like the manager, most operations end in a dispatch; ``then_dispatch``
    # off lets a backlog build up first.

    @rule(
        category=st.sampled_from(CATEGORIES),
        shape=SHAPES,
        n=st.integers(1, 4),
        reveals=st.sampled_from((None, None) + CATEGORIES),
        then_dispatch=st.booleans(),
    )
    def enqueue(self, category, shape, n, reveals, then_dispatch):
        for _ in range(n):
            self.world.shape[self.next_id] = shape
            if reveals is not None:
                self.world.reveals[self.next_id] = reveals
            for rig in self.rigs:
                rig.enqueue(self.next_id, category)
            self.next_id += 1
        if then_dispatch:
            self.dispatch()

    @precondition(lambda self: self.indexed.placed)
    @rule(index=st.integers(0, 1000), shape=SHAPES, then_dispatch=st.booleans())
    def retry(self, index, shape, then_dispatch):
        task_id = self._pick(self.indexed.placed, index)
        for rig in self.rigs:
            rig.retry(task_id, vector(shape))
        if then_dispatch:
            self.dispatch()

    @precondition(lambda self: self.indexed.lost)
    @rule(index=st.integers(0, 1000), then_dispatch=st.booleans())
    def requeue_lost(self, index, then_dispatch):
        task_id = self._pick(self.indexed.lost, index)
        for rig in self.rigs:
            rig.requeue_lost(task_id)
        if then_dispatch:
            self.dispatch()

    @precondition(lambda self: self.indexed.placed)
    @rule(index=st.integers(0, 1000), then_dispatch=st.booleans())
    def release(self, index, then_dispatch):
        task_id = self._pick(self.indexed.placed, index)
        for rig in self.rigs:
            rig.release(task_id)
        if then_dispatch:
            self.dispatch()

    @rule(category=st.sampled_from(CATEGORIES))
    def bump_version(self, category):
        self.world.version[category] += 1

    @rule(category=st.sampled_from(CATEGORIES), shift=st.integers(1, len(PALETTE) - 1))
    def relearn(self, category, shift):
        """New records: every queued prediction of the category is stale
        and its fresh draw differs (bigger or smaller, fitting or not)."""
        self.world.shift[category] += shift
        self.world.version[category] += 1

    @rule(category=st.sampled_from(CATEGORIES), limit=st.sampled_from((None, None, None, 0, 1, 2)))
    def set_gate(self, category, limit):
        self.world.limit[category] = limit

    @precondition(lambda self: self.next_id)
    @rule(index=st.integers(0, 1000), shape=SHAPES)
    def change_allocation(self, index, shape):
        self.world.shape[index % self.next_id] = shape

    @precondition(lambda self: self.next_id)
    @rule(index=st.integers(0, 1000))
    def make_faulty(self, index):
        self.world.faulty.add(index % self.next_id)

    @rule()
    def dispatch(self):
        assert self.indexed.scheduler.try_dispatch() == self.linear.scheduler.try_dispatch()

    @invariant()
    def same_history(self):
        assert self.indexed.dispatches == self.linear.dispatches
        assert self.indexed.allocation_calls == self.linear.allocation_calls
        assert self.indexed.scheduler.n_ready == self.linear.scheduler.n_ready
        assert (
            self.indexed.scheduler.total_dispatches == self.linear.scheduler.total_dispatches
        )


TestSchedulerEquivalence = SchedulerEquivalence.TestCase
TestSchedulerEquivalence.settings = settings(
    max_examples=200,
    stateful_step_count=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
