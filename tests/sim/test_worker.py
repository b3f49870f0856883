"""Tests for worker capacity accounting."""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.resources import CORES, DISK, MEMORY, RESOURCES, TIME, ResourceVector
from repro.sim.worker import Worker


def make_worker(cores=16, memory=64000, disk=64000):
    return Worker(0, ResourceVector.of(cores=cores, memory=memory, disk=disk))


class TestWorkerPlacement:
    def test_place_and_release(self):
        w = make_worker()
        alloc = ResourceVector.of(cores=4, memory=8000, disk=1000)
        w.place(1, alloc)
        assert w.n_running == 1
        assert w.free_capacity()[CORES] == 12
        released = w.release(1, held_for=10.0)
        assert released == alloc
        assert w.n_running == 0
        assert w.free_capacity()[CORES] == 16
        assert w.busy_time == 10.0

    def test_can_fit_respects_all_dimensions(self):
        w = make_worker()
        w.place(1, ResourceVector.of(cores=1, memory=60000, disk=100))
        assert not w.can_fit(ResourceVector.of(cores=1, memory=8000, disk=100))
        assert w.can_fit(ResourceVector.of(cores=1, memory=4000, disk=100))

    def test_exact_fill_allowed(self):
        w = make_worker()
        w.place(1, ResourceVector.of(cores=16, memory=64000, disk=64000))
        assert w.n_running == 1
        assert not w.has_headroom()

    def test_overcommit_rejected(self):
        w = make_worker(cores=2)
        w.place(1, ResourceVector.of(cores=2, memory=100, disk=100))
        with pytest.raises(ValueError, match="does not fit"):
            w.place(2, ResourceVector.of(cores=1, memory=100, disk=100))

    def test_duplicate_placement_rejected(self):
        w = make_worker()
        w.place(1, ResourceVector.of(cores=1, memory=100, disk=100))
        with pytest.raises(ValueError, match="already"):
            w.place(1, ResourceVector.of(cores=1, memory=100, disk=100))

    def test_release_unknown_task_rejected(self):
        with pytest.raises(KeyError):
            make_worker().release(42)

    def test_unknown_resource_request_fails_fit(self):
        from repro.core.resources import RESOURCES

        gpu = RESOURCES.register("test_gpu_kind", unit="devices")
        w = make_worker()
        assert not w.can_fit(ResourceVector({gpu: 1.0}))

    def test_float_residue_never_blocks_full_capacity(self):
        """Regression: fractional churn must not leave phantom commitments."""
        w = make_worker()
        for round_trip in range(200):
            alloc = ResourceVector.of(cores=3.92781, memory=11506.8, disk=12247.6)
            w.place(round_trip, alloc)
            w.release(round_trip)
        assert w.can_fit(ResourceVector.of(cores=16, memory=64000, disk=64000))

    def test_headroom_requires_slack_everywhere(self):
        w = make_worker()
        assert w.has_headroom()
        w.place(1, ResourceVector.of(cores=16, memory=100, disk=100))
        assert not w.has_headroom()  # cores exhausted

    def test_evict_all(self):
        w = make_worker()
        a1 = ResourceVector.of(cores=1, memory=100, disk=100)
        a2 = ResourceVector.of(cores=2, memory=200, disk=200)
        w.place(1, a1)
        w.place(2, a2)
        evicted = w.evict_all(now=50.0)
        assert evicted == {1: a1, 2: a2}
        assert w.n_running == 0
        assert not w.alive
        assert w.left_at == 50.0
        assert w.free_capacity()[CORES] == 16

    def test_committed_tracks_sum(self):
        w = make_worker()
        w.place(1, ResourceVector.of(cores=1, memory=100, disk=100))
        w.place(2, ResourceVector.of(cores=2, memory=200, disk=200))
        assert w.committed[CORES] == pytest.approx(3)
        assert w.committed[MEMORY] == pytest.approx(300)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Worker(0, ResourceVector())

    def test_running_task_ids(self):
        w = make_worker()
        w.place(7, ResourceVector.of(cores=1, memory=1, disk=1))
        assert w.running_task_ids == (7,)


class TestToleratedResidue:
    """``can_fit`` admits ``requested <= free + tolerance``, so the free
    table may end a hair below zero.  That is not a negative commitment."""

    @staticmethod
    def overfilled_worker():
        w = Worker(0, ResourceVector.of(cores=1))
        for task_id in range(9):
            w.place(task_id, ResourceVector.of(cores=0.1))
        w.place(9, ResourceVector.of(cores=w._free[CORES] + 5e-10))
        assert w._free[CORES] == -4.999999997368221e-10
        return w

    def test_committed_survives_negative_residue(self):
        w = self.overfilled_worker()
        assert w.committed == ResourceVector.of(cores=1)  # clamped to capacity
        assert w.free_capacity()[CORES] == 0.0
        assert not w.has_headroom()
        assert not w.can_fit(ResourceVector.of(cores=0.1))


#: Resources a request may name: the worker's own, wall time (never
#: capacity) and a kind no worker has.
UNKNOWN = RESOURCES.register("test_worker_fit_unknown", unit="devices")
REQUEST_VALUES = st.one_of(
    st.sampled_from((0.0, 1e-10, 1e-9, 2e-9, 0.1, 0.5, 1.0, 2.0, 100.0, 4000.0, 1e9)),
    st.floats(0.0, 5000.0),
)
REQUESTS = st.dictionaries(
    st.sampled_from((CORES, MEMORY, DISK, TIME, UNKNOWN)), REQUEST_VALUES, max_size=5
).map(ResourceVector)
CAPACITIES = st.sampled_from(
    (
        ResourceVector.of(cores=1),
        ResourceVector.of(cores=4, memory=4000, disk=4000),
        ResourceVector.of(cores=16, memory=64000, disk=64000),
        # Capacity "of time" means nothing to a fit check, whatever it says.
        ResourceVector.of(cores=2, memory=1000, time=10),
    )
)
#: Where around the bound a boundary probe lands, in tolerances.
NUDGES = (-1.0, 0.0, 0.5, 1.0, 1.5, 3.0)


def reference_can_fit(worker, allocation):
    """The fit rule, spelled out from the free table (the pre-bound code)."""
    for res, requested in allocation.raw.items():
        if res is TIME:
            continue
        slack = worker._free.get(res)
        if slack is None:
            if requested > 1e-9:
                return False
        elif requested > slack + worker._tolerance[res]:
            return False
    return True


class WorkerFitMachine(RuleBasedStateMachine):
    """``can_fit`` answers from bounds cached beside the free table; after
    any sequence of writes it must still be the reference expression on
    the table itself.  A writer that forgets its bound fails here."""

    @initialize(capacity=CAPACITIES)
    def start(self, capacity):
        self.worker = Worker(0, capacity)
        self.next_id = 0

    def _place(self, allocation):
        fits = reference_can_fit(self.worker, allocation)
        assert self.worker.can_fit(allocation) == fits
        if fits:
            self.worker.place(self.next_id, allocation)
            self.next_id += 1
        else:
            with pytest.raises(ValueError, match="does not fit"):
                self.worker.place(self.next_id, allocation)

    @rule(allocation=REQUESTS)
    def place(self, allocation):
        self._place(allocation)

    @rule(share=st.sampled_from((0.1, 0.25, 1 / 3, 0.5)))
    def place_share_of_capacity(self, share):
        self._place(self.worker.capacity * share)

    @rule(nudge=st.sampled_from(NUDGES), which=st.integers(0, 3))
    def place_at_the_bound(self, nudge, which):
        """Exact fill (nudge 0), tolerated residue (0 < nudge <= 1), or
        just too much, in one dimension; the rest of the free table."""
        free = {r: max(0.0, v) for r, v in self.worker._free.items()}
        res = list(free)[which % len(free)]
        free[res] = max(0.0, self.worker._free[res] + nudge * self.worker._tolerance[res])
        self._place(ResourceVector(free))

    @precondition(lambda self: self.worker.n_running)
    @rule(index=st.integers(0, 1000))
    def release(self, index):
        running = self.worker.running_task_ids
        self.worker.release(running[index % len(running)], held_for=1.0)

    @rule()
    def evict_all(self):
        self.worker.evict_all(now=1.0)

    @rule(probe=REQUESTS)
    def probe(self, probe):
        assert self.worker.can_fit(probe) == reference_can_fit(self.worker, probe)

    @invariant()
    def fit_is_the_reference_on_the_free_table(self):
        worker = self.worker
        assert worker.can_fit(ResourceVector())
        assert worker.can_fit(ResourceVector.of(time=1e12))
        assert not worker.can_fit(ResourceVector({UNKNOWN: 2e-9}))
        for res, slack in worker._free.items():
            for nudge in NUDGES:
                value = max(0.0, slack + nudge * worker._tolerance[res])
                probe = ResourceVector({res: value, TIME: 5.0, UNKNOWN: 1e-9})
                assert worker.can_fit(probe) == reference_can_fit(worker, probe), (res, nudge)

    @invariant()
    def committed_is_well_formed(self):
        committed = self.worker.committed
        for res, cap in self.worker.capacity.raw.items():
            assert 0.0 <= committed[res] <= cap


TestWorkerFitMachine = WorkerFitMachine.TestCase
TestWorkerFitMachine.settings = settings(
    max_examples=150,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
