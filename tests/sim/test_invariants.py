"""The invariant checker must catch deliberately broken accounting.

Each test here sabotages one conservation law mid-run and asserts the
checker raises :class:`InvariantViolation` at the event that broke it —
this is the acceptance test that the checker is load-bearing, not
decorative.
"""

import pytest

from repro.core.allocator import AllocatorConfig, ExploratoryConfig
from repro.core.resources import DISK, MEMORY, ResourceVector
from repro.sim.invariants import InvariantViolation
from repro.sim.manager import SimulationConfig, WorkflowManager
from repro.sim.pool import ChurnConfig, PoolConfig
from repro.sim.task import Attempt, AttemptOutcome, SimTask
from repro.workflows.spec import TaskSpec, WorkflowSpec


def make_workflow(n=10, duration=50.0):
    tasks = [
        TaskSpec(
            task_id=i,
            category="proc",
            consumption=ResourceVector.of(cores=1, memory=800, disk=100),
            duration=duration,
        )
        for i in range(n)
    ]
    return WorkflowSpec("audited", tasks)


def make_manager(n=10, check_invariants=True, churn=ChurnConfig()):
    config = SimulationConfig(
        allocator=AllocatorConfig(
            algorithm="max_seen",
            seed=1,
            exploratory=ExploratoryConfig(min_records=3),
        ),
        pool=PoolConfig(
            n_workers=3,
            capacity=ResourceVector.of(cores=8, memory=16000, disk=16000),
            seed=2,
            churn=churn,
        ),
        check_invariants=check_invariants,
    )
    return WorkflowManager(make_workflow(n), config)


class TestCleanRuns:
    def test_clean_run_passes_and_counts_checks(self):
        manager = make_manager()
        manager.run()
        assert manager.invariants is not None
        assert manager.invariants.events_checked > 0
        assert manager.invariants.attempts_checked >= 10

    def test_faulty_run_still_satisfies_invariants(self):
        churn = ChurnConfig(mean_lifetime=120.0, mean_interarrival=60.0)
        manager = make_manager(n=20, churn=churn)
        result = manager.run()
        assert result.n_tasks == 20
        assert result.n_evicted_attempts > 0
        assert manager.invariants.attempts_checked >= result.n_attempts

    def test_opt_out_disables_checker(self):
        manager = make_manager(check_invariants=False)
        assert manager.invariants is None
        manager.run()


class TestSabotage:
    def test_ledger_corruption_is_caught(self):
        """Corrupting fragmentation totals breaks the waste identity."""
        manager = make_manager()
        ledger = manager.ledger
        real_record = ledger.record_task

        def corrupted(task):
            usage = real_record(task)
            ledger._waste[MEMORY].internal_fragmentation += 12345.0
            return usage

        ledger.record_task = corrupted
        with pytest.raises(InvariantViolation, match="ledger identity"):
            manager.run()

    def test_worker_overcommit_is_caught(self):
        """A worker whose committed sum exceeds capacity is flagged."""
        manager = make_manager()

        def sabotage():
            worker = next(iter(manager.pool.alive_workers()))
            worker._free[MEMORY] = -500.0  # fake overcommit

        manager.engine.schedule(10.0, sabotage)
        with pytest.raises(InvariantViolation, match="overcommitted"):
            manager.run()

    @pytest.mark.parametrize("which", [0, -1])
    def test_overcommit_written_into_the_free_table_is_caught_at_its_event(self, which):
        """The audit reads every worker's raw free table after every
        event: a hair over capacity, on the first or the last worker,
        fails at the event that wrote it and not later."""
        manager = make_manager()
        fired = []

        def sabotage():
            worker = manager.pool.alive_workers()[which]
            cap = worker.capacity[MEMORY]
            worker._free[MEMORY] = -(cap * 1e-6) - 1e-3
            fired.append((worker.worker_id, manager.invariants.events_checked))

        manager.engine.schedule(10.0, sabotage)
        with pytest.raises(InvariantViolation, match="overcommitted at t=10.0") as caught:
            manager.run()
        worker_id, checked_before = fired[0]
        assert f"worker {worker_id} " in str(caught.value)
        assert manager.invariants.events_checked == checked_before + 1

    def test_clock_rewind_is_caught(self):
        manager = make_manager()

        def rewind():
            manager.engine._now = 1.0

        manager.engine.schedule(20.0, rewind)
        with pytest.raises(InvariantViolation, match="clock ran backwards"):
            manager.run()

    def test_opt_out_lets_ledger_corruption_pass_events(self):
        """Without the checker the same sabotage is not caught per-event."""
        manager = make_manager(check_invariants=False)
        ledger = manager.ledger
        real_record = ledger.record_task

        def corrupted(task):
            usage = real_record(task)
            ledger._waste[MEMORY].internal_fragmentation += 12345.0
            return usage

        ledger.record_task = corrupted
        # The run itself proceeds; only the manager's final sanity assert
        # (if any) may trip, so just check no InvariantViolation type.
        try:
            manager.run()
        except InvariantViolation:  # pragma: no cover
            pytest.fail("checker should be disabled")
        except AssertionError:
            pass  # pre-existing end-of-run assert is allowed to notice


class TestAttemptChecks:
    def _checker(self):
        manager = make_manager()
        # Detach from the engine: we drive check_attempt directly.
        manager.engine.remove_listener(manager.invariants.check_event)
        return manager.invariants

    def _task(self):
        return SimTask(
            TaskSpec(
                task_id=0,
                category="proc",
                consumption=ResourceVector.of(cores=1, memory=800, disk=100),
                duration=10.0,
            )
        )

    def test_double_success_is_caught(self):
        checker = self._checker()
        task = self._task()
        alloc = ResourceVector.of(cores=1, memory=1000, disk=200)
        observed = ResourceVector.of(cores=1, memory=800, disk=100)
        for index in range(2):
            task.record_attempt(
                Attempt(
                    index=index,
                    worker_id=0,
                    allocation=alloc,
                    start_time=0.0,
                    runtime=10.0,
                    outcome=AttemptOutcome.SUCCESS,
                    observed=observed,
                )
            )
        with pytest.raises(InvariantViolation, match="more than once"):
            checker.check_attempt(task, task.attempts[-1])

    def test_underallocated_success_is_caught(self):
        """A success whose allocation is below the true peak means the
        kill rule was not enforced (negative fragmentation)."""
        checker = self._checker()
        task = self._task()
        attempt = Attempt(
            index=0,
            worker_id=0,
            allocation=ResourceVector.of(cores=1, memory=500, disk=200),
            start_time=0.0,
            runtime=10.0,
            outcome=AttemptOutcome.SUCCESS,
            observed=ResourceVector.of(cores=1, memory=800, disk=100),
        )
        task.record_attempt(attempt)
        with pytest.raises(InvariantViolation, match="negative fragmentation"):
            checker.check_attempt(task, attempt)

    def test_kill_above_limit_is_caught(self):
        """An EXHAUSTED attempt cannot have observed more than the limit."""
        checker = self._checker()
        task = self._task()
        attempt = Attempt(
            index=0,
            worker_id=0,
            allocation=ResourceVector.of(cores=1, memory=500, disk=200),
            start_time=0.0,
            runtime=5.0,
            outcome=AttemptOutcome.EXHAUSTED,
            observed=ResourceVector.of(cores=1, memory=900, disk=100),
            exhausted=(MEMORY,),
        )
        task.record_attempt(attempt)
        with pytest.raises(InvariantViolation, match="above its limit"):
            checker.check_attempt(task, attempt)

    def _audit(self, consumption, allocation, outcome, observed, exhausted=()):
        checker = self._checker()
        task = SimTask(
            TaskSpec(task_id=0, category="proc", consumption=consumption, duration=10.0)
        )
        attempt = Attempt(
            index=0,
            worker_id=0,
            allocation=allocation,
            start_time=0.0,
            runtime=10.0 if outcome is AttemptOutcome.SUCCESS else 5.0,
            outcome=outcome,
            observed=observed,
            exhausted=exhausted,
        )
        task.record_attempt(attempt)
        checker.check_attempt(task, attempt)

    def test_resource_omitted_everywhere_audits_as_zero(self):
        """Vectors that leave a managed resource out hold 0.0 of it."""
        no_disk = ResourceVector.of(cores=1, memory=800)
        enough = ResourceVector.of(cores=1, memory=900)
        self._audit(no_disk, enough, AttemptOutcome.SUCCESS, no_disk)
        self._audit(
            no_disk,
            ResourceVector.of(cores=1, memory=500),
            AttemptOutcome.EXHAUSTED,
            ResourceVector.of(cores=1, memory=500),
            exhausted=(MEMORY, DISK),
        )

    def test_omitted_allocation_below_a_peak_is_caught(self):
        with pytest.raises(
            InvariantViolation, match="disk allocation 0.0 below its true peak 100"
        ):
            self._audit(
                ResourceVector.of(cores=1, memory=800, disk=100),
                ResourceVector.of(cores=1, memory=900),
                AttemptOutcome.SUCCESS,
                ResourceVector.of(cores=1, memory=800, disk=100),
            )

    def test_observed_above_an_omitted_limit_is_caught(self):
        with pytest.raises(InvariantViolation, match="observed 30.0 above its limit 0.0"):
            self._audit(
                ResourceVector.of(cores=1, memory=800, disk=100),
                ResourceVector.of(cores=1, memory=500),
                AttemptOutcome.EXHAUSTED,
                ResourceVector.of(cores=1, memory=500, disk=30),
                exhausted=(DISK,),
            )

    def test_valid_eviction_passes(self):
        checker = self._checker()
        task = self._task()
        attempt = Attempt(
            index=0,
            worker_id=0,
            allocation=ResourceVector.of(cores=1, memory=1000, disk=200),
            start_time=0.0,
            runtime=3.0,
            outcome=AttemptOutcome.EVICTED,
            observed=ResourceVector.of(cores=1, memory=240, disk=30),
        )
        task.record_attempt(attempt)
        checker.check_attempt(task, attempt)  # must not raise
