"""Poison-task quarantine: the retry budget and the dead-letter list.

The paper's retry loop is unbounded; ``SimulationConfig.retry_budget``
is its one bound.  Three layers of coverage:

* the budget's validation and its default (off, paper-literal);
* integration tests of the poison-task demo: a task that can never fit
  any worker lands in the dead-letter list within its budget while the
  rest of the workflow completes, AWE stays honest, only exhausted
  attempts are charged, descendants are cascade-quarantined, and the
  whole scenario is deterministic and parity-clean when the budget
  never binds;
* a conservation property over all seven paper algorithms, on a fixed
  pool and under pool churn — no task is ever lost:
  submitted == completed + quarantined, each exactly once.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocator import AllocatorConfig, ExploratoryConfig, TaskOrientedAllocator
from repro.core.resources import MEMORY, ResourceVector
from repro.experiments.config import PAPER_ALGORITHMS, ExperimentConfig
from repro.sim.manager import SimulationConfig, SimulationResult, WorkflowManager
from repro.sim.pool import ChurnConfig, PoolConfig
from repro.sim.task import AttemptOutcome, DeadLetterEntry, TaskState
from repro.sim.trace import TraceRecorder
from repro.workflows.spec import TaskSpec, WorkflowSpec

from tests.sim.test_golden_traces import (
    POISON_BUDGET,
    _config,
    _poison_workflow,
    _workflow,
)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_retry_policy_rejects_bad_knobs():
    """The budget is an ``int >= 1`` and not a ``bool``, everywhere."""
    for bad in (0, -3, 2.5, True, False, "3"):
        with pytest.raises(ValueError, match="retry_budget must be an integer >= 1"):
            SimulationConfig(retry_budget=bad)
        with pytest.raises(ValueError, match="retry_budget must be an integer >= 1"):
            ExperimentConfig(retry_budget=bad)
    assert SimulationConfig(retry_budget=1).retry_budget == 1


def test_default_config_is_disabled():
    assert SimulationConfig().retry_budget is None
    assert ExperimentConfig().retry_budget is None
    # Without a budget a poison task would retry forever, so the
    # workflow is refused up front instead of livelocking.
    with pytest.raises(ValueError):
        WorkflowManager(_poison_workflow(), _config())


# ---------------------------------------------------------------------------
# Retry growth
# ---------------------------------------------------------------------------


def test_no_capacity_provider_keeps_paper_behaviour():
    """A retry doubles past the failed allocation up to the machine
    capacity, and no clamp is counted below it."""
    allocator = TaskOrientedAllocator(
        AllocatorConfig(algorithm="quantized_bucketing", seed=0)
    )
    previous = ResourceVector.of(cores=1, memory=8000, disk=100)
    grown = allocator.allocate_retry(
        "proc", 0, previous=previous, observed=previous, exhausted=(MEMORY,)
    )
    assert grown[MEMORY] == pytest.approx(16000.0)
    assert allocator.capacity_clamps_total == 0


# ---------------------------------------------------------------------------
# Integration: the poison-task demo
# ---------------------------------------------------------------------------


def _run_poison(churn=ChurnConfig(), workflow=None):
    manager = WorkflowManager(
        workflow if workflow is not None else _poison_workflow(),
        _config(churn=churn, retry_budget=POISON_BUDGET),
    )
    recorder = TraceRecorder(manager)
    result = manager.run()
    return manager, result, recorder.text()


def test_poison_task_lands_in_dead_letter_and_workflow_completes():
    manager, result, _ = _run_poison()
    poison_id = max(t.task_id for t in manager.tasks())

    assert result.n_quarantined == 1
    (entry,) = result.dead_letters
    assert entry.task_id == poison_id
    assert entry.reason == "retry_budget_exceeded"
    assert entry.n_exhausted == POISON_BUDGET

    # Every healthy task completed exactly once; the poison task never did.
    for task in manager.tasks():
        if task.task_id == poison_id:
            assert task.state is TaskState.QUARANTINED
            assert all(a.outcome is not AttemptOutcome.SUCCESS for a in task.attempts)
        else:
            assert task.state is TaskState.COMPLETED


def test_poison_attempts_are_charged_as_failed_allocation_waste():
    manager, result, _ = _run_poison()
    ledger = result.ledger
    assert ledger.n_quarantined == 1
    assert ledger.identity_holds()
    # The poison task is 'proc': its burned attempts show up as
    # failed-allocation waste, and AWE stays strictly below 1.
    assert ledger.waste(MEMORY).failed_allocation > 0.0
    assert 0.0 < ledger.awe(MEMORY) < 1.0


def test_makespan_covers_the_quarantine_time():
    _, result, _ = _run_poison()
    (entry,) = result.dead_letters
    assert result.makespan >= entry.time


def test_budget_counts_exhaustions_not_evictions_by_default():
    """Evictions say nothing about the allocation's adequacy: the
    poison task is quarantined at exactly ``budget`` exhausted attempts
    however many evicted ones it also burned."""
    # The poison task alone: it exhausts within ~13 s per attempt, so
    # workers that live seconds evict it between exhaustions.
    poison = dataclasses.replace(_poison_workflow().tasks[-1], task_id=0)
    evicted = 0
    for lifetime in (5.0, 10.0, 20.0):
        _, result, _ = _run_poison(
            churn=ChurnConfig(mean_lifetime=lifetime, mean_interarrival=lifetime / 2),
            workflow=WorkflowSpec("poison", [poison]),
        )
        (entry,) = result.dead_letters
        assert entry.n_exhausted == POISON_BUDGET
        assert entry.n_attempts == entry.n_exhausted + entry.n_evicted
        evicted += entry.n_evicted
    assert evicted > 0  # the schedule really did evict the poison task


def test_dead_letter_ledger_round_trip_and_reasons():
    """A quarantined task takes its waiting descendants with it, each
    entry says why, and every entry round-trips through its state."""
    tasks = list(_poison_workflow().tasks)
    poison_id = tasks[-1].task_id
    child = TaskSpec(
        task_id=poison_id + 1,
        category="merge",
        consumption=ResourceVector.of(cores=1, memory=600.0, disk=100.0),
        duration=40.0,
        dependencies=(poison_id,),
    )
    grandchild = TaskSpec(
        task_id=poison_id + 2,
        category="merge",
        consumption=ResourceVector.of(cores=1, memory=600.0, disk=100.0),
        duration=40.0,
        dependencies=(child.task_id, 0),
    )
    manager, result, _ = _run_poison(
        workflow=WorkflowSpec("golden", tasks + [child, grandchild])
    )
    assert [(e.task_id, e.reason) for e in result.dead_letters] == [
        (poison_id, "retry_budget_exceeded"),
        (child.task_id, "parent_quarantined"),
        (grandchild.task_id, "parent_quarantined"),
    ]
    assert manager.completed_tasks + result.n_quarantined == result.n_tasks
    for entry in result.dead_letters:
        assert DeadLetterEntry.from_state(entry.state_dict()) == entry
    descendants = result.dead_letters[1:]
    assert all(e.n_attempts == 0 and e.time == result.dead_letters[0].time for e in descendants)


def test_poison_scenario_with_faults_is_bit_deterministic():
    """Quarantine + pool churn: two runs from the same seeds are
    byte-identical, trace and result alike."""
    churn = ChurnConfig(mean_lifetime=60.0, mean_interarrival=30.0)
    _, result_a, trace_a = _run_poison(churn=churn)
    _, result_b, trace_b = _run_poison(churn=churn)
    assert result_a.n_evicted_attempts > 0
    assert trace_a == trace_b

    def simulated_state(result):
        state = result.state_dict()
        state.pop("wall_clock_seconds")  # host time, not simulated state
        return state

    assert simulated_state(result_a) == simulated_state(result_b)
    assert result_a.n_quarantined >= 1


def test_result_state_dict_round_trips_resilience_fields():
    _, result, _ = _run_poison()
    clone = SimulationResult.from_state(result.state_dict())
    assert clone.n_quarantined == result.n_quarantined
    assert clone.dead_letters == result.dead_letters
    assert clone.state_dict() == result.state_dict()


def test_result_with_retired_resilience_stats_still_loads():
    """A result journaled by an older build carries ``resilience_stats``;
    it loads, and the retired key is dropped."""
    _, result, _ = _run_poison()
    older = result.state_dict()
    older["resilience_stats"] = {
        "quarantined": 1,
        "breaker_trips": 0,
        "watchdog_stalls": 0,
        "backoff_requeues": 0,
        "capacity_clamps": 0,
    }
    clone = SimulationResult.from_state(older)
    assert clone.dead_letters == result.dead_letters
    assert clone.state_dict() == result.state_dict()
    older["resilience_stats"] = None
    assert SimulationResult.from_state(older).state_dict() == result.state_dict()


#: A result document written by a build that still had fault injection:
#: a two-task ``max_seen`` run, carrying the retired ``fault_stats`` key.
OLDER_RESULT_DOC = (
    '{"algorithm": "max_seen", "dead_letters": [], "fault_stats": {"degradations": 0, '
    '"dispatch_faults": 0, "preemptions": 0, "suppressed": 0, "task_kills": 0}, '
    '"ledger": {"allocation": {"cores": 240.0, "disk": 240000.0, "memory": 240000.0}, '
    '"by_category": {"proc": {"cores": [180.0, 0.0, 0.0], "disk": [234000.0, 0.0, 0.0], '
    '"memory": [189000.0, 0.0, 0.0]}}, "category_allocation": {"proc": {"cores": 240.0, '
    '"disk": 240000.0, "memory": 240000.0}}, "category_consumption": {"proc": '
    '{"cores": 60.0, "disk": 6000.0, "memory": 51000.0}}, "consumption": {"cores": 60.0, '
    '"disk": 6000.0, "memory": 51000.0}, "n_attempts": 2, "n_evicted": 0, "n_failed": 0, '
    '"n_quarantined": 0, "resources": ["cores", "memory", "disk"], "tasks": '
    '[{"allocation": {"cores": 120.0, "disk": 120000.0, "memory": 120000.0}, '
    '"category": "proc", "consumption": {"cores": 30.0, "disk": 3000.0, "memory": 24000.0}, '
    '"n_evicted_attempts": 0, "n_failed_attempts": 0, "task_id": 0}, {"allocation": '
    '{"cores": 120.0, "disk": 120000.0, "memory": 120000.0}, "category": "proc", '
    '"consumption": {"cores": 30.0, "disk": 3000.0, "memory": 27000.0}, '
    '"n_evicted_attempts": 0, "n_failed_attempts": 0, "task_id": 1}], "waste": '
    '{"cores": [180.0, 0.0, 0.0], "disk": [234000.0, 0.0, 0.0], "memory": '
    '[189000.0, 0.0, 0.0]}}, "makespan": 60.0, "n_attempts": 2, "n_evicted_attempts": 0, '
    '"n_failed_attempts": 0, "n_quarantined": 0, "n_tasks": 2, "wall_clock_seconds": 0.0, '
    '"workers_joined": 1, "workers_left": 0, "workflow_name": "tiny"}'
)


def test_result_with_retired_fault_stats_still_loads():
    """A journaled result from a build with fault injection loads; the
    retired ``fault_stats`` key is dropped and everything else kept."""
    older = json.loads(OLDER_RESULT_DOC)
    result = SimulationResult.from_state(older)
    assert result.makespan == 60.0 and result.n_tasks == 2
    assert 0.0 < result.awe(MEMORY) < 1.0
    del older["fault_stats"]
    assert result.state_dict() == older


def test_disabled_resilience_is_parity_clean():
    """A budget that never binds replays the budget-free trace
    byte-for-byte: checking it must not perturb event order, RNG draws
    or accounting."""

    def run(retry_budget):
        manager = WorkflowManager(_workflow(), _config(retry_budget=retry_budget))
        recorder = TraceRecorder(manager)
        result = manager.run()
        return recorder.text(), result

    baseline_trace, baseline = run(None)
    permissive_trace, permissive = run(10**6)
    assert permissive_trace == baseline_trace
    assert permissive.ledger.state_dict() == baseline.ledger.state_dict()
    assert permissive.n_quarantined == 0


# ---------------------------------------------------------------------------
# Conservation property: no task is ever lost
# ---------------------------------------------------------------------------

task_strategy = st.tuples(
    st.floats(min_value=0.5, max_value=8.0),       # cores
    st.floats(min_value=100.0, max_value=15000.0),  # memory
    st.floats(min_value=10.0, max_value=5000.0),    # disk
    st.floats(min_value=5.0, max_value=120.0),      # duration
)


def _conservation_workflow(raw_tasks):
    tasks = [
        TaskSpec(
            task_id=i,
            category="fuzz",
            consumption=ResourceVector.of(cores=c, memory=m, disk=d),
            duration=t,
        )
        for i, (c, m, d, t) in enumerate(raw_tasks)
    ]
    tasks.append(
        TaskSpec(
            task_id=len(tasks),
            category="poison",
            consumption=ResourceVector.of(cores=1, memory=99000.0, disk=100.0),
            duration=30.0,
        )
    )
    return WorkflowSpec("conservation", tasks)


def _check_conservation(raw_tasks, algorithm, budget, churn_seed):
    """Run one workflow with a poison task under a budget (and, when
    ``churn_seed`` is set, under pool churn seeded by it) and check that
    no task is lost."""
    churn = (
        ChurnConfig()
        if churn_seed is None
        else ChurnConfig(mean_lifetime=60.0, mean_interarrival=30.0)
    )
    manager = WorkflowManager(
        _conservation_workflow(raw_tasks),
        SimulationConfig(
            allocator=AllocatorConfig(
                algorithm=algorithm,
                seed=3,
                exploratory=ExploratoryConfig(min_records=3),
            ),
            pool=PoolConfig(
                n_workers=3,
                capacity=ResourceVector.of(cores=16, memory=32000, disk=32000),
                churn=churn,
                seed=3 if churn_seed is None else churn_seed,
            ),
            retry_budget=budget,
        ),
    )
    result = manager.run()
    assert manager.invariants.events_checked > 0
    assert result.n_tasks == len(raw_tasks) + 1
    assert manager.completed_tasks + result.n_quarantined == result.n_tasks
    assert result.n_quarantined >= 1  # the poison task can never fit

    quarantined_ids = {entry.task_id for entry in result.dead_letters}
    assert len(quarantined_ids) == result.n_quarantined
    for entry in result.dead_letters:
        # Only exhausted attempts are charged against the budget.
        assert entry.reason == "retry_budget_exceeded"
        assert entry.n_exhausted == budget
    for task in manager.tasks():
        if task.task_id in quarantined_ids:
            assert task.state is TaskState.QUARANTINED
            assert all(a.outcome is not AttemptOutcome.SUCCESS for a in task.attempts)
        else:
            assert task.state is TaskState.COMPLETED
            successes = sum(
                1 for a in task.attempts if a.outcome is AttemptOutcome.SUCCESS
            )
            assert successes == 1
    assert result.ledger.identity_holds()
    return result


@settings(max_examples=14, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(task_strategy, min_size=3, max_size=10),
    st.sampled_from(PAPER_ALGORITHMS),
    st.integers(min_value=2, max_value=8),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
)
def test_no_task_lost_under_quarantine(raw_tasks, algorithm, budget, churn_seed):
    """submitted == completed + quarantined, each task exactly once, for
    every paper algorithm, on a fixed pool or under churn; the
    always-on invariant checker audits the conservation law after every
    event and would raise on any leak."""
    _check_conservation(raw_tasks, algorithm, budget, churn_seed)


@pytest.mark.slow
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(task_strategy, min_size=3, max_size=40),
    st.sampled_from(PAPER_ALGORITHMS),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**16),
)
def test_no_task_lost_under_quarantine_and_chaos(raw_tasks, algorithm, budget, churn_seed):
    """The wide arm: longer workflows, every budget from 1, and pool
    churn on every example — evictions and the budget meet in one run."""
    _check_conservation(raw_tasks, algorithm, budget, churn_seed)
