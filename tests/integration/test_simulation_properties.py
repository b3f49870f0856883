"""Property-based tests over whole simulations.

Hypothesis generates small random workflows and pool shapes; every run
must uphold the structural invariants regardless of algorithm:

* every task completes, exactly once, with a successful final attempt;
* the accounting identity (allocation = consumption + fragmentation +
  failed) holds per resource;
* AWE lands in (0, 1];
* each task's allocation sequence is componentwise non-decreasing
  across exhaustion retries;
* the run is deterministic given its seeds.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocator import AllocatorConfig
from repro.core.resources import CORES, DISK, MEMORY, ResourceVector
from repro.sim.manager import SimulationConfig, WorkflowManager
from repro.sim.pool import PoolConfig
from repro.sim.task import AttemptOutcome
from repro.workflows.spec import TaskSpec, WorkflowSpec

ALGORITHMS = (
    "max_seen",
    "min_waste",
    "quantized_bucketing",
    "greedy_bucketing",
    "exhaustive_bucketing",
)

task_strategy = st.tuples(
    st.floats(min_value=0.1, max_value=8.0),       # cores
    st.floats(min_value=10.0, max_value=15000.0),  # memory
    st.floats(min_value=1.0, max_value=15000.0),   # disk
    st.floats(min_value=1.0, max_value=300.0),     # duration
)

workflow_strategy = st.lists(task_strategy, min_size=3, max_size=25)


def build_workflow(raw_tasks):
    tasks = [
        TaskSpec(
            task_id=i,
            category="fuzz",
            consumption=ResourceVector.of(cores=c, memory=m, disk=d),
            duration=t,
        )
        for i, (c, m, d, t) in enumerate(raw_tasks)
    ]
    return WorkflowSpec("fuzz", tasks)


def run_simulation(raw_tasks, algorithm, seed=0, min_records=3):
    manager = WorkflowManager(
        build_workflow(raw_tasks),
        SimulationConfig(
            allocator=AllocatorConfig(
                algorithm=algorithm,
                seed=seed,
                min_records=min_records,
            ),
            pool=PoolConfig(
                n_workers=2,
                capacity=ResourceVector.of(cores=16, memory=32000, disk=32000),
                seed=seed,
            ),
        ),
    )
    result = manager.run()
    return manager, result


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workflow_strategy, st.sampled_from(ALGORITHMS))
def test_every_task_completes_and_identity_holds(raw_tasks, algorithm):
    manager, result = run_simulation(raw_tasks, algorithm)
    assert result.ledger.n_tasks == len(raw_tasks)
    assert result.ledger.identity_holds()
    for task in manager._tasks.values():
        assert task.attempts[-1].outcome is AttemptOutcome.SUCCESS
        assert sum(
            1 for a in task.attempts if a.outcome is AttemptOutcome.SUCCESS
        ) == 1


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workflow_strategy, st.sampled_from(ALGORITHMS))
def test_awe_in_unit_interval(raw_tasks, algorithm):
    _, result = run_simulation(raw_tasks, algorithm)
    for res in (CORES, MEMORY, DISK):
        awe = result.ledger.awe(res)
        assert 0.0 < awe <= 1.0 + 1e-9


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workflow_strategy, st.sampled_from(ALGORITHMS))
def test_retry_allocations_never_shrink(raw_tasks, algorithm):
    manager, _ = run_simulation(raw_tasks, algorithm)
    for task in manager._tasks.values():
        for prev, cur in zip(task.attempts, task.attempts[1:]):
            for res in (CORES, MEMORY, DISK):
                assert cur.allocation[res] >= prev.allocation[res] - 1e-9


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workflow_strategy)
def test_runs_are_deterministic(raw_tasks):
    _, a = run_simulation(raw_tasks, "exhaustive_bucketing", seed=11)
    _, b = run_simulation(raw_tasks, "exhaustive_bucketing", seed=11)
    assert a.n_attempts == b.n_attempts
    assert a.makespan == b.makespan
    for res in (CORES, MEMORY, DISK):
        assert a.ledger.awe(res) == b.ledger.awe(res)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workflow_strategy)
def test_exhausted_attempts_observed_at_most_allocation(raw_tasks):
    """The monitor can never report more consumption than the limit it
    enforced (for the exhausted resources)."""
    manager, _ = run_simulation(raw_tasks, "greedy_bucketing")
    for task in manager._tasks.values():
        for attempt in task.attempts:
            if attempt.outcome is AttemptOutcome.EXHAUSTED:
                for res in attempt.exhausted:
                    assert attempt.observed[res] <= attempt.allocation[res] + 1e-9
