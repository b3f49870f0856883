"""Churn property tests: random pool churn x random workflows.

Hypothesis draws a workflow, an allocation algorithm and a worker-pool
churn model (departures, arrivals, or both, with a population floor of
at least one worker); regardless of the draw:

* the simulation terminates (the floor keeps a worker alive, and every
  drawn task fits one);
* the always-on :class:`InvariantChecker` stays silent — conservation
  laws hold under adversity, not just on the happy path;
* every task completes exactly once;
* the run replays bit-identically from its seeds.

The fast suite runs a trimmed example budget in CI; ``-m slow`` unlocks
the wide sweep across all seven paper algorithms.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocator import AllocatorConfig, ExploratoryConfig
from repro.core.resources import CORES, DISK, MEMORY, ResourceVector
from repro.experiments.config import PAPER_ALGORITHMS
from repro.sim.manager import SimulationConfig, WorkflowManager
from repro.sim.pool import ChurnConfig, PoolConfig
from repro.sim.task import AttemptOutcome
from repro.sim.trace import TraceRecorder
from repro.workflows.spec import TaskSpec, WorkflowSpec

task_strategy = st.tuples(
    st.floats(min_value=0.1, max_value=8.0),       # cores
    st.floats(min_value=10.0, max_value=15000.0),  # memory
    st.floats(min_value=1.0, max_value=15000.0),   # disk
    st.floats(min_value=1.0, max_value=200.0),     # duration
)

workflow_strategy = st.lists(task_strategy, min_size=3, max_size=15)

churn_strategy = st.builds(
    ChurnConfig,
    mean_lifetime=st.one_of(st.none(), st.floats(min_value=40.0, max_value=2000.0)),
    mean_interarrival=st.one_of(st.none(), st.floats(min_value=20.0, max_value=500.0)),
    min_workers=st.integers(min_value=1, max_value=2),
    max_workers=st.integers(min_value=3, max_value=6),
)

pool_strategy = st.builds(
    PoolConfig,
    n_workers=st.just(3),
    capacity=st.just(ResourceVector.of(cores=16, memory=32000, disk=32000)),
    churn=churn_strategy,
    seed=st.integers(min_value=0, max_value=2**16),
)


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
    return WorkflowSpec("chaos", tasks)


def run_chaos(raw_tasks, algorithm, pool):
    manager = WorkflowManager(
        build_workflow(raw_tasks),
        SimulationConfig(
            allocator=AllocatorConfig(
                algorithm=algorithm,
                seed=0,
                exploratory=ExploratoryConfig(min_records=3),
            ),
            pool=pool,
        ),
    )
    result = manager.run()
    return manager, result


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workflow_strategy, st.sampled_from(PAPER_ALGORITHMS), pool_strategy)
def test_chaos_terminates_and_completes_every_task(raw_tasks, algorithm, pool):
    """Invariants are audited continuously (checker is on by default);
    a violation would raise out of run()."""
    manager, result = run_chaos(raw_tasks, algorithm, pool)
    assert result.n_tasks == len(raw_tasks)
    assert manager.invariants.events_checked > 0
    for task in manager.tasks():
        assert task.attempts[-1].outcome is AttemptOutcome.SUCCESS
        assert (
            sum(1 for a in task.attempts if a.outcome is AttemptOutcome.SUCCESS) == 1
        )


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workflow_strategy, st.sampled_from(PAPER_ALGORITHMS), pool_strategy)
def test_chaos_preserves_accounting_identity_and_awe(raw_tasks, algorithm, pool):
    _, result = run_chaos(raw_tasks, algorithm, pool)
    assert result.ledger.identity_holds()
    for res in (CORES, MEMORY, DISK):
        awe = result.ledger.awe(res)
        assert 0.0 < awe <= 1.0 + 1e-9


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workflow_strategy, pool_strategy)
def test_chaos_replays_bit_identically(raw_tasks, pool):
    def trace_once():
        manager = WorkflowManager(
            build_workflow(raw_tasks),
            SimulationConfig(
                allocator=AllocatorConfig(
                    algorithm="quantized_bucketing",
                    seed=3,
                    exploratory=ExploratoryConfig(min_records=3),
                ),
                pool=pool,
            ),
        )
        recorder = TraceRecorder(manager)
        manager.run()
        return recorder.text()

    assert trace_once() == trace_once()


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workflow_strategy, pool_strategy)
def test_chaos_evictions_never_escalate_allocations(raw_tasks, pool):
    """Only exhaustion grows an allocation; eviction retries keep the
    pinned one, so sequences stay componentwise non-decreasing."""
    manager, _ = run_chaos(raw_tasks, "max_seen", pool)
    for task in manager.tasks():
        for prev, cur in zip(task.attempts, task.attempts[1:]):
            for res in (CORES, MEMORY, DISK):
                assert cur.allocation[res] >= prev.allocation[res] - 1e-9
            if prev.outcome is AttemptOutcome.EVICTED:
                assert cur.allocation == prev.allocation


@pytest.mark.slow
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workflow_strategy, st.sampled_from(PAPER_ALGORITHMS), pool_strategy)
def test_chaos_wide_sweep(raw_tasks, algorithm, pool):
    """The slow, wide version of the termination/invariant sweep."""
    manager, result = run_chaos(raw_tasks, algorithm, pool)
    assert result.n_tasks == len(raw_tasks)
    assert result.ledger.identity_holds()
    for task in manager.tasks():
        assert task.attempts[-1].outcome is AttemptOutcome.SUCCESS
