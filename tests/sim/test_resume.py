"""Cell-grain resume at the simulator: kill at event N, rerun, compare.

The experiment grid's only unit of durability is the finished cell.  A
cell that a signal cuts short is dropped — the grid's engine listener
raises out of ``manager.run()`` within one event — and the cell reruns
from event 0 on resume.  The serial grid builds each workflow once and
shares it between cells, so the property this pins is that an abandoned
run leaves nothing behind: a fresh manager over the *same* workflow and
config objects replays the uninterrupted run byte for byte.  The
scenarios are the golden-trace ones (baseline, churny pool,
quarantine, bounded records, greedy memo), so the
comparison target is the same canonical trace the regression suite pins.
"""

import pytest

from repro.core.allocator import AllocatorConfig, ExploratoryConfig
from repro.core.resources import ResourceVector
from repro.sim.manager import SimulationConfig, WorkflowManager
from repro.sim.pool import ChurnConfig, PoolConfig
from repro.sim.trace import TraceRecorder

from tests.sim.test_golden_traces import (
    POISON_BUDGET,
    _config,
    _poison_workflow,
    _workflow,
)


def _pool():
    """The golden scenarios' pool, rebuilt fresh (matches _config)."""
    return PoolConfig(
        n_workers=3,
        capacity=ResourceVector.of(cores=8, memory=16000, disk=16000),
        churn=ChurnConfig(),
        seed=11,
    )


def _bounded_records_config():
    """Exhaustive Bucketing over a tiny bounded record store, which
    compacts every insert past four records."""
    return SimulationConfig(
        allocator=AllocatorConfig(
            algorithm="exhaustive_bucketing",
            algorithm_kwargs={"record_capacity": 4},
            seed=7,
            exploratory=ExploratoryConfig(min_records=3),
        ),
        pool=_pool(),
    )


def _greedy_incremental_config():
    """Greedy Bucketing, whose split memo is live when the run is killed."""
    return SimulationConfig(
        allocator=AllocatorConfig(
            algorithm="greedy_bucketing",
            seed=7,
            exploratory=ExploratoryConfig(min_records=3),
        ),
        pool=_pool(),
    )


#: Config factories for the golden scenarios.
CONFIGS = {
    "baseline": lambda: _config(),
    "churny_pool": lambda: _config(
        churn=ChurnConfig(
            mean_lifetime=120.0,
            mean_interarrival=60.0,
            min_workers=2,
            max_workers=5,
        )
    ),
    # Poison task + a retry budget: kills land before, during and after
    # the quarantine.
    "quarantine": lambda: _config(retry_budget=POISON_BUDGET),
    "bounded_records": _bounded_records_config,
    "greedy_incremental": _greedy_incremental_config,
}

#: Scenarios that run a different workflow than the shared golden one.
WORKFLOWS = {"quarantine": _poison_workflow}


class Killed(Exception):
    """Raised by an engine listener, as the grid's signal poll does."""


def _run(workflow, config):
    """(trace text, total engine events) of one complete run."""
    manager = WorkflowManager(workflow, config)
    recorder = TraceRecorder(manager)
    manager.run()
    return recorder.text(), manager.engine.events_processed


def _kill_at(workflow, config, stop_after):
    """Start a run and abandon it right after engine event ``stop_after``."""
    doomed = WorkflowManager(workflow, config)

    def poll():
        if doomed.engine.events_processed >= stop_after:
            raise Killed

    doomed.engine.add_listener(poll)
    with pytest.raises(Killed):
        doomed.run()
    assert doomed.engine.events_processed == stop_after


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_kill_at_event_resume_is_bit_identical(name, fraction):
    full_trace, total_events = _run(WORKFLOWS.get(name, _workflow)(), CONFIGS[name]())

    workflow = WORKFLOWS.get(name, _workflow)()
    config = CONFIGS[name]()
    _kill_at(workflow, config, max(1, int(total_events * fraction)))
    assert _run(workflow, config) == (full_trace, total_events)
