"""Golden-trace regression tests: byte-identical simulation replay.

Each scenario below is fully seeded; its canonical event trace is
committed under ``tests/golden/``.  Any change to event ordering, float
arithmetic, RNG consumption or churn scheduling shows up as a trace
diff — deliberate behaviour changes must regenerate the goldens with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sim/test_golden_traces.py

and the diff reviewed like any other code change.
"""

import os
from pathlib import Path

import pytest

from repro.core.allocator import AllocatorConfig, ExploratoryConfig
from repro.core.resources import ResourceVector
from repro.sim.manager import SimulationConfig, WorkflowManager
from repro.sim.pool import ChurnConfig, PoolConfig
from repro.sim.trace import TraceRecorder
from repro.workflows.spec import TaskSpec, WorkflowSpec

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def _workflow(n=12):
    tasks = [
        TaskSpec(
            task_id=i,
            category="proc" if i % 3 else "merge",
            consumption=ResourceVector.of(
                cores=1 + (i % 2), memory=600.0 + 150.0 * (i % 5), disk=100.0
            ),
            duration=40.0 + 7.0 * (i % 4),
        )
        for i in range(n)
    ]
    return WorkflowSpec("golden", tasks)


def _poison_workflow(n=12):
    """The golden workflow plus one poison task whose memory footprint
    exceeds every worker (16 GB), so it exhausts on every attempt."""
    tasks = list(_workflow(n).tasks)
    tasks.append(
        TaskSpec(
            task_id=n,
            category="proc",
            consumption=ResourceVector.of(cores=1, memory=48000.0, disk=100.0),
            duration=40.0,
        )
    )
    return WorkflowSpec("golden", tasks)


#: The quarantine scenario's retry budget.
POISON_BUDGET = 4


def _config(churn=ChurnConfig(), retry_budget=None):
    return SimulationConfig(
        allocator=AllocatorConfig(
            algorithm="quantized_bucketing",
            seed=7,
            exploratory=ExploratoryConfig(min_records=3),
        ),
        pool=PoolConfig(
            n_workers=3,
            capacity=ResourceVector.of(cores=8, memory=16000, disk=16000),
            churn=churn,
            seed=11,
        ),
        retry_budget=retry_budget,
    )


def _trace(config, workflow=None) -> str:
    manager = WorkflowManager(workflow if workflow is not None else _workflow(), config)
    recorder = TraceRecorder(manager)
    manager.run()
    return recorder.text()


SCENARIOS = {
    "baseline": lambda: _trace(_config()),
    "churny_pool": lambda: _trace(
        _config(
            churn=ChurnConfig(
                mean_lifetime=120.0,
                mean_interarrival=60.0,
                min_workers=2,
                max_workers=5,
            )
        )
    ),
    "quarantine": lambda: _trace(
        _config(retry_budget=POISON_BUDGET), workflow=_poison_workflow()
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace(name):
    trace = SCENARIOS[name]()
    path = GOLDEN_DIR / f"{name}.trace"
    if os.environ.get("REGEN_GOLDEN"):
        from repro.checkpoint import write_text_atomic

        write_text_atomic(str(path), trace)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden file {path}; run with REGEN_GOLDEN=1 to create it"
    )
    golden = path.read_text()
    assert trace == golden, (
        f"trace for scenario {name!r} diverged from {path.name} "
        f"({len(trace.splitlines())} vs {len(golden.splitlines())} events); "
        "if the change is intentional, regenerate with REGEN_GOLDEN=1"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_replays_identically_in_process(name):
    """Two back-to-back runs of the same scenario are byte-identical."""
    assert SCENARIOS[name]() == SCENARIOS[name]()
