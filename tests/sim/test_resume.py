"""Bit-identical simulation resume: kill at event N, relaunch, compare.

The acceptance property of the checkpoint subsystem: a simulation
interrupted at an *arbitrary* engine event and resumed from its snapshot
in a fresh manager produces a trace byte-for-byte equal to the
uninterrupted run.  The scenarios are the golden-trace ones (baseline,
fixed/poisson faults, churny pool) so the comparison target is the same
canonical trace the regression suite pins.

The canonical resume flow exercised throughout::

    manager = WorkflowManager(workflow, config)      # fresh
    recorder = TraceRecorder(manager)
    cp, done = resume_simulation_checkpoint(manager, path)
    manager.advance()        # ALWAYS drain: under churn the queue holds
    manager.finish()         # worker events past workflow completion
"""

import hashlib

import pytest

from repro.checkpoint import (
    CheckpointError,
    GracefulShutdown,
    SimulationCheckpointer,
    SimulationInterrupted,
    canonical_json,
    load_checkpoint,
    resume_simulation_checkpoint,
    save_checkpoint,
)
from repro.core.allocator import AllocatorConfig, ExploratoryConfig
from repro.core.resources import ResourceVector
from repro.sim.faults import FaultConfig, FixedPreemptions, make_fault_config
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
    """Exhaustive Bucketing over a tiny bounded record store.

    Exercises the million-record hot-path machinery end to end through a
    kill/resume: the store compacts every insert past four records, and
    its verbatim-restored prefix sums and the incremental exhaustive
    engine's rebuilt-on-load cache must replay bit-identically.
    """
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
    """Greedy Bucketing killed with its split memo mid-stream.

    The memo (which segments need no re-scan since the last search) is
    not serialized: the resumed run's first search scans everything and
    must land on the same partitions (and thus the same allocations) as
    the uninterrupted run, which kept re-using its memo.
    """
    return SimulationConfig(
        allocator=AllocatorConfig(
            algorithm="greedy_bucketing",
            seed=7,
            exploratory=ExploratoryConfig(min_records=3),
        ),
        pool=_pool(),
    )


#: Config factories for the golden scenarios (fresh objects per call —
#: a resume must never share mutable state with the original run).
CONFIGS = {
    "baseline": lambda: _config(),
    "fixed_preemption": lambda: _config(
        faults=FaultConfig(preemption=FixedPreemptions(times=(45.0, 95.0)), seed=5)
    ),
    "poisson_chaos": lambda: _config(
        faults=make_fault_config("chaos", rate=1 / 90.0, seed=5)
    ),
    "churny_pool": lambda: _config(
        churn=ChurnConfig(
            mean_lifetime=120.0,
            mean_interarrival=60.0,
            min_workers=2,
            max_workers=5,
        )
    ),
    # Poison task + a retry budget: kills land before, during and after
    # the quarantine, so the dead-letter list replays.
    "quarantine": lambda: _config(retry_budget=POISON_BUDGET),
    # Million-record hot-path machinery under kill/resume: a bounded
    # record store, and the greedy search's rebuilt-on-load split memo.
    "bounded_records": _bounded_records_config,
    "greedy_incremental": _greedy_incremental_config,
}

#: Scenarios that run a different workflow than the shared golden one.
WORKFLOWS = {"quarantine": _poison_workflow}


def _make_workflow(name):
    return WORKFLOWS.get(name, _workflow)()


def _uninterrupted(name):
    """(trace text, total engine events) for the scenario run end-to-end."""
    manager = WorkflowManager(_make_workflow(name), CONFIGS[name]())
    recorder = TraceRecorder(manager)
    manager.run()
    return recorder.text(), manager.engine.events_processed


def _kill_and_resume(name, stop_after, path):
    """Run to ``stop_after`` events, snapshot, abandon; resume fresh."""
    # Phase 1: the doomed run.  Snapshot written, manager dropped on the
    # floor mid-flight — exactly what SIGKILL leaves behind.
    doomed = WorkflowManager(_make_workflow(name), CONFIGS[name]())
    checkpointer = SimulationCheckpointer(doomed, path)
    doomed.begin()
    doomed.advance(stop_after_events=stop_after)
    checkpointer.write()
    del doomed

    # Phase 2: the relaunch, as a fresh process would do it.
    manager = WorkflowManager(_make_workflow(name), CONFIGS[name]())
    recorder = TraceRecorder(manager)
    _, done = resume_simulation_checkpoint(manager, path)
    manager.advance()
    manager.finish()
    return recorder.text()


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_kill_at_event_resume_is_bit_identical(name, fraction, tmp_path):
    full_trace, total_events = _uninterrupted(name)
    stop_after = max(1, int(total_events * fraction))
    resumed_trace = _kill_and_resume(name, stop_after, str(tmp_path / "snap.json"))
    assert resumed_trace == full_trace


def test_resume_past_last_event_still_completes(tmp_path):
    """A snapshot taken after the final event resumes to the same trace."""
    full_trace, total_events = _uninterrupted("baseline")
    resumed = _kill_and_resume("baseline", total_events, str(tmp_path / "snap.json"))
    assert resumed == full_trace


def test_periodic_event_snapshots_are_written_and_resumable(tmp_path):
    path = str(tmp_path / "periodic.json")
    manager = WorkflowManager(_workflow(), CONFIGS["baseline"]())
    recorder = TraceRecorder(manager)
    checkpointer = SimulationCheckpointer(manager, path, every_events=5)
    manager.run()
    full_trace = recorder.text()
    assert checkpointer.snapshots_written >= 2

    # The last periodic snapshot on disk resumes to the same end state.
    _, payload = load_checkpoint(path, kind="simulation")
    fresh = WorkflowManager(_workflow(), CONFIGS["baseline"]())
    fresh_recorder = TraceRecorder(fresh)
    resume_simulation_checkpoint(fresh, path)
    fresh.advance()
    fresh.finish()
    assert fresh_recorder.text() == full_trace
    assert fresh.engine.events_processed >= int(payload["events"])


def test_shutdown_trip_snapshots_and_raises(tmp_path):
    """The SIGINT/SIGTERM path: trip mid-run -> snapshot + interrupt."""
    path = str(tmp_path / "interrupted.json")
    full_trace, total_events = _uninterrupted("baseline")

    shutdown = GracefulShutdown(install=False)
    manager = WorkflowManager(_workflow(), CONFIGS["baseline"]())
    SimulationCheckpointer(manager, path, shutdown=shutdown)
    tripped_at = max(1, total_events // 3)
    manager.engine.add_listener(
        lambda: shutdown.trip(15)
        if manager.engine.events_processed == tripped_at
        else None
    )
    with pytest.raises(SimulationInterrupted) as excinfo:
        manager.run()
    assert excinfo.value.signum == 15
    assert excinfo.value.path == path

    # The snapshot it flushed resumes to the uninterrupted trace.
    fresh = WorkflowManager(_workflow(), CONFIGS["baseline"]())
    recorder = TraceRecorder(fresh)
    resume_simulation_checkpoint(fresh, path)
    fresh.advance()
    fresh.finish()
    assert recorder.text() == full_trace


def test_resume_refuses_divergent_config(tmp_path):
    """Same shape, different seed: replay diverges and must be refused."""
    path = str(tmp_path / "snap.json")
    doomed = WorkflowManager(_workflow(), CONFIGS["baseline"]())
    checkpointer = SimulationCheckpointer(doomed, path)
    doomed.begin()
    doomed.advance(stop_after_events=40)
    checkpointer.write()

    divergent = SimulationConfig(
        allocator=AllocatorConfig(
            algorithm="quantized_bucketing",
            seed=8,  # golden scenarios use seed=7
            exploratory=ExploratoryConfig(min_records=3),
        ),
        pool=CONFIGS["baseline"]().pool,
    )
    manager = WorkflowManager(_workflow(), divergent)
    with pytest.raises(CheckpointError, match="resume verification failed"):
        resume_simulation_checkpoint(manager, path)


def _tampered(value):
    if isinstance(value, bool) or value is None:
        return "tampered"
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    return {**value, "tampered": 1}


def test_every_recorded_field_is_verified(tmp_path):
    """No snapshot field is write-only: editing any one refuses the resume.

    ``completed`` was once recorded but never compared; payload and
    verification now run off one field list, which this pins.
    """
    path = str(tmp_path / "snap.json")
    doomed = WorkflowManager(_workflow(), CONFIGS["baseline"]())
    checkpointer = SimulationCheckpointer(doomed, path)
    doomed.begin()
    doomed.advance(stop_after_events=40)
    payload = checkpointer.payload()
    assert payload["completed"] > 0

    def resume(doc):
        fresh = WorkflowManager(_workflow(), CONFIGS["baseline"]())
        return SimulationCheckpointer(fresh, path).resume(doc)

    resume(dict(payload))  # the untouched snapshot is accepted
    for name in payload:
        with pytest.raises(CheckpointError):
            resume({**payload, name: _tampered(payload[name])})
    with pytest.raises(CheckpointError, match="verification failed on completed"):
        resume({**payload, "completed": payload["completed"] - 1})


def test_older_snapshot_with_resilience_digest_still_resumes(tmp_path):
    """Snapshots from builds with the retired resilience layer carry a
    ``resilience_digest`` field (``None`` without a policy); it is not
    compared, and the resume stays bit-identical."""
    path = str(tmp_path / "snap.json")
    doomed = WorkflowManager(_workflow(), CONFIGS["baseline"]())
    checkpointer = SimulationCheckpointer(doomed, path)
    doomed.begin()
    doomed.advance(stop_after_events=40)
    older = {**checkpointer.payload(), "resilience_digest": None}

    fresh = WorkflowManager(_workflow(), CONFIGS["baseline"]())
    recorder = TraceRecorder(fresh)
    SimulationCheckpointer(fresh, path).resume(older)
    fresh.advance()
    fresh.finish()
    assert recorder.text() == _uninterrupted("baseline")[0]


def test_snapshot_with_materialised_allocator_digest_still_resumes(tmp_path):
    """Snapshots from builds that hashed the whole ``state_dict()`` JSON
    (before the digest streamed) carry the same ``allocator_digest`` and
    resume bit-identically."""
    path = str(tmp_path / "snap.json")
    doomed = WorkflowManager(_workflow(), CONFIGS["baseline"]())
    checkpointer = SimulationCheckpointer(doomed, path)
    doomed.begin()
    doomed.advance(stop_after_events=40)
    materialised = canonical_json(doomed.allocator.state_dict()).encode("utf-8")
    older = {**checkpointer.payload(), "allocator_digest": hashlib.sha256(materialised).hexdigest()}
    save_checkpoint(path, "simulation", older)

    fresh = WorkflowManager(_workflow(), CONFIGS["baseline"]())
    recorder = TraceRecorder(fresh)
    resume_simulation_checkpoint(fresh, path)
    fresh.advance()
    fresh.finish()
    assert recorder.text() == _uninterrupted("baseline")[0]


def test_resume_refuses_wrong_workflow_or_algorithm(tmp_path):
    path = str(tmp_path / "snap.json")
    doomed = WorkflowManager(_workflow(), CONFIGS["baseline"]())
    checkpointer = SimulationCheckpointer(doomed, path)
    doomed.begin()
    doomed.advance(stop_after_events=10)
    checkpointer.write()

    smaller = WorkflowManager(_workflow(n=8), CONFIGS["baseline"]())
    with pytest.raises(CheckpointError, match="snapshot is for workflow"):
        resume_simulation_checkpoint(smaller, path)

    other_algo = SimulationConfig(
        allocator=AllocatorConfig(
            algorithm="max_seen", seed=7, exploratory=ExploratoryConfig(min_records=3)
        ),
        pool=CONFIGS["baseline"]().pool,
    )
    mismatched = WorkflowManager(_workflow(), other_algo)
    with pytest.raises(CheckpointError, match="snapshot is for algorithm"):
        resume_simulation_checkpoint(mismatched, path)
