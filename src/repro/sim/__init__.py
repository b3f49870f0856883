"""Discrete-event workflow-execution simulator.

This subpackage stands in for the paper's testbed — the Work Queue
manager-worker framework running 20-50 opportunistic 16-core/64 GB
workers on an HTCondor cluster — with the same decision loop:

1. the workflow manager submits tasks in application order;
2. the scheduler asks the allocator for each ready task's resource
   allocation *at dispatch time* and places the task on a worker with
   enough free capacity;
3. the worker monitors the task and kills it the moment consumption
   exceeds any allocated resource (assumption 4, Section II-B);
4. killed tasks are re-allocated (bucket ladder climb or doubling) and
   retried; completed tasks report their peak consumption back to the
   allocator and the accounting ledger.

Workers may also join and leave mid-run (opportunistic churn); evicted
tasks are requeued with their previous allocation, and the resources an
evicted attempt held are tracked separately from the paper's two waste
classes so AWE remains worker-count independent (Section II-C).
"""

from repro.sim.accounting import Ledger, WasteBreakdown
from repro.sim.engine import SimulationEngine
from repro.sim.invariants import InvariantChecker, InvariantViolation
from repro.sim.manager import SimulationConfig, SimulationResult, WorkflowManager
from repro.sim.pool import ChurnConfig, PoolConfig, WorkerPool
from repro.sim.profiles import (
    ConsumptionProfile,
    InstantPeakProfile,
    LinearRampProfile,
    StepProfile,
)
from repro.sim.scheduler import Scheduler
from repro.sim.task import Attempt, AttemptOutcome, SimTask, TaskState
from repro.sim.trace import SimEvent, TraceRecorder
from repro.sim.worker import Worker

__all__ = [
    "SimulationEngine",
    "SimTask",
    "Attempt",
    "AttemptOutcome",
    "TaskState",
    "Worker",
    "WorkerPool",
    "PoolConfig",
    "ChurnConfig",
    "ConsumptionProfile",
    "LinearRampProfile",
    "StepProfile",
    "InstantPeakProfile",
    "Ledger",
    "WasteBreakdown",
    "Scheduler",
    "InvariantChecker",
    "InvariantViolation",
    "SimEvent",
    "TraceRecorder",
    "WorkflowManager",
    "SimulationConfig",
    "SimulationResult",
]
