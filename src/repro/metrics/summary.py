"""Result summarization for the experiment harness.

Folds :class:`~repro.sim.manager.SimulationResult` objects into the flat
rows the per-figure experiment modules print, plus the convergence
series used by the scaling study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.core.resources import Resource
from repro.sim.manager import SimulationResult

__all__ = [
    "EfficiencySummary",
    "summarize_result",
    "convergence_series",
]


@dataclass(frozen=True)
class EfficiencySummary:
    """One (workflow, algorithm) cell of the Figure 5 grid."""

    workflow: str
    algorithm: str
    awe: Mapping[str, float]                 # resource key -> AWE
    waste_fragmentation: Mapping[str, float]  # resource key -> resource-seconds
    waste_failed: Mapping[str, float]
    n_tasks: int
    n_attempts: int
    n_failed_attempts: int
    makespan: float

    def failed_fraction(self, resource_key: str) -> float:
        """Share of the (paper-defined) waste due to failed allocations."""
        frag = self.waste_fragmentation[resource_key]
        failed = self.waste_failed[resource_key]
        total = frag + failed
        return failed / total if total > 0 else 0.0


def summarize_result(result: SimulationResult) -> EfficiencySummary:
    """Flatten one simulation result into an EfficiencySummary."""
    awe: Dict[str, float] = {}
    frag: Dict[str, float] = {}
    failed: Dict[str, float] = {}
    for res in result.ledger.resources:
        awe[res.key] = result.ledger.awe(res)
        breakdown = result.ledger.waste(res)
        frag[res.key] = breakdown.internal_fragmentation
        failed[res.key] = breakdown.failed_allocation
    return EfficiencySummary(
        workflow=result.workflow_name,
        algorithm=result.algorithm,
        awe=awe,
        waste_fragmentation=frag,
        waste_failed=failed,
        n_tasks=result.n_tasks,
        n_attempts=result.n_attempts,
        n_failed_attempts=result.n_failed_attempts,
        makespan=result.makespan,
    )


def convergence_series(
    result: SimulationResult, resource: Resource, window: int = 50
) -> List[float]:
    """Windowed per-task efficiency over completion order.

    Unlike the cumulative AWE series, a sliding window shows *current*
    allocator quality — the scaling study uses it to show the bucketing
    algorithms converging to a steady state (Section VII's >10k-task
    hypothesis).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    consumed, allocated = result.ledger.task_series(resource)
    series: List[float] = []
    consumed_sum = 0.0
    allocated_sum = 0.0
    # The window is an index range over the ledger's columns: each task
    # is added once and subtracted once, ``window`` tasks later.
    for i in range(len(consumed)):
        consumed_sum += consumed[i]
        allocated_sum += allocated[i]
        if i >= window:
            consumed_sum -= consumed[i - window]
            allocated_sum -= allocated[i - window]
        series.append(consumed_sum / allocated_sum if allocated_sum > 0 else 0.0)
    return series
