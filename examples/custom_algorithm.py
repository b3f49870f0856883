#!/usr/bin/env python
"""Extending the library: plug in a custom allocation algorithm.

The registry makes the allocator open to user strategies: subclass
:class:`~repro.core.base.AllocationAlgorithm`, decorate it with
``register_algorithm``, and the simulator, experiment grid and CLI can
run it by name.  This example adds a percentile-with-headroom strategy
(allocate the 95th percentile of observed peaks times a safety factor)
and benchmarks it against the paper's algorithms on the bimodal
workload.

Run:  python examples/custom_algorithm.py
"""

import numpy as np

from repro import AllocatorConfig
from repro.core.base import AllocationAlgorithm, RngSource, register_algorithm
from repro.core.records import RecordList
from repro.core.resources import MEMORY
from repro.sim import SimulationConfig, WorkflowManager
from repro.sim.pool import PoolConfig
from repro.workflows import make_synthetic_workflow


@register_algorithm
class PercentileHeadroom(AllocationAlgorithm):
    """Allocate the p-th percentile of observed peaks, plus headroom.

    A deliberately simple strategy a practitioner might hand-roll: it
    tolerates a bounded failure rate (the tasks above the percentile)
    in exchange for ignoring outliers.  Deterministic, so the allocator
    caches one prediction per state version.
    """

    name = "percentile_headroom"
    conservative_exploration = True  # reuse the cheap 1 GB bootstrap

    def __init__(
        self,
        percentile: float = 95.0,
        headroom: float = 1.05,
        rng: RngSource = None,
    ) -> None:
        super().__init__(rng=rng)
        if not (0 < percentile <= 100):
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        if headroom < 1.0:
            raise ValueError(f"headroom must be >= 1, got {headroom}")
        self.percentile = percentile
        self.headroom = headroom
        self._records = RecordList()

    def update(self, value, significance=1.0, task_id=-1):
        self._records.add(value, significance=significance, task_id=task_id)

    def predict(self):
        if not self._records:
            return None
        return float(
            np.percentile(self._records.values, self.percentile) * self.headroom
        )

    @property
    def n_records(self):
        return len(self._records)

    def reset(self):
        self._records = RecordList()


def main() -> None:
    workflow = make_synthetic_workflow("bimodal", n_tasks=600, seed=23)
    print(f"workflow: {workflow}\n")
    print(f"{'algorithm':24s}{'AWE memory':>12s}{'attempts':>10s}{'failed':>8s}")
    for algorithm in (
        "percentile_headroom",
        "max_seen",
        "exhaustive_bucketing",
    ):
        manager = WorkflowManager(
            workflow,
            SimulationConfig(
                allocator=AllocatorConfig(algorithm=algorithm, seed=37),
                pool=PoolConfig(n_workers=12, ramp_up_seconds=400.0, seed=41),
            ),
        )
        result = manager.run()
        print(
            f"{algorithm:24s}{result.ledger.awe(MEMORY):>12.3f}"
            f"{result.n_attempts:>10d}{result.n_failed_attempts:>8d}"
        )
    print(
        "\nThe 95th-percentile strategy rides between Max Seen (no failures, "
        "outlier-sized fragmentation) and the bucketing algorithms "
        "(mode-sized allocations, occasional retries)."
    )


if __name__ == "__main__":
    main()
