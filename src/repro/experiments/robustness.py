"""E-X4: robustness to external stochasticity (Section II-D2).

The paper's *prior-free* design goal is justified by external
stochasticity: the same workflow behaves differently across runs
(cluster load, input drift, inherent task randomness), so an allocator
must not depend on the previous run looking like the current one.  The
**seed sweep** quantifies that: it re-runs one workflow under many
generation seeds (fresh draws from the same distribution: "inherent
stochasticity of tasks") and reports the AWE spread per algorithm.  A
robust algorithm has both a high mean and a small spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import MEMORY
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_cell

__all__ = [
    "SeedSweepResult",
    "run_seed_sweep",
    "render_seed_sweep",
]


@dataclass
class SeedSweepResult:
    workflow: str
    algorithms: Tuple[str, ...]
    seeds: Tuple[int, ...]
    #: algorithm -> AWE(memory) per seed
    awe: Dict[str, List[float]]

    def mean(self, algorithm: str) -> float:
        return float(np.mean(self.awe[algorithm]))

    def spread(self, algorithm: str) -> float:
        """Max minus min AWE across seeds."""
        values = self.awe[algorithm]
        return float(max(values) - min(values))

    def std(self, algorithm: str) -> float:
        return float(np.std(self.awe[algorithm]))


def run_seed_sweep(
    config: Optional[ExperimentConfig] = None,
    workflow: str = "bimodal",
    algorithms: Sequence[str] = (
        "max_seen",
        "min_waste",
        "greedy_bucketing",
        "exhaustive_bucketing",
    ),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> SeedSweepResult:
    """Run one workflow under several generation seeds per algorithm."""
    config = config if config is not None else ExperimentConfig()
    awe: Dict[str, List[float]] = {algorithm: [] for algorithm in algorithms}
    for seed in seeds:
        seeded = config.with_(workflow_seed=seed)
        for algorithm in algorithms:
            result = run_cell(workflow, algorithm, seeded)
            awe[algorithm].append(result.ledger.awe(MEMORY))
    return SeedSweepResult(
        workflow=workflow,
        algorithms=tuple(algorithms),
        seeds=tuple(seeds),
        awe=awe,
    )


def render_seed_sweep(result: SeedSweepResult) -> str:
    rows = [
        (
            algorithm,
            result.mean(algorithm),
            result.std(algorithm),
            result.spread(algorithm),
            min(result.awe[algorithm]),
            max(result.awe[algorithm]),
        )
        for algorithm in result.algorithms
    ]
    return format_table(
        headers=["algorithm", "mean AWE(mem)", "std", "spread", "min", "max"],
        rows=rows,
        title=(
            f"E-X4 robustness — {result.workflow} across "
            f"{len(result.seeds)} generation seeds"
        ),
    )
