"""Shared experiment configuration.

Centralizes the paper's evaluation settings (Section V-A) so every
figure/table module runs the same testbed: 16-core / 64 GB workers,
20-50 opportunistic workers with a ramp-up, conservative bucketing
exploration with 10 records, significance = task ID.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.allocator import AllocatorConfig
from repro.core.base import check_seed
from repro.sim.manager import SimulationConfig, check_count
from repro.sim.pool import PoolConfig
from repro.workflows.colmena import make_colmena_workflow
from repro.workflows.spec import WorkflowSpec
from repro.workflows.synthetic import SYNTHETIC_WORKFLOWS, make_synthetic_workflow
from repro.workflows.topeft import make_topeft_workflow

__all__ = [
    "PAPER_ALGORITHMS",
    "PAPER_WORKFLOWS",
    "ExperimentConfig",
    "make_workflow",
]

#: The 7 algorithms of the evaluation, in the paper's presentation order.
PAPER_ALGORITHMS: Tuple[str, ...] = (
    "whole_machine",
    "max_seen",
    "min_waste",
    "max_throughput",
    "quantized_bucketing",
    "greedy_bucketing",
    "exhaustive_bucketing",
)

#: The 7 workflows: five synthetic + the two production-shaped traces.
PAPER_WORKFLOWS: Tuple[str, ...] = SYNTHETIC_WORKFLOWS + ("colmena_xtb", "topeft")

#: The allocator's and the pool's seeds, pinned by the paper's testbed;
#: only the workflow seed varies between runs.
ALLOCATOR_SEED = 1
POOL_SEED = 2


def make_workflow(
    name: str, n_tasks: int = 1000, seed: Optional[int] = 0
) -> WorkflowSpec:
    """Build any of the 7 evaluation workflows by name.

    ``n_tasks`` applies to the synthetic workflows; the production-shaped
    traces use their published task counts scaled by ``n_tasks / 1000``.
    """
    if name in SYNTHETIC_WORKFLOWS:
        return make_synthetic_workflow(name, n_tasks=n_tasks, seed=seed)
    if name == "colmena_xtb":
        return make_colmena_workflow(seed=seed, scale=n_tasks / 1000.0)
    if name == "topeft":
        return make_topeft_workflow(seed=seed, scale=n_tasks / 1000.0)
    raise KeyError(f"unknown workflow {name!r}; choose from {PAPER_WORKFLOWS}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the figure/table experiments.

    Defaults reproduce the paper's testbed; the ablation and scaling
    studies override individual fields.
    """

    n_workers: int = 20
    ramp_up_seconds: float = 600.0
    n_tasks: int = 1000
    workflow_seed: int = 0
    #: Dead-letter a task after this many exhausted attempts (see
    #: ``SimulationConfig.retry_budget``); ``None`` keeps the paper's
    #: unbounded retry behaviour.
    retry_budget: Optional[int] = None
    #: Directory for crash-safe grid state: the journal of completed
    #: cells.  ``None`` disables durability; see
    #: :mod:`repro.experiments.runner`.
    checkpoint_dir: Optional[str] = None
    #: Continue from the journal in ``checkpoint_dir`` instead of
    #: starting fresh.  Requires the journal to match this config
    #: (grid digest) — a mismatch is refused, never silently rerun.
    resume: bool = False

    def __post_init__(self) -> None:
        check_count("retry_budget", self.retry_budget)
        check_seed("workflow_seed", self.workflow_seed)
        # PoolConfig checks the pool's fields; refuse them here, not in
        # the middle of a run.
        self._pool_config()

    def _pool_config(self) -> PoolConfig:
        return PoolConfig(
            n_workers=self.n_workers,
            ramp_up_seconds=self.ramp_up_seconds,
            seed=POOL_SEED,
        )

    def simulation_config(self, algorithm: str, **allocator_overrides) -> SimulationConfig:
        return SimulationConfig(
            allocator=AllocatorConfig(
                algorithm=algorithm, seed=ALLOCATOR_SEED, **allocator_overrides
            ),
            pool=self._pool_config(),
            retry_budget=self.retry_budget,
        )

    def with_(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)
