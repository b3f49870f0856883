"""E-X2: ablations of the bucketing design choices.

Three knobs DESIGN.md calls out, each exercised on the workflow whose
behaviour it exists for:

* **Significance weighting** (recency): the paper sets a record's
  significance to its task ID so fresher records dominate bucket
  probabilities.  Ablated to uniform significance on the Phasing
  Trimodal workflow — without recency, stale phase-1 records keep
  pulling allocations down (or up) after a phase change.
* **Exploratory budget** (``min_records``): more bootstrap records mean
  better first buckets but more bootstrap waste.
* **Exhaustive Bucketing's bucket cap** (``max_buckets``, paper: 10):
  fewer candidate configurations trade fidelity for speed.
* **Bounded record stores** (``record_capacity``):
  AWE cost of forgetting history, relative to the paper's unbounded
  store — the quality side of the million-record hot-path work
  (docs/PERFORMANCE.md).  Each bounded row carries an ``awe_delta``
  against the unbounded reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.resources import MEMORY
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_cell

__all__ = [
    "AblationRow",
    "AblationResult",
    "run_significance_ablation",
    "run_exploration_ablation",
    "run_bucket_cap_ablation",
    "run_capacity_ablation",
    "run",
    "render",
]


@dataclass(frozen=True)
class AblationRow:
    study: str
    variant: str
    workflow: str
    algorithm: str
    awe_memory: float
    failed_attempts: int
    attempts: int
    #: AWE difference vs the study's reference variant (None when the
    #: row *is* the reference, or the study has no reference).  Negative
    #: = better than the reference.
    awe_delta: Optional[float] = None


@dataclass
class AblationResult:
    rows: List[AblationRow]

    def of_study(self, study: str) -> List[AblationRow]:
        return [r for r in self.rows if r.study == study]


def _row(study: str, variant: str, workflow: str, algorithm: str, result) -> AblationRow:
    return AblationRow(
        study=study,
        variant=variant,
        workflow=workflow,
        algorithm=algorithm,
        awe_memory=result.ledger.awe(MEMORY),
        failed_attempts=result.n_failed_attempts,
        attempts=result.n_attempts,
    )


def run_significance_ablation(
    config: Optional[ExperimentConfig] = None,
    workflow: str = "trimodal",
    algorithm: str = "exhaustive_bucketing",
    policies: Sequence[str] = ("task_id", "uniform", "exponential_decay"),
) -> List[AblationRow]:
    """Compare significance policies on a phasing stream.

    The paper's ``task_id`` policy gives fresher records linearly more
    weight; ``uniform`` removes recency entirely (old phases keep
    polluting the buckets); ``exponential_decay`` forgets much faster.
    """
    config = config if config is not None else ExperimentConfig()
    rows: List[AblationRow] = []
    for policy in policies:
        result = run_cell(workflow, algorithm, config, significance=policy)
        label = policy + (" (paper)" if policy == "task_id" else "")
        if policy == "uniform":
            label = "uniform (ablated)"
        rows.append(_row("significance", label, workflow, algorithm, result))
    return rows


def run_exploration_ablation(
    config: Optional[ExperimentConfig] = None,
    workflow: str = "normal",
    algorithm: str = "exhaustive_bucketing",
    budgets: Sequence[int] = (3, 10, 30, 100),
) -> List[AblationRow]:
    """Sweep the exploratory record budget (paper: 10)."""
    config = config if config is not None else ExperimentConfig()
    rows: List[AblationRow] = []
    for budget in budgets:
        result = run_cell(workflow, algorithm, config, min_records=budget)
        label = f"min_records={budget}" + (" (paper)" if budget == 10 else "")
        rows.append(_row("exploration", label, workflow, algorithm, result))
    return rows


def run_bucket_cap_ablation(
    config: Optional[ExperimentConfig] = None,
    workflow: str = "bimodal",
    caps: Sequence[int] = (1, 2, 4, 10, 20),
) -> List[AblationRow]:
    """Sweep Exhaustive Bucketing's bucket cap (paper: 10)."""
    config = config if config is not None else ExperimentConfig()
    rows: List[AblationRow] = []
    for cap in caps:
        result = run_cell(
            workflow,
            "exhaustive_bucketing",
            config,
            algorithm_kwargs={"max_buckets": cap},
        )
        label = f"max_buckets={cap}" + (" (paper)" if cap == 10 else "")
        rows.append(_row("bucket_cap", label, workflow, "exhaustive_bucketing", result))
    return rows


def run_capacity_ablation(
    config: Optional[ExperimentConfig] = None,
    workflow: str = "trimodal",
    algorithm: str = "exhaustive_bucketing",
    capacities: Sequence[int] = (50, 100, 500),
) -> List[AblationRow]:
    """Bounded record stores: AWE impact of the capacity bound.

    The paper retains every completed-task record, which is what makes
    the allocation hot path O(history).  Bounding the store caps both
    memory and per-insert cost, at the price of forgetting: each
    capacity is compared against the unbounded reference run on the
    same stream, and the row's ``awe_delta`` carries the AWE(mem)
    change attributable to the bound (negative = the bounded store
    *improved* AWE, which recency-biased eviction can do on phasing
    workflows by forgetting stale phases faster).  The defaults all
    bind on the default 1,000-task stream.
    """
    import dataclasses

    config = config if config is not None else ExperimentConfig()
    reference = run_cell(workflow, algorithm, config)
    rows: List[AblationRow] = [
        _row("capacity", "unbounded (paper)", workflow, algorithm, reference)
    ]
    ref_awe = rows[0].awe_memory
    for capacity in capacities:
        result = run_cell(
            workflow,
            algorithm,
            config,
            algorithm_kwargs={"record_capacity": capacity},
        )
        row = _row("capacity", f"cap={capacity}", workflow, algorithm, result)
        rows.append(dataclasses.replace(row, awe_delta=row.awe_memory - ref_awe))
    return rows


def run(config: Optional[ExperimentConfig] = None) -> AblationResult:
    """Run all four ablations."""
    rows: List[AblationRow] = []
    rows.extend(run_significance_ablation(config))
    rows.extend(run_exploration_ablation(config))
    rows.extend(run_bucket_cap_ablation(config))
    rows.extend(run_capacity_ablation(config))
    return AblationResult(rows=rows)


def render(result: AblationResult) -> str:
    parts: List[str] = []
    for study in ("significance", "exploration", "bucket_cap", "capacity"):
        rows = result.of_study(study)
        if not rows:
            continue
        with_delta = any(r.awe_delta is not None for r in rows)
        headers = ["variant", "workflow", "algorithm", "AWE(mem)"]
        if with_delta:
            headers.append("dAWE")
        headers += ["failed", "attempts"]
        table_rows = []
        for r in rows:
            cells: List[object] = [r.variant, r.workflow, r.algorithm, r.awe_memory]
            if with_delta:
                cells.append("-" if r.awe_delta is None else f"{r.awe_delta:+.4f}")
            cells += [r.failed_attempts, r.attempts]
            table_rows.append(tuple(cells))
        parts.append(
            format_table(
                headers=headers,
                rows=table_rows,
                title=f"E-X2 ablation — {study}",
            )
        )
        parts.append("")
    return "\n".join(parts)
