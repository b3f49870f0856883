"""E-X4: robustness to external stochasticity (Section II-D2).

The paper's *prior-free* design goal is justified by external
stochasticity: the same workflow behaves differently across runs
(cluster load, input drift, inherent task randomness), so an allocator
must not depend on the previous run looking like the current one.  This
study quantifies that robustness two ways:

* **Seed sweep** — re-run one workflow under many generation seeds
  (fresh draws from the same distribution: "inherent stochasticity of
  tasks") and report the AWE spread per algorithm.  A robust algorithm
  has both a high mean and a small spread.
* **Distribution shift** — evaluate each algorithm on a workflow whose
  memory scale is shifted from the nominal one ("the arrival of a new
  input distribution").  Because every algorithm here is online and
  prior-free, the shifted run's AWE should track the nominal run's —
  this is the experiment a trace-trained predictor would fail.
* **Fault sweep** — run each algorithm under seeded fault-injection
  profiles (worker preemption, mid-task kills, transient dispatch
  failures; see :mod:`repro.sim.faults`) and report how AWE and
  makespan degrade relative to the fault-free run.  Eviction waste is
  excluded from AWE by construction (Section II-C), so a robust
  allocator's AWE should barely move while its makespan absorbs the
  lost work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import MEMORY
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table, save_json, save_text
from repro.experiments.runner import run_cell
from repro.sim.faults import make_fault_config

__all__ = [
    "SeedSweepResult",
    "run_seed_sweep",
    "render_seed_sweep",
    "FaultSweepResult",
    "run_fault_sweep",
    "render_fault_sweep",
    "write_fault_sweep",
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


@dataclass
class FaultSweepResult:
    """Per-(algorithm, fault profile) outcomes of one workflow."""

    workflow: str
    algorithms: Tuple[str, ...]
    profiles: Tuple[str, ...]
    #: (algorithm, profile) -> AWE(memory)
    awe: Dict[Tuple[str, str], float]
    #: (algorithm, profile) -> makespan seconds
    makespan: Dict[Tuple[str, str], float]
    #: (algorithm, profile) -> evicted attempt count
    evictions: Dict[Tuple[str, str], int]
    #: (algorithm, profile) -> tasks moved to the dead-letter ledger
    #: (always 0 unless the sweep config sets a retry budget).
    dead_letters: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def awe_drop(self, algorithm: str, profile: str) -> float:
        """AWE lost relative to the fault-free run (positive = worse)."""
        return self.awe[algorithm, "none"] - self.awe[algorithm, profile]

    def slowdown(self, algorithm: str, profile: str) -> float:
        """Makespan ratio relative to the fault-free run (>= 1 typical)."""
        baseline = self.makespan[algorithm, "none"]
        return self.makespan[algorithm, profile] / baseline if baseline else 1.0


def run_fault_sweep(
    config: Optional[ExperimentConfig] = None,
    workflow: str = "bimodal",
    algorithms: Sequence[str] = (
        "max_seen",
        "min_waste",
        "greedy_bucketing",
        "exhaustive_bucketing",
    ),
    profiles: Sequence[str] = ("none", "fixed", "poisson"),
    fault_rate: float = 1.0 / 600.0,
    fault_seed: int = 0,
) -> FaultSweepResult:
    """Run one workflow under each fault profile per algorithm.

    The fault schedule is identical across algorithms within a profile
    (same :class:`~repro.sim.faults.FaultConfig` seed), so AWE/makespan
    differences are attributable to the allocation policy alone.
    """
    config = config if config is not None else ExperimentConfig()
    awe: Dict[Tuple[str, str], float] = {}
    makespan: Dict[Tuple[str, str], float] = {}
    evictions: Dict[Tuple[str, str], int] = {}
    dead_letters: Dict[Tuple[str, str], int] = {}
    for profile in profiles:
        faulted = config.with_(
            faults=make_fault_config(profile, rate=fault_rate, seed=fault_seed)
        )
        for algorithm in algorithms:
            result = run_cell(workflow, algorithm, faulted)
            awe[algorithm, profile] = result.ledger.awe(MEMORY)
            makespan[algorithm, profile] = result.makespan
            evictions[algorithm, profile] = result.n_evicted_attempts
            dead_letters[algorithm, profile] = result.n_quarantined
    return FaultSweepResult(
        workflow=workflow,
        algorithms=tuple(algorithms),
        profiles=tuple(profiles),
        awe=awe,
        makespan=makespan,
        evictions=evictions,
        dead_letters=dead_letters,
    )


def render_fault_sweep(result: FaultSweepResult) -> str:
    rows = []
    for algorithm in result.algorithms:
        for profile in result.profiles:
            rows.append(
                (
                    algorithm,
                    profile,
                    result.awe[algorithm, profile],
                    result.awe_drop(algorithm, profile)
                    if "none" in result.profiles
                    else float("nan"),
                    result.makespan[algorithm, profile],
                    result.slowdown(algorithm, profile)
                    if "none" in result.profiles
                    else float("nan"),
                    result.evictions[algorithm, profile],
                    result.dead_letters.get((algorithm, profile), 0),
                )
            )
    return format_table(
        headers=[
            "algorithm",
            "faults",
            "AWE(mem)",
            "AWE drop",
            "makespan (s)",
            "slowdown",
            "evictions",
            "dead-letters",
        ],
        rows=rows,
        title=f"E-X4 robustness — {result.workflow} under fault injection",
    )


def write_fault_sweep(result: FaultSweepResult, path: str) -> None:
    """Publish a fault-sweep report atomically (text or JSON by suffix)."""
    if path.endswith(".json"):
        save_json(
            path,
            {
                "workflow": result.workflow,
                "algorithms": list(result.algorithms),
                "profiles": list(result.profiles),
                "cells": [
                    {
                        "algorithm": algorithm,
                        "profile": profile,
                        "awe_memory": result.awe[algorithm, profile],
                        "makespan": result.makespan[algorithm, profile],
                        "evictions": result.evictions[algorithm, profile],
                        "dead_letters": result.dead_letters.get(
                            (algorithm, profile), 0
                        ),
                    }
                    for algorithm in result.algorithms
                    for profile in result.profiles
                ],
            },
        )
    else:
        save_text(path, render_fault_sweep(result))
