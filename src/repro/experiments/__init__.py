"""Experiment harness: one module per paper table/figure.

Every module exposes ``run(...) -> <result object>`` and ``render(...)
-> str`` so the CLI, the benchmarks and the tests share one code path:

* :mod:`repro.experiments.figure2` — per-category resource consumption
  of the ColmenaXTB and TopEFT traces (Figure 2);
* :mod:`repro.experiments.figure3` — bucket construction on the
  N(8 GB, 2 GB) running example (Figures 3b/3c);
* :mod:`repro.experiments.figure4` — memory distributions of the five
  synthetic workflows (Figure 4);
* :mod:`repro.experiments.figure5` — the AWE grid: 3 resources x
  7 workflows x 7 algorithms (Figure 5);
* :mod:`repro.experiments.figure6` — waste split into internal
  fragmentation vs failed allocation, 6 algorithms (Figure 6);
* :mod:`repro.experiments.table1` — microseconds per bucketing-state
  computation + allocation at 10/200/1000/2000/5000 records (Table I);
* :mod:`repro.experiments.scaling` — the >10k-task future-work
  hypothesis (E-X1);
* :mod:`repro.experiments.ablation` — significance weighting,
  exploratory budget and bucket-cap ablations (E-X2);
* :mod:`repro.experiments.robustness` — external-stochasticity seed
  sweep (E-X4).
"""

from repro.experiments.config import PAPER_ALGORITHMS, PAPER_WORKFLOWS, ExperimentConfig
from repro.experiments.runner import GridResult, run_cell, run_grid

__all__ = [
    "ExperimentConfig",
    "PAPER_ALGORITHMS",
    "PAPER_WORKFLOWS",
    "run_cell",
    "run_grid",
    "GridResult",
]
