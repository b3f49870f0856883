"""Metrics: result summaries for the experiment harness.

The waste and AWE formulas of Section II-C live in one place,
:class:`repro.sim.accounting.Ledger`; this package only folds a finished
run's ledger into the flat rows the figure modules print, plus the
windowed convergence series of the scaling study.
"""

from repro.metrics.summary import (
    EfficiencySummary,
    convergence_series,
    summarize_result,
)

__all__ = [
    "EfficiencySummary",
    "summarize_result",
    "convergence_series",
]
