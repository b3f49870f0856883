"""Built-in per-module rules.

Importing this package registers every rule with the central registry
in :mod:`repro.analysis.core`; ``all_rules()`` triggers that import
lazily, so adding a rule means adding a module here and importing it
below.  See ``docs/ANALYSIS.md`` for the catalog and the recipe for
writing a new rule.
"""

from __future__ import annotations

from repro.analysis.rules.checkpointing import RawArtifactWriteRule, StateSymmetryRule
from repro.analysis.rules.cli_config import CliConfigDriftRule
from repro.analysis.rules.determinism import WallClockRule

__all__ = [
    "CliConfigDriftRule",
    "RawArtifactWriteRule",
    "StateSymmetryRule",
    "WallClockRule",
]
