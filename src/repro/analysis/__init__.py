"""``reprolint`` — the repo's static-analysis lane.

The repo's reproducibility guarantees (bit-identical parallel grids,
digest-verified resume, golden traces, a wall-clock-free durable state)
depend on coding invariants that runtime tests only catch when a test
happens to exercise the offending path.  This package enforces them
statically with one registry of rules — per-module ``R…`` rules in
:mod:`repro.analysis.rules` and whole-program ``F…`` rules on a shared
call graph in :mod:`repro.analysis.flow` — and one runner:

* ``python -m repro.analysis src`` — CLI with text/JSON/SARIF output;
  any finding not silenced by an inline ``# reprolint: disable=RULE``
  pragma fails it;
* ``tests/analysis/test_reprolint_repo.py`` — the same gate as part of
  the tier-1 pytest run;
* the CI ``lint`` lane — reprolint before ruff and mypy.

Rule catalog and extension guide: ``docs/ANALYSIS.md``.  The package is
deliberately stdlib-only.
"""

from __future__ import annotations

from repro.analysis.core import (
    Finding,
    ModuleSource,
    Project,
    Rule,
    Severity,
    all_rules,
    format_pragma,
    get_rule,
    parse_pragma,
    register_rule,
)
from repro.analysis.runner import (
    Report,
    analyze_paths,
    analyze_project,
    analyze_sources,
    collect_modules,
    main,
)

__all__ = [
    "Finding",
    "ModuleSource",
    "Project",
    "Report",
    "Rule",
    "Severity",
    "all_rules",
    "analyze_paths",
    "analyze_project",
    "analyze_sources",
    "collect_modules",
    "format_pragma",
    "get_rule",
    "main",
    "parse_pragma",
    "register_rule",
]
