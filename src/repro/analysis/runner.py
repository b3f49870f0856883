"""reprolint driver: collect sources, run rules, report, gate on baseline.

Library entry points (used by the pytest integration and the fixture
tests):

* :func:`analyze_paths` — walk files/directories and return findings;
* :func:`analyze_sources` — analyze in-memory ``(path, text)`` pairs
  (fixtures assign virtual ``repro/...`` paths to exercise scoping);
* :func:`main` — the ``python -m repro.analysis`` CLI.

Exit codes: 0 clean (or fully baseline-adopted), 1 new findings or
unparseable sources, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    diff_against_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.core import (
    Finding,
    ModuleSource,
    Project,
    Rule,
    Severity,
    all_rules,
    get_rule,
)

__all__ = [
    "LintReport",
    "analyze_paths",
    "analyze_project",
    "analyze_project_report",
    "analyze_sources",
    "build_parser",
    "collect_modules",
    "main",
]

#: Directory names never descended into.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})


def collect_modules(paths: Sequence[str]) -> Project:
    """Build a :class:`Project` from files and directories."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
                files.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        elif path.endswith(".py"):
            files.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    modules = []
    for file_path in files:
        with open(file_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        rel = os.path.relpath(file_path)
        modules.append(ModuleSource(path=rel, text=text))
    return Project(modules)


@dataclass
class LintReport:
    """Findings that survived pragmas plus what the pragmas ate."""

    findings: List[Finding]
    #: rule id -> count of findings suppressed by inline pragmas.
    suppressed: Dict[str, int] = field(default_factory=dict)


def analyze_project_report(
    project: Project, rules: Optional[Iterable[Rule]] = None
) -> LintReport:
    """Run every rule over every module, honouring inline pragmas."""
    active = tuple(rules) if rules is not None else all_rules()
    findings: List[Finding] = []
    suppressed: Dict[str, int] = {rule.id: 0 for rule in active}
    for module in project:
        if module.parse_error is not None:
            err = module.parse_error
            findings.append(
                Finding(
                    path=module.path,
                    line=err.lineno or 1,
                    col=(err.offset or 1) - 1,
                    rule="R0",
                    name="parse-error",
                    severity=Severity.ERROR,
                    message=f"could not parse: {err.msg}",
                )
            )
            continue
        for rule in active:
            for finding in rule.check(module, project):
                if module.suppressed(finding.line, finding.rule, finding.name):
                    suppressed[finding.rule] = suppressed.get(finding.rule, 0) + 1
                else:
                    findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return LintReport(findings=findings, suppressed=suppressed)


def analyze_project(project: Project, rules: Optional[Iterable[Rule]] = None) -> List[Finding]:
    """Back-compat wrapper over :func:`analyze_project_report`."""
    return analyze_project_report(project, rules=rules).findings


def analyze_paths(paths: Sequence[str], rules: Optional[Iterable[Rule]] = None) -> List[Finding]:
    return analyze_project(collect_modules(paths), rules=rules)


def analyze_sources(
    sources: Sequence[Tuple[str, str]], rules: Optional[Iterable[Rule]] = None
) -> List[Finding]:
    """Analyze in-memory ``(virtual_path, text)`` pairs (test fixtures)."""
    return analyze_project(
        Project(ModuleSource(path=path, text=text) for path, text in sources),
        rules=rules,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: AST-based determinism & crash-safety checks for this repo "
            "(rule catalog in docs/ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=f"baseline of adopted findings (default: {DEFAULT_BASELINE_NAME}, "
        "or reproflow-baseline.json with --flow; a missing file means an "
        "empty baseline)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="adopt the current findings into --baseline and exit 0",
    )
    parser.add_argument(
        "--rule",
        "--select",
        action="append",
        metavar="RULE",
        default=None,
        help="run only this rule/analysis id or name (repeatable; unknown "
        "ids exit 2)",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help="run the whole-program reproflow analyses (F1..) instead of "
        "the per-module rules",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        default=None,
        help="also write the findings as a SARIF 2.1.0 report to FILE",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalog")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.analysis.flow.base import FlowAnalysis, all_flow_analyses, get_flow_analysis
    from repro.analysis.flow.runner import DEFAULT_FLOW_BASELINE_NAME, analyze_flow_paths

    args = build_parser().parse_args(argv)
    if args.baseline is None:
        args.baseline = (
            DEFAULT_FLOW_BASELINE_NAME if args.flow else DEFAULT_BASELINE_NAME
        )
    if args.list_rules:
        catalog = all_flow_analyses() if args.flow else all_rules()
        for entry in catalog:
            print(
                f"{entry.id:<4} {entry.name:<22} {entry.severity.value:<8} "
                f"{entry.description}"
            )
        return 0

    tool_name = "reproflow" if args.flow else "reprolint"
    suppressed: Dict[str, int] = {}
    if args.flow:
        analyses: Optional[List[FlowAnalysis]] = None
        if args.rule:
            analyses = []
            for token in args.rule:
                analysis = get_flow_analysis(token)
                if analysis is None:
                    print(
                        f"unknown flow analysis: {token!r} (see --flow --list-rules)",
                        file=sys.stderr,
                    )
                    return 2
                analyses.append(analysis)
        try:
            flow_report = analyze_flow_paths(args.paths, analyses=analyses)
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        findings = flow_report.findings
        suppressed = flow_report.suppressed
        descriptions = {a.id: a.description for a in (analyses or all_flow_analyses())}
    else:
        rules: Optional[List[Rule]] = None
        if args.rule:
            rules = []
            for token in args.rule:
                rule = get_rule(token)
                if rule is None:
                    print(f"unknown rule: {token!r} (see --list-rules)", file=sys.stderr)
                    return 2
                rules.append(rule)
        try:
            report = analyze_project_report(collect_modules(args.paths), rules=rules)
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        findings = report.findings
        suppressed = report.suppressed
        descriptions = {r.id: r.description for r in (rules or all_rules())}

    if args.sarif:
        from repro.analysis.sarif import write_sarif

        write_sarif(
            args.sarif, findings, tool_name=tool_name, rule_descriptions=descriptions
        )

    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(f"adopted {len(findings)} finding(s) into {args.baseline}")
        return 0

    try:
        baseline = load_baseline(args.baseline)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    diff = diff_against_baseline(findings, baseline)

    if args.json:
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in findings],
                    "new": [f.to_dict() for f in diff.new],
                    "adopted": [f.to_dict() for f in diff.adopted],
                    "stale_baseline": diff.stale,
                    "suppressed": suppressed,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for finding in diff.new:
            print(finding.render())
        if diff.adopted:
            print(f"[{tool_name}] {len(diff.adopted)} baseline-adopted finding(s) not shown")
        for fingerprint in diff.stale:
            print(
                f"[{tool_name}] stale baseline entry (fixed? regenerate with "
                f"--write-baseline): {fingerprint}"
            )
        summary = (
            f"[{tool_name}] {len(diff.new)} new finding(s) across "
            f"{len({f.path for f in diff.new})} file(s)"
            if diff.new
            else f"[{tool_name}] clean"
        )
        print(summary)

    return 1 if diff.new else 0
