"""The analysis lane: collect sources, run every rule, report.

Library entry points (used by the pytest gate and the fixture tests):

* :func:`analyze_project` — the one runner: parse errors become ``R0``
  findings, the :class:`CallGraph` is built once, every registered rule
  runs over it, and inline pragmas are honoured;
* :func:`analyze_paths` — walk files/directories, then run;
* :func:`analyze_sources` — analyze in-memory ``(path, text)`` pairs
  (fixtures assign virtual ``repro/...`` paths to exercise scoping);
* :func:`main` — the ``python -m repro.analysis`` CLI.

Exit codes: 0 clean, 1 any unsuppressed finding (unparseable sources
included), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.core import (
    Finding,
    ModuleSource,
    Project,
    Rule,
    Severity,
    all_rules,
    get_rule,
    split_source_root,
)
from repro.analysis.flow.graph import CallGraph

__all__ = [
    "Report",
    "analyze_paths",
    "analyze_project",
    "analyze_sources",
    "build_parser",
    "collect_modules",
    "main",
]

#: Directory names never descended into.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})

#: Documents doc-aware rules read, relative to the checkout root (F5
#: checks the wire-protocol table of ``docs/SERVICE.md``).
DOC_PATHS: Tuple[str, ...] = ("docs/SERVICE.md",)


def load_docs(root: str) -> Dict[str, str]:
    """The :data:`DOC_PATHS` present under checkout ``root``."""
    docs: Dict[str, str] = {}
    for rel in DOC_PATHS:
        full = os.path.join(root, rel)
        if os.path.isfile(full):
            with open(full, "r", encoding="utf-8") as handle:
                docs[rel] = handle.read()
    return docs


def collect_modules(paths: Sequence[str]) -> Project:
    """Build a :class:`Project` from files and directories.

    Package paths and the checkout root come from each file's absolute
    path, so the verdict does not depend on the working directory; the
    documents are read from the root of the first file that has one.
    """
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
    root: Optional[str] = None
    for file_path in files:
        with open(file_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        file_root, package_path = split_source_root(os.path.abspath(file_path))
        root = root or file_root
        modules.append(
            ModuleSource(path=os.path.relpath(file_path), text=text, package_path=package_path)
        )
    return Project(modules, docs=load_docs(root) if root is not None else None)


@dataclass
class Report:
    """Findings that survived pragmas plus what the pragmas ate."""

    #: Unsuppressed findings, in stable order.
    findings: List[Finding]
    #: rule id -> count of findings suppressed by inline pragmas (every
    #: rule that ran has a key).
    suppressed: Dict[str, int]


def analyze_project(project: Project, rules: Optional[Iterable[Rule]] = None) -> Report:
    """Run ``rules`` (default: every registered rule) over ``project``."""
    active = tuple(rules) if rules is not None else all_rules()
    findings: List[Finding] = []
    suppressed: Dict[str, int] = {rule.id: 0 for rule in active}
    for module in project:
        err = module.parse_error
        if err is not None:
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
    graph = CallGraph.build(project)
    by_path: Dict[str, ModuleSource] = {m.path: m for m in project}
    for rule in active:
        for finding in rule.run(project, graph):
            module = by_path.get(finding.path)
            if module is not None and module.suppressed(finding.line, finding.rule, finding.name):
                suppressed[finding.rule] += 1
            else:
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return Report(findings=findings, suppressed=suppressed)


def analyze_paths(paths: Sequence[str], rules: Optional[Iterable[Rule]] = None) -> Report:
    return analyze_project(collect_modules(paths), rules=rules)


def analyze_sources(
    sources: Sequence[Tuple[str, str]],
    rules: Optional[Iterable[Rule]] = None,
    docs: Optional[Dict[str, str]] = None,
) -> Report:
    """Analyze in-memory ``(virtual_path, text)`` pairs (test fixtures)."""
    project = Project((ModuleSource(path=path, text=text) for path, text in sources), docs)
    return analyze_project(project, rules=rules)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: determinism, crash-safety and service-structure checks for "
            "this repo (rule catalog in docs/ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        metavar="RULE",
        default=None,
        help="run only this rule id or name (repeatable; unknown ids exit 2)",
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
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for entry in all_rules():
            print(
                f"{entry.id:<4} {entry.name:<22} {entry.severity.value:<8} "
                f"{entry.description}"
            )
        return 0

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
        report = analyze_paths(args.paths, rules=rules)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    findings = report.findings

    if args.sarif:
        from repro.analysis.sarif import write_sarif

        descriptions = {r.id: r.description for r in (rules or all_rules())}
        write_sarif(args.sarif, findings, rule_descriptions=descriptions)

    if args.json:
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in findings],
                    "suppressed": report.suppressed,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        print(
            f"[reprolint] {len(findings)} finding(s) across "
            f"{len({f.path for f in findings})} file(s)"
            if findings
            else "[reprolint] clean"
        )
    return 1 if findings else 0
