"""R7 ``cli-config-drift``: CLI flags and ``ExperimentConfig`` stay in sync.

The experiment CLI (``repro/cli.py``) and the shared
:class:`~repro.experiments.config.ExperimentConfig` dataclass evolve
together: every ``--flag`` must feed a config field (or be an
execution-only knob consumed by ``main``), and every config field must
be reachable from the CLI.  Drift in either direction is how "I reran
it with the same command" quietly stops meaning "same experiment".

Three checks, each anchored where the fix belongs:

* a parsed flag whose ``dest`` is never read (``args.<dest>``) in
  ``cli.py`` — dead flag, reported on the ``add_argument`` call;
* a keyword passed to ``ExperimentConfig(...)`` or ``config.with_(...)``
  in ``cli.py`` that is not a declared field — stale rename, reported
  at the call;
* a config field never set by any ``ExperimentConfig(...)``/``with_``
  call in ``cli.py`` — unreachable knob, reported on the field's line
  in ``config.py`` (internal fields carry an inline pragma there).

This is a cross-file rule: it needs both modules in the analyzed set
and stays silent when either is absent.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.core import Finding, Project, Rule, register_rule
from repro.analysis.flow.graph import CallGraph

__all__ = ["CliConfigDriftRule"]

CLI_PATH = "repro/cli.py"
CONFIG_PATH = "repro/experiments/config.py"
CONFIG_CLASS = "ExperimentConfig"

#: Local names an ``argparse.Namespace`` is conventionally bound to.
NAMESPACE_NAMES = frozenset({"args", "namespace", "ns", "opts"})


def _flag_dests(tree: ast.Module) -> List[Tuple[str, str, ast.Call]]:
    """(dest, display-flag, call-node) for every ``add_argument`` call."""
    flags = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            continue
        option: Optional[str] = None
        for arg in node.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if arg.value.startswith("--") or option is None:
                    option = arg.value
                if arg.value.startswith("--"):
                    break
        dest: Optional[str] = None
        for kw in node.keywords:
            if kw.arg == "dest" and isinstance(kw.value, ast.Constant):
                dest = str(kw.value.value)
        if dest is None and option is not None:
            dest = option.lstrip("-").replace("-", "_")
        if option is not None and dest is not None:
            flags.append((dest, option, node))
    return flags


def _namespace_reads(tree: ast.Module) -> Set[str]:
    reads = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in NAMESPACE_NAMES
        ):
            reads.add(node.attr)
    return reads


def _config_call_keywords(tree: ast.Module) -> List[Tuple[str, ast.Call]]:
    """Keywords passed to ``ExperimentConfig(...)`` or ``*.with_(...)``."""
    keywords = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        is_ctor = isinstance(node.func, ast.Name) and node.func.id == CONFIG_CLASS
        is_with = isinstance(node.func, ast.Attribute) and node.func.attr == "with_"
        if not (is_ctor or is_with):
            continue
        for kw in node.keywords:
            if kw.arg is not None:
                keywords.append((kw.arg, node))
    return keywords


def _config_fields(tree: ast.Module) -> List[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == CONFIG_CLASS:
            return [
                (stmt.target.id, stmt.lineno)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return []


@register_rule
class CliConfigDriftRule(Rule):
    id = "R7"
    name = "cli-config-drift"
    description = (
        "every CLI flag must be consumed, every ExperimentConfig keyword must be a "
        "real field, and every field must be reachable from the CLI"
    )

    def run(self, project: Project, graph: CallGraph) -> Iterable[Finding]:
        cli = project.get(CLI_PATH)
        if cli is None or cli.tree is None:
            return
        reads = _namespace_reads(cli.tree)
        for dest, option, node in _flag_dests(cli.tree):
            if dest not in reads:
                yield self.finding(
                    cli,
                    node,
                    f"flag {option!r} is parsed but args.{dest} is never read; "
                    "wire it into ExperimentConfig or delete it",
                )
        config = project.get(CONFIG_PATH)
        if config is None or config.tree is None:
            return
        declared = _config_fields(config.tree)
        fields = {name for name, _ in declared}
        keywords = _config_call_keywords(cli.tree)
        if fields:
            for keyword, node in keywords:
                if keyword not in fields:
                    yield self.finding(
                        cli,
                        node,
                        f"ExperimentConfig has no field {keyword!r} (stale rename?); "
                        f"declared fields: {', '.join(sorted(fields))}",
                    )
        wired = {kw for kw, _ in keywords}
        for name, lineno in declared:
            if name not in wired:
                yield self.finding(
                    config,
                    lineno,
                    f"ExperimentConfig.{name} cannot be set from the CLI; add a "
                    "flag in repro/cli.py or mark it internal with a pragma",
                )
