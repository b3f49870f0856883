"""Tier-1 gate: the analysis lane over the real ``src/`` tree stays clean.

This is the pytest face of the CI lint lane: any finding not silenced
by an inline pragma — a new wall-clock read in the simulation, an
unpaired ``state_dict``, a non-atomic artifact write, blocking I/O
newly reachable from the event loop, clock taint reaching the WAL,
wire-protocol drift — fails the default test run, not just the lint
job.
"""

from __future__ import annotations

import ast
import json
import shutil
import sys
from pathlib import Path

import pytest

from repro.analysis import all_rules, analyze_paths
from repro.analysis.sarif import validate_sarif

pytestmark = pytest.mark.analysis

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
FLOW_FIXTURES = Path(__file__).parent / "fixtures" / "flow"


@pytest.fixture(scope="module")
def repo_report():
    return analyze_paths([str(SRC)])


def _assert_clean(findings):
    assert not findings, "reprolint findings:\n" + "\n".join(f.render() for f in findings)


# The two gates split the one report by rule family and together cover
# every finding: per-module rules (``R…``, parse errors included) and
# whole-program rules (``F…``).
def test_src_tree_is_reprolint_clean(repo_report):
    _assert_clean([f for f in repo_report.findings if not f.rule.startswith("F")])


def test_src_tree_is_clean_under_whole_program_rules(repo_report):
    _assert_clean([f for f in repo_report.findings if f.rule.startswith("F")])


def test_suppression_counters_cover_every_rule(repo_report):
    assert set(repo_report.suppressed) == {rule.id for rule in all_rules()}
    # The deliberate exemptions (client identity, reporting-only clocks,
    # API-only config fields) are pragma-suppressed, not invisible.
    assert repo_report.suppressed["F3"] >= 1
    assert repo_report.suppressed["R7"] >= 1


def test_analysis_package_is_stdlib_only():
    # The lint lane runs before dependency install; keep it that way.
    package = SRC / "repro" / "analysis"
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names or root == "repro", (path, root)


# -- CLI -------------------------------------------------------------------------------


def test_cli_lane_is_clean_and_emits_valid_sarif(tmp_path, run_cli):
    sarif_path = tmp_path / "reprolint.sarif"
    result = run_cli(["src", "--sarif", str(sarif_path)], cwd=REPO_ROOT)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "[reprolint] clean" in result.stdout
    document = json.loads(sarif_path.read_text())
    assert validate_sarif(document) == []
    assert document["runs"][0]["tool"]["driver"]["name"] == "reprolint"


def test_cli_list_rules_prints_the_catalog(run_cli):
    result = run_cli(["--list-rules"], cwd=REPO_ROOT)
    assert result.returncode == 0
    for rule in all_rules():
        assert rule.id in result.stdout and rule.name in result.stdout


def test_cli_reads_service_doc_beside_the_scanned_tree(tmp_path, run_cli):
    # A checkout whose SERVICE.md table lacks one of REQUEST_OPS, scanned
    # by absolute path from a directory that has no docs/ of its own.
    tree = tmp_path / "checkout"
    service = tree / "src" / "repro" / "service"
    service.mkdir(parents=True)
    shutil.copy(FLOW_FIXTURES / "f5_shards.py", service / "shards.py")
    shutil.copy(FLOW_FIXTURES / "f5_protocol.py", service / "protocol.py")
    (tree / "docs").mkdir()
    doc = tree / "docs" / "SERVICE.md"
    doc.write_text(
        "## Wire protocol\n\n| op | meaning |\n| --- | --- |\n"
        + "".join(f"| `{op}` | x |\n" for op in ("allocate", "record", "allocate_batch", "ping"))
    )
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    drifted = run_cli([str(tree / "src")], cwd=elsewhere)
    assert drifted.returncode == 1, drifted.stdout + drifted.stderr
    assert "F5[protocol-drift]" in drifted.stdout and "`stats`" in drifted.stdout

    doc.unlink()
    undocumented = run_cli([str(tree / "src")], cwd=elsewhere)
    assert undocumented.returncode == 1, undocumented.stdout + undocumented.stderr
    assert "docs/SERVICE.md was not found" in undocumented.stdout


def test_cli_scopes_rules_by_the_innermost_source_root(tmp_path, run_cli):
    # The checkout itself sits under a directory named src/.
    checkout = tmp_path / "src" / "co"
    engine = checkout / "src" / "repro" / "sim" / "engine.py"
    engine.parent.mkdir(parents=True)
    engine.write_text("import time\n\nNOW = time.time()\n")
    for cwd, target in ((checkout, "src"), (tmp_path, "src/co/src")):
        result = run_cli([target], cwd=cwd)
        assert result.returncode == 1, (cwd, result.stdout + result.stderr)
        assert "R1[wall-clock]" in result.stdout
