"""Pragma and baseline behaviour of the reprolint framework."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    Finding,
    Severity,
    analyze_sources,
    diff_against_baseline,
    format_pragma,
    load_baseline,
    parse_pragma,
    write_baseline,
)

pytestmark = pytest.mark.analysis

REPO_ROOT = Path(__file__).resolve().parents[2]

OFFENDER = "import time as t\n\nWHEN = t.time()\n"
SUPPRESSED = "import time as t\n\nWHEN = t.time()  # reprolint: disable=R1\n"


def _r1(text: str):
    return [f for f in analyze_sources([("repro/sim/mod.py", text)]) if f.rule == "R1"]


# -- pragmas ---------------------------------------------------------------------------


def test_trailing_pragma_suppresses_same_line():
    assert _r1(OFFENDER)
    assert not _r1(SUPPRESSED)


def test_pragma_accepts_rule_name_and_all():
    by_name = OFFENDER.replace("t.time()", "t.time()  # reprolint: disable=wall-clock")
    by_all = OFFENDER.replace("t.time()", "t.time()  # reprolint: disable=all")
    assert not _r1(by_name)
    assert not _r1(by_all)


def test_pragma_for_other_rule_does_not_suppress():
    wrong = OFFENDER.replace("t.time()", "t.time()  # reprolint: disable=R4")
    assert _r1(wrong)


def test_standalone_comment_pragma_covers_next_line():
    text = (
        "import time as t\n"
        "\n"
        "# reprolint: disable=R1  # fixture exemption\n"
        "WHEN = t.time()\n"
    )
    assert not _r1(text)


def test_pragma_only_suppresses_its_own_line():
    text = SUPPRESSED + "\nLATER = t.time()\n"
    findings = _r1(text)
    assert len(findings) == 1 and findings[0].line == 5


@given(
    st.lists(
        st.one_of(
            st.sampled_from([f"R{i}" for i in range(1, 9)]),
            st.from_regex(r"[A-Za-z][A-Za-z0-9_\-]{0,20}", fullmatch=True),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_pragma_parser_round_trips(rule_names):
    line = "x = 1  " + format_pragma(rule_names)
    parsed = parse_pragma(line)
    assert parsed == frozenset(name.lower() for name in rule_names)


def test_parse_pragma_ignores_ordinary_comments():
    assert parse_pragma("x = 1  # plain comment") is None
    assert parse_pragma("x = 1") is None


# -- baseline --------------------------------------------------------------------------


def _finding(path="repro/sim/mod.py", line=3, rule="R1"):
    return Finding(
        path=path,
        line=line,
        col=0,
        rule=rule,
        name="wall-clock",
        severity=Severity.ERROR,
        message="wall-clock read",
    )


def test_baseline_round_trip(tmp_path):
    path = str(tmp_path / "baseline.json")
    findings = [_finding(line=3), _finding(line=9, rule="R4")]
    write_baseline(path, findings)
    baseline = load_baseline(path)
    assert baseline.fingerprints == {f.fingerprint for f in findings}


def test_missing_baseline_is_empty(tmp_path):
    baseline = load_baseline(str(tmp_path / "absent.json"))
    assert baseline.fingerprints == frozenset()


def test_diff_splits_new_adopted_and_stale(tmp_path):
    path = str(tmp_path / "baseline.json")
    adopted = _finding(line=3)
    gone = _finding(line=99)
    write_baseline(path, [adopted, gone])
    current = [adopted, _finding(line=42)]
    diff = diff_against_baseline(current, load_baseline(path))
    assert [f.line for f in diff.new] == [42]
    assert [f.line for f in diff.adopted] == [3]
    assert diff.stale == [gone.fingerprint]


def test_corrupt_baseline_is_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 999}))
    with pytest.raises(ValueError):
        load_baseline(str(path))


def test_entry_for_deleted_file_goes_stale(tmp_path):
    path = str(tmp_path / "baseline.json")
    ghost = _finding(path="repro/sim/deleted.py", line=10)
    write_baseline(path, [ghost])
    diff = diff_against_baseline([], load_baseline(path))
    assert diff.stale == [ghost.fingerprint]
    assert not diff.new and not diff.adopted


def test_duplicate_baseline_entries_collapse(tmp_path):
    path = tmp_path / "baseline.json"
    entry = {"path": "repro/sim/mod.py", "rule": "R1", "line": 3, "message": "x"}
    path.write_text(json.dumps({"version": 1, "findings": [entry, dict(entry)]}))
    baseline = load_baseline(str(path))
    assert len(baseline.fingerprints) == 1
    diff = diff_against_baseline([_finding(line=3)], baseline)
    assert not diff.new and not diff.stale and len(diff.adopted) == 1


def test_moved_finding_is_new_and_old_entry_stale(tmp_path):
    path = str(tmp_path / "baseline.json")
    write_baseline(path, [_finding(line=3)])
    moved = _finding(line=4)  # same file/rule, shifted one line
    diff = diff_against_baseline([moved], load_baseline(path))
    assert [f.line for f in diff.new] == [4]
    assert diff.stale == [_finding(line=3).fingerprint]
    assert not diff.adopted


# -- CLI -------------------------------------------------------------------------------


def _run_cli(args, cwd):
    env_src = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": "0"},
    )


def test_cli_exit_codes_and_baseline_flow(tmp_path):
    offender = tmp_path / "src" / "repro" / "sim" / "mod.py"
    offender.parent.mkdir(parents=True)
    offender.write_text(OFFENDER)

    dirty = _run_cli(["src"], cwd=tmp_path)
    assert dirty.returncode == 1
    assert "R1[wall-clock]" in dirty.stdout

    adopt = _run_cli(["src", "--write-baseline"], cwd=tmp_path)
    assert adopt.returncode == 0, adopt.stderr

    gated = _run_cli(["src"], cwd=tmp_path)
    assert gated.returncode == 0
    assert "baseline-adopted" in gated.stdout

    fixed = offender
    fixed.write_text("WHEN = 0.0\n")
    clean = _run_cli(["src"], cwd=tmp_path)
    assert clean.returncode == 0
    assert "stale baseline entry" in clean.stdout


@pytest.mark.parametrize("lane", [[], ["--flow"]], ids=["lint", "flow"])
@pytest.mark.parametrize(
    "content",
    ["", "not json\n", '{"version": 999}', '{"version": 1, "findings": [7]}'],
    ids=["empty", "not-json", "other-version", "malformed-entry"],
)
def test_cli_unreadable_baseline_is_a_usage_error(tmp_path, lane, content):
    """An empty or non-JSON --baseline (e.g. /dev/null) exits 2 with one
    line naming the file, not a JSONDecodeError traceback."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("X = 1\n")
    bad = tmp_path / "bad-baseline.json"
    bad.write_text(content)
    result = _run_cli(["src", *lane, "--baseline", str(bad)], cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1 and str(bad) in result.stderr
    assert "Traceback" not in result.stderr


def test_cli_json_output(tmp_path):
    offender = tmp_path / "src" / "repro" / "sim" / "mod.py"
    offender.parent.mkdir(parents=True)
    offender.write_text(OFFENDER)
    result = _run_cli(["src", "--json"], cwd=tmp_path)
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["new"] and doc["new"][0]["rule"] == "R1"
    assert doc["stale_baseline"] == []


def test_cli_single_rule_selection(tmp_path):
    offender = tmp_path / "src" / "repro" / "sim" / "mod.py"
    offender.parent.mkdir(parents=True)
    offender.write_text(OFFENDER)
    result = _run_cli(["src", "--rule", "R4"], cwd=tmp_path)
    assert result.returncode == 0  # R1 offender invisible to an R4-only run
    unknown = _run_cli(["src", "--rule", "nope"], cwd=tmp_path)
    assert unknown.returncode == 2


def test_cli_select_is_an_alias_of_rule(tmp_path):
    offender = tmp_path / "src" / "repro" / "sim" / "mod.py"
    offender.parent.mkdir(parents=True)
    offender.write_text(OFFENDER)
    selected = _run_cli(["src", "--select", "R1"], cwd=tmp_path)
    assert selected.returncode == 1
    assert "R1[wall-clock]" in selected.stdout
    unknown = _run_cli(["src", "--select", "R99"], cwd=tmp_path)
    assert unknown.returncode == 2
    assert "unknown rule" in unknown.stderr


def test_cli_json_reports_pragma_suppressed_counts(tmp_path):
    offender = tmp_path / "src" / "repro" / "sim" / "mod.py"
    offender.parent.mkdir(parents=True)
    offender.write_text(SUPPRESSED + "LATER = t.time()\n")
    result = _run_cli(["src", "--json"], cwd=tmp_path)
    assert result.returncode == 1  # the unsuppressed LATER read still gates
    doc = json.loads(result.stdout)
    assert doc["suppressed"]["R1"] == 1
    assert all(count == 0 for rule, count in doc["suppressed"].items() if rule != "R1")
    assert [f["rule"] for f in doc["new"]] == ["R1"]
