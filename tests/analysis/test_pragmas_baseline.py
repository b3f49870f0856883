"""Inline pragmas — the one exemption mechanism, in place of a baseline —
and the CLI's exit codes."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import analyze_sources, format_pragma, parse_pragma

pytestmark = pytest.mark.analysis

OFFENDER = "import time as t\n\nWHEN = t.time()\n"
SUPPRESSED = "import time as t\n\nWHEN = t.time()  # reprolint: disable=R1\n"


def _r1(text: str):
    report = analyze_sources([("repro/sim/mod.py", text)])
    return [f for f in report.findings if f.rule == "R1"]


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


# -- pragmas on whole-program findings -------------------------------------------------

ASYNC_OFFENDER = "import time\n\n\nasync def tick():\n    time.sleep(1)\n"


def _service_report(text: str):
    return analyze_sources([("repro/service/mod.py", text)])


def test_flow_finding_without_pragma_survives():
    report = _service_report(ASYNC_OFFENDER)
    assert [f.rule for f in report.findings] == ["F1"]
    assert report.suppressed["F1"] == 0


def test_flow_pragma_suppresses_and_is_counted():
    suppressed = ASYNC_OFFENDER.replace(
        "time.sleep(1)",
        "time.sleep(1)  # reprolint: disable=F1  # fixture exemption",
    )
    report = _service_report(suppressed)
    assert not report.findings
    assert report.suppressed["F1"] == 1


def test_flow_pragma_accepts_analysis_name():
    by_name = ASYNC_OFFENDER.replace(
        "time.sleep(1)", "time.sleep(1)  # reprolint: disable=loop-blocking"
    )
    report = _service_report(by_name)
    assert not report.findings and report.suppressed["F1"] == 1


# -- CLI -------------------------------------------------------------------------------


def _offender_tree(tmp_path, text=OFFENDER):
    offender = tmp_path / "src" / "repro" / "sim" / "mod.py"
    offender.parent.mkdir(parents=True)
    offender.write_text(text)
    return offender


def test_cli_exit_codes(tmp_path, run_cli):
    offender = _offender_tree(tmp_path)
    dirty = run_cli(["src"], cwd=tmp_path)
    assert dirty.returncode == 1
    assert "R1[wall-clock]" in dirty.stdout

    offender.write_text("WHEN = 0.0\n")
    clean = run_cli(["src"], cwd=tmp_path)
    assert clean.returncode == 0
    assert "[reprolint] clean" in clean.stdout

    missing = run_cli(["no-such-dir"], cwd=tmp_path)
    assert missing.returncode == 2


def test_cli_json_output(tmp_path, run_cli):
    _offender_tree(tmp_path)
    result = run_cli(["src", "--json"], cwd=tmp_path)
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert sorted(doc) == ["findings", "suppressed"]
    assert doc["findings"] and doc["findings"][0]["rule"] == "R1"


def test_cli_single_rule_selection(tmp_path, run_cli):
    _offender_tree(tmp_path)
    result = run_cli(["src", "--rule", "R4"], cwd=tmp_path)
    assert result.returncode == 0  # R1 offender invisible to an R4-only run
    selected = run_cli(["src", "--rule", "wall-clock"], cwd=tmp_path)
    assert selected.returncode == 1 and "R1[wall-clock]" in selected.stdout
    unknown = run_cli(["src", "--rule", "nope"], cwd=tmp_path)
    assert unknown.returncode == 2
    assert "unknown rule" in unknown.stderr


def test_cli_json_reports_pragma_suppressed_counts(tmp_path, run_cli):
    _offender_tree(tmp_path, SUPPRESSED + "LATER = t.time()\n")
    result = run_cli(["src", "--json"], cwd=tmp_path)
    assert result.returncode == 1  # the unsuppressed LATER read still gates
    doc = json.loads(result.stdout)
    assert doc["suppressed"]["R1"] == 1
    assert all(count == 0 for rule, count in doc["suppressed"].items() if rule != "R1")
    assert [f["rule"] for f in doc["findings"]] == ["R1"]
