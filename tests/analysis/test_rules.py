"""Golden bad-snippet fixtures: every rule fires on its offender and
stays silent on the clean twin.

Fixtures live under ``tests/analysis/fixtures/`` (whole-program ones
under ``fixtures/flow/``) and are analyzed with *virtual* ``repro/...``
paths so the scoped rules (R1 in sim/core, F1's async roots in
``repro/service``, F5's protocol module, ...) see them as in-scope repo
files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import all_rules, analyze_sources, get_rule

FIXTURES = Path(__file__).parent / "fixtures"

pytestmark = pytest.mark.analysis


def _read(name: str) -> str:
    return (FIXTURES / name).read_text()


def _findings(sources, rules=None, docs=None):
    return analyze_sources(sources, rules=rules, docs=docs).findings


def _rules_fired(findings):
    return {f.rule for f in findings}


def _doc_table(ops) -> str:
    rows = "".join(f"| `{op}` | does {op} |\n" for op in ops)
    return (
        "# Allocation service\n\n## Wire protocol\n\n"
        "| op | meaning |\n| --- | --- |\n" + rows + "\n## Other section\n"
    )


#: Every op in the F5 fixture protocol (f5_protocol.py REQUEST_OPS).
ALL_OPS = ("allocate", "record", "allocate_batch", "ping", "stats")

_F5_SHARED = [
    ("repro/service/shards.py", "flow/f5_shards.py"),
    ("repro/service/protocol.py", "flow/f5_protocol.py"),
]

#: The journal writer the F3 twins append through, so its ``append`` resolves.
_F3_CHECKPOINT = ("repro/checkpoint.py", "flow/f3_checkpoint.py")

#: rule id -> (bad sources, clean sources, expected finding count on bad,
#:             bad SERVICE.md, clean SERVICE.md).  Each source is
#: (virtual_path, fixture_file); the docs feed F5's wire-protocol check.
CASES = {
    "R1": (
        [("repro/sim/fixture.py", "r1_bad.py")],
        [("repro/sim/fixture.py", "r1_clean.py")],
        4,
        None,
        None,
    ),
    "R3": (
        [("repro/core/fixture.py", "r3_bad.py")],
        [("repro/core/fixture.py", "r3_clean.py")],
        2,
        None,
        None,
    ),
    "R4": (
        [("repro/experiments/fixture.py", "r4_bad.py")],
        [("repro/experiments/fixture.py", "r4_clean.py")],
        4,
        None,
        None,
    ),
    "R7": (
        [
            ("repro/cli.py", "r7_bad_cli.py"),
            ("repro/experiments/config.py", "r7_bad_config.py"),
        ],
        [
            ("repro/cli.py", "r7_clean_cli.py"),
            ("repro/experiments/config.py", "r7_clean_config.py"),
        ],
        2,
        None,
        None,
    ),
    "F1": (
        [("repro/service/fixture.py", "flow/f1_bad.py")],
        [("repro/service/fixture.py", "flow/f1_clean.py")],
        4,
        None,
        None,
    ),
    "F3": (
        [("repro/sim/recorder.py", "flow/f3_bad.py"), _F3_CHECKPOINT],
        [("repro/sim/recorder.py", "flow/f3_clean.py"), _F3_CHECKPOINT],
        3,
        None,
        None,
    ),
    "F5": (
        _F5_SHARED
        + [
            ("repro/service/server.py", "flow/f5_bad_server.py"),
            ("repro/service/client.py", "flow/f5_bad_client.py"),
        ],
        _F5_SHARED
        + [
            ("repro/service/server.py", "flow/f5_clean_server.py"),
            ("repro/service/client.py", "flow/f5_clean_client.py"),
        ],
        6,
        _doc_table(("allocate", "record", "ping", "stats", "teleport")),
        _doc_table(ALL_OPS),
    ),
}


def _case(rule_id, side):
    """Findings of ``rule_id`` alone on one side of its case."""
    bad, clean, _count, bad_doc, clean_doc = CASES[rule_id]
    sources, doc = (bad, bad_doc) if side == "bad" else (clean, clean_doc)
    docs = {"docs/SERVICE.md": doc} if doc is not None else None
    return _findings(
        [(path, _read(name)) for path, name in sources], rules=[get_rule(rule_id)], docs=docs
    )


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_fires_on_bad_fixture(rule_id):
    fired = _case(rule_id, "bad")
    assert fired, f"{rule_id} did not fire on its bad fixture"
    assert len(fired) == CASES[rule_id][2], [f.render() for f in fired]
    for finding in fired:
        assert finding.line > 0 and finding.message


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_silent_on_clean_twin(rule_id):
    findings = _case(rule_id, "clean")
    assert not findings, [f.render() for f in findings]


def test_every_registered_rule_has_a_fixture_case():
    assert {rule.id for rule in all_rules()} == set(CASES)


def test_rule_catalog_metadata():
    rules = all_rules()
    assert [r.id for r in rules] == ["F1", "F3", "F5", "R1", "R3", "R4", "R7"]
    for rule in rules:
        assert rule.name and rule.description


def test_lookup_by_id_and_name_is_case_insensitive():
    assert get_rule("f3") is get_rule("Taint-Lane")
    assert get_rule("r4") is get_rule("RAW-ARTIFACT-WRITE")
    assert get_rule("F9") is None
    assert get_rule("no-such-rule") is None


def test_selecting_a_single_rule_limits_findings():
    bad = [(path, _read(name)) for path, name in CASES["F1"][0]]
    assert "F1" in _rules_fired(_findings(bad))
    assert "F1" not in _rules_fired(_findings(bad, rules=[get_rule("F3")]))


def test_out_of_scope_paths_do_not_fire_scoped_rules():
    # The same wall-clock offender outside repro.sim/repro.core is R1-clean.
    findings = _findings([("repro/experiments/fixture.py", _read("r1_bad.py"))])
    assert "R1" not in _rules_fired(findings)


def test_parse_error_is_reported_not_raised():
    findings = _findings([("repro/service/broken.py", "async def broken(:\n")])
    assert [f.rule for f in findings] == ["R0"]
    assert findings[0].name == "parse-error"
