"""SARIF 2.1.0 emission: structure, validation, and file round-trip."""

from __future__ import annotations

import json

import pytest

from repro.analysis.core import Finding, Severity
from repro.analysis.sarif import (
    SARIF_VERSION,
    to_sarif,
    validate_sarif,
    write_sarif,
)

pytestmark = pytest.mark.analysis


def _finding(rule="F1", name="loop-blocking", line=7, col=4, severity=Severity.ERROR):
    return Finding(
        path="src/repro/service/server.py",
        line=line,
        col=col,
        rule=rule,
        name=name,
        severity=severity,
        message=f"{name} offender",
    )


SAMPLE = [
    _finding(),
    _finding(rule="F3", name="taint-lane", line=12, col=0),
    _finding(rule="F1", line=30),
    _finding(rule="R4", name="raw-artifact-write", severity=Severity.WARNING),
]


def test_emitted_document_is_schema_valid():
    document = to_sarif(SAMPLE)
    assert validate_sarif(document) == []
    assert validate_sarif(to_sarif([])) == []


def test_document_shape_and_rule_dedup():
    document = to_sarif(
        SAMPLE, rule_descriptions={"F1": "blocking I/O on the event loop"}
    )
    assert document["version"] == SARIF_VERSION
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "reprolint"
    # One descriptor per distinct rule that fired, sorted by id.
    assert [r["id"] for r in driver["rules"]] == ["F1", "F3", "R4"]
    assert driver["rules"][0]["shortDescription"] == {
        "text": "blocking I/O on the event loop"
    }
    assert "shortDescription" not in driver["rules"][1]
    assert len(run["results"]) == len(SAMPLE)


def test_result_carries_location_level_and_fingerprint():
    document = to_sarif([_finding()])
    (result,) = document["runs"][0]["results"]
    assert result["ruleId"] == "F1"
    assert result["level"] == "error"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region == {"startLine": 7, "startColumn": 5}  # col is 1-based
    uri = result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
    assert uri == "src/repro/service/server.py"
    assert result["fingerprints"]["reprolint/v1"] == _finding().fingerprint


def test_warning_severity_maps_to_warning_level():
    document = to_sarif([_finding(severity=Severity.WARNING)])
    assert document["runs"][0]["results"][0]["level"] == "warning"


def test_write_sarif_round_trips(tmp_path):
    path = tmp_path / "lint.sarif"
    write_sarif(str(path), SAMPLE)
    document = json.loads(path.read_text())
    assert validate_sarif(document) == []
    assert document["runs"][0]["tool"]["driver"]["name"] == "reprolint"


@pytest.mark.parametrize(
    "mutate, expected_fragment",
    [
        (lambda d: d.update(version="9.9"), "version"),
        (lambda d: d.update(runs=[]), "runs"),
        (lambda d: d["runs"][0]["tool"]["driver"].pop("name"), "driver.name"),
        (
            lambda d: d["runs"][0]["results"][0].pop("message"),
            "message.text",
        ),
        (
            lambda d: d["runs"][0]["results"][0].update(level="fatal"),
            "level",
        ),
        (
            lambda d: d["runs"][0]["results"][0]["locations"][0][
                "physicalLocation"
            ]["region"].update(startLine=0),
            "startLine",
        ),
    ],
)
def test_validator_rejects_tampered_documents(mutate, expected_fragment):
    document = to_sarif(SAMPLE)
    mutate(document)
    problems = validate_sarif(document)
    assert problems, f"tampering with {expected_fragment} went undetected"
    assert any(expected_fragment in p for p in problems)


def test_validator_rejects_non_object_documents():
    assert validate_sarif(None)
    assert validate_sarif([1, 2, 3])
