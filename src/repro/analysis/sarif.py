"""SARIF 2.1.0 export for reprolint findings.

CI uploads the lint lane's results as a SARIF artifact so code-scanning
UIs can render them.  The emitter produces a minimal-but-valid document
(single run, one ``reportingDescriptor`` per rule that actually fired,
one ``result`` per finding).  Because the container has no jsonschema
package, :func:`validate_sarif` is a hand-written structural check of
the subset of the 2.1.0 schema we emit — the tests run every produced
document through it, and CI fails the lane if validation reports
problems.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.core import Finding, Severity

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "to_sarif", "validate_sarif", "write_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def to_sarif(
    findings: Sequence[Finding],
    *,
    rule_descriptions: Optional[Mapping[str, str]] = None,
) -> Dict[str, object]:
    """Render findings as a SARIF 2.1.0 document (a JSON-ready dict)."""
    descriptions = dict(rule_descriptions or {})
    rules: Dict[str, Dict[str, object]] = {}
    results: List[Dict[str, object]] = []
    for finding in findings:
        if finding.rule not in rules:
            descriptor: Dict[str, object] = {
                "id": finding.rule,
                "name": finding.name,
                "defaultConfiguration": {"level": _LEVELS[finding.severity]},
            }
            description = descriptions.get(finding.rule)
            if description:
                descriptor["shortDescription"] = {"text": description}
            rules[finding.rule] = descriptor
        results.append(
            {
                "ruleId": finding.rule,
                "level": _LEVELS[finding.severity],
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": finding.path},
                            "region": {
                                "startLine": max(1, finding.line),
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
                "fingerprints": {"reprolint/v1": finding.fingerprint},
            }
        )
    driver: Dict[str, object] = {
        "name": "reprolint",
        "rules": [rules[rule_id] for rule_id in sorted(rules, key=lambda r: (len(r), r))],
    }
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }


def write_sarif(
    path: str,
    findings: Sequence[Finding],
    *,
    rule_descriptions: Optional[Mapping[str, str]] = None,
) -> None:
    """Serialize findings to ``path``, validating the document first."""
    document = to_sarif(findings, rule_descriptions=rule_descriptions)
    problems = validate_sarif(document)
    if problems:  # pragma: no cover - emitter and validator move together
        raise ValueError("invalid SARIF produced: " + "; ".join(problems))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def validate_sarif(document: object) -> List[str]:
    """Structurally validate the SARIF subset this module emits.

    Returns a list of problem strings (empty when the document is
    valid).  Covers the required properties and types of the SARIF
    2.1.0 schema for ``sarifLog``, ``run``, ``tool``,
    ``reportingDescriptor``, ``result``, and ``physicalLocation``.
    """
    problems: List[str] = []

    def check(condition: bool, message: str) -> bool:
        if not condition:
            problems.append(message)
        return condition

    if not check(isinstance(document, dict), "document is not an object"):
        return problems
    assert isinstance(document, dict)
    check(document.get("version") == SARIF_VERSION, "version must be '2.1.0'")
    runs = document.get("runs")
    if not check(isinstance(runs, list) and len(runs) > 0, "runs must be a non-empty array"):
        return problems
    assert isinstance(runs, list)
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not check(isinstance(run, dict), f"{where} is not an object"):
            continue
        tool = run.get("tool")
        if check(isinstance(tool, dict), f"{where}.tool missing or not an object"):
            assert isinstance(tool, dict)
            driver = tool.get("driver")
            if check(
                isinstance(driver, dict), f"{where}.tool.driver missing or not an object"
            ):
                assert isinstance(driver, dict)
                check(
                    isinstance(driver.get("name"), str) and bool(driver.get("name")),
                    f"{where}.tool.driver.name must be a non-empty string",
                )
                rules = driver.get("rules", [])
                if check(isinstance(rules, list), f"{where}.tool.driver.rules not an array"):
                    assert isinstance(rules, list)
                    for j, rule in enumerate(rules):
                        rwhere = f"{where}.tool.driver.rules[{j}]"
                        if check(isinstance(rule, dict), f"{rwhere} is not an object"):
                            assert isinstance(rule, dict)
                            check(
                                isinstance(rule.get("id"), str) and bool(rule.get("id")),
                                f"{rwhere}.id must be a non-empty string",
                            )
        results = run.get("results", [])
        if not check(isinstance(results, list), f"{where}.results is not an array"):
            continue
        assert isinstance(results, list)
        for j, result in enumerate(results):
            problems.extend(_validate_result(result, f"{where}.results[{j}]"))
    return problems


def _validate_result(result: object, where: str) -> List[str]:
    problems: List[str] = []
    if not isinstance(result, dict):
        return [f"{where} is not an object"]
    message = result.get("message")
    if not (isinstance(message, dict) and isinstance(message.get("text"), str)):
        problems.append(f"{where}.message.text must be a string")
    level = result.get("level")
    if level is not None and level not in ("none", "note", "warning", "error"):
        problems.append(f"{where}.level must be one of none/note/warning/error")
    rule_id = result.get("ruleId")
    if rule_id is not None and not isinstance(rule_id, str):
        problems.append(f"{where}.ruleId must be a string")
    locations = result.get("locations", [])
    if not isinstance(locations, list):
        return problems + [f"{where}.locations is not an array"]
    for k, location in enumerate(locations):
        lwhere = f"{where}.locations[{k}]"
        if not isinstance(location, dict):
            problems.append(f"{lwhere} is not an object")
            continue
        physical = location.get("physicalLocation")
        if physical is None:
            continue
        if not isinstance(physical, dict):
            problems.append(f"{lwhere}.physicalLocation is not an object")
            continue
        artifact = physical.get("artifactLocation")
        if isinstance(artifact, dict):
            uri = artifact.get("uri")
            if uri is not None and not isinstance(uri, str):
                problems.append(f"{lwhere}...artifactLocation.uri must be a string")
        elif artifact is not None:
            problems.append(f"{lwhere}.physicalLocation.artifactLocation is not an object")
        region = physical.get("region")
        if isinstance(region, dict):
            for field in ("startLine", "startColumn", "endLine", "endColumn"):
                value = region.get(field)
                if value is not None and not (isinstance(value, int) and value >= 1):
                    problems.append(f"{lwhere}...region.{field} must be an integer >= 1")
        elif region is not None:
            problems.append(f"{lwhere}.physicalLocation.region is not an object")
    return problems
