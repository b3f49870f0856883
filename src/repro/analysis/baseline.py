"""Committed-baseline support: adopt legacy findings, gate new ones.

A baseline file freezes the findings that existed when a rule was
introduced so the lint lane can fail on *new* violations immediately
while the backlog is burned down.  The workflow:

1. ``python -m repro.analysis src --write-baseline`` records today's
   findings into ``reprolint-baseline.json``.
2. CI and tier-1 run ``python -m repro.analysis src`` — any finding not
   in the baseline fails the build.
3. Fix commits shrink the baseline (stale entries are reported so the
   file never rots); the goal state, enforced by the acceptance tests,
   is an **empty** baseline.

Entries match on ``(path, rule, line)``.  The file is written
atomically (tmp + fsync + rename) for the same reason the checkpoint
layer does it: a torn baseline must never gate a merge.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence

from repro.analysis.core import Finding

__all__ = [
    "Baseline",
    "BaselineDiff",
    "DEFAULT_BASELINE_NAME",
    "diff_against_baseline",
    "load_baseline",
    "write_baseline",
]

DEFAULT_BASELINE_NAME = "reprolint-baseline.json"

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Baseline:
    """Previously-adopted findings, keyed by fingerprint."""

    fingerprints: FrozenSet[str]
    entries: Sequence[Dict[str, object]]

    @classmethod
    def empty(cls) -> "Baseline":
        return cls(fingerprints=frozenset(), entries=())


@dataclass(frozen=True)
class BaselineDiff:
    """Current findings split against a baseline."""

    new: List[Finding]
    adopted: List[Finding]
    stale: List[str]


def load_baseline(path: str) -> Baseline:
    """Read a baseline file; a missing file is an empty baseline.

    Anything else that is not a baseline — empty, not JSON, another
    version, malformed entries — raises ``ValueError`` naming the file.
    """
    if not os.path.exists(path):
        return Baseline.empty()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict) or doc.get("version") != _FORMAT_VERSION:
            raise ValueError(f"expected version {_FORMAT_VERSION}")
        entries = doc.get("findings", [])
        fingerprints = frozenset(
            f"{entry['path']}:{entry['rule']}:{entry['line']}" for entry in entries
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a reprolint baseline ({exc})") from None
    return Baseline(fingerprints=fingerprints, entries=tuple(entries))


def write_baseline(path: str, findings: Sequence[Finding]) -> None:
    """Atomically persist ``findings`` as the new baseline."""
    doc = {
        "version": _FORMAT_VERSION,
        "tool": "reprolint",
        "findings": [
            {
                "path": f.path,
                "rule": f.rule,
                "line": f.line,
                "message": f.message,
            }
            for f in sorted(findings, key=Finding.sort_key)
        ],
    }
    _write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def diff_against_baseline(findings: Sequence[Finding], baseline: Baseline) -> BaselineDiff:
    """Split findings into new vs adopted; report baseline entries gone stale."""
    new: List[Finding] = []
    adopted: List[Finding] = []
    seen: set = set()
    for finding in sorted(findings, key=Finding.sort_key):
        seen.add(finding.fingerprint)
        (adopted if finding.fingerprint in baseline.fingerprints else new).append(finding)
    stale = sorted(fp for fp in baseline.fingerprints if fp not in seen)
    return BaselineDiff(new=new, adopted=adopted, stale=stale)


def _write_text_atomic(path: str, text: str) -> None:
    """Minimal tmp+fsync+rename writer (keeps the analysis package stdlib-only)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(prefix=".reprolint-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
