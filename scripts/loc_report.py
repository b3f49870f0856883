"""Source and test line counts per ``repro.*`` package.

Usage::

    python scripts/loc_report.py [--files PACKAGE] [--root CHECKOUT]
        [--append-history BENCH_history.jsonl]

One row per top-level package of ``src/repro`` (single modules such as
``checkpoint.py`` are grouped under ``(top level)``): physical lines of
its ``*.py`` files under ``src/repro/<package>`` and under
``tests/<package>``.  ``--files core`` lists that package's files
instead, which is how a PR shows *where* its lines went, and ``--root``
counts another checkout (the parent commit's, for the "before" column).
``--append-history PATH`` also appends the table as one JSON line,
``{"kind": "loc", "commit": ..., "src": {...}, "tests": {...}}``, so
design weight has a trajectory next to the benchmark runs; nothing reads
the file but people.  Stdlib only; counts are of the working tree,
committed or not (``commit`` then ends in ``-dirty``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TOP_LEVEL = "(top level)"


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def python_files(root: str) -> Dict[str, int]:
    """``{path relative to root: lines}`` for every ``*.py`` below ``root``."""
    found: Dict[str, int] = {}
    for directory, subdirs, names in os.walk(root):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                found[os.path.relpath(path, root)] = count_lines(path)
    return found


def by_package(files: Dict[str, int]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for path, lines in files.items():
        head, _, rest = path.partition(os.sep)
        package = head if rest else _TOP_LEVEL
        totals[package] = totals.get(package, 0) + lines
    return totals


def report(repo_root: str = _REPO_ROOT) -> Dict[str, Dict[str, int]]:
    """``{package: {"src": lines, "tests": lines}}`` plus a ``total`` row."""
    src = by_package(python_files(os.path.join(repo_root, "src", "repro")))
    tests = by_package(python_files(os.path.join(repo_root, "tests")))
    rows = {
        package: {"src": src.get(package, 0), "tests": tests.get(package, 0)}
        for package in sorted(set(src) | set(tests))
    }
    rows["total"] = {
        "src": sum(src.values()),
        "tests": sum(tests.values()),
    }
    return rows


def _git(repo_root: str, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], capture_output=True, text=True, cwd=repo_root, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _git_commit(repo_root: str) -> Optional[str]:
    """HEAD of ``repo_root``, ``-dirty`` when src/ or tests/ differ from it."""
    head = _git(repo_root, "rev-parse", "HEAD")
    if not head:
        return None
    dirty = _git(repo_root, "status", "--porcelain", "--", "src", "tests")
    return head + ("-dirty" if dirty else "")


def append_history(path: str, repo_root: str, rows: Dict[str, Dict[str, int]]) -> None:
    line = {
        "kind": "loc",
        "commit": _git_commit(repo_root),
        "src": {package: counts["src"] for package, counts in rows.items()},
        "tests": {package: counts["tests"] for package, counts in rows.items()},
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, separators=(",", ":")) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", metavar="PACKAGE", help="list one package's files")
    parser.add_argument("--root", default=_REPO_ROOT, help="checkout to count (default: this one)")
    parser.add_argument(
        "--append-history", metavar="PATH", help="also append the table as one JSON line"
    )
    args = parser.parse_args(argv)

    if args.files:
        listed = {}
        for root in (os.path.join("src", "repro"), "tests"):
            base = os.path.join(args.root, root, args.files)
            for path, lines in python_files(base).items():
                listed[os.path.join(root, args.files, path)] = lines
        if not listed:
            print(f"no python files under package {args.files!r}", file=sys.stderr)
            return 1
        listed["total"] = sum(listed.values())
        width = max(len(path) for path in listed)
        for path, lines in listed.items():
            print(f"{path:<{width}}  {lines:>7}")
        return 0

    rows = report(args.root)
    if args.append_history:
        append_history(args.append_history, args.root, rows)
    width = max(len(package) for package in rows)
    print(f"{'package':<{width}}  {'src':>7}  {'tests':>7}")
    for package, counts in rows.items():
        print(f"{package:<{width}}  {counts['src']:>7}  {counts['tests']:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
