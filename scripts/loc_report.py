"""Source and test line counts per ``repro.*`` package.

Usage::

    python scripts/loc_report.py [--files PACKAGE] [--root CHECKOUT]

One row per top-level package of ``src/repro`` (single modules such as
``checkpoint.py`` are grouped under ``(top level)``): physical lines of
its ``*.py`` files under ``src/repro/<package>`` and under
``tests/<package>``.  ``--files core`` lists that package's files
instead, which is how a PR shows *where* its lines went, and ``--root``
counts another checkout (the parent commit's, for the "before" column).
Stdlib only; counts are of the working tree, committed or not.
"""

from __future__ import annotations

import argparse
import os
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", metavar="PACKAGE", help="list one package's files")
    parser.add_argument("--root", default=_REPO_ROOT, help="checkout to count (default: this one)")
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
    width = max(len(package) for package in rows)
    print(f"{'package':<{width}}  {'src':>7}  {'tests':>7}")
    for package, counts in rows.items():
        print(f"{package:<{width}}  {counts['src']:>7}  {counts['tests']:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
