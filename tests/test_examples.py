"""The examples run and the documented imports resolve.

Each ``examples/*.py`` runs in a fresh interpreter with only ``src`` on
the path, and must exit 0 with nothing on stderr.  Every
``from repro… import …`` line of README.md and docs/API.md must run, so
the pages cannot point at deleted code.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ROOT = os.path.dirname(SRC)
EXAMPLES = sorted(
    name for name in os.listdir(os.path.join(ROOT, "examples")) if name.endswith(".py")
)
PAGES = ("README.md", os.path.join("docs", "API.md"))
REPRO_IMPORT = re.compile(r"^[ \t]*(from repro[\w.]* import (?:\([^)]*\)|.*))$", re.M)


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs_cleanly(example, tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", example)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


@pytest.mark.parametrize("page", PAGES)
def test_documented_imports_resolve(page):
    with open(os.path.join(ROOT, page), encoding="utf-8") as handle:
        statements = REPRO_IMPORT.findall(handle.read())
    assert statements, f"{page} shows no repro imports"
    for statement in statements:
        try:
            exec(statement, {})
        except ImportError as missing:
            raise AssertionError(f"{page}: {statement!r}: {missing}") from None
